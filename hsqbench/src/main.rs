//! The repository's benchmark: three closed-loop workloads driven through
//! the public `hsq` API from one client thread.
//!
//! ```text
//! cargo run --release --manifest-path hsqbench/Cargo.toml -- \
//!     --workload <ingest_archive|dashboard_query|served_fleet> \
//!     --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones: a traced run alternates untraced epochs with epochs whose calls
//! into each layer are timed from this crate (a `BlockDevice` wrapper, a
//! `Connector` wrapper and spans around the public calls), so it also
//! measures the tracing overhead. Human-readable detail goes to stderr;
//! the last line of stdout is one JSON object: `{"correct", "attempted",
//! "failed", "metrics"}`. Every answer is checked against an exact oracle;
//! any failure exits non-zero. Inputs come from `--seed` and are generated
//! before timing; runs refuse to start under any `HSQ_*` variable.
//!
//! `BENCHMARK.json` runs this with `MALLOC_ARENA_MAX=1`: `served_fleet`
//! starts fresh server threads every epoch, and glibc's per-thread arenas
//! would otherwise make its peak RSS depend on thread scheduling.
//!
//! The process pins itself to one CPU before any thread starts. The
//! in-process workloads are single-threaded anyway; `served_fleet`'s two
//! servers and its client then take turns on that CPU, so a query costs
//! the CPU work of all three plus local context switches. Left to two
//! vCPUs of a shared host, every probe round waited on cross-CPU wake-ups
//! and the fleet's tails measured the hypervisor's scheduling instead
//! (5 seeds interleaved on a 2-vCPU VM: `query_p99_us` 0.5-9.8 ms
//! unpinned, 0.41-0.43 ms pinned).
//!
//! Every workload uses ε = 0.01, κ = 10 and 4096-byte blocks, one client
//! thread, and at most two connections. A run is a sequence of epochs of
//! fixed work, repeated until `--seconds` have passed (see `stats` for how
//! the figures are drawn from them).

mod dashboard;
mod ingest;
mod layers;
mod oracle;
mod served;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use hsq::core::HsqConfig;

use oracle::Verdict;
use stats::Samples;

/// Block size of every device.
pub const BLOCK: usize = 4096;
/// Error parameter ε of every config.
pub const EPSILON: f64 = 0.01;
/// Merge threshold κ of every config.
pub const KAPPA: usize = 10;
/// Fewest set-ups per run; `setup_s` is the median over a run's set-ups.
pub const SETUPS: usize = 3;

/// Seed of input variant `v` of a run seeded `seed`. Epochs cycle through
/// the variants, so a run's medians pool many data sets rather than
/// replaying one.
pub fn variant_seed(seed: u64, v: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(v as u64)
}

/// The windowed reads' window: the smallest aligned window of at least two
/// archived steps, if one spans at most κ+2 steps (a level-1 partition and
/// the newest step).
pub fn pick_window(windows: impl IntoIterator<Item = u64>) -> Option<u64> {
    windows
        .into_iter()
        .find(|&w| w >= 2)
        .filter(|&w| w <= KAPPA as u64 + 2)
}

/// The fixed φ sweep the read workloads cycle through: 0.01, 0.02, ...,
/// 0.99. Its length is coprime with the every-4th-query windowing, so
/// windowed and full-union queries both visit every φ.
pub fn sweep_phi(i: usize) -> f64 {
    (i % 99 + 1) as f64 / 100.0
}

/// The single configuration all workloads use: ε = 0.01, κ = 10 and
/// otherwise the defaults (GK sketch, `io_depth` 0, serial queries).
pub fn config() -> HsqConfig {
    HsqConfig::builder()
        .epsilon(EPSILON)
        .merge_threshold(KAPPA)
        .build()
}

/// Command-line options.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Smoke-test scale: every workload shrunk to a fraction of a second.
    pub tiny: bool,
    /// Directory for device files and span dumps.
    pub out_dir: PathBuf,
}

impl Opts {
    /// Whether a run that has finished `epochs` epochs keeps going. A
    /// traced run alternates untraced and traced epochs, so it needs two.
    pub fn more(&self, epochs: usize, start: Instant) -> bool {
        epochs < if self.trace { 2 } else { 1 }
            || start.elapsed() < Duration::from_secs_f64(self.seconds)
    }
}

/// End-to-end measurements shared by every workload.
#[derive(Default)]
pub struct E2e {
    pub setup: Vec<f64>,
    pub step: Samples,
    pub query: Samples,
    pub window: Samples,
    pub session: Samples,
    /// Items ingested and time spent ingesting them, this epoch.
    ingest_items: u64,
    ingest_secs: f64,
    /// Wall time of this epoch's closed loop (set-up and checks excluded).
    pub loop_secs: f64,
    /// Per epoch: ingest rate and query rate.
    ingest_rates: Vec<f64>,
    query_rates: Vec<f64>,
    pub verdict: Verdict,
    pub attempted: u64,
    pub failed: u64,
    /// Per epoch: `memory_words()` at its end, and device bytes over
    /// user bytes.
    pub memory_words: Vec<f64>,
    pub space_amp: Vec<f64>,
    /// Resident set size when the inputs and oracle were ready, in MB.
    rss_base: f64,
    /// The resident set's peak growth over that, at the first epoch's end.
    peak_rss: Option<f64>,
}

impl E2e {
    pub fn ingest(&mut self, items: usize, d: Duration) {
        self.ingest_items += items as u64;
        self.ingest_secs += d.as_secs_f64();
    }

    /// Close an epoch: record its rates and mark its samples. The first
    /// epoch's end also fixes `peak_rss_mb`: its set-up and work are a
    /// function of the seed alone, while later epochs' peaks drift with
    /// heap fragmentation and run length.
    pub fn end_epoch(&mut self) {
        if self.peak_rss.is_none() {
            self.peak_rss = proc_status_mb("VmHWM:").ok().map(|p| p - self.rss_base);
        }
        if self.ingest_secs > 0.0 {
            self.ingest_rates
                .push(self.ingest_items as f64 / self.ingest_secs);
        }
        if self.loop_secs > 0.0 {
            let ops = self.query.since_mark() + self.window.since_mark();
            self.query_rates.push(ops as f64 / self.loop_secs);
        }
        (self.ingest_items, self.ingest_secs, self.loop_secs) = (0, 0.0, 0.0);
        for s in [
            &mut self.step,
            &mut self.query,
            &mut self.window,
            &mut self.session,
        ] {
            s.mark();
        }
    }

    /// Call once the workload's inputs and oracle pieces exist, before its
    /// first set-up: `peak_rss_mb` then counts only what the program adds
    /// on top of them. Resets the kernel's peak (`VmHWM`) to the current
    /// resident set.
    pub fn rss_baseline(&mut self) -> io::Result<()> {
        std::fs::write("/proc/self/clear_refs", "5")?;
        self.rss_base = proc_status_mb("VmRSS:")?;
        Ok(())
    }

    /// Count one attempted operation; an `Err` counts as failed and is
    /// reported on stderr.
    pub fn attempt<R>(&mut self, what: &str, r: io::Result<R>) -> Option<R> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("hsqbench: {what} failed: {e}");
                None
            }
        }
    }

    /// Count an operation whose result was checked by the benchmark.
    pub fn expect(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("hsqbench: check failed: {what}");
        }
    }

    fn metrics(&self) -> Vec<Metric> {
        vec![
            Metric::new("setup_s", stats::median(&self.setup), "s"),
            Metric::new(
                "ingest_elems_per_s",
                stats::median(&self.ingest_rates),
                "elems/s",
            ),
            Metric::new("step_p50_ms", self.step.trial_pct(50.0) * 1e3, "ms"),
            Metric::new("step_p95_ms", self.step.trial_pct(95.0) * 1e3, "ms"),
            Metric::new("query_p50_us", self.query.trial_pct(50.0) * 1e6, "us"),
            Metric::new("query_p99_us", self.query.trial_pct(99.0) * 1e6, "us"),
            Metric::new(
                "window_query_p50_us",
                self.window.trial_pct(50.0) * 1e6,
                "us",
            ),
            Metric::new(
                "window_query_p99_us",
                self.window.trial_pct(99.0) * 1e6,
                "us",
            ),
            Metric::new("queries_per_s", stats::median(&self.query_rates), "1/s"),
            Metric::new(
                "session_open_p50_ms",
                self.session.trial_pct(50.0) * 1e3,
                "ms",
            ),
            Metric::new("rank_err_max_eps_m", self.verdict.worst_err_eps_m, "ratio"),
            Metric::new("memory_words", stats::median(&self.memory_words), "words"),
            Metric::new("space_amp", stats::median(&self.space_amp), "ratio"),
            Metric::new("peak_rss_mb", self.peak_rss.unwrap_or(0.0), "MB"),
        ]
    }

    /// Sample counts behind each timing, with the percentile the
    /// "at least ten samples beyond it" rule supports.
    fn sample_notes(&self) -> Vec<String> {
        let note = |name: &str, s: &Samples, p: f64| {
            format!(
                "{name}: n={} samples in {} trials for p{p}, >= {} beyond it per trial ({})",
                s.len(),
                s.trial_count(p),
                s.rank_beyond(p),
                if s.rank_beyond(p) >= 10 {
                    "supported"
                } else {
                    "NOT supported at this run length"
                }
            )
        };
        vec![
            format!(
                "setup: n={}; rates over {} epochs",
                self.setup.len(),
                self.query_rates.len()
            ),
            note("step", &self.step, 95.0),
            note("query", &self.query, 99.0),
            note("window_query", &self.window, 99.0),
            note("session_open", &self.session, 50.0),
        ]
    }
}

/// One named metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// Per-layer metrics (layer = module), all emitted on every workload; a
/// layer the workload never calls reads 0. The third field names the
/// end-to-end metric each should move, and on which workload.
pub const LAYER_METRICS: &[(&str, &str, &str)] = &[
    (
        "engine.stream_extend_us",
        "us",
        "ingest_elems_per_s @ ingest_archive",
    ),
    (
        "engine.end_time_step_ms",
        "ms",
        "step_p50_ms @ ingest_archive",
    ),
    // Phase times from the returned `UpdateReport`, per step. `sort`
    // includes the staging sorts done inside the step's `stream_extend`
    // calls, which the engine folds into the next report.
    ("warehouse.sort_ms", "ms", "step_p50_ms @ ingest_archive"),
    ("warehouse.load_ms", "ms", "step_p50_ms @ ingest_archive"),
    ("warehouse.summary_ms", "ms", "step_p50_ms @ ingest_archive"),
    ("warehouse.merge_ms", "ms", "step_p95_ms @ ingest_archive"),
    ("warehouse.merges", "1/step", "step_p95_ms @ ingest_archive"),
    (
        "warehouse.partitions",
        "count",
        "query_p50_us @ dashboard_query",
    ),
    ("manifest.append_ms", "ms", "step_p50_ms @ ingest_archive"),
    (
        "manifest.syncs_per_step",
        "1/step",
        "step_p50_ms @ ingest_archive",
    ),
    (
        "manifest.compactions",
        "1/step",
        "step_p50_ms @ ingest_archive",
    ),
    // Counted and timed by the benchmark's `BlockDevice` wrapper.
    (
        "storage.blocks_written_per_step",
        "blocks",
        "step_p95_ms @ ingest_archive",
    ),
    (
        "storage.write_amp",
        "ratio",
        "ingest_elems_per_s @ ingest_archive",
    ),
    (
        "storage.write_ms_per_step",
        "ms",
        "step_p95_ms @ ingest_archive",
    ),
    (
        "storage.sync_ms_per_step",
        "ms",
        "step_p50_ms @ ingest_archive",
    ),
    (
        "storage.blocks_read_per_query",
        "blocks",
        "query_p99_us @ dashboard_query",
    ),
    (
        "storage.seq_read_frac",
        "frac",
        "window_query_p50_us @ dashboard_query",
    ),
    (
        "storage.read_us_per_query",
        "us",
        "query_p99_us @ dashboard_query",
    ),
    // Measured over the paper's §2.4 cost model (`costmodel`).
    (
        "storage.read_model_ratio",
        "ratio",
        "query_p50_us @ dashboard_query",
    ),
    (
        "storage.write_model_ratio",
        "ratio",
        "step_p95_ms @ ingest_archive",
    ),
    ("stream.extract_us", "us", "query_p50_us @ dashboard_query"),
    (
        "stream.summary_entries",
        "count",
        "query_p50_us @ dashboard_query",
    ),
    ("query.combine_us", "us", "query_p50_us @ dashboard_query"),
    ("query.bisect_us", "us", "query_p50_us @ dashboard_query"),
    (
        "query.bisect_cpu_us",
        "us",
        "query_p50_us @ dashboard_query",
    ),
    (
        "query.bisection_steps",
        "count",
        "query_p50_us @ dashboard_query",
    ),
    // Counted and timed by the benchmark's `Connector` wrapper.
    (
        "service.probe_rounds",
        "count",
        "query_p50_us @ served_fleet",
    ),
    (
        "service.round_trips_per_query",
        "count",
        "query_p50_us @ served_fleet",
    ),
    ("service.rtt_us", "us", "query_p50_us @ served_fleet"),
    (
        "service.bytes_per_query",
        "bytes",
        "query_p50_us @ served_fleet",
    ),
    ("service.coord_cpu_us", "us", "query_p50_us @ served_fleet"),
    (
        "service.session_bytes",
        "bytes",
        "session_open_p50_ms @ served_fleet",
    ),
    (
        "service.ingest_bytes_per_item",
        "bytes",
        "ingest_elems_per_s @ served_fleet",
    ),
    // Traced vs untraced median of the workload's headline operation, the
    // share of traced time no leaf span covers, and the sum-check gap.
    ("trace.overhead_frac", "frac", "none (tracing cost)"),
    ("trace.unaccounted_frac", "frac", "none (coverage)"),
    ("trace.sum_gap_frac", "frac", "none (coverage)"),
];

/// Tolerance of the sum check: traced layer spans must add back to the
/// untraced end-to-end median within this share.
pub const SUM_TOLERANCE: f64 = 0.10;

/// Per-layer values a workload measured; unset names read 0.
pub type Layers = BTreeMap<&'static str, f64>;

/// The overhead and sum-check entries shared by the workloads: traced vs
/// untraced median of the headline operation, the share of traced time
/// not covered by leaf spans (`cover` holds per-operation root and leaf
/// sums), and the gap between the median leaf sum and the untraced
/// median. Returns the sum-check verdict for the report.
pub fn trace_checks(
    lay: &mut Layers,
    headline: &str,
    untraced: &Samples,
    traced: &Samples,
    cover: &[(f64, f64)],
) -> String {
    let base = untraced.pct(50.0);
    lay.insert("trace.overhead_frac", traced.pct(50.0) / base - 1.0);
    let (root, leaves) = cover
        .iter()
        .fold((0.0, 0.0), |(a, b), c| (a + c.0, b + c.1));
    lay.insert("trace.unaccounted_frac", 1.0 - leaves / root);
    let leaf_p50 = stats::median(&cover.iter().map(|c| c.1).collect::<Vec<_>>());
    let gap = (leaf_p50 - base).abs() / base;
    lay.insert("trace.sum_gap_frac", gap);
    format!(
        "sum check on {headline}: median leaf-span sum {:.1} us vs untraced p50 {:.1} us, gap {gap:.4} ({} tolerance {SUM_TOLERANCE})",
        leaf_p50 * 1e6,
        base * 1e6,
        if gap <= SUM_TOLERANCE { "within" } else { "OUTSIDE" }
    )
}

/// What one run produced.
pub struct Outcome {
    pub e2e: E2e,
    pub layers: Layers,
    pub notes: Vec<String>,
}

/// A size field of `/proc/self/status` (`VmRSS:`, `VmHWM:`), in MB.
fn proc_status_mb(field: &str) -> io::Result<f64> {
    std::fs::read_to_string("/proc/self/status")?
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other(format!("no {field} in /proc/self/status")))
}

fn parse_args() -> Result<Opts, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut tiny = false;
    while let Some(a) = args.next() {
        let mut val = || args.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => workload = Some(val()?),
            "--seed" => seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--tiny" => tiny = true,
            _ => return Err(format!("unknown argument {a}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range (0, 600]"));
    }
    Ok(Opts {
        workload,
        seed,
        seconds,
        trace,
        tiny,
        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
    })
}

/// `HSQ_*` variables silently change the program (sketch kind, worker
/// count, I/O reordering, fleet topology); a run under any of them would
/// not measure the configuration this benchmark names.
fn hermetic_check() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("HSQ_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!("refusing to run with {} set", set.join(", ")))
    }
}

/// Pin the calling thread, and so every thread it starts later, to the
/// lowest CPU it may run on. Returns that CPU.
fn pin_to_one_cpu() -> io::Result<usize> {
    // glibc's wrappers; both return 0 on success.
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `size` bytes; pid 0 is the
    // calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    let cpu = (0..size * 8)
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .ok_or_else(|| io::Error::other("empty CPU affinity mask"))?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of `size` bytes.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(cpu)
}

/// `nproc`, rustc version and commit, recorded with each result. The
/// commit is read from the checkout's `.git` when there is one.
fn environment(nproc: usize, cpu: usize) -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let git = root.join(".git");
    let read = |p: PathBuf| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let commit = read(git.join("HEAD"))
        .and_then(|head| match head.strip_prefix("ref: ") {
            Some(r) => read(git.join(r)),
            None => Some(head),
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "nproc={nproc} pinned_cpu={cpu} rustc=\"{}\" commit={commit}",
        env!("HSQBENCH_RUSTC")
    )
}

fn json_line(correct: bool, e: &E2e, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        e.attempted.max(1),
        e.failed,
        body.join(", ")
    )
}

/// A finite JSON number with all its digits.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

fn run(o: &Opts) -> Result<Outcome, String> {
    std::fs::create_dir_all(&o.out_dir).map_err(|e| format!("{}: {e}", o.out_dir.display()))?;
    let r = match o.workload.as_str() {
        "ingest_archive" => ingest::run(o),
        "dashboard_query" => dashboard::run(o),
        "served_fleet" => served::run(o),
        w => return Err(format!("unknown workload {w}")),
    };
    r.map_err(|e| format!("{}: {e}", o.workload))
}

fn main() -> ExitCode {
    let opts = match hermetic_check().and_then(|()| parse_args()) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("hsqbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Counted before pinning: afterwards the process sees one CPU.
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = match pin_to_one_cpu() {
        Ok(cpu) => cpu,
        Err(e) => {
            eprintln!("hsqbench: cannot pin to one CPU: {e}");
            return ExitCode::FAILURE;
        }
    };
    let start = Instant::now();
    let out = match run(&opts) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("hsqbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let e = &out.e2e;
    let metrics: Vec<Metric> = if opts.trace {
        LAYER_METRICS
            .iter()
            .map(|&(name, unit, _)| {
                Metric::new(name, out.layers.get(name).copied().unwrap_or(0.0), unit)
            })
            .collect()
    } else {
        e.metrics()
    };
    let correct = e.failed == 0 && e.verdict.violations == 0 && e.verdict.checked > 0;
    eprintln!(
        "hsqbench: workload={} seed={} seconds={} trace={} {} wall={:.2}s",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        environment(nproc, cpu),
        start.elapsed().as_secs_f64()
    );
    eprintln!(
        "hsqbench: attempted={} failed={} oracle: checked={} violations={} failed_ops_frac={:.6}",
        e.attempted,
        e.failed,
        e.verdict.checked,
        e.verdict.violations,
        e.failed as f64 / e.attempted.max(1) as f64
    );
    for n in e.sample_notes().iter().chain(&out.notes) {
        eprintln!("hsqbench:   {n}");
    }
    for m in &metrics {
        let moves = LAYER_METRICS
            .iter()
            .find(|l| l.0 == m.name)
            .map_or("", |l| l.2);
        eprintln!(
            "hsqbench:   {:<34} {:>16.4} {:<8} {moves}",
            m.name, m.value, m.unit
        );
    }
    println!("{}", json_line(correct, e, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
