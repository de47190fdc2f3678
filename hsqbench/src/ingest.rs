//! `ingest_archive`: the write path on a real file device.
//!
//! One engine on a `FileDevice` per epoch. Each of the epoch's steps feeds
//! NetTrace items through `stream_extend` in 4096-item batches, reads
//! `quantiles(&[0.5, 0.99])` plus two windowed rank queries while the step
//! is still live (so the stream side is non-empty), then archives with
//! `end_time_step` and one `ManifestLog::append`, compacting when the log
//! asks. An epoch runs past the first level-2 cascade ((κ+1)² = 121
//! steps) and ends by recovering the engine from the log: the recovered
//! engine must answer identically. Epochs cycle through a few input
//! variants of identical shape, generated before timing. Each untraced
//! epoch's opening of its device, engine and log is one set-up sample.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hsq::core::manifest::ManifestLog;
use hsq::core::HistStreamQuantiles;
use hsq::storage::{BlockDevice, FileDevice};
use hsq::workload::{DataGen, NetTraceGen};

use crate::layers::{traced_query, QueryAcc, StepAcc};
use crate::oracle::{self, Answer};
use crate::stats::Samples;
use crate::trace::{DevTap, Ledger, TracedDevice};
use crate::{config, E2e, Layers, Opts, Outcome, BLOCK, EPSILON};

const BATCH: usize = 4096;
/// φ of the light full-union read.
const PHIS: [f64; 2] = [0.5, 0.99];
/// φ of the light windowed reads, one read each.
const WINDOW_PHIS: [f64; 2] = [0.5, 0.99];
/// φ sweep the recovered engine must answer identically.
const RECOVERY_PHIS: [f64; 5] = [0.01, 0.25, 0.5, 0.75, 0.99];

struct Inputs {
    /// Per step: its batches, in arrival order.
    steps: Vec<Vec<Vec<u64>>>,
    /// Per step: its items sorted (the oracle's pieces).
    sorted: Vec<Vec<u64>>,
}

impl Inputs {
    fn generate(seed: u64, steps: usize, batches: usize) -> Inputs {
        let mut gen = NetTraceGen::new(seed);
        let steps: Vec<Vec<Vec<u64>>> = (0..steps)
            .map(|_| (0..batches).map(|_| gen.take_vec(BATCH)).collect())
            .collect();
        let sorted = steps.iter().map(|b| oracle::sorted(&b.concat())).collect();
        Inputs { steps, sorted }
    }

    fn items(&self) -> u64 {
        self.sorted.iter().map(|s| s.len() as u64).sum()
    }
}

/// A read to check after the epoch: taken during step `step` (0-based),
/// over the whole union or the newest `window` archived steps.
struct Read {
    step: usize,
    window: Option<usize>,
    answer: Answer,
}

/// Per-layer accumulators of the traced epochs.
#[derive(Default)]
struct Acc {
    extend: Samples,
    append: Samples,
    manifest_syncs: u64,
    compactions: u64,
    step_traced: Samples,
    steps: StepAcc,
    queries: QueryAcc,
}

pub fn run(o: &Opts) -> io::Result<Outcome> {
    let (steps, batches, variants) = if o.tiny { (14, 1, 2) } else { (128, 1, 4) };
    let inputs: Vec<Inputs> = (0..variants)
        .map(|v| Inputs::generate(crate::variant_seed(o.seed, v), steps, batches))
        .collect();
    let mut e = E2e::default();
    e.rss_baseline()?;
    let mut acc = Acc::default();
    let mut ledger = Ledger::default();
    let start = Instant::now();
    let mut epochs = 0;
    while o.more(epochs, start) {
        let traced = o.trace && epochs % 2 == 1;
        let inp = &inputs[(epochs / if o.trace { 2 } else { 1 }) % variants];
        let dir = TempDir::new(o, &epochs.to_string());
        let t = Instant::now();
        let raw = FileDevice::new(&dir.0, BLOCK)?;
        let opened = t.elapsed();
        let r = if traced {
            let dev = TracedDevice::new(Arc::clone(&raw));
            let tap = Some((dev.tap(), &mut acc, &mut ledger));
            epoch(Arc::clone(&dev), opened, tap, inp, &mut e)
        } else {
            epoch(Arc::clone(&raw), opened, None, inp, &mut e)
        };
        let device_bytes = dir_bytes(&dir.0);
        drop((raw, dir));
        let reads = r?;
        e.space_amp
            .push(device_bytes as f64 / (inp.items() * 8) as f64);
        for read in reads {
            let pieces = match read.window {
                None => &inp.sorted[..=read.step],
                Some(w) => &inp.sorted[read.step - w..=read.step],
            };
            let counts = oracle::counts_in(pieces.iter().map(|v| v.as_slice()), read.answer.value);
            e.verdict.check(&read.answer, counts, EPSILON);
        }
        e.end_epoch();
        epochs += 1;
    }

    let mut lay = Layers::new();
    let mut notes = Vec::new();
    if o.trace {
        notes.push(layers(&acc, &e, &ledger, &mut lay));
        ledger.write_tsv(
            &o.out_dir
                .join(format!("trace-ingest_archive-{}.tsv", o.seed)),
        )?;
    }
    notes.push(format!(
        "epochs={epochs} of {steps} steps x {} items, {variants} input variants",
        batches * BATCH
    ));
    Ok(Outcome {
        e2e: e,
        layers: lay,
        notes,
    })
}

fn layers(acc: &Acc, e: &E2e, ledger: &Ledger, lay: &mut Layers) -> String {
    acc.steps.fill(lay);
    acc.queries.fill(lay);
    let steps = acc.step_traced.len().max(1) as f64;
    lay.insert("engine.stream_extend_us", acc.extend.pct(50.0) * 1e6);
    lay.insert("manifest.append_ms", acc.append.pct(50.0) * 1e3);
    lay.insert("manifest.syncs_per_step", acc.manifest_syncs as f64 / steps);
    lay.insert("manifest.compactions", acc.compactions as f64 / steps);
    // The step's leaves are its two public calls: the warehouse phases
    // are not, since the reported sort time includes work done inside the
    // step's `stream_extend` calls.
    let cover = ledger.coverage("step", &["engine.end_time_step", "manifest.append"]);
    crate::trace_checks(lay, "step", &e.step, &acc.step_traced, &cover)
}

/// A device directory under the output directory, removed on drop (also
/// when an epoch fails).
struct TempDir(PathBuf);

impl TempDir {
    fn new(o: &Opts, name: &str) -> TempDir {
        TempDir(
            o.out_dir
                .join(format!("ingest-{}-{name}", std::process::id())),
        )
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Bytes of every file under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|f| f.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

type Tap<'a> = Option<(&'a DevTap, &'a mut Acc, &'a mut Ledger)>;

/// One epoch on `dev`, which took `opened` to open: opening the engine
/// and its log on it completes the epoch's set-up.
fn epoch<D: BlockDevice>(
    dev: Arc<D>,
    opened: Duration,
    mut tap: Tap<'_>,
    inp: &Inputs,
    e: &mut E2e,
) -> io::Result<Vec<Read>> {
    let cfg = config();
    let t = Instant::now();
    let mut h = HistStreamQuantiles::<u64, _>::new(Arc::clone(&dev), cfg.clone());
    let mut log = ManifestLog::create(h.warehouse())?;
    if tap.is_none() {
        e.setup.push((opened + t.elapsed()).as_secs_f64());
    }
    let mut reads = Vec::new();
    let loop_start = Instant::now();
    for (s, batches) in inp.steps.iter().enumerate() {
        for b in batches {
            let t = Instant::now();
            h.stream_extend(b);
            let d = t.elapsed();
            e.ingest(b.len(), d);
            e.attempted += 1;
            if let Some((_, acc, _)) = &mut tap {
                acc.extend.push(d);
            }
        }

        // Light full-union read.
        let (n, m) = (h.total_len(), h.stream_len());
        let targets = PHIS.map(|phi| (phi * n as f64).ceil() as u64);
        let values = match &mut tap {
            None => {
                let t = Instant::now();
                let r = h.quantiles(&PHIS);
                e.query.push(t.elapsed());
                r.map(|v| v.into_iter().flatten().collect::<Vec<_>>())
            }
            Some((dtap, acc, ledger)) => traced_query(&h, &targets, dtap, &mut acc.queries, ledger)
                .map(|v| v.into_iter().flatten().map(|o| o.value).collect()),
        };
        if let Some(values) = e.attempt("quantiles", values) {
            e.expect("quantiles answered every phi", values.len() == PHIS.len());
            for (&value, &target) in values.iter().zip(&targets) {
                let answer = Answer {
                    value,
                    target,
                    interval: None,
                    m,
                };
                reads.push(Read {
                    step: s,
                    window: None,
                    answer,
                });
            }
        }

        // Light windowed reads over the newest few archived steps.
        let window = crate::pick_window(h.available_windows());
        for (w, phi) in window
            .into_iter()
            .flat_map(|w| WINDOW_PHIS.map(|phi| (w, phi)))
        {
            let window_n: u64 = h
                .warehouse()
                .window_partitions(w)
                .map_or(0, |ps| ps.iter().map(|p| p.run.len()).sum());
            let target = (phi * (window_n + m) as f64).ceil() as u64;
            let t = Instant::now();
            let r = h.rank_in_window(w, target);
            let d = t.elapsed();
            if tap.is_none() {
                e.window.push(d);
            }
            if let Some(out) = e.attempt("rank_in_window", r) {
                e.expect("aligned window answers", out.is_some());
                if let Some(out) = out {
                    let interval = Some((out.rank_lo, out.rank_hi));
                    let answer = Answer {
                        value: out.value,
                        target,
                        interval,
                        m,
                    };
                    reads.push(Read {
                        step: s,
                        window: Some(w as usize),
                        answer,
                    });
                }
            }
        }

        // The step: archive, then make it durable in the manifest log.
        let items = inp.sorted[s].len() as u64;
        match &mut tap {
            None => {
                let t = Instant::now();
                let r = h.end_time_step().and_then(|_| append(&h, &mut log, &dev));
                e.step.push(t.elapsed());
                e.attempt("step", r);
            }
            Some((dtap, acc, ledger)) => {
                let r = traced_step(&mut h, &mut log, &dev, items, dtap, acc, ledger);
                e.attempt("step", r);
            }
        }
    }
    e.loop_secs += loop_start.elapsed().as_secs_f64();
    e.memory_words.push(h.memory_words() as f64);
    if let Some((_, acc, _)) = &mut tap {
        acc.steps.set_model(&h)?;
    }

    // Recovery from the log must answer identically.
    let t = Instant::now();
    let rec = HistStreamQuantiles::<u64, _>::recover(Arc::clone(&dev), cfg, log.file());
    e.session.push(t.elapsed());
    if let Some(rec) = e.attempt("recover", rec) {
        e.expect("recovered total_len", rec.total_len() == h.total_len());
        for phi in RECOVERY_PHIS {
            let same = match (rec.quantile(phi), h.quantile(phi)) {
                (Ok(a), Ok(b)) => a == b,
                _ => false,
            };
            e.expect("recovered engine answers identically", same);
        }
    }
    Ok(reads)
}

/// The per-step manifest append, compacting when the log asks for it.
/// Returns whether it compacted.
fn append<D: BlockDevice>(
    h: &HistStreamQuantiles<u64, D>,
    log: &mut ManifestLog<u64, D>,
    dev: &Arc<D>,
) -> io::Result<bool> {
    log.append(h.warehouse())?;
    if log.should_compact() {
        let old = log.compact(h.warehouse())?;
        dev.delete(old)?;
        return Ok(true);
    }
    Ok(false)
}

/// The step with spans around its two public calls, the warehouse's
/// reported phases as spans inside the engine call, and device counts.
fn traced_step<D: BlockDevice>(
    h: &mut HistStreamQuantiles<u64, D>,
    log: &mut ManifestLog<u64, D>,
    dev: &Arc<D>,
    items: u64,
    tap: &DevTap,
    acc: &mut Acc,
    ledger: &mut Ledger,
) -> io::Result<()> {
    let op = ledger.begin();
    let c0 = tap.counts();
    let t0 = Instant::now();
    let report = h.end_time_step()?;
    let d = ledger.record(op, "engine.end_time_step", t0);
    let c1 = tap.counts();
    for (name, dur) in [
        ("warehouse.sort", report.sort_time),
        ("warehouse.load", report.load_time),
        ("warehouse.summary", report.summary_time),
        ("warehouse.merge", report.merge_time),
    ] {
        ledger.record_dur(op, name, t0, dur);
    }
    let t1 = Instant::now();
    let compacted = append(h, log, dev)?;
    acc.append.push(ledger.record(op, "manifest.append", t1));
    acc.step_traced.push(ledger.record(op, "step", t0));
    let c2 = tap.counts();
    acc.steps.record(&report, d, c1 - c0, c2 - c0, items);
    acc.manifest_syncs += (c2 - c1).syncs;
    acc.compactions += u64::from(compacted);
    Ok(())
}
