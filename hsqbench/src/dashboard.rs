//! `dashboard_query`: the in-process read path at the paper's headline
//! ratio N/m ≈ 101.
//!
//! Set-up archives 100 Normal steps of 50k items on a `MemDevice`,
//! streams a further 50k live items and persists the engine (the items
//! are generated, and the oracle's pieces sorted, before any of it is
//! timed); it is redone every few epochs, and its archival steps are the
//! workload's step figures. Each epoch
//! reopens the engine from that manifest (timed as the session open), then
//! a single client loops over a fixed φ sweep: a tiny `stream_extend`
//! (the live stream keeps moving, so no cross-query cache can skip the
//! stream side), then one accurate rank query at `⌈φN⌉` (`quantile(φ)`'s
//! own body, returning the rank interval the oracle checks). Every 4th
//! query is a windowed query over the newest aligned window of at least
//! two steps. Epochs cycle through variants of the extends, generated
//! before timing.

use std::io;
use std::sync::Arc;
use std::time::Instant;

use hsq::core::HistStreamQuantiles;
use hsq::storage::{BlockDevice, FileId, MemDevice};
use hsq::workload::{DataGen, NormalGen};

use crate::layers::{traced_query, QueryAcc, StepAcc};
use crate::oracle::{self, Answer};
use crate::stats::Samples;
use crate::trace::{DevTap, Ledger, TracedDevice};
use crate::{config, E2e, Layers, Opts, Outcome, BLOCK, EPSILON, SETUPS};

/// Items per tiny `stream_extend`.
const EXTEND: usize = 2;

struct Sizes {
    steps: usize,
    step_items: usize,
    live_items: usize,
    queries: usize,
    variants: usize,
    /// Epochs between set-ups.
    setup_every: usize,
}

/// Everything the run feeds the engine, and the oracle's sorted pieces,
/// generated before timing.
struct Inputs {
    /// Per archived step, in arrival order.
    history: Vec<Vec<u64>>,
    /// The live stream at set-up end, in arrival order.
    live: Vec<u64>,
    /// Per input variant: an epoch's extends, in arrival order.
    extends: Vec<Vec<u64>>,
    /// Per archived step, sorted.
    steps: Vec<Vec<u64>>,
    /// The live stream, sorted.
    live_sorted: Vec<u64>,
}

impl Inputs {
    fn generate(seed: u64, sz: &Sizes) -> Inputs {
        let mut gen = NormalGen::new(seed);
        let history: Vec<Vec<u64>> = (0..sz.steps).map(|_| gen.take_vec(sz.step_items)).collect();
        let live = gen.take_vec(sz.live_items);
        let extends = (0..sz.variants)
            .map(|v| NormalGen::new(crate::variant_seed(seed, v)).take_vec(sz.queries * EXTEND))
            .collect();
        Inputs {
            steps: history.iter().map(|s| oracle::sorted(s)).collect(),
            live_sorted: oracle::sorted(&live),
            history,
            live,
            extends,
        }
    }
}

/// The built engine state.
struct Setup {
    dev: Arc<MemDevice>,
    manifest: FileId,
}

/// One answer to check: after `extended` extend items arrived, over the
/// whole union or the newest `window` steps.
struct Read {
    extended: usize,
    window: Option<usize>,
    answer: Answer,
}

/// Per-layer accumulators of the traced run.
#[derive(Default)]
struct Acc {
    extend: Samples,
    steps: StepAcc,
    queries: QueryAcc,
}

pub fn run(o: &Opts) -> io::Result<Outcome> {
    let sz = if o.tiny {
        Sizes {
            steps: 24,
            step_items: 2_000,
            live_items: 2_000,
            queries: 60,
            variants: 2,
            setup_every: 2,
        }
    } else {
        Sizes {
            steps: 100,
            step_items: 50_000,
            live_items: 50_000,
            queries: 1_000,
            variants: 16,
            setup_every: 15,
        }
    };
    let inp = Inputs::generate(o.seed, &sz);
    let mut e = E2e::default();
    e.rss_baseline()?;
    let mut acc = Acc::default();
    // The first set-up warms the allocator: its steps are not recorded.
    let mut built = Some(timed_setup(
        &inp,
        &sz,
        &mut Samples::default(),
        &mut e,
        None,
    )?);
    let mut setups = 1;
    let mut ledger = Ledger::default();
    let start = Instant::now();
    let mut epochs = 0;
    while o.more(epochs, start) || setups < SETUPS {
        // Rebuild every few epochs, so that the set-up and archival figures
        // sample the whole run rather than its first seconds.
        if epochs > 0 && epochs % sz.setup_every == 0 {
            drop(built.take()); // release the old set-up before building anew
            let mut steps = Samples::default();
            let acc = o.trace.then_some(&mut acc);
            built = Some(timed_setup(&inp, &sz, &mut steps, &mut e, acc)?);
            e.step.extend(&steps);
            setups += 1;
        }
        let s = built.as_ref().expect("set up above");
        let traced = o.trace && epochs % 2 == 1;
        let extends = &inp.extends[(epochs / if o.trace { 2 } else { 1 }) % sz.variants];
        let reads = if traced {
            let dev = TracedDevice::new(Arc::clone(&s.dev));
            let tap = Some((dev.tap(), &mut acc, &mut ledger));
            epoch(Arc::clone(&dev), tap, s, extends, &mut e)?
        } else {
            epoch(Arc::clone(&s.dev), None, s, extends, &mut e)?
        };
        check(&inp, extends, &reads, &mut e);
        e.end_epoch();
        epochs += 1;
    }

    let mut lay = Layers::new();
    let mut notes = Vec::new();
    if o.trace {
        notes.push(layers(&acc, &e, &ledger, &mut lay));
        ledger.write_tsv(
            &o.out_dir
                .join(format!("trace-dashboard_query-{}.tsv", o.seed)),
        )?;
    }
    notes.push(format!(
        "epochs={epochs} of {} queries, {setups} set-ups; history {} steps x {} items, live {} items, {} extend variants",
        sz.queries, sz.steps, sz.step_items, sz.live_items, sz.variants
    ));
    Ok(Outcome {
        e2e: e,
        layers: lay,
        notes,
    })
}

/// One timed set-up: archive the history on a fresh device, stream the
/// live items and persist. Records the space it takes.
fn timed_setup(
    inp: &Inputs,
    sz: &Sizes,
    steps: &mut Samples,
    e: &mut E2e,
    acc: Option<&mut Acc>,
) -> io::Result<Setup> {
    let t = Instant::now();
    let dev = MemDevice::new(BLOCK);
    let manifest = match acc {
        None => build(Arc::clone(&dev), &inp.history, &inp.live, steps, e, None)?,
        Some(acc) => {
            let traced = TracedDevice::new(Arc::clone(&dev));
            let tap = Some((traced.tap(), acc));
            build(Arc::clone(&traced), &inp.history, &inp.live, steps, e, tap)?
        }
    };
    e.setup.push(t.elapsed().as_secs_f64());
    let items = (sz.steps * sz.step_items + sz.live_items) as u64;
    e.space_amp
        .push(dev.resident_bytes() as f64 / (items * 8) as f64);
    Ok(Setup { dev, manifest })
}

fn build<D: BlockDevice>(
    dev: Arc<D>,
    history: &[Vec<u64>],
    live: &[u64],
    steps: &mut Samples,
    e: &mut E2e,
    mut tap: Option<(&DevTap, &mut Acc)>,
) -> io::Result<FileId> {
    let mut h = HistStreamQuantiles::<u64, _>::new(dev, config());
    for step in history {
        h.stream_extend(step);
        let c0 = tap.as_ref().map(|(t, _)| t.counts());
        let t = Instant::now();
        let report = h.end_time_step();
        let d = t.elapsed();
        steps.push(d);
        let Some(report) = e.attempt("end_time_step", report) else {
            continue;
        };
        if let (Some((dtap, acc)), Some(c0)) = (&mut tap, c0) {
            let io = dtap.counts() - c0;
            acc.steps.record(&report, d, io, io, step.len() as u64);
        }
    }
    h.stream_extend(live);
    if let Some((_, acc)) = tap {
        acc.steps.set_model(&h)?;
    }
    h.persist()
}

type Tap<'a> = Option<(&'a DevTap, &'a mut Acc, &'a mut Ledger)>;

fn epoch<D: BlockDevice>(
    dev: Arc<D>,
    mut tap: Tap<'_>,
    s: &Setup,
    extends: &[u64],
    e: &mut E2e,
) -> io::Result<Vec<Read>> {
    let t = Instant::now();
    let h = HistStreamQuantiles::<u64, _>::recover(dev, config(), s.manifest);
    e.session.push(t.elapsed());
    let Some(mut h) = e.attempt("recover", h) else {
        return Ok(Vec::new());
    };
    let window = crate::pick_window(h.available_windows());
    e.expect("an aligned window of at least two steps", window.is_some());
    let window = window.unwrap_or(1);
    let window_n: u64 = h
        .warehouse()
        .window_partitions(window)
        .map_or(0, |ps| ps.iter().map(|p| p.run.len()).sum());
    let mut reads = Vec::with_capacity(extends.len() / EXTEND);
    let loop_start = Instant::now();
    for (i, ext) in extends.chunks(EXTEND).enumerate() {
        let t = Instant::now();
        h.stream_extend(ext);
        let d = t.elapsed();
        e.ingest(ext.len(), d);
        e.attempted += 1;
        let phi = crate::sweep_phi(i);
        let m = h.stream_len();
        let windowed = i % 4 == 3;
        let (target, r) = if windowed {
            let target = (phi * (window_n + m) as f64).ceil() as u64;
            let t = Instant::now();
            let r = h.rank_in_window(window, target);
            if tap.is_none() {
                e.window.push(t.elapsed());
            }
            (target, r)
        } else {
            let target = (phi * h.total_len() as f64).ceil() as u64;
            let r = match &mut tap {
                None => {
                    let t = Instant::now();
                    let r = h.rank_query(target);
                    e.query.push(t.elapsed());
                    r
                }
                Some((dtap, acc, ledger)) => {
                    traced_query(&h, &[target], dtap, &mut acc.queries, ledger)
                        .map(|mut outs| outs.pop().flatten())
                }
            };
            (target, r)
        };
        if let Some((_, acc, _)) = &mut tap {
            acc.extend.push(d);
        }
        let Some(out) = e.attempt("rank query", r) else {
            continue;
        };
        e.expect("query answered", out.is_some());
        let Some(out) = out else { continue };
        let answer = Answer {
            value: out.value,
            target,
            interval: Some((out.rank_lo, out.rank_hi)),
            m,
        };
        let window = windowed.then_some(window as usize);
        reads.push(Read {
            extended: (i + 1) * EXTEND,
            window,
            answer,
        });
    }
    e.loop_secs += loop_start.elapsed().as_secs_f64();
    e.memory_words.push(h.memory_words() as f64);
    Ok(reads)
}

/// Exact check of every read: history pieces, the set-up live stream,
/// and the extends that had arrived when the read ran.
fn check(inp: &Inputs, extends: &[u64], reads: &[Read], e: &mut E2e) {
    let mut extra: Vec<u64> = Vec::new();
    for read in reads {
        while extra.len() < read.extended {
            let v = extends[extra.len()];
            let at = extra.partition_point(|&x| x <= v);
            extra.insert(at, v);
        }
        let hist = match read.window {
            None => &inp.steps[..],
            Some(w) => &inp.steps[inp.steps.len() - w..],
        };
        let pieces = hist
            .iter()
            .map(|v| v.as_slice())
            .chain([inp.live_sorted.as_slice(), extra.as_slice()]);
        let counts = oracle::counts_in(pieces, read.answer.value);
        e.verdict.check(&read.answer, counts, EPSILON);
    }
}

fn layers(acc: &Acc, e: &E2e, ledger: &Ledger, lay: &mut Layers) -> String {
    acc.steps.fill(lay);
    acc.queries.fill(lay);
    lay.insert("engine.stream_extend_us", acc.extend.pct(50.0) * 1e6);
    let cover = ledger.coverage(
        "query",
        &["stream.extract", "query.combine", "query.bisect"],
    );
    crate::trace_checks(lay, "query", &e.query, &acc.queries.traced, &cover)
}
