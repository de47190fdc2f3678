//! `served_fleet`: the networked read and write path.
//!
//! Each epoch builds a fleet of two in-process `QuantileServer` nodes on
//! loopback, each a 1-shard `ShardedEngine` on a `MemDevice` holding
//! Uniform history, and a `Coordinator` over them (timed together as the
//! set-up). Each round ingests a small batch into every group, opens a
//! session for a fresh tenant (so it pins a snapshot holding that batch),
//! runs its part of a fixed φ sweep of `quantile(φ)` plus windowed
//! queries, and drops the session; every few rounds it calls `end_step()`.
//! Epochs cycle through variants of the ingest batches, generated before
//! timing.
//!
//! A session fetches the summaries it answers from once, on its first
//! full-union and first windowed read. The session open is timed through
//! both fetches (`session(tenant)`, a `quantile_quick` and the first
//! windowed query), so the query timings are the session's steady-state
//! reads and their tails are not the fetches' tails.

use std::io;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Instant;

use hsq::core::ShardedEngine;
use hsq::service::transport::{Connector, TcpConnector};
use hsq::service::{Coordinator, FleetConfig, NetRetryPolicy, QuantileServer, ServerHandle};
use hsq::storage::{BlockDevice, MemDevice};
use hsq::workload::{DataGen, UniformGen};

use crate::layers::{QueryAcc, StepAcc};
use crate::oracle::{self, Answer};
use crate::stats::Samples;
use crate::trace::{DevCounts, DevTap, Kind, Ledger, NetTap, TracedConnector, TracedDevice};
use crate::{config, E2e, Layers, Opts, Outcome, BLOCK, EPSILON};

const NODES: usize = 2;
/// Full-union and windowed queries per session, after the session open's
/// two warm-up reads; each session continues the fixed φ sweep where the
/// previous one stopped.
const QUERIES: usize = 8;
const WINDOW_QUERIES: usize = 8;
/// φ of the `quantile_quick` that fetches a session's full-union summary.
const WARM_PHI: f64 = 0.5;
/// Rounds between `end_step` calls.
const STEP_EVERY: usize = 8;

struct Sizes {
    hist_steps: usize,
    hist_items: usize,
    rounds: usize,
    batch: usize,
    variants: usize,
}

/// Everything the epochs send, generated before timing.
struct Plan {
    /// Per node: its history steps.
    history: Vec<Vec<Vec<u64>>>,
    /// Per fleet history step: its items over all nodes, sorted.
    hist_steps: Vec<Vec<u64>>,
    variants: Vec<Variant>,
    /// The windowed reads' window after `j` of an epoch's steps, from the
    /// fleet's in-process mirror.
    windows: Vec<Option<u64>>,
    /// `memory_words()` of the fleet's engines at the end of an epoch, for
    /// the first few variants, from the mirror.
    memory_words: Vec<f64>,
}

/// One epoch's ingest: epochs cycle through the variants.
struct Variant {
    /// Per round, per group: the ingest batch as `(value, weight 1)`.
    batches: Vec<Vec<Vec<(u64, u64)>>>,
    /// Per step the epoch archives: its items over all groups, sorted.
    steps: Vec<Vec<u64>>,
}

impl Plan {
    fn generate(seed: u64, sz: &Sizes) -> io::Result<Plan> {
        let history: Vec<Vec<Vec<u64>>> = (0..NODES)
            .map(|g| {
                let mut gen = UniformGen::new(seed.wrapping_add(g as u64));
                (0..sz.hist_steps)
                    .map(|_| gen.take_vec(sz.hist_items))
                    .collect()
            })
            .collect();
        let hist_steps = (0..sz.hist_steps)
            .map(|s| {
                oracle::sorted(
                    &history
                        .iter()
                        .flat_map(|node| node[s].iter().copied())
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        let variants = (0..sz.variants)
            .map(|v| {
                let mut gen = UniformGen::new(crate::variant_seed(seed, v));
                let batches: Vec<Vec<Vec<(u64, u64)>>> = (0..sz.rounds)
                    .map(|_| {
                        (0..NODES)
                            .map(|_| gen.take_vec(sz.batch).into_iter().map(|v| (v, 1)).collect())
                            .collect()
                    })
                    .collect();
                let steps = batches
                    .chunks(STEP_EVERY)
                    .filter(|c| c.len() == STEP_EVERY)
                    .map(|rounds| oracle::sorted(&live_items(rounds)))
                    .collect();
                Variant { batches, steps }
            })
            .collect();
        let mut plan = Plan {
            history,
            hist_steps,
            variants,
            windows: Vec::new(),
            memory_words: Vec::new(),
        };
        plan.mirror()?;
        Ok(plan)
    }

    /// Replay the first few variants' epochs into in-process engines (the
    /// servers own theirs) for the fleet's memory words, and its windows
    /// after each step. Every group archives the same steps, so group 0's
    /// windows are the fleet's.
    fn mirror(&mut self) -> io::Result<()> {
        for v in 0..self.variants.len().min(3) {
            let mut words = 0;
            for (g, history) in self.history.iter().enumerate() {
                let mut engine =
                    ShardedEngine::<u64, MemDevice>::new(vec![MemDevice::new(BLOCK)], config());
                for step in history {
                    engine.ingest_step(step)?;
                }
                let mut windows = vec![crate::pick_window(engine.available_windows())];
                for (k, batches) in self.variants[v].batches.iter().enumerate() {
                    engine.stream_extend_weighted(&batches[g]);
                    if k % STEP_EVERY == STEP_EVERY - 1 {
                        engine.end_time_step()?;
                        windows.push(crate::pick_window(engine.available_windows()));
                    }
                }
                if v == 0 && g == 0 {
                    self.windows = windows;
                }
                words += engine.memory_words();
            }
            self.memory_words.push(words as f64);
        }
        Ok(())
    }
}

impl Variant {
    /// The sorted items of fleet step `t` (0-based; history first).
    fn step<'a>(&'a self, plan: &'a Plan, t: usize) -> &'a [u64] {
        match t.checked_sub(plan.hist_steps.len()) {
            None => &plan.hist_steps[t],
            Some(j) => &self.steps[j],
        }
    }
}

/// Values of every batch of `rounds`.
fn live_items(rounds: &[Vec<Vec<(u64, u64)>>]) -> Vec<u64> {
    rounds.iter().flatten().flatten().map(|&(v, _)| v).collect()
}

/// One answer to check: in round `round`, over the whole union or the
/// newest `window` fleet steps.
struct Read {
    round: usize,
    window: Option<usize>,
    answer: Answer,
}

/// Per-layer accumulators of the traced epochs.
#[derive(Default)]
struct Acc {
    rounds: Samples,
    trips: u64,
    probe_wait: Samples,
    query_bytes: u64,
    coord_cpu: Samples,
    queries: u64,
    session_bytes: u64,
    sessions: u64,
    ingest_bytes: u64,
    ingest_items: u64,
    query_traced: Samples,
    cover: Vec<(f64, f64)>,
    /// Device traffic of the full-union queries.
    query_io: QueryAcc,
    /// Device traffic of the `end_step` calls, and the items they archived.
    step_io: StepAcc,
}

struct Fleet<D: BlockDevice> {
    handles: Vec<ServerHandle>,
    devs: Vec<Arc<MemDevice>>,
    taps: Vec<Arc<D>>,
}

impl<D: BlockDevice> Fleet<D> {
    fn shutdown(self) {
        for h in self.handles {
            h.shutdown();
        }
    }
}

pub fn run(o: &Opts) -> io::Result<Outcome> {
    let sz = if o.tiny {
        Sizes {
            hist_steps: 4,
            hist_items: 2_000,
            rounds: 20,
            batch: 64,
            variants: 2,
        }
    } else {
        // 52 rounds: 6 steps, and the epoch ends with a live stream.
        Sizes {
            hist_steps: 20,
            hist_items: 20_000,
            rounds: 52,
            batch: 256,
            variants: 16,
        }
    };
    let plan = Plan::generate(o.seed, &sz)?;
    let mut e = E2e::default();
    e.memory_words.clone_from(&plan.memory_words);
    e.rss_baseline()?;
    let mut acc = Acc::default();
    let mut ledger = Ledger::default();
    let start = Instant::now();
    let mut epochs = 0;
    while o.more(epochs, start) || e.setup.len() < crate::SETUPS {
        let traced = o.trace && epochs % 2 == 1;
        let var = &plan.variants[(epochs / if o.trace { 2 } else { 1 }) % sz.variants];
        let tap = traced.then_some((&mut acc, &mut ledger));
        let reads = epoch(&plan, var, tap, epochs, &mut e)?;
        check(&plan, var, &reads, &mut e);
        e.end_epoch();
        epochs += 1;
    }

    let mut lay = Layers::new();
    let mut notes = Vec::new();
    if o.trace {
        notes.push(layers(&acc, &e, &mut lay));
        ledger.write_tsv(&o.out_dir.join(format!("trace-served_fleet-{}.tsv", o.seed)))?;
    }
    notes.push(format!(
        "epochs={epochs} of {} rounds; {NODES} nodes x {} history steps x {} items, {} items per group per round, {} ingest variants",
        sz.rounds, sz.hist_steps, sz.hist_items, sz.batch, sz.variants
    ));
    Ok(Outcome {
        e2e: e,
        layers: lay,
        notes,
    })
}

/// Spawn the fleet: per node, archive its history on a fresh device, then
/// serve it on an ephemeral loopback port.
fn spawn<D: BlockDevice>(
    plan: &Plan,
    wrap: impl Fn(Arc<MemDevice>) -> Arc<D>,
) -> io::Result<Fleet<D>> {
    let mut fleet = Fleet {
        handles: Vec::new(),
        devs: Vec::new(),
        taps: Vec::new(),
    };
    for history in &plan.history {
        let raw = MemDevice::new(BLOCK);
        let dev = wrap(Arc::clone(&raw));
        let mut engine = ShardedEngine::<u64, D>::new(vec![Arc::clone(&dev)], config());
        for step in history {
            engine.ingest_step(step)?;
        }
        let listener = TcpListener::bind("127.0.0.1:0")?;
        fleet
            .handles
            .push(QuantileServer::new(engine).spawn(listener)?);
        fleet.devs.push(raw);
        fleet.taps.push(dev);
    }
    Ok(fleet)
}

/// Connect a coordinator to every node of `fleet`, one group per node.
fn connect<D: BlockDevice>(
    fleet: &Fleet<D>,
    connector: Arc<dyn Connector>,
) -> io::Result<Coordinator<u64>> {
    let groups = fleet
        .handles
        .iter()
        .map(|h| vec![h.addr().to_string()])
        .collect();
    let config = FleetConfig::new(groups)?;
    Coordinator::connect_fleet_with(&config, connector, NetRetryPolicy::standard())
}

fn epoch(
    plan: &Plan,
    var: &Variant,
    tap: Option<(&mut Acc, &mut Ledger)>,
    epoch_no: usize,
    e: &mut E2e,
) -> io::Result<Vec<Read>> {
    let tcp = TcpConnector::from_policy(&NetRetryPolicy::standard());
    match tap {
        None => {
            let t = Instant::now();
            let fleet = spawn(plan, |d| d)?;
            let r = connect(&fleet, Arc::new(tcp)).and_then(|coord| {
                e.setup.push(t.elapsed().as_secs_f64());
                rounds(coord, plan, var, &fleet, None, epoch_no, e)
            });
            fleet.shutdown();
            r
        }
        Some((acc, ledger)) => {
            let fleet = spawn(plan, TracedDevice::new)?;
            let net = NetTap::default();
            let taps: Vec<&DevTap> = fleet.taps.iter().map(|d| d.tap()).collect();
            let connector = Arc::new(TracedConnector::new(tcp, net.clone()));
            let r = connect(&fleet, connector).and_then(|coord| {
                let tap = Some((acc, ledger, &net, taps.as_slice()));
                rounds(coord, plan, var, &fleet, tap, epoch_no, e)
            });
            drop(taps);
            fleet.shutdown();
            r
        }
    }
}

type Tap<'a> = Option<(&'a mut Acc, &'a mut Ledger, &'a NetTap, &'a [&'a DevTap])>;

/// Summed counters of every node's device.
fn dev_counts(taps: &[&DevTap]) -> DevCounts {
    taps.iter()
        .map(|t| t.counts())
        .fold(DevCounts::default(), |a, c| a + c)
}

fn rounds<D: BlockDevice>(
    mut coord: Coordinator<u64>,
    plan: &Plan,
    var: &Variant,
    fleet: &Fleet<D>,
    mut tap: Tap<'_>,
    epoch_no: usize,
    e: &mut E2e,
) -> io::Result<Vec<Read>> {
    let mut reads = Vec::new();
    let hist_steps = plan.hist_steps.len();
    let loop_start = Instant::now();
    for (k, batches) in var.batches.iter().enumerate() {
        for (g, batch) in batches.iter().enumerate() {
            let cur = tap.as_ref().map(|t| t.2.cursor());
            let t = Instant::now();
            let r = coord.ingest(g, batch);
            e.ingest(batch.len(), t.elapsed());
            e.attempt("ingest", r);
            if let (Some((acc, _, net, _)), Some(cur)) = (&mut tap, cur) {
                acc.ingest_bytes += net.since(cur).iter().map(|r| r.bytes).sum::<u64>();
                acc.ingest_items += batch.len() as u64;
            }
        }

        let epoch_steps = k / STEP_EVERY;
        let window = plan.windows[epoch_steps];
        let steps = hist_steps + epoch_steps;
        let window_n: u64 = window.map_or(0, |w| {
            (steps - w as usize..steps)
                .map(|t| var.step(plan, t).len() as u64)
                .sum()
        });
        let full = (0..QUERIES).map(|j| (crate::sweep_phi(k * QUERIES + j), None));
        let windowed = (0..=WINDOW_QUERIES).filter_map(|j| {
            window.map(|w| (crate::sweep_phi(k * (WINDOW_QUERIES + 1) + j), Some(w)))
        });
        // The windowed warm-up read goes first.
        let sweep = windowed.clone().take(1).chain(full).chain(windowed.skip(1));

        // The session open: pin the snapshots, then fetch the full-union
        // summary (`quantile_quick`) and the window's (the first windowed
        // query, whose answer is checked like the rest).
        let tenant = (epoch_no * var.batches.len() + k + 1) as u64;
        let cur = tap.as_ref().map(|t| t.2.cursor());
        let t = Instant::now();
        let session = coord
            .session(tenant)
            .and_then(|mut s| s.quantile_quick(WARM_PHI).map(|quick| (s, quick)));
        let mut open = t.elapsed();
        let Some((mut session, quick)) = e.attempt("session", session) else {
            continue;
        };
        e.expect("quick read answered", quick.is_some());
        let m = session.stream_len();
        let total = session.total_len();
        for (i, (phi, w)) in sweep.enumerate() {
            let warm_up = i == 0 && w.is_some();
            let c0 = tap.as_ref().map(|t| (t.2.cursor(), dev_counts(t.3)));
            let t = Instant::now();
            let r = match w {
                None => session.quantile(phi),
                Some(w) => session.quantile_in_window(w, phi),
            };
            let d = t.elapsed();
            match (&mut tap, c0) {
                _ if warm_up => open += d,
                (Some((acc, ledger, net, taps)), Some((cur0, dc0))) => {
                    let rs = net.since(cur0);
                    let op = ledger.begin();
                    ledger.record_dur(op, "service.query", t, d);
                    let wait: f64 = rs.iter().map(|r| r.wait.as_secs_f64()).sum();
                    for r in &rs {
                        ledger.record_dur(op, "service.round", t, r.wait);
                    }
                    if w.is_none() {
                        acc.query_traced.push(d);
                        acc.cover.push((d.as_secs_f64(), wait));
                        acc.coord_cpu.push_secs(d.as_secs_f64() - wait);
                        acc.trips += rs.iter().map(|r| u64::from(r.exchanges)).sum::<u64>();
                        acc.query_bytes += rs
                            .iter()
                            .filter(|r| r.kind == Kind::Probe)
                            .map(|r| r.bytes)
                            .sum::<u64>();
                        for r in rs.iter().filter(|r| r.kind == Kind::Probe) {
                            acc.probe_wait.push(r.wait);
                        }
                        acc.queries += 1;
                        acc.query_io.record_io(dev_counts(taps) - dc0);
                    }
                }
                _ => match w {
                    None => e.query.push(d),
                    Some(_) => e.window.push(d),
                },
            }
            let Some(out) = e.attempt("served query", r) else {
                continue;
            };
            e.expect("served query answered", out.is_some());
            let Some(q) = out else { continue };
            if let Some((acc, _, _, _)) = &mut tap {
                if w.is_none() {
                    acc.rounds.push_secs(f64::from(q.probe_rounds));
                }
            }
            let target = match w {
                None => (phi * total as f64).ceil() as u64,
                Some(_) => (phi * (window_n + m) as f64).ceil() as u64,
            };
            let o = q.outcome;
            let answer = Answer {
                value: o.value,
                target,
                interval: Some((o.rank_lo, o.rank_hi)),
                m,
            };
            reads.push(Read {
                round: k,
                window: w.map(|w| w as usize),
                answer,
            });
        }
        drop(session);
        e.session.push(open);
        if let (Some((acc, _, net, _)), Some(cur)) = (&mut tap, cur) {
            // The session's bytes: its open and both summary fetches.
            acc.session_bytes += net
                .since(cur)
                .iter()
                .filter(|r| matches!(r.kind, Kind::OpenSession | Kind::Extract))
                .map(|r| r.bytes)
                .sum::<u64>();
            acc.sessions += 1;
        }

        if k % STEP_EVERY == STEP_EVERY - 1 {
            let c0 = tap.as_ref().map(|t| dev_counts(t.3));
            let t = Instant::now();
            let r = coord.end_step();
            if tap.is_none() {
                e.step.push(t.elapsed());
            }
            if let (Some((acc, _, _, taps)), Some(c0)) = (&mut tap, c0) {
                let items = var.step(plan, steps).len() as u64;
                acc.step_io.record_io(dev_counts(taps) - c0, items);
            }
            if let Some(shards) = e.attempt("end_step", r) {
                e.expect("every group archived", shards.len() == NODES);
            }
        }
    }
    e.loop_secs += loop_start.elapsed().as_secs_f64();
    let steps = hist_steps + var.batches.len() / STEP_EVERY;
    let user_bytes: u64 = (0..steps).map(|t| var.step(plan, t).len() as u64 * 8).sum();
    let device_bytes: u64 = fleet.devs.iter().map(|d| d.resident_bytes()).sum();
    e.space_amp.push(device_bytes as f64 / user_bytes as f64);
    Ok(reads)
}

/// Exact check of every read: the fleet steps archived before its round
/// plus the batches ingested since the last step, up to its own round.
fn check(plan: &Plan, var: &Variant, reads: &[Read], e: &mut E2e) {
    for read in reads {
        let steps = plan.hist_steps.len() + (read.round / STEP_EVERY);
        let live = live_items(&var.batches[read.round - read.round % STEP_EVERY..=read.round]);
        let first = read.window.map_or(0, |w| steps - w);
        let pieces = (first..steps).map(|t| var.step(plan, t));
        let (lt, le) = oracle::counts_in(pieces, read.answer.value);
        let (llt, lle) = oracle::counts_unsorted(&live, read.answer.value);
        e.verdict.check(&read.answer, (lt + llt, le + lle), EPSILON);
    }
}

fn layers(acc: &Acc, e: &E2e, lay: &mut Layers) -> String {
    let queries = acc.queries.max(1) as f64;
    lay.insert("service.probe_rounds", acc.rounds.mean());
    lay.insert("service.round_trips_per_query", acc.trips as f64 / queries);
    lay.insert("service.rtt_us", acc.probe_wait.pct(50.0) * 1e6);
    lay.insert("service.bytes_per_query", acc.query_bytes as f64 / queries);
    lay.insert("service.coord_cpu_us", acc.coord_cpu.pct(50.0) * 1e6);
    lay.insert(
        "service.session_bytes",
        acc.session_bytes as f64 / acc.sessions.max(1) as f64,
    );
    lay.insert(
        "service.ingest_bytes_per_item",
        acc.ingest_bytes as f64 / acc.ingest_items.max(1) as f64,
    );
    // The end-step and query device traffic, summed over both nodes.
    acc.step_io.fill(lay);
    acc.query_io.fill(lay);
    // Leaves are the wire rounds: the rest is the coordinator's own CPU.
    crate::trace_checks(
        lay,
        "query (wire rounds only)",
        &e.query,
        &acc.query_traced,
        &acc.cover,
    )
}
