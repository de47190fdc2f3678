//! Per-layer accumulators shared by the in-process workloads, and the
//! traced query decomposition they both use.

use std::io;
use std::time::Duration;
use std::time::Instant;

use hsq::core::costmodel;
use hsq::core::{HistStreamQuantiles, QueryContext, QueryOutcome, UpdateReport};
use hsq::storage::BlockDevice;

use crate::stats::Samples;
use crate::trace::{DevCounts, DevTap, Ledger};
use crate::{Layers, BLOCK, KAPPA};

/// Blocks the historical partitions of `h` occupy on its device.
fn history_blocks<D: BlockDevice>(h: &HistStreamQuantiles<u64, D>) -> io::Result<u64> {
    let mut n = 0;
    for p in h.warehouse().partitions_newest_first() {
        n += h.warehouse().device().num_blocks(p.run.file())?;
    }
    Ok(n)
}

/// Traced archival steps: the engine call, the warehouse's reported
/// phases, and the device traffic.
#[derive(Default)]
pub struct StepAcc {
    end_step: Samples,
    sort: f64,
    load: f64,
    summary: f64,
    merge: f64,
    merges: u64,
    steps: u64,
    items: u64,
    /// Blocks written and write/sync time over the whole step.
    written: u64,
    write_ns: u64,
    sync_ns: u64,
    /// Blocks read or written inside `end_time_step` (the cost model's
    /// per-step update I/O).
    update_blocks: u64,
    /// §2.4 update-I/O estimate per step at the end of the history.
    model: f64,
}

impl StepAcc {
    /// Record one step of `items` items: `end_time_step` took `d` and moved
    /// `engine` on the device; the whole step (with any manifest work)
    /// moved `step`.
    pub fn record(
        &mut self,
        r: &UpdateReport,
        d: Duration,
        engine: DevCounts,
        step: DevCounts,
        items: u64,
    ) {
        self.end_step.push(d);
        self.sort += r.sort_time.as_secs_f64();
        self.load += r.load_time.as_secs_f64();
        self.summary += r.summary_time.as_secs_f64();
        self.merge += r.merge_time.as_secs_f64();
        self.merges += r.merges as u64;
        self.update_blocks += engine.reads + engine.writes;
        self.record_io(step, items);
    }

    /// Record the device traffic `step` of one step of `items` items.
    pub fn record_io(&mut self, step: DevCounts, items: u64) {
        self.steps += 1;
        self.items += items;
        self.written += step.writes;
        self.write_ns += step.write_ns;
        self.sync_ns += step.sync_ns;
    }

    /// Set the cost-model estimate from the history `h` holds now.
    pub fn set_model<D: BlockDevice>(&mut self, h: &HistStreamQuantiles<u64, D>) -> io::Result<()> {
        let steps = h.warehouse().steps();
        self.model = costmodel::update_ios_per_step(history_blocks(h)? as f64, steps, KAPPA);
        Ok(())
    }

    pub fn fill(&self, lay: &mut Layers) {
        let steps = self.steps.max(1) as f64;
        let user_blocks = (self.items * 8) as f64 / BLOCK as f64;
        lay.insert("engine.end_time_step_ms", self.end_step.pct(50.0) * 1e3);
        lay.insert("warehouse.sort_ms", self.sort / steps * 1e3);
        lay.insert("warehouse.load_ms", self.load / steps * 1e3);
        lay.insert("warehouse.summary_ms", self.summary / steps * 1e3);
        lay.insert("warehouse.merge_ms", self.merge / steps * 1e3);
        lay.insert("warehouse.merges", self.merges as f64 / steps);
        lay.insert(
            "storage.blocks_written_per_step",
            self.written as f64 / steps,
        );
        lay.insert("storage.write_amp", self.written as f64 / user_blocks);
        lay.insert(
            "storage.write_ms_per_step",
            self.write_ns as f64 / steps / 1e6,
        );
        lay.insert(
            "storage.sync_ms_per_step",
            self.sync_ns as f64 / steps / 1e6,
        );
        if self.model > 0.0 {
            lay.insert(
                "storage.write_model_ratio",
                self.update_blocks as f64 / steps / self.model,
            );
        }
    }
}

/// Traced in-process queries, per layer.
#[derive(Default)]
pub struct QueryAcc {
    extract: Samples,
    entries: Samples,
    combine: Samples,
    bisect: Samples,
    bisect_cpu: Samples,
    bisect_steps: Samples,
    partitions: Samples,
    reads: u64,
    seq_reads: u64,
    read_ns: u64,
    queries: u64,
    /// §2.4 query-I/O estimate, summed over the traced bisections.
    model: f64,
    /// End-to-end time of each traced query call.
    pub traced: Samples,
}

impl QueryAcc {
    /// Record the device traffic `io` of one accurate query.
    pub fn record_io(&mut self, io: DevCounts) {
        self.reads += io.reads;
        self.seq_reads += io.seq_reads;
        self.read_ns += io.read_ns;
        self.queries += 1;
    }

    pub fn fill(&self, lay: &mut Layers) {
        let queries = self.queries.max(1) as f64;
        lay.insert("warehouse.partitions", self.partitions.mean());
        lay.insert("storage.blocks_read_per_query", self.reads as f64 / queries);
        lay.insert(
            "storage.seq_read_frac",
            self.seq_reads as f64 / self.reads.max(1) as f64,
        );
        lay.insert(
            "storage.read_us_per_query",
            self.read_ns as f64 / queries / 1e3,
        );
        if self.model > 0.0 {
            lay.insert("storage.read_model_ratio", self.reads as f64 / self.model);
        }
        lay.insert("stream.extract_us", self.extract.pct(50.0) * 1e6);
        lay.insert("stream.summary_entries", self.entries.pct(50.0));
        lay.insert("query.combine_us", self.combine.pct(50.0) * 1e6);
        lay.insert("query.bisect_us", self.bisect.pct(50.0) * 1e6);
        lay.insert("query.bisect_cpu_us", self.bisect_cpu.pct(50.0) * 1e6);
        lay.insert("query.bisection_steps", self.bisect_steps.mean());
    }
}

/// An accurate full-union query for each of `targets`, decomposed the way
/// `rank_query` / `quantiles` run it: extract the stream summary, build the
/// query context over the healthy partitions
/// (`QueryContext::new(..).with_parallel(..).with_degraded(..)`), then one
/// accurate bisection per target. Spans go to `ledger` as one `query`
/// operation.
pub fn traced_query<D: BlockDevice>(
    h: &HistStreamQuantiles<u64, D>,
    targets: &[u64],
    tap: &DevTap,
    acc: &mut QueryAcc,
    ledger: &mut Ledger,
) -> io::Result<Vec<Option<QueryOutcome<u64>>>> {
    let cfg = h.config();
    let steps = h.warehouse().steps();
    let model = costmodel::query_ios_estimate(steps, KAPPA, history_blocks(h)? as f64);
    let op = ledger.begin();
    let t0 = Instant::now();
    let ss = h.stream().summary();
    acc.extract.push(ledger.record(op, "stream.extract", t0));
    let t1 = Instant::now();
    let parts = h.warehouse().healthy_partitions_newest_first();
    let n_parts = parts.len();
    let dev = &**h.warehouse().device();
    let ctx = QueryContext::new(dev, parts, &ss, cfg.query_epsilon(), cfg.cache_blocks)
        .with_parallel(cfg.parallel_query)
        .with_degraded(h.warehouse().quarantined_mass());
    acc.combine.push(ledger.record(op, "query.combine", t1));
    let mut outs = Vec::with_capacity(targets.len());
    for &r in targets {
        let c0 = tap.counts();
        let t = Instant::now();
        let out = ctx.accurate_rank(r)?;
        let d = ledger.record(op, "query.bisect", t);
        let io = tap.counts() - c0;
        acc.bisect.push(d);
        acc.bisect_cpu
            .push_secs(d.as_secs_f64() - io.read_ns as f64 / 1e9);
        acc.record_io(io);
        acc.model += model;
        if let Some(o) = &out {
            acc.bisect_steps.push_secs(f64::from(o.bisection_steps));
        }
        outs.push(out);
    }
    acc.traced.push(ledger.record(op, "query", t0));
    acc.entries.push_secs(ss.entries().len() as f64);
    acc.partitions.push_secs(n_parts as f64);
    Ok(outs)
}
