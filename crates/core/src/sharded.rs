//! Sharded multi-tenant engine: hash-partitioned [`HistStreamQuantiles`]
//! shards with mergeable cross-shard queries.
//!
//! **Extension beyond the paper**, which serves one stream against one
//! warehouse. A production deployment (TidalRace-style, §1) serves many
//! independent streams at once; the standard lever for scaling sketch
//! systems is *mergeability* — KLL-style compactor sketches are designed
//! around merge, and the same property holds here because ranks over a
//! disjoint union add:
//!
//! `rank(z, T) = Σ_s rank(z, T_s)`  for any partitioning of `T` into
//! shards `T_s`.
//!
//! [`ShardedEngine`] hash-partitions items across `k` independent engine
//! shards (each with its own GK stream sketch and warehouse), fans
//! ingestion out per shard (parallel, via the bounded pool in
//! [`crate::parallel`]), and answers quantile/rank queries by *fan-in*: a
//! global value-space bisection over the summed per-shard
//! `(rank_lo, rank_hi)` bounds. Each shard contributes uncertainty at
//! most `ε·m_s`, so the summed bounds carry uncertainty at most
//! `ε·Σm_s = ε·m` — the combined answer keeps the exact same Theorem-2
//! guarantee as a single engine fed the union.
//!
//! The fan-in is not a second query path: a [`ShardedSnapshot`] builds a
//! multi-shard [`crate::QueryContext`] (one view per shard over its cached
//! combined summary or cached window-plan partitions) and runs the
//! same bisection kernel and per-shard probe source as a single engine,
//! which is just the one-shard case. A serving node answers each remote
//! probe through the same source ([`ShardedSnapshot::probe_bounds`]).
//!
//! Queries run against a [`ShardedSnapshot`] (one pinned
//! [`EngineSnapshot`] per shard), so readers proceed concurrently with
//! ingestion: take the snapshot under the writer's lock, query it
//! lock-free while `end_time_step` archives and merges underneath.

use std::collections::HashMap;
use std::io;
use std::sync::{Arc, Mutex};

use hsq_storage::{BlockCache, BlockDevice, FileId, Item};

use crate::bounds::CombinedSummary;
use crate::config::HsqConfig;
use crate::engine::{EngineSnapshot, HistStreamQuantiles};
use crate::query::{FanIn, QueryContext, QueryOutcome, RankProbeSource, ShardView};
use crate::stream::StreamSummary;
use crate::warehouse::UpdateReport;

/// Shard index of item `e` among `shards`: a multiplicative hash of the
/// order-preserving key. Deterministic across runs and processes, so a
/// persisted sharded engine routes identically after recovery.
#[inline]
pub fn shard_index<T: Item>(e: T, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    // Fibonacci multiplicative hashing: cheap (one multiply) and mixes
    // sequential keys well; the top bits carry the entropy.
    let h = e.to_ordered_u64().wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((h >> 32) as usize) % shards
}

/// A weighted fan-out unit: one shard paired with its routed chunk of
/// `(item, weight)` pairs.
type WeightedShardTask<'a, T, D> = (&'a mut HistStreamQuantiles<T, D>, &'a [(T, u64)]);

/// `k` independent engine shards behind one ingestion/query facade.
///
/// See the module docs for the design; see the crate-level quickstart for
/// an end-to-end example.
pub struct ShardedEngine<T: Item, D: BlockDevice> {
    shards: Vec<HistStreamQuantiles<T, D>>,
    config: HsqConfig,
    /// Reusable per-shard split buffers for [`ShardedEngine::stream_extend`].
    scratch: Vec<Vec<T>>,
}

impl<T: Item, D: BlockDevice> ShardedEngine<T, D> {
    /// One shard per device in `devices` (typically one device — disk,
    /// directory, or memory arena — per shard so their I/O is
    /// independent). All shards share `config`. Panics if `devices` is
    /// empty.
    pub fn new(devices: Vec<Arc<D>>, config: HsqConfig) -> Self {
        assert!(!devices.is_empty(), "at least one shard device required");
        let shards: Vec<_> = devices
            .into_iter()
            .map(|d| HistStreamQuantiles::new(d, config.clone()))
            .collect();
        let scratch = shards.iter().map(|_| Vec::new()).collect();
        ShardedEngine {
            shards,
            config,
            scratch,
        }
    }

    /// Convenience: `n` shards on devices produced by `mk(shard_index)`.
    pub fn with_shards(n: usize, config: HsqConfig, mut mk: impl FnMut(usize) -> Arc<D>) -> Self {
        assert!(n > 0, "at least one shard required");
        Self::new((0..n).map(&mut mk).collect(), config)
    }

    /// The configuration shared by every shard.
    pub fn config(&self) -> &HsqConfig {
        &self.config
    }

    /// Number of shards `k`.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Read access to shard `i`.
    pub fn shard(&self, i: usize) -> &HistStreamQuantiles<T, D> {
        &self.shards[i]
    }

    /// Read access to all shards.
    pub fn shards(&self) -> &[HistStreamQuantiles<T, D>] {
        &self.shards
    }

    /// Total size `N` across shards.
    pub fn total_len(&self) -> u64 {
        self.shards.iter().map(|s| s.total_len()).sum()
    }

    /// Live stream size `m` across shards.
    pub fn stream_len(&self) -> u64 {
        self.shards.iter().map(|s| s.stream_len()).sum()
    }

    /// Historical size `n` across shards.
    pub fn historical_len(&self) -> u64 {
        self.shards.iter().map(|s| s.historical_len()).sum()
    }

    /// Summed summary/sketch memory across shards.
    pub fn memory_words(&self) -> usize {
        self.shards.iter().map(|s| s.memory_words()).sum()
    }

    /// Per-shard total sizes (balance inspection).
    pub fn shard_lens(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.total_len()).collect()
    }

    /// The shard that owns item `e`.
    pub fn shard_of(&self, e: T) -> usize {
        shard_index(e, self.shards.len())
    }

    /// `StreamUpdate(e)`: route one element to its shard.
    #[inline]
    pub fn stream_update(&mut self, e: T) {
        let i = self.shard_of(e);
        self.shards[i].stream_update(e);
    }

    /// Batched `StreamUpdate`: split `batch` by shard hash, then run each
    /// shard's [`HistStreamQuantiles::stream_extend`] — up to
    /// [`crate::parallel::worker_count`] shards concurrently. Equivalent
    /// to routing every element through [`ShardedEngine::stream_update`],
    /// several times faster for batches of a few hundred and up.
    pub fn stream_extend(&mut self, batch: &[T]) {
        if batch.is_empty() {
            return;
        }
        if self.shards.len() == 1 {
            self.shards[0].stream_extend(batch);
            return;
        }
        let k = self.shards.len();
        for bucket in &mut self.scratch {
            bucket.clear();
            bucket.reserve(batch.len() / k + 16);
        }
        for &e in batch {
            self.scratch[shard_index(e, k)].push(e);
        }
        let mut tasks: Vec<(&mut HistStreamQuantiles<T, D>, &[T])> = self
            .shards
            .iter_mut()
            .zip(self.scratch.iter().map(Vec::as_slice))
            .collect();
        crate::parallel::par_map_mut(&mut tasks, |_, (shard, chunk)| {
            if !chunk.is_empty() {
                shard.stream_extend(chunk);
            }
        });
        for bucket in &mut self.scratch {
            bucket.clear();
        }
    }

    /// Weighted `StreamUpdate(e, w)`: route one `(item, weight)` pair to
    /// its shard. Equivalent to `w` calls to
    /// [`ShardedEngine::stream_update`]; the shard's sketch ingests the
    /// weight natively (see [`HistStreamQuantiles::stream_update_weighted`]).
    #[inline]
    pub fn stream_update_weighted(&mut self, e: T, w: u64) {
        let i = self.shard_of(e);
        self.shards[i].stream_update_weighted(e, w);
    }

    /// Batched weighted `StreamUpdate`: split `batch` by shard hash (the
    /// hash depends only on the item, so weighted routing agrees with
    /// unweighted), then fan out each shard's
    /// [`HistStreamQuantiles::stream_extend_weighted`] over the bounded
    /// pool. Rank bounds still sum across shards with `m` now the total
    /// *weight*, so cross-shard queries keep the `ε·W` guarantee.
    pub fn stream_extend_weighted(&mut self, batch: &[(T, u64)]) {
        if batch.is_empty() {
            return;
        }
        if self.shards.len() == 1 {
            self.shards[0].stream_extend_weighted(batch);
            return;
        }
        let k = self.shards.len();
        let mut buckets: Vec<Vec<(T, u64)>> = (0..k)
            .map(|_| Vec::with_capacity(batch.len() / k + 16))
            .collect();
        for &(e, w) in batch {
            buckets[shard_index(e, k)].push((e, w));
        }
        let mut tasks: Vec<WeightedShardTask<'_, T, D>> = self
            .shards
            .iter_mut()
            .zip(buckets.iter().map(Vec::as_slice))
            .collect();
        crate::parallel::par_map_mut(&mut tasks, |_, (shard, chunk)| {
            if !chunk.is_empty() {
                shard.stream_extend_weighted(chunk);
            }
        });
    }

    /// End the time step on **every** shard (shards advance in lockstep,
    /// so per-shard partition layouts — and hence window alignment — stay
    /// identical). Archival runs up to [`crate::parallel::worker_count`]
    /// shards concurrently; with overlapped I/O configured
    /// (`io_depth > 0`) each shard only *submits* its run writes, so the
    /// writes overlap across shards even when the fan-out pool is down
    /// to one thread — the per-shard completion barriers at the end
    /// settle everything before this returns. Returns one report per
    /// shard.
    pub fn end_time_step(&mut self) -> io::Result<Vec<UpdateReport>> {
        let reports =
            crate::parallel::par_map_mut(&mut self.shards, |_, s| s.end_time_step_deferred());
        // Barrier every shard before surfacing any error: no shard may
        // be left with unsettled writes.
        let mut barrier_err = None;
        for s in &self.shards {
            if let Err(e) = s.io_barrier() {
                barrier_err.get_or_insert(e);
            }
        }
        let reports = reports.into_iter().collect::<io::Result<Vec<_>>>()?;
        match barrier_err {
            Some(e) => Err(e),
            None => Ok(reports),
        }
    }

    /// Convenience: stream a whole batch, then end the time step.
    pub fn ingest_step(&mut self, batch: &[T]) -> io::Result<Vec<UpdateReport>> {
        self.stream_extend(batch);
        self.end_time_step()
    }

    /// Immutable cross-shard view for concurrent readers: one pinned
    /// [`EngineSnapshot`] per shard. See [`HistStreamQuantiles::snapshot`].
    ///
    /// The snapshot caches its cross-shard [`CombinedSummary`] and its
    /// per-window query plans on first use, so *reusing one snapshot* for
    /// a dashboard's worth of queries builds the filters once — see the
    /// crate-level perf notes.
    pub fn snapshot(&self) -> ShardedSnapshot<T, D> {
        ShardedSnapshot {
            shards: self.shards.iter().map(|s| s.snapshot()).collect(),
            epsilon: self.config.query_epsilon(),
            cache_blocks: self.config.cache_blocks,
            parallel: self.config.parallel_query,
            ts: std::sync::OnceLock::new(),
            window_plans: Mutex::new(HashMap::new()),
        }
    }

    /// Accurate φ-quantile over the union of all shards (same `εm`
    /// guarantee as a single engine over the same data; see module docs).
    pub fn quantile(&self, phi: f64) -> io::Result<Option<T>> {
        self.snapshot().quantile(phi)
    }

    /// Accurate rank query over the union of all shards.
    pub fn rank_query(&self, r: u64) -> io::Result<Option<QueryOutcome<T>>> {
        self.snapshot().rank_query(r)
    }

    /// Batch of φ-quantiles over one shared snapshot.
    pub fn quantiles(&self, phis: &[f64]) -> io::Result<Vec<Option<T>>> {
        self.snapshot().quantiles(phis)
    }

    /// Quick φ-quantile (in-memory, error ≤ 1.5εN) over all shards.
    pub fn quantile_quick(&self, phi: f64) -> Option<T> {
        self.snapshot().quantile_quick(phi)
    }

    /// Window sizes answerable exactly across every shard, ascending.
    /// Shards advance in lockstep (shared step clock and retention
    /// policy), so this normally equals any single shard's windows.
    pub fn available_windows(&self) -> Vec<u64> {
        self.snapshot().available_windows()
    }

    /// Accurate φ-quantile over the union of every shard's live stream
    /// and newest `window_steps` retained steps (see
    /// [`ShardedSnapshot::quantile_in_window`]).
    pub fn quantile_in_window(&self, window_steps: u64, phi: f64) -> io::Result<Option<T>> {
        self.snapshot().quantile_in_window(window_steps, phi)
    }

    /// Accurate cross-shard windowed rank query (see
    /// [`ShardedSnapshot::rank_in_window`]).
    pub fn rank_in_window(&self, window_steps: u64, r: u64) -> io::Result<Option<QueryOutcome<T>>> {
        self.snapshot().rank_in_window(window_steps, r)
    }

    /// Persist every shard's warehouse metadata; returns one manifest
    /// [`FileId`] per shard (on that shard's device). Recover with
    /// [`ShardedEngine::recover`], passing the devices and manifests in
    /// the same shard order — routing is deterministic, so recovered
    /// shards keep receiving the same key ranges.
    pub fn persist(&self) -> io::Result<Vec<FileId>> {
        self.shards.iter().map(|s| s.persist()).collect()
    }

    /// Reopen a sharded engine persisted by [`ShardedEngine::persist`].
    pub fn recover(
        devices: Vec<Arc<D>>,
        config: HsqConfig,
        manifests: &[FileId],
    ) -> io::Result<Self> {
        assert_eq!(
            devices.len(),
            manifests.len(),
            "one manifest per shard device"
        );
        assert!(!devices.is_empty(), "at least one shard required");
        let shards = devices
            .into_iter()
            .zip(manifests)
            .map(|(d, &m)| HistStreamQuantiles::recover(d, config.clone(), m))
            .collect::<io::Result<Vec<_>>>()?;
        let scratch = shards.iter().map(|_| Vec::new()).collect();
        Ok(ShardedEngine {
            shards,
            config,
            scratch,
        })
    }
}

/// An immutable cross-shard view (see [`ShardedEngine::snapshot`]):
/// per-shard pinned snapshots plus the cached query plans.
///
/// The snapshot is also the **query-plan cache**: the cross-shard
/// combined summary (every partition summary plus every shard's stream
/// summary, sorted and bounded — the expensive per-query setup) is built
/// once on first use, and each window size's plan (per-shard partition
/// selection plus the windowed combined summary) likewise. Repeated
/// quantile/rank/window queries against one snapshot therefore skip
/// straight to the bisection.
pub struct ShardedSnapshot<T: Item, D: BlockDevice> {
    shards: Vec<EngineSnapshot<T, D>>,
    epsilon: f64,
    cache_blocks: usize,
    /// Probe shards concurrently (from the config's `parallel_query`):
    /// worth it when shard devices overlap real I/O; serial probing is
    /// cheaper when everything is cache-resident.
    parallel: bool,
    /// Lazily built cross-shard combined summary (full union).
    ts: std::sync::OnceLock<Arc<CombinedSummary<T>>>,
    /// Lazily built per-window query plans, keyed by window size;
    /// misaligned windows cache as `None` so repeats stay cheap too.
    window_plans: Mutex<HashMap<u64, Option<Arc<WindowPlan<T>>>>>,
}

/// A cached plan for one window size on one [`ShardedSnapshot`].
struct WindowPlan<T> {
    /// Per shard: indices into that shard's pinned partition list.
    parts: Vec<Vec<usize>>,
    /// Combined summary over the windowed sources (filter generation);
    /// its total is the window's history plus the live stream.
    ts: Arc<CombinedSummary<T>>,
}

impl<T: Item, D: BlockDevice> ShardedSnapshot<T, D> {
    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The snapshot of shard `i`.
    pub fn shard(&self, i: usize) -> &EngineSnapshot<T, D> {
        &self.shards[i]
    }

    /// Total size `N` at snapshot time.
    pub fn total_len(&self) -> u64 {
        self.shards.iter().map(|s| s.total_len()).sum()
    }

    /// Stream size `m` at snapshot time.
    pub fn stream_len(&self) -> u64 {
        self.shards.iter().map(|s| s.stream_len()).sum()
    }

    /// Historical size `n` at snapshot time.
    pub fn historical_len(&self) -> u64 {
        self.shards.iter().map(|s| s.historical_len()).sum()
    }

    /// The combined summary `TS` over **all** shards' sources — every
    /// partition summary plus every shard's stream summary. Bounds add
    /// across disjoint sources, so this is exactly the single-engine `TS`
    /// of the union (paper §2.3.1) and powers quick responses and filter
    /// generation.
    ///
    /// Built once per snapshot, on first use: the snapshot is immutable,
    /// so every later query (from any thread) reuses the same summary.
    pub fn combined_summary(&self) -> &CombinedSummary<T> {
        self.full_summary()
    }

    fn full_summary(&self) -> &Arc<CombinedSummary<T>> {
        self.ts
            .get_or_init(|| Arc::new(CombinedSummary::build(&self.source_views())))
    }

    /// One global stream summary, merged from the per-shard summaries
    /// (see [`StreamSummary::merge`]).
    pub fn merged_stream_summary(&self) -> StreamSummary<T> {
        self.shards
            .iter()
            .map(|s| s.stream_summary().clone())
            .reduce(|a, b| a.merge(&b))
            .unwrap_or_default()
    }

    /// Quick response (Algorithm 5 over the cross-shard `TS`): in-memory
    /// only, error ≤ 1.5·ε·N.
    pub fn quick_rank(&self, r: u64) -> Option<T> {
        let ts = self.combined_summary();
        ts.quick_response(r.clamp(1, ts.total().max(1)))
    }

    /// Quick φ-quantile over all shards.
    pub fn quantile_quick(&self, phi: f64) -> Option<T> {
        assert!(phi > 0.0 && phi <= 1.0, "phi must be in (0, 1]");
        let r = (phi * self.total_len() as f64).ceil() as u64;
        self.quick_rank(r)
    }

    /// Accurate φ-quantile over the union of all shards.
    pub fn quantile(&self, phi: f64) -> io::Result<Option<T>> {
        assert!(phi > 0.0 && phi <= 1.0, "phi must be in (0, 1]");
        let r = (phi * self.total_len() as f64).ceil() as u64;
        Ok(self.rank_query(r)?.map(|o| o.value))
    }

    /// Batch of φ-quantiles over this snapshot, sharing one cross-shard
    /// combined-summary build (mirrors [`EngineSnapshot::quantiles`]).
    pub fn quantiles(&self, phis: &[f64]) -> io::Result<Vec<Option<T>>> {
        self.full_context().quantiles(phis, self.total_len())
    }

    /// Per-shard views of the readable data: the full union, or the
    /// newest `window` steps through the cached [`WindowPlan`] (`None`
    /// when any shard misaligns). Quarantined partitions are excluded.
    fn views(&self, window: Option<u64>) -> Option<Vec<ShardView<'_, T, D>>> {
        let Some(w) = window else {
            return Some(self.shards.iter().map(|s| s.view(s.healthy())).collect());
        };
        let plan = self.window_plan(w)?;
        Some(
            self.shards
                .iter()
                .zip(&plan.parts)
                .map(|(s, idx)| s.view(idx.iter().map(|&i| s.partition_at(i)).collect()))
                .collect(),
        )
    }

    /// A query context over [`ShardedSnapshot::views`] and the matching
    /// cached combined summary; every outcome widens by
    /// [`ShardedSnapshot::quarantined_total`].
    fn context(&self, window: Option<u64>) -> Option<QueryContext<'_, T, D>> {
        let ts = match window {
            None => Arc::clone(self.full_summary()),
            Some(w) => Arc::clone(&self.window_plan(w)?.ts),
        };
        Some(
            QueryContext::over_shards(self.views(window)?, ts, self.epsilon, self.cache_blocks)
                .with_parallel(self.parallel)
                .with_degraded(self.quarantined_total()),
        )
    }

    fn full_context(&self) -> QueryContext<'_, T, D> {
        self.context(None)
            .expect("the full union is always aligned")
    }

    /// Summed `rank(z)` bounds across shards over the readable union, or
    /// over its newest `window` steps (`Ok(None)` when the window
    /// misaligns) — concurrently over the bounded pool when
    /// `parallel_query` is configured. Each shard searches its partitions
    /// inside their summaries' `narrow(z, z)` windows. `caches` from
    /// [`ShardedSnapshot::new_cache_set`] with the same `window`.
    ///
    /// Public because it is the per-node probe of the networked fan-in:
    /// a serving node answers each probe round with exactly this sum,
    /// and bounds from disjoint nodes add, so a coordinator bisecting
    /// over node-summed bounds inherits the in-process guarantee.
    /// Quarantined mass is *not* included: the coordinator widens the
    /// outcome by the session's quarantined weight once.
    pub fn probe_bounds(
        &self,
        window: Option<u64>,
        z: T,
        caches: &mut [Vec<BlockCache<T>>],
    ) -> io::Result<Option<(u64, u64)>> {
        let Some(views) = self.views(window) else {
            return Ok(None);
        };
        FanIn::new(&views, caches, self.parallel, None)
            .probe(z)
            .map(Some)
    }

    /// One block-cache set per shard for
    /// [`ShardedSnapshot::probe_bounds`] over the same `window` (per
    /// shard, one cache per probed partition, the cache budget split
    /// across them); `None` when the window misaligns. Callers probing
    /// concurrently (e.g. one serving connection per tenant) hold their
    /// own set; the snapshot itself stays shared.
    pub fn new_cache_set(&self, window: Option<u64>) -> Option<Vec<Vec<BlockCache<T>>>> {
        let views = self.views(window)?;
        Some(
            views
                .iter()
                .map(|v| v.new_caches(self.cache_blocks))
                .collect(),
        )
    }

    /// Accurate cross-shard rank query (the fan-in described in the
    /// module docs): value-space bisection over summed per-shard rank
    /// bounds, filters seeded from the cross-shard combined summary.
    /// Error ≤ ε·m over the union, `m` = total stream size at snapshot
    /// time.
    pub fn rank_query(&self, r: u64) -> io::Result<Option<QueryOutcome<T>>> {
        self.full_context().accurate_rank(r)
    }

    /// Items excluded by quarantine across every shard — the `rank_hi`
    /// widening cross-shard outcomes carry.
    pub fn quarantined_total(&self) -> u64 {
        self.shards.iter().map(|s| s.quarantined_mass()).sum()
    }

    /// The error parameter governing this snapshot's accurate responses
    /// (`4ε₂`, from [`crate::HsqConfig::query_epsilon`]): outcomes are
    /// rank-correct within `ε·m`, `m` = stream weight at snapshot time.
    /// A serving node hands this to its coordinator so remote and
    /// in-process acceptance windows are bit-identical.
    pub fn query_epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Every per-source view this snapshot's combined summary is built
    /// from — each shard's partition summaries plus its stream summary,
    /// in shard order. This is the *summary extract* a serving node
    /// ships to a coordinator: rebuilding [`CombinedSummary::build`]
    /// over the concatenated extracts of disjoint nodes reproduces the
    /// union's summary exactly (values are a sorted multiset, bounds are
    /// order-independent sums), so remotely seeded bisection brackets
    /// match the in-process ones bit for bit.
    pub fn source_views(&self) -> Vec<crate::bounds::SourceView<T>> {
        self.shards.iter().flat_map(|s| s.sources()).collect()
    }

    /// The windowed counterpart of [`ShardedSnapshot::source_views`]:
    /// per-source views over the newest `window_steps` steps (each
    /// shard's in-window, non-quarantined partition summaries plus its
    /// stream summary) and the windowed total. `None` when the window
    /// misaligns with partition boundaries on any shard. Built in the
    /// same source order as the cached window plan, so a summary rebuilt
    /// from the extract equals the plan's.
    pub fn window_source_views(
        &self,
        window_steps: u64,
    ) -> Option<(Vec<crate::bounds::SourceView<T>>, u64)> {
        let views = self.views(Some(window_steps))?;
        let sources = views.iter().flat_map(|v| v.sources()).collect();
        Some((sources, self.window_total(window_steps)?))
    }

    /// Window sizes (in snapshot-time steps) answerable exactly across
    /// **every** shard, ascending. Shards normally advance in lockstep so
    /// their partition layouts align; byte-driven retention can retire
    /// different step ranges per shard, in which case only windows aligned
    /// on all shards are offered.
    pub fn available_windows(&self) -> Vec<u64> {
        let mut iter = self.shards.iter();
        let Some(first) = iter.next() else {
            return Vec::new();
        };
        let mut common: Vec<u64> = first.available_windows();
        for s in iter {
            let w = s.available_windows();
            common.retain(|x| w.contains(x));
        }
        common
    }

    /// The cached query plan for `window_steps`: every shard's window
    /// partition selection plus the windowed combined summary, computed
    /// once per (snapshot, window size). `None` — also cached — when any
    /// shard's partitions misalign with the boundary.
    fn window_plan(&self, window_steps: u64) -> Option<Arc<WindowPlan<T>>> {
        if let Some(cached) = self.window_plans.lock().unwrap().get(&window_steps) {
            return cached.clone();
        }
        // Build outside the lock so concurrent readers of *other* window
        // sizes never serialize on one plan's construction; a racing
        // duplicate build produces an identical plan and the first insert
        // wins.
        let plan = self.build_window_plan(window_steps).map(Arc::new);
        self.window_plans
            .lock()
            .unwrap()
            .entry(window_steps)
            .or_insert(plan)
            .clone()
    }

    fn build_window_plan(&self, window_steps: u64) -> Option<WindowPlan<T>> {
        let mut parts = Vec::with_capacity(self.shards.len());
        let mut sources: Vec<crate::bounds::SourceView<T>> = Vec::new();
        for s in &self.shards {
            // Quarantined partitions stay out of the plan: windowed
            // queries answer over readable data with widened bounds.
            let idx: Vec<usize> = s
                .window_partition_indices(window_steps)?
                .into_iter()
                .filter(|&i| !s.is_quarantined(s.partition_at(i).run.file()))
                .collect();
            sources.extend(
                s.view(idx.iter().map(|&i| s.partition_at(i)).collect())
                    .sources(),
            );
            parts.push(idx);
        }
        Some(WindowPlan {
            parts,
            ts: Arc::new(CombinedSummary::build(&sources)),
        })
    }

    /// Total items (history + stream) inside the newest `window_steps`
    /// steps across all shards; `None` when any shard's partitions
    /// misalign with the window boundary.
    pub fn window_total(&self, window_steps: u64) -> Option<u64> {
        self.window_plan(window_steps).map(|p| p.ts.total())
    }

    /// Accurate φ-quantile over the union of every shard's live stream
    /// and newest `window_steps` retained steps. `Ok(None)` when the
    /// window misaligns with partition boundaries on any shard. Same
    /// `ε·m` guarantee as [`ShardedSnapshot::quantile`], over the
    /// windowed union.
    pub fn quantile_in_window(&self, window_steps: u64, phi: f64) -> io::Result<Option<T>> {
        assert!(phi > 0.0 && phi <= 1.0, "phi must be in (0, 1]");
        let ctx = self.context(Some(window_steps));
        ctx.map_or(Ok(None), |ctx| ctx.quantile(phi))
    }

    /// Accurate cross-shard rank query over a window: the same fan-in
    /// bisection as [`ShardedSnapshot::rank_query`], with per-shard
    /// bounds summed over each shard's window partitions plus its stream
    /// summary.
    pub fn rank_in_window(&self, window_steps: u64, r: u64) -> io::Result<Option<QueryOutcome<T>>> {
        let ctx = self.context(Some(window_steps));
        ctx.map_or(Ok(None), |ctx| ctx.accurate_rank(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsq_storage::MemDevice;

    fn sharded(n: usize, eps: f64, kappa: usize) -> ShardedEngine<u64, MemDevice> {
        let cfg = HsqConfig::builder()
            .epsilon(eps)
            .merge_threshold(kappa)
            .build();
        ShardedEngine::with_shards(n, cfg, |_| MemDevice::new(256))
    }

    fn gen_stream(seed: u64, len: usize) -> Vec<u64> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                x >> 33
            })
            .collect()
    }

    fn rank_distance(sorted: &[u64], v: u64, r: u64) -> u64 {
        let hi = sorted.partition_point(|&x| x <= v) as u64;
        let lo = sorted.partition_point(|&x| x < v) as u64 + 1;
        if lo > hi {
            return r.abs_diff(hi);
        }
        if r < lo {
            lo - r
        } else {
            r.saturating_sub(hi)
        }
    }

    #[test]
    fn routing_is_deterministic_and_total() {
        let e = sharded(4, 0.1, 3);
        for v in gen_stream(9, 500) {
            let i = e.shard_of(v);
            assert!(i < 4);
            assert_eq!(i, e.shard_of(v));
            assert_eq!(i, shard_index(v, 4));
        }
        assert_eq!(shard_index(12345u64, 1), 0);
    }

    #[test]
    fn hash_split_is_roughly_balanced() {
        let mut e = sharded(4, 0.1, 4);
        e.stream_extend(&gen_stream(77, 8000));
        let lens: Vec<u64> = e.shards().iter().map(|s| s.stream_len()).collect();
        assert_eq!(lens.iter().sum::<u64>(), 8000);
        for &l in &lens {
            assert!(
                (1000..3000).contains(&l),
                "imbalanced shard sizes: {lens:?}"
            );
        }
    }

    #[test]
    fn sharded_matches_exact_within_guarantee() {
        for n in [1usize, 2, 4] {
            let eps = 0.05;
            let mut e = sharded(n, eps, 3);
            let mut all: Vec<u64> = Vec::new();
            for step in 0..6u64 {
                let batch = gen_stream(step + 1, 400);
                all.extend(&batch);
                e.ingest_step(&batch).unwrap();
            }
            let stream = gen_stream(99, 400);
            all.extend(&stream);
            e.stream_extend(&stream);
            assert_eq!(e.total_len(), all.len() as u64);
            all.sort_unstable();
            let m = 400u64;
            let allowed = (eps * m as f64).ceil() as u64 + 1;
            for phi in [0.01, 0.25, 0.5, 0.75, 0.99, 1.0] {
                let v = e.quantile(phi).unwrap().unwrap();
                let r = ((phi * all.len() as f64).ceil() as u64).clamp(1, all.len() as u64);
                let dist = rank_distance(&all, v, r);
                assert!(
                    dist <= allowed,
                    "n={n} phi={phi}: off by {dist} (allowed {allowed})"
                );
            }
        }
    }

    #[test]
    fn scalar_and_batched_routes_agree() {
        let data = gen_stream(5, 600);
        let mut a = sharded(3, 0.1, 3);
        let mut b = sharded(3, 0.1, 3);
        for &v in &data {
            a.stream_update(v);
        }
        b.stream_extend(&data);
        assert_eq!(a.shard_lens(), b.shard_lens());
        assert_eq!(a.total_len(), 600);
    }

    #[test]
    fn weighted_sharded_matches_replicated() {
        // Weighted ingest across shards ≡ replicated unweighted ingest:
        // same routing (the hash ignores the weight), quantiles within
        // ε·W of the replicated exact answer, for 1, 2 and 8 shards.
        for n in [1usize, 2, 8] {
            let eps = 0.05;
            let mut e = sharded(n, eps, 3);
            let items = gen_stream(41, 1200);
            let pairs: Vec<(u64, u64)> = items
                .iter()
                .enumerate()
                .map(|(i, &v)| (v, (i as u64 % 5) + 1))
                .collect();
            // Interleave batched and scalar weighted routes.
            e.stream_extend_weighted(&pairs[..800]);
            for &(v, w) in &pairs[800..] {
                e.stream_update_weighted(v, w);
            }
            let mut replicated: Vec<u64> = Vec::new();
            for &(v, w) in &pairs {
                replicated.extend(std::iter::repeat_n(v, w as usize));
            }
            let total_w: u64 = pairs.iter().map(|&(_, w)| w).sum();
            assert_eq!(e.stream_len(), total_w, "n={n}: m must be summed weight");
            replicated.sort_unstable();
            let allowed = (eps * total_w as f64).ceil() as u64 + 1;
            for phi in [0.1, 0.5, 0.9, 1.0] {
                let v = e.quantile(phi).unwrap().unwrap();
                let r = ((phi * total_w as f64).ceil() as u64).clamp(1, total_w);
                let dist = rank_distance(&replicated, v, r);
                assert!(
                    dist <= allowed,
                    "n={n} phi={phi}: off by {dist} (allowed {allowed})"
                );
            }
            // Zero-weight pairs are dropped everywhere.
            e.stream_extend_weighted(&[(7, 0), (9, 0)]);
            e.stream_update_weighted(11, 0);
            assert_eq!(e.stream_len(), total_w);
        }
    }

    #[test]
    fn quick_queries_touch_no_disk() {
        let mut e = sharded(4, 0.05, 3);
        for step in 0..4u64 {
            e.ingest_step(&gen_stream(step + 1, 500)).unwrap();
        }
        let before: u64 = e
            .shards()
            .iter()
            .map(|s| s.warehouse().device().stats().snapshot().total_reads())
            .sum();
        let snap = e.snapshot();
        let _ = snap.quantile_quick(0.5);
        let _ = snap.quantile_quick(0.95);
        let after: u64 = e
            .shards()
            .iter()
            .map(|s| s.warehouse().device().stats().snapshot().total_reads())
            .sum();
        assert_eq!(after, before, "quick responses must stay in memory");
    }

    #[test]
    fn snapshot_outlives_merges() {
        let mut e = sharded(2, 0.1, 2);
        for step in 0..3u64 {
            let batch: Vec<u64> = (0..300).map(|i| step * 300 + i).collect();
            e.ingest_step(&batch).unwrap();
        }
        let snap = e.snapshot();
        let before = snap.quantile(0.5).unwrap().unwrap();
        // Trigger cascade merges on both shards.
        for step in 3..9u64 {
            let batch: Vec<u64> = (0..300).map(|i| step * 300 + i).collect();
            e.ingest_step(&batch).unwrap();
        }
        assert_eq!(snap.total_len(), 900);
        assert_eq!(snap.quantile(0.5).unwrap().unwrap(), before);
        assert!((before as i64 - 450).abs() <= 5, "median {before}");
    }

    #[test]
    fn merged_stream_summary_covers_union() {
        let mut e = sharded(4, 0.1, 3);
        let data = gen_stream(31, 3000);
        e.stream_extend(&data);
        let snap = e.snapshot();
        let merged = snap.merged_stream_summary();
        assert_eq!(merged.stream_len(), 3000);
        let mut sorted = data.clone();
        sorted.sort_unstable();
        for probe in sorted.iter().step_by(293) {
            let truth = sorted.partition_point(|&x| x <= *probe) as u64;
            let (lo, hi) = merged.rank_bounds(*probe);
            assert!(lo <= truth && truth <= hi, "{truth} outside [{lo},{hi}]");
        }
    }

    #[test]
    fn persist_recover_roundtrip() {
        let mut e = sharded(3, 0.1, 3);
        let mut all: Vec<u64> = Vec::new();
        for step in 0..5u64 {
            let batch = gen_stream(step + 11, 300);
            all.extend(&batch);
            e.ingest_step(&batch).unwrap();
        }
        let manifests = e.persist().unwrap();
        let devices: Vec<_> = e
            .shards()
            .iter()
            .map(|s| Arc::clone(s.warehouse().device()))
            .collect();
        let cfg = e.config().clone();
        let recovered = ShardedEngine::<u64, _>::recover(devices, cfg, &manifests).unwrap();
        assert_eq!(recovered.total_len(), e.total_len());
        assert_eq!(recovered.num_shards(), 3);
        all.sort_unstable();
        // History-only: recovered queries are near exact (m = 0).
        let med = recovered.quantile(0.5).unwrap().unwrap();
        let r = (all.len() as u64).div_ceil(2);
        assert!(rank_distance(&all, med, r) <= 1, "median {med}");
    }

    #[test]
    fn empty_and_degenerate() {
        let e = sharded(4, 0.1, 3);
        assert!(e.quantile(0.5).unwrap().is_none());
        assert!(e.quantile_quick(0.5).is_none());
        assert_eq!(e.total_len(), 0);
        let mut e = e;
        e.stream_extend(&[]);
        let reports = e.end_time_step().unwrap();
        assert_eq!(reports.len(), 4);
        // One value total: every quantile answers it.
        e.stream_update(42);
        assert_eq!(e.quantile(0.5).unwrap(), Some(42));
        assert_eq!(e.quantile(1.0).unwrap(), Some(42));
    }

    #[test]
    fn windowed_cross_shard_queries_match_window_data() {
        for n in [1usize, 2, 4] {
            let mut e = sharded(n, 0.05, 2);
            let mut steps: Vec<Vec<u64>> = Vec::new();
            for step in 0..13u64 {
                let batch: Vec<u64> = (0..120).map(|i| step * 120 + i).collect();
                steps.push(batch.clone());
                e.ingest_step(&batch).unwrap();
            }
            let windows = e.available_windows();
            assert_eq!(windows, vec![1, 4, 13], "n={n}");
            for &w in &windows {
                let mut win: Vec<u64> = steps[steps.len() - w as usize..]
                    .iter()
                    .flatten()
                    .copied()
                    .collect();
                win.sort_unstable();
                // Empty stream: answers over the window are exact.
                let med = e.quantile_in_window(w, 0.5).unwrap().unwrap();
                let r = (win.len() as u64).div_ceil(2);
                assert_eq!(med, win[r as usize - 1], "n={n} w={w}");
                let out = e.rank_in_window(w, 1).unwrap().unwrap();
                assert_eq!(out.value, win[0], "n={n} w={w} min");
            }
            // Misaligned window refused, matching the single-engine API.
            assert!(e.quantile_in_window(2, 0.5).unwrap().is_none());
        }
    }

    #[test]
    fn windowed_cross_shard_includes_live_stream() {
        let mut e = sharded(3, 0.05, 3);
        for step in 0..3u64 {
            let batch: Vec<u64> = (0..200).map(|i| step * 200 + i).collect();
            e.ingest_step(&batch).unwrap();
        }
        let live: Vec<u64> = (600..800).collect();
        e.stream_extend(&live);
        // Window 1 = step 3 (400..600) + stream (600..800): median ~600.
        let med = e.quantile_in_window(1, 0.5).unwrap().unwrap();
        assert!((580..630).contains(&med), "median {med}");
    }

    #[test]
    fn parallel_windowed_queries_match_serial() {
        let mk = |parallel: bool| {
            let cfg = HsqConfig::builder()
                .epsilon(0.05)
                .merge_threshold(2)
                .cache_blocks(128)
                .parallel_query(parallel)
                .build();
            let mut e =
                ShardedEngine::<u64, _>::with_shards(4, cfg.clone(), |_| MemDevice::new(256));
            let mut h = HistStreamQuantiles::<u64, _>::new(MemDevice::new(256), cfg);
            for step in 0..13u64 {
                e.ingest_step(&gen_stream(step + 3, 300)).unwrap();
                h.ingest_step(&gen_stream(step + 3, 300)).unwrap();
            }
            e.stream_extend(&gen_stream(777, 150));
            h.stream_extend(&gen_stream(777, 150));
            (e, h)
        };
        let (serial, serial_h) = mk(false);
        let (parallel, parallel_h) = mk(true);
        for w in serial.available_windows() {
            for phi in [0.1, 0.5, 0.9] {
                assert_eq!(
                    serial.quantile_in_window(w, phi).unwrap(),
                    parallel.quantile_in_window(w, phi).unwrap(),
                    "window {w} phi {phi}"
                );
            }
            let a = serial.rank_in_window(w, 100).unwrap().unwrap();
            let b = parallel.rank_in_window(w, 100).unwrap().unwrap();
            assert_eq!(a.value, b.value);
            assert_eq!(a.estimated_rank, b.estimated_rank);
        }
        for w in serial_h.available_windows() {
            for phi in [0.1, 0.5, 0.9] {
                assert_eq!(
                    serial_h.quantile_in_window(w, phi).unwrap(),
                    parallel_h.quantile_in_window(w, phi).unwrap(),
                    "engine window {w} phi {phi}"
                );
            }
            let a = serial_h.rank_in_window(w, 100).unwrap().unwrap();
            let b = parallel_h.rank_in_window(w, 100).unwrap().unwrap();
            assert_eq!(a.value, b.value);
            assert_eq!(a.estimated_rank, b.estimated_rank);
        }
    }

    #[test]
    fn sharded_retention_applies_per_shard() {
        let cfg = HsqConfig::builder()
            .epsilon(0.1)
            .merge_threshold(3)
            .retention(crate::retention::RetentionPolicy::unbounded().with_max_age_steps(4))
            .build();
        let mut e = ShardedEngine::<u64, _>::with_shards(4, cfg, |_| MemDevice::new(256));
        for step in 0..16u64 {
            e.ingest_step(&gen_stream(step + 1, 400)).unwrap();
        }
        for s in e.shards() {
            let horizon = s.warehouse().steps().saturating_sub(4);
            for p in s.warehouse().partitions_newest_first() {
                assert!(p.last_step > horizon, "shard retained expired data");
            }
        }
        // Shards advance in lockstep: windows still align across shards.
        let windows = e.available_windows();
        assert!(!windows.is_empty());
        assert!(*windows.last().unwrap() <= 4);
        let med = e.quantile_in_window(*windows.last().unwrap(), 0.5).unwrap();
        assert!(med.is_some());
    }

    #[test]
    fn cached_snapshot_queries_are_identical_to_fresh() {
        // The snapshot's cached combined summary and window plans must
        // change nothing: repeated queries on one snapshot answer exactly
        // like first queries on fresh snapshots, for 1, 2 and 8 shards.
        for n in [1usize, 2, 8] {
            let mut e = sharded(n, 0.05, 2);
            for step in 0..13u64 {
                e.ingest_step(&gen_stream(step + 3, 250)).unwrap();
            }
            e.stream_extend(&gen_stream(500, 200));
            let reused = e.snapshot();
            for round in 0..3 {
                for r in [1u64, 300, 1500, 3000] {
                    let fresh = e.snapshot().rank_query(r).unwrap().unwrap();
                    let cached = reused.rank_query(r).unwrap().unwrap();
                    assert_eq!(fresh.value, cached.value, "n={n} round={round} r={r}");
                    assert_eq!(fresh.estimated_rank, cached.estimated_rank);
                    assert_eq!(fresh.bisection_steps, cached.bisection_steps);
                }
                for w in reused.available_windows() {
                    let fresh = e.snapshot().rank_in_window(w, 100).unwrap().unwrap();
                    let cached = reused.rank_in_window(w, 100).unwrap().unwrap();
                    assert_eq!(fresh.value, cached.value, "n={n} w={w}");
                    assert_eq!(fresh.estimated_rank, cached.estimated_rank);
                }
                // Misaligned windows stay refused (and cache as None).
                assert!(reused.rank_in_window(2, 10).unwrap().is_none());
            }
        }
    }

    #[test]
    fn snapshot_summary_is_built_once_and_shared() {
        let mut e = sharded(4, 0.1, 3);
        for step in 0..6u64 {
            e.ingest_step(&gen_stream(step + 1, 300)).unwrap();
        }
        let snap = e.snapshot();
        let a = snap.combined_summary() as *const _;
        let _ = snap.quantile(0.5).unwrap();
        let _ = snap.quantile(0.9).unwrap();
        let b = snap.combined_summary() as *const _;
        assert_eq!(a, b, "combined summary must be cached, not rebuilt");
        // Window plans likewise: totals are stable across calls.
        let w = *snap.available_windows().first().unwrap();
        assert_eq!(snap.window_total(w), snap.window_total(w));
    }

    #[test]
    fn rank_query_reports_estimated_rank() {
        let mut e = sharded(2, 0.05, 3);
        for step in 0..4u64 {
            let batch: Vec<u64> = (0..500).map(|i| step * 500 + i).collect();
            e.ingest_step(&batch).unwrap();
        }
        // No stream: estimates are exact.
        let out = e.rank_query(1000).unwrap().unwrap();
        assert_eq!(out.estimated_rank, 1000);
        assert_eq!(out.value, 999);
    }
}
