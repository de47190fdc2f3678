//! Query processing: the quick response (Algorithm 5) and the accurate
//! response (Algorithms 6–8).
//!
//! The accurate path takes the filter pair from
//! [`CombinedSummary::generate_filters`] (Algorithm 7) and bisects the
//! *value space* between them (Algorithm 8). [`bisect_summed_rank`] is the
//! one bisection loop in the crate: at each step it asks a
//! [`RankProbeSource`] for rigorous bounds on `rank(z)` of the midpoint
//! `z` — the exact rank `ρ₁` in every partition (a narrowed binary search
//! over disk blocks) plus an approximate rank `ρ₂` in the stream (from the
//! stream summary's rigorous bounds) — and recurses left or right until
//! `ρ = ρ₁ + ρ₂` lands within the acceptance window of the target rank.
//!
//! Ranks throughout this module are *summed weights*, not item counts:
//! with weighted ingestion (`stream_update_weighted`) an item of weight
//! `w` contributes `w` to every `rank(z)` with `z ≥ item`, the total
//! size `N` and stream size `m` are summed weights, and every error
//! bound reads `ε·m` with `m = W`, the total stream weight. Unweighted
//! ingestion is the `w = 1` special case, where weights and counts
//! coincide — nothing below changes shape either way, because archived
//! partitions materialize weight as replication while the stream sketch
//! carries it natively.
//!
//! A [`QueryContext`] spans one or more *shards* (device, partitions,
//! stream summary). Rank bounds over disjoint sources add, so a single
//! engine is simply the one-shard case of the cross-shard fan-in, and
//! every read surface — live engine, [`crate::EngineSnapshot`],
//! [`crate::ShardedSnapshot`], a serving node — runs the same kernel over
//! the same per-shard probe source. Probes bound the *readable* union
//! only; the outcome adds the quarantined mass to `rank_hi` exactly once.
//!
//! The two paper optimizations live in that per-shard source:
//! * each partition's search window is the summary's `narrow` around the
//!   probe (Algorithm 8 line 5), tightened by this query's earlier
//!   probes — rank is monotone in `z`, so a probe left of the previous
//!   one is capped by its exact ranks and a probe to the right is floored
//!   by them;
//! * all block reads go through a [`BlockCache`], so once a partition's
//!   window falls inside one block no further I/O is charged for it
//!   (§2.4 "Optimization").
//!
//! With an [`IoScheduler`] attached, the source also speculatively
//! prefetches the first block read of both candidate next probes.

use std::io;
use std::sync::Arc;

use hsq_storage::{
    BlockCache, BlockDevice, IoOp, IoOutcome, IoScheduler, IoSnapshot, IoTicket, Item,
};

use crate::bounds::{CombinedSummary, SourceView};
use crate::stream::StreamSummary;
use crate::warehouse::StoredPartition;

/// The answer to a rank/quantile query, with its observed cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryOutcome<T> {
    /// The answering value (see module docs on Definition 1 semantics).
    pub value: T,
    /// Disk I/O consumed by this query.
    pub io: IoSnapshot,
    /// Value-space bisection steps executed.
    pub bisection_steps: u32,
    /// The algorithm's final rank estimate for `value` in `T`.
    pub estimated_rank: u64,
    /// Speculative probe-prefetch reads consumed by a later bisection
    /// step (0 unless the query ran with `io_depth > 0`).
    pub prefetch_hits: u32,
    /// Speculative probe-prefetch reads that went unused (the candidate
    /// direction the bisection did not take).
    pub prefetch_wasted: u32,
    /// Rigorous lower bound on `rank(value, T)`: `estimated_rank − ε·m`.
    pub rank_lo: u64,
    /// Rigorous upper bound on `rank(value, T)`:
    /// `estimated_rank + ε·m + quarantined` — degraded queries widen the
    /// upper bound by **exactly** the quarantined item count, since every
    /// unreadable item could fall at or below `value`.
    pub rank_hi: u64,
    /// `true` when the context excluded quarantined (confirmed-corrupt)
    /// partitions: the answer is still rank-correct within
    /// `[rank_lo, rank_hi]`, just wider than the healthy-path `ε·m`.
    pub degraded: bool,
    /// Items excluded by quarantine (suspect partitions + confirmed-lost
    /// mass) — the exact widening applied to `rank_hi`.
    pub quarantined: u64,
}

/// How [`QueryContext::accurate_rank`] seeds its bisection bracket.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SeedMode {
    /// Seed `[u, v]` from the combined summary's tightest bracket
    /// (Algorithm 7 filters with extreme-value fallback) — the default.
    #[default]
    Summary,
    /// Seed from the full universe `[T::MIN, T::MAX]`, ignoring the
    /// summary (the unoptimized Algorithm 8 baseline; kept for the
    /// step-count comparison in tests and benches).
    Domain,
}

/// One shard's readable data as a query sees it: the block device, the
/// partitions to probe (quarantined ones already excluded), the extracted
/// stream summary, and the scheduler speculative prefetch goes through.
pub(crate) struct ShardView<'a, T: Item, D: BlockDevice> {
    pub(crate) dev: &'a D,
    pub(crate) partitions: Vec<&'a StoredPartition<T>>,
    pub(crate) stream: &'a StreamSummary<T>,
    pub(crate) sched: Option<&'a IoScheduler>,
}

impl<'a, T: Item, D: BlockDevice> ShardView<'a, T, D> {
    /// Per-source rank-bound views (partitions, then the stream): the
    /// inputs a [`CombinedSummary`] is built from.
    pub(crate) fn sources(&self) -> Vec<SourceView<T>> {
        let mut out = history_sources(&self.partitions);
        out.push(SourceView::from_stream(self.stream));
        out
    }

    /// One decoded-block cache per partition, splitting `cache_blocks`
    /// across them, so parallel probes never contend.
    pub(crate) fn new_caches(&self, cache_blocks: usize) -> Vec<BlockCache<T>> {
        let per = (cache_blocks / self.partitions.len().max(1)).max(2);
        self.partitions
            .iter()
            .map(|_| BlockCache::new(per))
            .collect()
    }

    /// A fresh probe source over this shard (see `ShardProbes`): its
    /// first probe searches every partition inside the summary's
    /// `narrow(z, z)` window. `parallel` probes the partitions
    /// concurrently; `prefetch`, the seed bracket, turns on speculative
    /// prefetch where the shard has a scheduler.
    pub(crate) fn probes<'c>(
        &'c self,
        caches: &'c mut [BlockCache<T>],
        parallel: bool,
        prefetch: Option<(T, T)>,
    ) -> ShardProbes<'c, T, D> {
        debug_assert_eq!(self.partitions.len(), caches.len());
        ShardProbes {
            view: self,
            caches,
            parallel,
            known: Vec::new(),
            prefetch: prefetch.zip(self.sched.map(SpecPrefetcher::new)),
        }
    }
}

/// Rank-bound views of partition summaries: the history side of `TS`.
pub(crate) fn history_sources<T: Item>(partitions: &[&StoredPartition<T>]) -> Vec<SourceView<T>> {
    partitions
        .iter()
        .map(|p| SourceView::from_partition(&p.summary))
        .collect()
}

/// `TS` over `partitions` ∪ `stream`: the history side, then the stream
/// merged in with [`CombinedSummary::with_stream`].
pub(crate) fn one_shard_summary<T: Item>(
    partitions: &[&StoredPartition<T>],
    stream: &StreamSummary<T>,
) -> CombinedSummary<T> {
    CombinedSummary::build(&history_sources(partitions))
        .with_stream(&SourceView::from_stream(stream))
}

/// Per-query evaluation context over one or more shards.
///
/// Each shard borrows its partitions (all of them, or a window's worth)
/// and its extracted stream summary; the combined summary `TS` over every
/// shard's sources seeds the bisection and answers quick responses.
pub struct QueryContext<'a, T: Item, D: BlockDevice> {
    shards: Vec<ShardView<'a, T, D>>,
    ts: Arc<CombinedSummary<T>>,
    epsilon: f64,
    cache_blocks: usize,
    /// Probe concurrently (see `crate::parallel`): the partitions of a
    /// one-shard context, the shards of a multi-shard one.
    parallel: bool,
    /// Bisection bracket seeding (see [`SeedMode`]).
    seed: SeedMode,
    /// Items quarantined (excluded) from this context's partition set;
    /// widens every outcome's `rank_hi` and sets its `degraded` flag.
    quarantined: u64,
}

impl<'a, T: Item, D: BlockDevice> QueryContext<'a, T, D> {
    /// Build the combined summary `TS` over `partitions` ∪ stream — the
    /// history side, then [`CombinedSummary::with_stream`] — as the
    /// one-shard context. Nothing is cached; the engine keeps its history
    /// side across queries instead.
    pub fn new(
        dev: &'a D,
        partitions: Vec<&'a StoredPartition<T>>,
        stream: &'a StreamSummary<T>,
        epsilon: f64,
        cache_blocks: usize,
    ) -> Self {
        let ts = Arc::new(one_shard_summary(&partitions, stream));
        let shard = ShardView {
            dev,
            partitions,
            stream,
            sched: None,
        };
        Self::over_shards(vec![shard], ts, epsilon, cache_blocks)
    }

    /// A context over `shards` whose combined summary `ts` was built (and
    /// possibly cached) by the caller over exactly their sources.
    pub(crate) fn over_shards(
        shards: Vec<ShardView<'a, T, D>>,
        ts: Arc<CombinedSummary<T>>,
        epsilon: f64,
        cache_blocks: usize,
    ) -> Self {
        QueryContext {
            shards,
            ts,
            epsilon,
            cache_blocks,
            parallel: false,
            seed: SeedMode::default(),
            quarantined: 0,
        }
    }

    /// Enable parallel probing (paper §4's future-work direction:
    /// "different disk partitions can be processed in parallel").
    pub fn with_parallel(mut self, yes: bool) -> Self {
        self.parallel = yes;
        self
    }

    /// Enable speculative bisection prefetch through `sched` (must
    /// schedule over the same device as this context): each bisection
    /// step submits the first block read of **both** candidate
    /// half-probes of the next step, so whichever direction the search
    /// takes finds its block warm. Answers are identical with or without
    /// prefetch — only the device round-trip latency moves off the
    /// critical path. No-op when `None`.
    pub fn with_prefetch(mut self, sched: Option<&'a IoScheduler>) -> Self {
        for s in &mut self.shards {
            s.sched = sched;
        }
        self
    }

    /// Select the bisection bracket seeding (default
    /// [`SeedMode::Summary`]).
    pub fn with_seed_mode(mut self, seed: SeedMode) -> Self {
        self.seed = seed;
        self
    }

    /// Mark this context as degraded: `quarantined` items were excluded
    /// from its partition set (corruption quarantine). Outcomes widen
    /// `rank_hi` by exactly this amount and set their `degraded` flag.
    /// No-op at 0 (the healthy path).
    pub fn with_degraded(mut self, quarantined: u64) -> Self {
        self.quarantined = quarantined;
        self
    }

    /// Total data size `N` covered by this context.
    pub fn total(&self) -> u64 {
        self.ts.total()
    }

    /// The combined summary (exposed for inspection/tests).
    pub fn combined_summary(&self) -> &CombinedSummary<T> {
        &self.ts
    }

    /// Algorithm 5: quick response for 1-based rank `r`, using only
    /// in-memory structures. Error ≤ 1.5·ε·N (Lemma 3).
    pub fn quick_rank(&self, r: u64) -> Option<T> {
        self.ts.quick_response(r.clamp(1, self.total().max(1)))
    }

    /// Accurate φ-quantiles at ranks `⌈φ·n⌉`, one bisection each; the
    /// batch shares one block-cache set.
    pub(crate) fn quantiles(&self, phis: &[f64], n: u64) -> io::Result<Vec<Option<T>>> {
        let mut caches = self.new_caches();
        phis.iter()
            .map(|&phi| {
                assert!(phi > 0.0 && phi <= 1.0, "phi must be in (0, 1]");
                let r = (phi * n as f64).ceil() as u64;
                Ok(self.accurate_rank_with(r, &mut caches)?.map(|o| o.value))
            })
            .collect()
    }

    /// Accurate φ-quantile over this context's union (rank `⌈φ·N⌉`).
    pub(crate) fn quantile(&self, phi: f64) -> io::Result<Option<T>> {
        Ok(self.quantiles(&[phi], self.total())?.pop().flatten())
    }

    /// Algorithm 6: accurate response for 1-based rank `r`.
    /// Error O(ε·m) (Lemma 5, Theorem 2).
    pub fn accurate_rank(&self, r: u64) -> io::Result<Option<QueryOutcome<T>>> {
        self.accurate_rank_with(r, &mut self.new_caches())
    }

    /// One block-cache set per shard (see [`ShardView::new_caches`]).
    fn new_caches(&self) -> Vec<Vec<BlockCache<T>>> {
        self.shards
            .iter()
            .map(|s| s.new_caches(self.cache_blocks))
            .collect()
    }

    /// [`QueryContext::accurate_rank`] through `caches` from
    /// [`QueryContext::new_caches`], which a batch of queries shares.
    fn accurate_rank_with(
        &self,
        r: u64,
        caches: &mut [Vec<BlockCache<T>>],
    ) -> io::Result<Option<QueryOutcome<T>>> {
        let total = self.total();
        if total == 0 {
            return Ok(None);
        }
        let r = r.clamp(1, total);
        // I/O counters of every distinct shard device (shards may share one).
        let mut before: Vec<(&D, IoSnapshot)> = Vec::new();
        for s in &self.shards {
            if !before.iter().any(|&(d, _)| std::ptr::eq(d, s.dev)) {
                before.push((s.dev, s.dev.stats().snapshot()));
            }
        }
        let (u, v) = match self.seed {
            SeedMode::Summary => self.ts.seed_bracket(r),
            SeedMode::Domain => (T::MIN, T::MAX),
        };
        let m: u64 = self.shards.iter().map(|s| s.stream.stream_len()).sum();
        let eps_m = (self.epsilon * m as f64).floor() as u64;
        // A degenerate bracket is answered by one probe: nothing to prefetch.
        let prefetch = (u < v).then_some((u, v));
        let mut probes = FanIn::new(&self.shards, caches, self.parallel, prefetch);
        let (value, estimated_rank, bisection_steps) =
            bisect_summed_rank(r, eps_m, u, v, &mut probes)?;
        let (prefetch_hits, prefetch_wasted) = probes.finish();
        Ok(Some(QueryOutcome {
            value,
            io: before.iter().fold(IoSnapshot::default(), |io, &(d, b)| {
                io + (d.stats().snapshot() - b)
            }),
            bisection_steps,
            estimated_rank,
            prefetch_hits,
            prefetch_wasted,
            rank_lo: estimated_rank.saturating_sub(eps_m),
            rank_hi: estimated_rank + eps_m + self.quarantined,
            degraded: self.quarantined > 0,
            quarantined: self.quarantined,
        }))
    }
}

/// The cross-shard probe source: per-shard bounds summed (bounds over
/// disjoint shards add), shards probed concurrently when `parallel`.
pub(crate) struct FanIn<'c, T: Item, D: BlockDevice> {
    shards: Vec<ShardProbes<'c, T, D>>,
    parallel: bool,
}

impl<'c, T: Item, D: BlockDevice> FanIn<'c, T, D> {
    /// Fresh probe sources over `shards`, one cache set each. `parallel`
    /// probes the shards concurrently — or, for a single shard, its
    /// partitions. `prefetch` is the seed bracket guiding speculative
    /// prefetch (see [`ShardView::probes`]).
    pub(crate) fn new(
        shards: &'c [ShardView<'c, T, D>],
        caches: &'c mut [Vec<BlockCache<T>>],
        parallel: bool,
        prefetch: Option<(T, T)>,
    ) -> Self {
        let across = parallel && shards.len() > 1;
        FanIn {
            shards: shards
                .iter()
                .zip(caches)
                .map(|(s, c)| s.probes(c, parallel && !across, prefetch))
                .collect(),
            parallel: across,
        }
    }

    /// Settle every shard's speculative reads; `(hits, wasted)` summed.
    fn finish(self) -> (u32, u32) {
        self.shards
            .into_iter()
            .map(ShardProbes::finish)
            .fold((0, 0), |(h, w), (a, b)| (h + a, w + b))
    }
}

impl<T: Item, D: BlockDevice> RankProbeSource<T> for FanIn<'_, T, D> {
    fn probe(&mut self, z: T) -> io::Result<(u64, u64)> {
        let results = if self.parallel {
            crate::parallel::par_map_mut(&mut self.shards, |_, s| s.probe(z))
        } else {
            self.shards.iter_mut().map(|s| s.probe(z)).collect()
        };
        results
            .into_iter()
            .try_fold((0, 0), |(lo, hi), b| b.map(|(l, h)| (lo + l, hi + h)))
    }
}

/// One shard's stateful [`RankProbeSource`]: exact partition ranks
/// (narrowed, cache-served binary searches) plus the stream summary's
/// tracked interval, over the readable data of a [`ShardView`].
///
/// The source remembers the exact per-partition ranks of this query's
/// earlier probes. Rank is monotone in `z`, so the nearest earlier probe
/// at or left of `z` floors every window and the nearest at or right of
/// it caps them; each window is the summary's `narrow(z, z)` intersected
/// with those bounds, and any probe sequence stays exact. Under the
/// bisection those nearest probes are the ends of the bracket `z` splits.
///
/// With prefetch on, the source also knows the seed bracket, so after
/// each probe it knows both candidate next probes exactly (see
/// [`next_probes`]) and speculates on their first block reads.
pub(crate) struct ShardProbes<'c, T: Item, D: BlockDevice> {
    view: &'c ShardView<'c, T, D>,
    caches: &'c mut [BlockCache<T>],
    /// Probe the partitions concurrently.
    parallel: bool,
    /// Earlier probes of this query with their per-partition ranks.
    known: Vec<(T, Vec<u64>)>,
    /// The seed bracket `(u, v)`, with the prefetcher it guides.
    prefetch: Option<((T, T), SpecPrefetcher<'c, T>)>,
}

impl<T: Item, D: BlockDevice> ShardProbes<'_, T, D> {
    /// Settle outstanding speculative reads; `(hits, wasted)`.
    fn finish(self) -> (u32, u32) {
        self.prefetch.map_or((0, 0), |(_, pf)| pf.finish())
    }

    /// Each partition's search window for a probe at `z`: the summary's
    /// `narrow(z, z)` intersected with the ranks of the nearest earlier
    /// probes on either side.
    fn windows(&self, z: T) -> Vec<(u64, u64)> {
        let lo = self.known.iter().filter(|k| k.0 <= z).max_by_key(|k| k.0);
        let hi = self.known.iter().filter(|k| z <= k.0).min_by_key(|k| k.0);
        self.view
            .partitions
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let (nlo, nhi) = p.summary.narrow(z, z);
                (
                    lo.map_or(0, |(_, ranks)| ranks[i]).max(nlo),
                    hi.map_or(p.run.len(), |(_, ranks)| ranks[i]).min(nhi),
                )
            })
            .collect()
    }
}

impl<T: Item, D: BlockDevice> RankProbeSource<T> for ShardProbes<'_, T, D> {
    fn probe(&mut self, z: T) -> io::Result<(u64, u64)> {
        let windows = self.windows(z);
        // The bracket `z` splits: the nearest earlier probes at or left
        // of and right of `z`, or the seed bracket's ends.
        let bracket = self.prefetch.as_ref().map(|&((u, v), _)| {
            let probed = || self.known.iter().map(|k| k.0);
            let below = probed().filter(|&at| at <= z).max();
            (
                below.unwrap_or(u),
                probed().filter(|&at| at > z).min().unwrap_or(v),
            )
        });
        let view = self.view;
        let parts = &view.partitions;
        let bs = view.dev.block_size();
        // Consume the speculative reads matching this probe before the
        // synchronous path looks for their blocks.
        if let Some((_, pf)) = self.prefetch.as_mut() {
            pf.harvest(parts, &windows, bs, self.caches);
        }
        let ranks = if self.parallel && parts.len() > 1 {
            crate::parallel::par_partition_ranks(view.dev, parts, z, &windows, self.caches)?
        } else {
            let mut ranks = Vec::with_capacity(parts.len());
            for ((p, &w), cache) in parts.iter().zip(&windows).zip(self.caches.iter_mut()) {
                ranks.push(partition_rank(view.dev, p, z, w, cache)?);
            }
            ranks
        };
        let rho1: u64 = ranks.iter().sum();
        self.known.push((z, ranks));
        // Speculate on the next probe while the bisection's acceptance
        // arithmetic runs: the kernel's two candidate next probes are
        // known exactly, and so are their windows.
        if let Some((u, v)) = bracket {
            let [left, right] = next_probes(u, z, v).map(|c| self.windows(c));
            let candidates: Vec<_> = left.into_iter().zip(right).map(<[_; 2]>::from).collect();
            if let Some((_, pf)) = self.prefetch.as_mut() {
                pf.speculate(parts, &candidates, bs, self.caches);
            }
        }
        let (lo2, hi2) = view.stream.rank_bounds(z);
        Ok((rho1 + lo2, rho1 + hi2))
    }
}

/// Speculative bisection prefetch (the "summary-guided readahead" of the
/// query path): while one bisection step's acceptance arithmetic runs,
/// the first-probe block reads of the candidate next steps are
/// already submitted to the [`IoScheduler`], so the step actually taken
/// finds its block warm in the per-partition cache.
///
/// The first block a narrowed [`partition_rank`] search reads is fully
/// determined by the rank window (`mid = lo + (hi-lo)/2`, block =
/// `mid / per`), and both candidate next probes are known exactly, so
/// whichever candidate the bisection takes, its submission is that
/// step's first read.
struct SpecPrefetcher<'d, T: Item> {
    sched: &'d IoScheduler,
    /// In-flight speculative single-block reads: `(partition, block,
    /// ticket)`.
    pending: Vec<(usize, u64, IoTicket)>,
    hits: u32,
    wasted: u32,
    _t: std::marker::PhantomData<T>,
}

impl<'d, T: Item> SpecPrefetcher<'d, T> {
    fn new(sched: &'d IoScheduler) -> Self {
        SpecPrefetcher {
            sched,
            pending: Vec::new(),
            hits: 0,
            wasted: 0,
            _t: std::marker::PhantomData,
        }
    }

    /// First block the narrowed binary search over `window` reads, if it
    /// reads at all.
    fn first_probe_block(window: (u64, u64), per: u64) -> Option<u64> {
        let (lo, hi) = window;
        (lo < hi).then(|| (lo + (hi - lo) / 2) / per)
    }

    /// Submit the first-probe block of both candidate next probes, given
    /// per partition by their exact windows, skipping blocks already
    /// decoded in `caches` or in flight.
    fn speculate(
        &mut self,
        partitions: &[&StoredPartition<T>],
        candidates: &[[(u64, u64); 2]],
        bs: usize,
        caches: &[BlockCache<T>],
    ) {
        for (i, (p, windows)) in partitions.iter().zip(candidates).enumerate() {
            let per = p.run.items_per_block(bs) as u64;
            for &window in windows {
                let Some(block) = Self::first_probe_block(window, per) else {
                    continue;
                };
                if caches[i].contains(p.run.file(), block)
                    || self.pending.iter().any(|&(pi, b, _)| pi == i && b == block)
                {
                    continue;
                }
                let ticket = self.sched.submit_speculative(IoOp::ReadBlocks {
                    file: p.run.file(),
                    first: block,
                    count: 1,
                });
                self.pending.push((i, block, ticket));
            }
        }
    }

    /// Claim the speculative reads matching this step's first-probe
    /// blocks into `caches`; poll (without blocking) the rest, dropping
    /// any that already completed as wasted.
    fn harvest(
        &mut self,
        partitions: &[&StoredPartition<T>],
        windows: &[(u64, u64)],
        bs: usize,
        caches: &mut [BlockCache<T>],
    ) {
        let mut kept = Vec::with_capacity(self.pending.len());
        for (i, block, mut ticket) in self.pending.drain(..) {
            let p = &partitions[i];
            let per = p.run.items_per_block(bs) as u64;
            let wanted = Self::first_probe_block(windows[i], per) == Some(block)
                && !caches[i].contains(p.run.file(), block);
            if wanted {
                // The block the next synchronous read would fetch: wait
                // for the in-flight copy instead of re-reading.
                let in_block = (per.min(p.run.len() - block * per)) as usize;
                match self.sched.wait(ticket) {
                    Ok(IoOutcome::Read { data, len }) if len >= in_block * T::ENCODED_LEN => {
                        // A speculative block that fails verification is
                        // simply dropped: the synchronous path re-reads
                        // and surfaces the corruption itself.
                        match p.run.decode_block_items(block, bs, &data[..len]) {
                            Ok(items) => {
                                caches[i].insert(p.run.file(), block, Arc::new(items));
                                self.hits += 1;
                            }
                            Err(_) => self.wasted += 1,
                        }
                    }
                    // A failed or short speculative read is not an error:
                    // the synchronous path re-reads and surfaces any real
                    // device fault itself.
                    _ => self.wasted += 1,
                }
            } else {
                match self.sched.try_poll(&mut ticket) {
                    Some(_) => self.wasted += 1,
                    None => kept.push((i, block, ticket)),
                }
            }
        }
        self.pending = kept;
    }

    /// Claim every outstanding speculative read as wasted and return
    /// `(hits, wasted)`. Claiming (rather than abandoning) keeps the
    /// scheduler's completion map bounded even when no barrier ever runs
    /// — the advertised long-lived-snapshot dashboard pattern; each wait
    /// is bounded by the read's own device latency, and a ticket an
    /// intervening barrier already drained resolves immediately.
    fn finish(mut self) -> (u32, u32) {
        for (_, _, ticket) in self.pending.drain(..) {
            let _ = self.sched.wait(ticket);
            self.wasted += 1;
        }
        (self.hits, self.wasted)
    }
}

/// A source of rigorous rank bounds for the value-space bisection
/// ([`bisect_summed_rank`]): `probe(z)` returns `(lo, hi)` with
/// `lo ≤ rank(z, union) ≤ hi` (summed weights under weighted ingestion)
/// over whatever union the source fronts.
///
/// The trait is the seam between *where the data lives* and *how the
/// query runs*. In process, every [`QueryContext`] probes through one
/// stateful source per shard, which may use the probes it has already
/// answered to narrow the next one (the bisection's probes are nested,
/// and rank is monotone in `z`); the shards' bounds are summed. A
/// networked coordinator batches one probe round per call across remote
/// nodes. Bounds from disjoint sources add, so all of them drive the
/// *same* bisection and inherit the same `ε·m` guarantee. Any
/// `FnMut(T) -> io::Result<(u64, u64)>` closure implements the trait.
pub trait RankProbeSource<T: Item> {
    /// Rigorous `(lo, hi)` bounds on `rank(z)` over the fronted union.
    fn probe(&mut self, z: T) -> io::Result<(u64, u64)>;
}

impl<T: Item, F: FnMut(T) -> io::Result<(u64, u64)>> RankProbeSource<T> for F {
    fn probe(&mut self, z: T) -> io::Result<(u64, u64)> {
        self(z)
    }
}

/// Value-space bisection over *summed* rank bounds: the one bisection
/// kernel behind every accurate query — [`QueryContext::accurate_rank`]
/// for one or many shards, full or windowed, and, through the
/// [`RankProbeSource`] seam, remote coordinators probing nodes over the
/// wire.
///
/// `probe` returns rigorous `(lo, hi)` bounds on `rank(z)` — summed
/// weights under weighted ingestion — over the queried union; the
/// midpoint estimate carries up to `hi − mid`
/// uncertainty, so a probe is accepted when `|ρ − r| ≤ eps_m − unc` and
/// the search otherwise bisects `[u, v]` to value collapse (Definition
/// 1's boundary answer). Returns `(value, estimated_rank,
/// bisection_steps)`.
pub fn bisect_summed_rank<T: Item>(
    r: u64,
    eps_m: u64,
    mut u: T,
    mut v: T,
    probe: &mut dyn RankProbeSource<T>,
) -> io::Result<(T, u64, u32)> {
    fn midpoint_estimate((lo, hi): (u64, u64)) -> u64 {
        lo + (hi - lo) / 2
    }
    if v <= u {
        // Both filters pin rank r exactly; v is Definition 1's answer.
        return Ok((v, midpoint_estimate(probe.probe(v)?), 0));
    }
    let mut steps = 0u32;
    loop {
        steps += 1;
        if steps > T::UNIVERSE_BITS + 2 {
            // Value space exhausted; v is the smallest value whose
            // estimated rank reaches r.
            break Ok((v, midpoint_estimate(probe.probe(v)?), steps));
        }
        let z = T::midpoint(u, v);
        if z == u && z == v {
            break Ok((v, midpoint_estimate(probe.probe(v)?), steps));
        }
        let (lo, hi) = probe.probe(z)?;
        let rho = lo + (hi - lo) / 2;
        let unc = hi - rho;
        let tol = eps_m.saturating_sub(unc);
        if r < rho && rho - r > tol {
            v = z; // too high: recurse left
        } else if rho < r && r - rho > tol {
            if z == u {
                // Interval degenerated to {u, v = u+ulp}: answer is v.
                break Ok((v, midpoint_estimate(probe.probe(v)?), steps));
            }
            u = z; // too low: recurse right
        } else {
            break Ok((z, rho, steps));
        }
    }
}

/// The two probes [`bisect_summed_rank`] can make after probing `z` in
/// the bracket `[u, v]` without accepting it: recursing left probes the
/// midpoint of `[u, z]`; recursing right probes the midpoint of `[z, v]`,
/// or `v` itself once the bracket is `{u, u + ulp}`. Lets a probe source
/// speculate on the next step's reads.
fn next_probes<T: Item>(u: T, z: T, v: T) -> [T; 2] {
    let right = if z == u { v } else { T::midpoint(z, v) };
    [T::midpoint(u, z), right]
}

/// Exact `rank(z, P)` (summed weight of elements ≤ z — archived runs
/// materialize weight as replicated copies, so the count *is* the
/// weight) with the search confined to the window `[lo, hi]`, probing
/// whole blocks through the cache.
///
/// Each loop iteration reads the block containing the middle candidate
/// position and uses *all* of its items to shrink the window, so a
/// partition costs `O(log₂(window/items_per_block))` block reads — and
/// zero once the window sits inside a cached block.
pub fn partition_rank<T: Item, D: BlockDevice>(
    dev: &D,
    p: &StoredPartition<T>,
    z: T,
    window: (u64, u64),
    cache: &mut BlockCache<T>,
) -> io::Result<u64> {
    let (mut lo, mut hi) = window;
    debug_assert!(hi <= p.run.len());
    let per = p.run.items_per_block(dev.block_size()) as u64;
    loop {
        if lo >= hi {
            return Ok(lo);
        }
        let mid = lo + (hi - lo) / 2; // candidate position in [lo, hi)
        let block = mid / per;
        let items = cache.get_block(dev, &p.run, block)?;
        let base = block * per;
        let lo_in = lo.max(base);
        let hi_in = hi.min(base + items.len() as u64);
        debug_assert!(lo_in <= mid && mid < hi_in);
        let slice = &items[(lo_in - base) as usize..(hi_in - base) as usize];
        let j = slice.partition_point(|&x| x <= z) as u64;
        if j == hi_in - lo_in {
            // Everything in range ≤ z: the boundary is at or right of hi_in.
            lo = hi_in;
        } else if j == 0 {
            // First in-range item > z: boundary at or left of lo_in.
            hi = lo_in;
        } else {
            // The boundary is inside this block: exact.
            return Ok(lo_in + j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HsqConfig;
    use crate::stream::StreamProcessor;
    use crate::warehouse::Warehouse;
    use hsq_storage::MemDevice;
    use std::sync::Arc;

    fn build_scene(
        kappa: usize,
        steps: u64,
        step_size: u64,
        eps: f64,
    ) -> (
        Warehouse<u64, MemDevice>,
        StreamProcessor<u64>,
        Vec<u64>,
        HsqConfig,
    ) {
        let mut cfg = HsqConfig::with_epsilon(eps);
        cfg.kappa = kappa;
        let mut w = Warehouse::new(MemDevice::new(256), cfg.clone());
        let mut all = Vec::new();
        let mut x = 12345u64;
        let mut gen = || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 33
        };
        for _ in 0..steps {
            let batch: Vec<u64> = (0..step_size).map(|_| gen()).collect();
            all.extend(&batch);
            w.add_batch(batch).unwrap();
        }
        let mut sp = StreamProcessor::new(cfg.epsilon2, cfg.beta2);
        for _ in 0..step_size {
            let v = gen();
            all.push(v);
            sp.update(v);
        }
        (w, sp, all, cfg)
    }

    fn rank_distance(data: &[u64], v: u64, r: u64) -> u64 {
        let hi = data.iter().filter(|&&x| x <= v).count() as u64;
        let lo = data.iter().filter(|&&x| x < v).count() as u64 + 1;
        if r < lo {
            lo - r
        } else {
            r.saturating_sub(hi)
        }
    }

    #[test]
    fn partition_rank_exact() {
        let dev = MemDevice::new(64); // 8 u64/block
        let data: Vec<u64> = (0..500).map(|i| i * 2).collect();
        let run = hsq_storage::write_run(&*dev, &data).unwrap();
        let summary = crate::summary::summarize_sorted(&data, 0.1, 11, 64);
        let p = StoredPartition {
            run,
            summary,
            first_step: 1,
            last_step: 1,
        };
        let mut cache = BlockCache::new(8);
        for z in [0u64, 1, 2, 499, 500, 998, 999, 5000] {
            let expect = data.iter().filter(|&&x| x <= z).count() as u64;
            let got = partition_rank(&*dev, &p, z, (0, 500), &mut cache).unwrap();
            assert_eq!(got, expect, "z = {z}");
        }
    }

    #[test]
    fn partition_rank_respects_window() {
        let dev = MemDevice::new(64);
        let data: Vec<u64> = (0..100).collect();
        let run = hsq_storage::write_run(&*dev, &data).unwrap();
        let summary = crate::summary::summarize_sorted(&data, 0.25, 5, 64);
        let p = StoredPartition {
            run,
            summary,
            first_step: 1,
            last_step: 1,
        };
        let mut cache = BlockCache::new(8);
        // True rank of 50 is 51; window [40, 60] contains it.
        let got = partition_rank(&*dev, &p, 50, (40, 60), &mut cache).unwrap();
        assert_eq!(got, 51);
        // Degenerate window answers with no I/O.
        let before = dev.stats().snapshot();
        let got = partition_rank(&*dev, &p, 123, (77, 77), &mut cache).unwrap();
        assert_eq!(got, 77);
        assert_eq!((dev.stats().snapshot() - before).total_reads(), 0);
    }

    #[test]
    fn accurate_query_error_bound() {
        let (w, sp, mut all, cfg) = build_scene(3, 12, 400, 0.05);
        let ss = sp.summary();
        let ctx = QueryContext::new(
            &**w.device(),
            w.partitions_newest_first(),
            &ss,
            cfg.epsilon(),
            cfg.cache_blocks,
        );
        all.sort_unstable();
        let n = all.len() as u64;
        let m = 400u64;
        let allowed = (cfg.epsilon() * m as f64).ceil() as u64 + 1;
        for r in [1, n / 10, n / 4, n / 2, 3 * n / 4, n] {
            let out = ctx.accurate_rank(r).unwrap().unwrap();
            let dist = rank_distance(&all, out.value, r.max(1));
            assert!(
                dist <= allowed,
                "r={r}: value {} off by {dist} ranks (allowed {allowed})",
                out.value
            );
        }
    }

    #[test]
    fn quick_query_error_bound() {
        let (w, sp, mut all, cfg) = build_scene(3, 12, 400, 0.05);
        let ss = sp.summary();
        let ctx = QueryContext::new(
            &**w.device(),
            w.partitions_newest_first(),
            &ss,
            cfg.epsilon(),
            cfg.cache_blocks,
        );
        all.sort_unstable();
        let n = all.len() as u64;
        // Lemma 3: error <= 1.5 * eps * N.
        let allowed = (1.5 * cfg.epsilon() * n as f64).ceil() as u64 + 1;
        for r in [1, n / 4, n / 2, n] {
            let v = ctx.quick_rank(r).unwrap();
            let dist = rank_distance(&all, v, r.max(1));
            assert!(dist <= allowed, "r={r}: quick off by {dist} > {allowed}");
        }
    }

    #[test]
    fn accurate_query_uses_no_io_when_summaries_suffice() {
        // With a single tiny partition that fits entirely in summary
        // resolution, queries should cost few (possibly zero) reads after
        // the first block is cached.
        let (w, sp, _, cfg) = build_scene(2, 1, 64, 0.25);
        let ss = sp.summary();
        let ctx = QueryContext::new(
            &**w.device(),
            w.partitions_newest_first(),
            &ss,
            cfg.epsilon(),
            cfg.cache_blocks,
        );
        let out = ctx.accurate_rank(64).unwrap().unwrap();
        assert!(
            out.io.total_reads() <= 12,
            "tiny dataset needed {} reads",
            out.io.total_reads()
        );
    }

    #[test]
    fn duplicate_mass_definition_one() {
        // Half the data is one repeated value; the quantile at its rank
        // range must return that value (Definition 1's smallest-element).
        let mut cfg = HsqConfig::with_epsilon(0.02);
        cfg.kappa = 3;
        let dev = MemDevice::new(256);
        let mut w = Warehouse::new(Arc::clone(&dev), cfg.clone());
        let mut all = Vec::new();
        for _ in 0..4 {
            let mut batch = vec![500_000u64; 500];
            batch.extend((0..500u64).map(|i| i * 10));
            all.extend(&batch);
            w.add_batch(batch).unwrap();
        }
        let mut sp = StreamProcessor::new(cfg.epsilon2, cfg.beta2);
        for v in 0..100u64 {
            sp.update(v * 7 + 1_000_000);
            all.push(v * 7 + 1_000_000);
        }
        let ss = sp.summary();
        let ctx = QueryContext::new(
            &*dev,
            w.partitions_newest_first(),
            &ss,
            cfg.epsilon(),
            cfg.cache_blocks,
        );
        // Rank in the middle of the duplicate plateau.
        let r = 3000;
        let out = ctx.accurate_rank(r).unwrap().unwrap();
        let dist = rank_distance(&all, out.value, r);
        let allowed = (cfg.epsilon() * 100.0).ceil() as u64 + 1;
        assert!(dist <= allowed, "plateau query off by {dist}");
    }

    #[test]
    fn prefetched_queries_match_synchronous_and_hit() {
        // Speculative bisection prefetch must change nothing about the
        // answer — only warm the caches — and must record hits.
        use hsq_storage::IoScheduler;
        let (w, sp, _, cfg) = build_scene(3, 12, 400, 0.05);
        let ss = sp.summary();
        let dev = Arc::clone(w.device());
        let sched = IoScheduler::with_reorder(
            Arc::clone(&dev) as Arc<dyn hsq_storage::BlockDevice>,
            2,
            None,
        );
        let mut total_hits = 0u32;
        for r in [1u64, 480, 1200, 2400, 4799] {
            let plain = QueryContext::new(
                &*dev,
                w.partitions_newest_first(),
                &ss,
                cfg.epsilon(),
                cfg.cache_blocks,
            )
            .accurate_rank(r)
            .unwrap()
            .unwrap();
            let prefetched = QueryContext::new(
                &*dev,
                w.partitions_newest_first(),
                &ss,
                cfg.epsilon(),
                cfg.cache_blocks,
            )
            .with_prefetch(Some(&sched))
            .accurate_rank(r)
            .unwrap()
            .unwrap();
            assert_eq!(plain.value, prefetched.value, "r={r}");
            assert_eq!(plain.estimated_rank, prefetched.estimated_rank, "r={r}");
            assert_eq!(plain.bisection_steps, prefetched.bisection_steps, "r={r}");
            assert_eq!(plain.prefetch_hits, 0);
            total_hits += prefetched.prefetch_hits;
        }
        assert!(total_hits > 0, "no speculative read was ever consumed");
        // Nothing may leak into a later barrier epoch.
        sched.barrier().unwrap();
    }

    #[test]
    fn summary_seeding_never_bisects_more_than_domain() {
        let (w, sp, _, cfg) = build_scene(3, 10, 300, 0.05);
        let ss = sp.summary();
        let ctx = |seed| {
            QueryContext::new(
                &**w.device(),
                w.partitions_newest_first(),
                &ss,
                cfg.epsilon(),
                cfg.cache_blocks,
            )
            .with_seed_mode(seed)
        };
        let n = 33 * 100; // just query across the range
        let mut strictly_fewer = false;
        for r in [1u64, n / 10, n / 4, n / 2, 3 * n / 4, n] {
            let s = ctx(SeedMode::Summary).accurate_rank(r).unwrap().unwrap();
            let d = ctx(SeedMode::Domain).accurate_rank(r).unwrap().unwrap();
            assert!(
                s.bisection_steps <= d.bisection_steps,
                "r={r}: summary {} > domain {} steps",
                s.bisection_steps,
                d.bisection_steps
            );
            strictly_fewer |= s.bisection_steps < d.bisection_steps;
        }
        assert!(strictly_fewer, "summary seeding never saved a step");
    }

    #[test]
    fn seed_bracket_falls_back_to_summary_extremes() {
        // Duplicate-heavy minimum: no TS entry has U <= 1, so the u
        // filter is undefined — the bracket must fall back to the exact
        // minimum, not the universe minimum.
        let dev = MemDevice::new(256);
        let mut w = Warehouse::new(Arc::clone(&dev), HsqConfig::with_epsilon(0.1));
        w.add_batch(vec![500u64; 100]).unwrap();
        let mut sp = StreamProcessor::new(0.05, 21);
        for _ in 0..50 {
            sp.update(500u64);
        }
        let ss = sp.summary();
        let ctx = QueryContext::new(&*dev, w.partitions_newest_first(), &ss, 0.1, 8);
        let (u, v) = ctx.combined_summary().seed_bracket(1);
        assert_eq!(u, 500, "u must fall back to the data minimum");
        assert_eq!(v, 500);
        let out = ctx.accurate_rank(1).unwrap().unwrap();
        assert_eq!(out.value, 500);
        assert_eq!(out.bisection_steps, 0, "degenerate bracket needs no search");
    }

    #[test]
    fn empty_context() {
        let dev = MemDevice::new(256);
        let ss = StreamSummary::<u64>::default();
        let ctx = QueryContext::new(&*dev, Vec::new(), &ss, 0.1, 4);
        assert!(ctx.accurate_rank(1).unwrap().is_none());
        assert!(ctx.quick_rank(1).is_none());
    }

    #[test]
    fn stream_only_context() {
        let dev = MemDevice::new(256);
        let mut sp = StreamProcessor::new(0.025, 41);
        let data: Vec<u64> = (0..2000).map(|i| (i * 37) % 5000).collect();
        for &v in &data {
            sp.update(v);
        }
        let ss = sp.summary();
        let ctx = QueryContext::new(&*dev, Vec::new(), &ss, 0.1, 4);
        let out = ctx.accurate_rank(1000).unwrap().unwrap();
        let dist = rank_distance(&data, out.value, 1000);
        assert!(dist <= (0.1 * 2000.0) as u64 + 1, "off by {dist}");
        assert_eq!(
            out.io.total_reads(),
            0,
            "stream-only query must not hit disk"
        );
    }
}
