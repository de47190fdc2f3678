//! End-to-end tests of the sharded engine through the umbrella crate:
//! real files per shard, cross-shard accuracy against an exact oracle,
//! and restart recovery of a full sharded deployment.

use std::sync::Arc;

use hsq::core::{HistStreamQuantiles, HsqConfig, QueryOutcome, ShardedEngine};
use hsq::sketch::ExactQuantiles;
use hsq::storage::{FileDevice, MemDevice};
use hsq::workload::{Dataset, TimeStepDriver};

fn config(eps: f64, kappa: usize) -> HsqConfig {
    HsqConfig::builder()
        .epsilon(eps)
        .merge_threshold(kappa)
        .build()
}

#[test]
fn sharded_accuracy_on_skewed_data_real_files() {
    let dirs: Vec<_> = (0..3)
        .map(|i| std::env::temp_dir().join(format!("hsq-shard-{}-{i}", std::process::id())))
        .collect();
    for d in &dirs {
        let _ = std::fs::remove_dir_all(d);
    }
    let devices: Vec<_> = dirs
        .iter()
        .map(|d| FileDevice::new(d, 512).unwrap())
        .collect();
    let mut engine = ShardedEngine::<u64, _>::new(devices, config(0.05, 3));

    let mut oracle = ExactQuantiles::new();
    let mut driver = TimeStepDriver::new(Dataset::NetTrace, 17, 2_000, 6);
    for _ in 0..5 {
        let batch = driver.next().unwrap();
        oracle.extend(batch.iter().copied());
        engine.ingest_step(&batch).unwrap();
    }
    let stream = driver.next().unwrap();
    oracle.extend(stream.iter().copied());
    engine.stream_extend(&stream);

    let m = stream.len() as u64;
    let n = engine.total_len();
    for phi in [0.05, 0.25, 0.5, 0.75, 0.95] {
        let v = engine.quantile(phi).unwrap().unwrap();
        let r = ((phi * n as f64).ceil() as u64).clamp(1, n);
        // Distance from the target rank to v's occupied rank interval
        // (duplicate plateaus count as a single hit).
        let hi = oracle.rank_of(v);
        let lo = if v == 0 { 1 } else { oracle.rank_of(v - 1) + 1 };
        let err = if r < lo { lo - r } else { r.saturating_sub(hi) };
        let allowed = (0.05 * m as f64).ceil() as u64 + 1;
        assert!(
            err <= allowed,
            "phi={phi}: rank error {err} > {allowed} (m={m})"
        );
    }

    // Shard devices saw disjoint shares of the data.
    let lens = engine.shard_lens();
    assert_eq!(lens.iter().sum::<u64>(), engine.total_len());
    assert!(lens.iter().all(|&l| l > 0), "empty shard: {lens:?}");

    for (d, dev) in dirs.iter().zip(
        engine
            .shards()
            .iter()
            .map(|s| Arc::clone(s.warehouse().device())),
    ) {
        drop(dev);
        let _ = std::fs::remove_dir_all(d);
    }
}

#[test]
fn sharded_persist_recover_across_restart() {
    let dirs: Vec<_> = (0..2)
        .map(|i| std::env::temp_dir().join(format!("hsq-reshard-{}-{i}", std::process::id())))
        .collect();
    for d in &dirs {
        let _ = std::fs::remove_dir_all(d);
    }
    let manifests;
    let expected_total;
    {
        let devices: Vec<_> = dirs
            .iter()
            .map(|d| FileDevice::new(d, 512).unwrap())
            .collect();
        let mut engine = ShardedEngine::<u64, _>::new(devices, config(0.1, 2));
        for step in 0..7u64 {
            let batch: Vec<u64> = (0..500).map(|i| step * 500 + i).collect();
            engine.ingest_step(&batch).unwrap();
        }
        manifests = engine.persist().unwrap();
        expected_total = engine.total_len();
        // Devices dropped here: simulated process exit.
    }
    {
        let devices: Vec<_> = dirs
            .iter()
            .map(|d| FileDevice::new(d, 512).unwrap())
            .collect();
        let recovered =
            ShardedEngine::<u64, _>::recover(devices, config(0.1, 2), &manifests).unwrap();
        assert_eq!(recovered.total_len(), expected_total);
        // History-only recovery answers exactly (m = 0).
        let med = recovered.quantile(0.5).unwrap().unwrap();
        assert_eq!(med, 1749, "median over 0..3500");
        // Routing is deterministic: new data keeps landing on the shard
        // that owned its key before the restart.
        let mut r2 = recovered;
        let probe = 123_456_789u64;
        let owner = r2.shard_of(probe);
        let before = r2.shard(owner).stream_len();
        r2.stream_update(probe);
        assert_eq!(r2.shard(owner).stream_len(), before + 1);
    }
    for d in &dirs {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[test]
fn sharded_persist_recover_after_cascade_merge() {
    // PR 2 never exercised persist/recover *after* a cascade merge had
    // retired the original level-0 runs: the manifests must reference the
    // merged files only, and recovered answers must equal pre-recovery
    // answers. kappa = 2 over 13 steps forces merges up to level 2 on
    // every shard (Figure 2's cascade).
    let mut engine =
        ShardedEngine::<u64, _>::with_shards(3, config(0.05, 2), |_| MemDevice::new(512));
    for step in 0..13u64 {
        let batch: Vec<u64> = (0..200).map(|i| step * 200 + i).collect();
        engine.ingest_step(&batch).unwrap();
    }
    // Cascades happened: some shard holds a multi-step partition.
    assert!(
        engine
            .shards()
            .iter()
            .any(|s| s.warehouse().num_levels() > 1),
        "13 steps at kappa=2 must cascade"
    );

    let phis = [0.05, 0.25, 0.5, 0.75, 0.95, 1.0];
    let before: Vec<Option<u64>> = engine.quantiles(&phis).unwrap();
    let windows_before = engine.available_windows();

    let manifests = engine.persist().unwrap();
    let devices: Vec<_> = engine
        .shards()
        .iter()
        .map(|s| Arc::clone(s.warehouse().device()))
        .collect();
    let recovered = ShardedEngine::<u64, _>::recover(devices, config(0.05, 2), &manifests).unwrap();

    assert_eq!(recovered.total_len(), engine.total_len());
    assert_eq!(recovered.available_windows(), windows_before);
    // m = 0 on both sides: answers are deterministic and must match.
    let after: Vec<Option<u64>> = recovered.quantiles(&phis).unwrap();
    assert_eq!(before, after, "recovery changed query answers");
    // Windowed answers survive recovery too.
    for &w in &windows_before {
        assert_eq!(
            engine.quantile_in_window(w, 0.5).unwrap(),
            recovered.quantile_in_window(w, 0.5).unwrap(),
            "window {w} answer changed across recovery"
        );
    }
    // The recovered engine keeps ingesting and merging cleanly.
    let mut recovered = recovered;
    let batch: Vec<u64> = (2600..2800).collect();
    recovered.ingest_step(&batch).unwrap();
    for s in recovered.shards() {
        s.warehouse().check_invariants().unwrap();
    }
    assert_eq!(recovered.total_len(), engine.total_len() + 200);
}

#[test]
fn sharded_windows_align_across_shards() {
    // Shards advance in lockstep, so every shard exposes the same
    // partition-aligned windows.
    let mut engine =
        ShardedEngine::<u64, _>::with_shards(3, config(0.1, 2), |_| MemDevice::new(256));
    for step in 0..13u64 {
        let batch: Vec<u64> = (0..120).map(|i| step * 120 + i).collect();
        engine.ingest_step(&batch).unwrap();
    }
    let w0 = engine.shard(0).available_windows();
    for s in 1..engine.num_shards() {
        assert_eq!(engine.shard(s).available_windows(), w0);
    }
    assert_eq!(w0, vec![1, 4, 13]);
}

/// Everything an outcome claims except its I/O cost.
fn claim(o: &QueryOutcome<u64>) -> (u64, u64, u32, u64, u64, bool, u64) {
    (
        o.value,
        o.estimated_rank,
        o.bisection_steps,
        o.rank_lo,
        o.rank_hi,
        o.degraded,
        o.quarantined,
    )
}

/// One read path: the live engine, its `EngineSnapshot` and a one-shard
/// `ShardedSnapshot` fed the same data answer every full-union and
/// windowed rank query identically — healthy, and with the newest
/// partition quarantined on both.
#[test]
fn engine_snapshot_and_one_shard_snapshot_answer_identically() {
    let cfg = HsqConfig::builder()
        .epsilon(0.01)
        .merge_threshold(3)
        .build();
    let mut engine = HistStreamQuantiles::<u64, _>::new(MemDevice::new(4096), cfg.clone());
    let mut sharded = ShardedEngine::<u64, _>::with_shards(1, cfg, |_| MemDevice::new(4096));
    let mut gen = Dataset::Uniform.generator(41);
    for _ in 0..13 {
        let batch = gen.take_vec(5_000);
        engine.ingest_step(&batch).unwrap();
        sharded.ingest_step(&batch).unwrap();
    }
    let live = gen.take_vec(5_000);
    engine.stream_extend(&live);
    sharded.stream_extend(&live);

    for quarantined in [false, true] {
        if quarantined {
            let file = engine.warehouse().partitions_newest_first()[0].run.file();
            assert!(engine.warehouse().quarantine(file));
            let file = sharded.shard(0).warehouse().partitions_newest_first()[0]
                .run
                .file();
            assert!(sharded.shard(0).warehouse().quarantine(file));
        }
        let snap = engine.snapshot();
        let ssnap = sharded.snapshot();
        let n = engine.total_len();
        for i in 1..200u64 {
            let r = n * i / 200;
            let e = engine.rank_query(r).unwrap().unwrap();
            let what = format!("rank {r} (quarantined: {quarantined})");
            assert_eq!(e.degraded, quarantined, "{what}");
            assert_eq!(
                claim(&e),
                claim(&snap.rank_query(r).unwrap().unwrap()),
                "{what}"
            );
            assert_eq!(
                claim(&e),
                claim(&ssnap.rank_query(r).unwrap().unwrap()),
                "{what}"
            );
        }
        let windows = engine.available_windows();
        assert!(windows.len() > 1, "windows {windows:?}");
        assert_eq!(snap.available_windows(), windows);
        assert_eq!(ssnap.available_windows(), windows);
        for &w in &windows {
            let wn = ssnap.window_total(w).unwrap();
            for i in 1..10u64 {
                let r = wn * i / 10;
                let e = engine.rank_in_window(w, r).unwrap().unwrap();
                let what = format!("window {w} rank {r} (quarantined: {quarantined})");
                let s = snap.rank_in_window(w, r).unwrap().unwrap();
                let ss = ssnap.rank_in_window(w, r).unwrap().unwrap();
                assert_eq!(claim(&e), claim(&s), "{what}");
                assert_eq!(claim(&e), claim(&ss), "{what}");
            }
        }
    }
}
