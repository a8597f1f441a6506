//! Integration: the Table 1 consistency matrix, asserted across multiple
//! workload shapes (keyed/unkeyed, batched source-local transactions,
//! skewed join values, different topologies and latencies).

use dwsweep::prelude::*;

fn run(cfg: StreamConfig, kind: PolicyKind, latency: LatencyModel) -> MultiViewReport {
    Experiment::new(cfg.generate().unwrap())
        .policy(kind)
        .latency(latency)
        .run()
        .unwrap()
}

fn dense(n: usize, seed: u64) -> StreamConfig {
    StreamConfig {
        n_sources: n,
        initial_per_source: 25,
        updates: 30,
        mean_gap: 700,
        domain: 12,
        keyed: true,
        seed,
        ..Default::default()
    }
}

#[test]
fn sweep_complete_across_topologies() {
    for n in [2usize, 3, 5, 8] {
        for seed in [1u64, 2, 3] {
            let r = run(
                dense(n, seed),
                PolicyKind::Sweep(EngineOptions::FIGURE_4),
                LatencyModel::Constant(2_000),
            );
            assert_eq!(
                r.views[0].consistency.as_ref().unwrap().level,
                ConsistencyLevel::Complete,
                "n={n} seed={seed}"
            );
        }
    }
}

#[test]
fn sweep_complete_under_random_latency() {
    for seed in 0u64..4 {
        let r = run(
            dense(4, 99),
            PolicyKind::Sweep(EngineOptions::FIGURE_4),
            LatencyModel::Uniform(100, 8_000),
        );
        let level = r.views[0].consistency.as_ref().unwrap().level;
        assert_eq!(level, ConsistencyLevel::Complete, "latency seed={seed}");
    }
}

#[test]
fn sweep_complete_with_source_local_transactions() {
    // Update type 2 of §2: multi-tuple atomic transactions.
    let cfg = StreamConfig {
        batch_size: 4,
        ..dense(3, 5)
    };
    let r = run(
        cfg,
        PolicyKind::Sweep(EngineOptions::FIGURE_4),
        LatencyModel::Constant(2_000),
    );
    assert_eq!(
        r.views[0].consistency.as_ref().unwrap().level,
        ConsistencyLevel::Complete
    );
}

#[test]
fn nested_sweep_strong_across_seeds() {
    for seed in [7u64, 8, 9, 10] {
        let r = run(
            dense(4, seed),
            PolicyKind::Sweep(EngineOptions::FIGURE_6),
            LatencyModel::Constant(2_000),
        );
        let level = r.views[0].consistency.as_ref().unwrap().level;
        assert!(level >= ConsistencyLevel::Strong, "seed={seed}: {level}");
    }
}

#[test]
fn nested_sweep_with_depth_bound_still_strong() {
    for depth in [1usize, 2, 4] {
        let r = run(
            dense(4, 11),
            PolicyKind::Sweep(EngineOptions {
                depth,
                ..EngineOptions::FIGURE_6
            }),
            LatencyModel::Constant(2_000),
        );
        let level = r.views[0].consistency.as_ref().unwrap().level;
        assert!(level >= ConsistencyLevel::Strong, "depth={depth}: {level}");
        assert!(r.scheduler_metrics.max_recursion_depth <= depth as u64);
    }
}

#[test]
fn strobe_strong_and_cstrobe_complete() {
    for seed in [20u64, 21] {
        let s = run(
            dense(3, seed),
            PolicyKind::Strobe,
            LatencyModel::Constant(2_000),
        );
        assert!(s.views[0].consistency.as_ref().unwrap().level >= ConsistencyLevel::Strong);
        let c = run(
            dense(3, seed),
            PolicyKind::CStrobe,
            LatencyModel::Constant(2_000),
        );
        assert_eq!(
            c.views[0].consistency.as_ref().unwrap().level,
            ConsistencyLevel::Complete
        );
    }
}

#[test]
fn eca_strong_on_single_site() {
    for seed in [30u64, 31] {
        let r = run(
            dense(3, seed),
            PolicyKind::Eca,
            LatencyModel::Constant(2_000),
        );
        assert!(r.views[0].consistency.as_ref().unwrap().level >= ConsistencyLevel::Strong);
    }
}

#[test]
fn recompute_only_convergent_under_interference() {
    // With dense interference, recompute's snapshots mix source states:
    // classified convergent (never inconsistent).
    let mut saw_convergent_only = false;
    for seed in [40u64, 41, 42] {
        let r = run(
            dense(3, seed),
            PolicyKind::Recompute,
            LatencyModel::Constant(2_000),
        );
        let level = r.views[0].consistency.as_ref().unwrap().level;
        assert!(level >= ConsistencyLevel::Convergent);
        if level == ConsistencyLevel::Convergent {
            saw_convergent_only = true;
        }
    }
    assert!(
        saw_convergent_only,
        "recompute should exhibit non-source intermediate states"
    );
}

#[test]
fn all_policies_converge_to_identical_views() {
    let latency = LatencyModel::Constant(2_000);
    let baseline = run(
        dense(3, 50),
        PolicyKind::Sweep(EngineOptions::FIGURE_4),
        latency.clone(),
    );
    for kind in [
        PolicyKind::Sweep(EngineOptions::FIGURE_6),
        PolicyKind::Strobe,
        PolicyKind::CStrobe,
        PolicyKind::Eca,
        PolicyKind::Recompute,
    ] {
        let r = run(dense(3, 50), kind, latency.clone());
        assert_eq!(
            r.views[0].view,
            baseline.views[0].view,
            "{} diverged",
            kind.name()
        );
    }
}

#[test]
fn zipf_skew_does_not_break_anything() {
    let cfg = StreamConfig {
        zipf_theta: 1.1,
        domain: 6,
        ..dense(3, 60)
    };
    let r = run(
        cfg,
        PolicyKind::Sweep(EngineOptions::FIGURE_4),
        LatencyModel::Jittered {
            base: 1_000,
            jitter: 2_000,
        },
    );
    assert_eq!(
        r.views[0].consistency.as_ref().unwrap().level,
        ConsistencyLevel::Complete
    );
}

#[test]
fn delete_heavy_workloads() {
    let cfg = StreamConfig {
        insert_ratio: 0.2,
        initial_per_source: 60,
        ..dense(3, 70)
    };
    for kind in [
        PolicyKind::Sweep(EngineOptions::FIGURE_4),
        PolicyKind::Sweep(EngineOptions::FIGURE_6),
        PolicyKind::Strobe,
    ] {
        let r = run(cfg.clone(), kind, LatencyModel::Constant(1_500));
        assert!(
            r.views[0].consistency.as_ref().unwrap().level >= ConsistencyLevel::Strong,
            "{}",
            kind.name()
        );
    }
}
