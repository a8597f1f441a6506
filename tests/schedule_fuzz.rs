//! Property-based schedule exploration: hundreds of random workloads ×
//! latency models × seeds, asserting the paper's headline guarantees hold
//! on *every* interleaving the simulator can produce:
//!
//! * SWEEP is completely consistent;
//! * Nested SWEEP is at least strongly consistent;
//! * both converge to the ground-truth view;
//! * message cost per update is exactly `2(n−1)` for SWEEP and never more
//!   for Nested SWEEP;
//! * and — with the reliability transport in front of a faulty network
//!   (drops ≥ 10%, duplication, reordering, a source crash/restart) — all
//!   of the above still hold, on hundreds of seeded fault schedules;
//! * the sharded warehouse (S concurrent per-shard lanes) converges to
//!   the clean-network unsharded bags on those same hostile schedules,
//!   even when one shard's lane additionally state-crashes mid-run.
//!
//! Seeded random loops; every failure message names the case seed for
//! exact replay.

use dw_rng::Rng64;
use dwsweep::prelude::*;

/// Random latency model spanning all four families.
fn arb_latency(r: &mut Rng64) -> LatencyModel {
    match r.usize_below(4) {
        0 => LatencyModel::Constant(r.u64_in(100, 10_000)),
        1 => LatencyModel::Uniform(r.u64_in(100, 3_000), r.u64_in(3_000, 10_000)),
        2 => LatencyModel::Exponential(r.u64_in(200, 5_000)),
        _ => LatencyModel::Jittered {
            base: r.u64_in(100, 2_000),
            jitter: r.u64_in(1, 5_000),
        },
    }
}

fn arb_config(r: &mut Rng64) -> StreamConfig {
    StreamConfig {
        n_sources: 2 + r.usize_below(4),
        initial_per_source: 5 + r.usize_below(35),
        domain: r.u64_in(4, 39),
        updates: 1 + r.usize_below(24),
        mean_gap: r.u64_in(50, 20_000),
        insert_ratio: 0.1 + r.f64() * 0.8,
        batch_size: 1 + r.usize_below(3),
        keyed: true,
        seed: r.next_u64(),
        ..Default::default()
    }
}

/// Clean-network schedule count: 48, scaled by the `DW_FUZZ_SCHEDULES`
/// multiplier (`ci.sh --deep` sets it).
fn cases() -> u64 {
    48 * fuzz_scale()
}

/// Faulty-network schedule count: 128, scaled like [`cases`].
fn fault_cases() -> u64 {
    128 * fuzz_scale()
}

fn fuzz_scale() -> u64 {
    std::env::var("DW_FUZZ_SCHEDULES")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .map_or(1, |m| m.max(1))
}

#[test]
fn sweep_complete_on_random_schedules() {
    for case in 0..cases() {
        let mut r = Rng64::new(case);
        let cfg = arb_config(&mut r);
        let latency = arb_latency(&mut r);
        let net_seed = r.next_u64();
        let n = cfg.n_sources;
        let scenario = cfg.generate().unwrap();
        let updates = scenario.txn_count() as f64;
        let report = Experiment::new(scenario)
            .policy(PolicyKind::Sweep(Default::default()))
            .latency(latency)
            .seed(net_seed)
            .run()
            .unwrap();
        assert!(report.quiescent, "case {case}");
        assert_eq!(
            report.consistency.as_ref().unwrap().level,
            ConsistencyLevel::Complete,
            "case {case}: {}",
            report.consistency.as_ref().unwrap().detail
        );
        if updates > 0.0 {
            assert_eq!(
                report.messages_per_update(),
                (2 * (n - 1)) as f64,
                "case {case}"
            );
        }
    }
}

#[test]
fn nested_sweep_strong_on_random_schedules() {
    for case in 0..cases() {
        let mut r = Rng64::new(1_000 + case);
        let cfg = arb_config(&mut r);
        let latency = arb_latency(&mut r);
        let net_seed = r.next_u64();
        let n = cfg.n_sources;
        let report = Experiment::new(cfg.generate().unwrap())
            .policy(PolicyKind::NestedSweep(Default::default()))
            .latency(latency)
            .seed(net_seed)
            .event_cap(2_000_000)
            .run()
            .unwrap();
        assert!(report.quiescent, "case {case}");
        let level = report.consistency.as_ref().unwrap().level;
        assert!(
            level >= ConsistencyLevel::Strong,
            "case {case}: got {level}: {}",
            report.consistency.as_ref().unwrap().detail
        );
        // Amortization bound: never worse than SWEEP.
        if report.metrics.updates_received > 0 {
            assert!(
                report.messages_per_update() <= (2 * (n - 1)) as f64 + 1e-9,
                "case {case}"
            );
        }
    }
}

#[test]
fn sweep_parallel_equals_sequential() {
    for case in 0..cases() {
        let mut r = Rng64::new(2_000 + case);
        let cfg = arb_config(&mut r);
        let latency = arb_latency(&mut r);
        let net_seed = r.next_u64();
        let seq = Experiment::new(cfg.generate().unwrap())
            .policy(PolicyKind::Sweep(SweepOptions {
                parallel: false,
                short_circuit_empty: false,
                ..Default::default()
            }))
            .latency(latency.clone())
            .seed(net_seed)
            .run()
            .unwrap();
        let par = Experiment::new(cfg.generate().unwrap())
            .policy(PolicyKind::Sweep(SweepOptions {
                parallel: true,
                short_circuit_empty: false,
                ..Default::default()
            }))
            .latency(latency)
            .seed(net_seed)
            .run()
            .unwrap();
        assert_eq!(&seq.view, &par.view, "case {case}");
        assert_eq!(
            par.consistency.as_ref().unwrap().level,
            ConsistencyLevel::Complete,
            "case {case}"
        );
    }
}

#[test]
fn pipelined_sweep_complete_on_random_schedules() {
    for case in 0..cases() {
        let mut r = Rng64::new(3_000 + case);
        let cfg = arb_config(&mut r);
        let latency = arb_latency(&mut r);
        let net_seed = r.next_u64();
        let window = r.usize_below(5);
        let parallel = r.usize_below(2) == 1;
        let report = Experiment::new(cfg.generate().unwrap())
            .policy(PolicyKind::Sweep(SweepOptions {
                parallel,
                window,
                ..Default::default()
            }))
            .latency(latency)
            .seed(net_seed)
            .run()
            .unwrap();
        assert!(report.quiescent, "case {case}");
        assert_eq!(
            report.consistency.as_ref().unwrap().level,
            ConsistencyLevel::Complete,
            "case {case} (window {window}, parallel {parallel}): {}",
            report.consistency.as_ref().unwrap().detail
        );
    }
}

/// `window = 1` *is* Figure 4, and pipelining changes *when* a view
/// change installs, never *what* it is — the law the sharded suite holds
/// lanes to. Constant latency pins the arrival order, so the runs are
/// comparable install by install.
#[test]
fn window_changes_when_never_what() {
    let with_window = |window| SweepOptions {
        window,
        ..Default::default()
    };
    assert_eq!(with_window(1), SweepOptions::default());
    for case in 0..cases() {
        // The pipelined suite's workloads, under a constant latency.
        let mut r = Rng64::new(3_000 + case);
        let cfg = arb_config(&mut r);
        let latency = LatencyModel::Constant(r.u64_in(100, 10_000));
        let net_seed = r.next_u64();
        let run = |window| {
            Experiment::new(cfg.generate().unwrap())
                .policy(PolicyKind::Sweep(with_window(window)))
                .latency(latency.clone())
                .seed(net_seed)
                .run()
                .unwrap()
        };
        // Same updates, same order, same view after each: the per-update
        // install deltas are equal.
        let what = |rep: &RunReport| -> Vec<_> {
            let installs = rep.installs.iter();
            installs
                .map(|i| (i.consumed.clone(), i.view_after.clone()))
                .collect()
        };
        let runs = [1, 0, 2].map(|window| (window, run(window)));
        let fig4 = &runs[0].1;
        for (window, report) in &runs {
            assert_eq!(report.view, fig4.view, "case {case} (window {window})");
            assert_eq!(what(report), what(fig4), "case {case} (window {window})");
            assert_eq!(
                report.metrics.queries_sent,
                (cfg.n_sources as u64 - 1) * report.metrics.updates_received,
                "case {case} (window {window})"
            );
        }
    }
}

#[test]
fn short_circuit_preserves_completeness() {
    for case in 0..cases() {
        let mut r = Rng64::new(4_000 + case);
        let cfg = arb_config(&mut r);
        let net_seed = r.next_u64();
        let report = Experiment::new(cfg.generate().unwrap())
            .policy(PolicyKind::Sweep(SweepOptions {
                parallel: false,
                short_circuit_empty: true,
                ..Default::default()
            }))
            .seed(net_seed)
            .run()
            .unwrap();
        assert_eq!(
            report.consistency.as_ref().unwrap().level,
            ConsistencyLevel::Complete,
            "case {case}"
        );
    }
}

// ---- Fault schedules: the guarantees survive an adversarial network ----

/// A deliberately hostile fault plan: every link drops ≥ 10% and
/// duplicates messages, some reorder, and one source crashes and restarts
/// mid-run. The reliability transport must make this indistinguishable
/// (up to timing) from a clean network.
fn hostile_plan(r: &mut Rng64, n_sources: usize) -> FaultPlan {
    let mut plan = FaultPlan::default().uniform(LinkFaults {
        drop_rate: 0.10 + r.f64() * 0.10,
        dup_rate: 0.02 + r.f64() * 0.08,
        reorder_rate: r.f64() * 0.05,
        reorder_window: 3_000,
    });
    // One source crash/restart (node 0 is the warehouse; sources are 1..=n).
    let victim = 1 + r.usize_below(n_sources);
    let down_at = r.u64_in(500, 20_000);
    let up_at = down_at + r.u64_in(5_000, 60_000);
    plan = plan.crash(victim, down_at, up_at);
    plan
}

/// Small-but-interfering workload for fault runs (kept modest so hundreds
/// of schedules stay fast).
fn fault_config(r: &mut Rng64) -> StreamConfig {
    StreamConfig {
        n_sources: 2 + r.usize_below(3),
        initial_per_source: 5 + r.usize_below(10),
        domain: r.u64_in(6, 20),
        updates: 2 + r.usize_below(8),
        mean_gap: r.u64_in(300, 4_000),
        keyed: true,
        seed: r.next_u64(),
        ..Default::default()
    }
}

#[test]
fn sweep_complete_on_fault_schedules() {
    for case in 0..fault_cases() {
        let mut r = Rng64::new(0xFA_0000 + case);
        let cfg = fault_config(&mut r);
        let plan = hostile_plan(&mut r, cfg.n_sources);
        let report = Experiment::new(cfg.generate().unwrap())
            .policy(PolicyKind::Sweep(Default::default()))
            .latency(LatencyModel::Constant(r.u64_in(500, 3_000)))
            .seed(r.next_u64())
            .faults(plan)
            .transport_auto()
            .run()
            .unwrap();
        assert!(report.quiescent, "case {case}");
        assert_eq!(
            report.consistency.as_ref().unwrap().level,
            ConsistencyLevel::Complete,
            "case {case}: {}",
            report.consistency.as_ref().unwrap().detail
        );
        // The transport restored the channel contract end to end…
        let fifo = verify_fifo(&report.delivery_log);
        assert!(fifo.ok(), "case {case}: {:?}", fifo.violations);
        // …and the logical cost per update is still the paper's 2(n−1).
        if report.metrics.updates_received > 0 {
            assert_eq!(
                report.logical_messages_per_update(),
                (2 * (cfg.n_sources - 1)) as f64,
                "case {case}"
            );
        }
        // View state is a legal bag: no negative multiplicities.
        assert!(report.view.all_positive(), "case {case}");
    }
}

#[test]
fn nested_sweep_strong_on_fault_schedules() {
    for case in 0..fault_cases() {
        let mut r = Rng64::new(0xFB_0000 + case);
        let cfg = fault_config(&mut r);
        let plan = hostile_plan(&mut r, cfg.n_sources);
        let report = Experiment::new(cfg.generate().unwrap())
            .policy(PolicyKind::NestedSweep(Default::default()))
            .latency(LatencyModel::Constant(r.u64_in(500, 3_000)))
            .seed(r.next_u64())
            .faults(plan)
            .transport_auto()
            .run()
            .unwrap();
        assert!(report.quiescent, "case {case}");
        let level = report.consistency.as_ref().unwrap().level;
        assert!(
            level >= ConsistencyLevel::Strong,
            "case {case}: got {level}: {}",
            report.consistency.as_ref().unwrap().detail
        );
        assert!(
            verify_fifo(&report.delivery_log).ok(),
            "case {case}: channel contract breached"
        );
        assert!(report.view.all_positive(), "case {case}");
    }
}

/// A multi-view warehouse behind the transport on the same adversarial
/// network: random view sets (random spans, mixed Sweep / Nested SWEEP /
/// deferred policies) under drops, duplication, reordering, and a source
/// crash/restart. Every registered view must still drain, converge to its
/// own ground truth, and agree with its siblings on the shared sources.
#[test]
fn multiview_shared_sweep_converges_on_fault_schedules() {
    for case in 0..fault_cases() {
        let mut r = Rng64::new(0xFD_0000 + case);
        let cfg = fault_config(&mut r);
        let plan = hostile_plan(&mut r, cfg.n_sources);
        let mv = MultiViewConfig {
            stream: cfg,
            n_views: 1 + r.usize_below(3),
            view_seed: r.next_u64(),
            full_span: false,
            n_derived: 0,
            derived_seed: 0,
        };
        let report = MultiViewExperiment::new(mv.generate().unwrap())
            .latency(LatencyModel::Constant(r.u64_in(500, 3_000)))
            .seed(r.next_u64())
            .faults(plan)
            .transport_auto()
            .run()
            .unwrap();
        assert!(report.quiescent, "case {case}");
        for v in &report.views {
            let c = v.consistency.as_ref().unwrap();
            assert!(
                c.level >= ConsistencyLevel::Convergent,
                "case {case}: view {} got {}: {}",
                v.name,
                c.level,
                c.detail
            );
            assert!(v.view.all_positive(), "case {case}: view {}", v.name);
        }
        if let Some(m) = &report.mutual {
            assert!(m.final_agreement, "case {case}: {}", m.detail);
        }
    }
}

/// Cross-update batching under hostile faults: the unified engine folding
/// up to 4 queued same-source updates into one shared sweep must preserve
/// every guarantee the unbatched scheduler has — drain, per-view
/// convergence, mutual agreement, legal bags — on adversarial networks
/// (drops, duplication, reordering, a source crash/restart) behind the
/// reliability transport.
#[test]
fn multiview_batched_sweep_converges_on_fault_schedules() {
    for case in 0..32u64 {
        let mut r = Rng64::new(0xFE_0000 + case);
        let cfg = fault_config(&mut r);
        let plan = hostile_plan(&mut r, cfg.n_sources);
        let mv = MultiViewConfig {
            stream: cfg,
            n_views: 1 + r.usize_below(3),
            view_seed: r.next_u64(),
            full_span: false,
            n_derived: 0,
            derived_seed: 0,
        };
        let report = MultiViewExperiment::new(mv.generate().unwrap())
            .batch(4)
            .latency(LatencyModel::Constant(r.u64_in(500, 3_000)))
            .seed(r.next_u64())
            .faults(plan)
            .transport_auto()
            .run()
            .unwrap();
        assert!(report.quiescent, "case {case}");
        for v in &report.views {
            let c = v.consistency.as_ref().unwrap();
            assert!(
                c.level >= ConsistencyLevel::Convergent,
                "case {case}: view {} got {}: {}",
                v.name,
                c.level,
                c.detail
            );
            assert!(v.view.all_positive(), "case {case}: view {}", v.name);
        }
        if let Some(m) = &report.mutual {
            assert!(m.final_agreement, "case {case}: {}", m.detail);
        }
    }
}

/// σ pushdown under hostile faults: on the same adversarial schedules
/// (drops, duplication, reordering, a source crash/restart behind the
/// transport), the pushed engine must stay delivery-for-delivery
/// equivalent to the unpushed one — identical per-view final bags and
/// install sequences — while every convergence guarantee still holds.
#[test]
fn multiview_pushdown_equivalent_on_fault_schedules() {
    for case in 0..fault_cases() {
        let mut r = Rng64::new(0xFF_0000 + case);
        let cfg = fault_config(&mut r);
        let plan = hostile_plan(&mut r, cfg.n_sources);
        let mv = MultiViewConfig {
            stream: cfg,
            n_views: 1 + r.usize_below(3),
            view_seed: r.next_u64(),
            full_span: false,
            n_derived: 0,
            derived_seed: 0,
        };
        let scenario = mv.generate().unwrap();
        let latency = LatencyModel::Constant(r.u64_in(500, 3_000));
        let net_seed = r.next_u64();
        let plain = MultiViewExperiment::new(scenario.clone())
            .latency(latency.clone())
            .seed(net_seed)
            .faults(plan.clone())
            .transport_auto()
            .run()
            .unwrap();
        let pushed = MultiViewExperiment::new(scenario)
            .pushdown(true)
            .latency(latency)
            .seed(net_seed)
            .faults(plan)
            .transport_auto()
            .run()
            .unwrap();
        assert!(plain.quiescent && pushed.quiescent, "case {case}");
        for (a, b) in plain.views.iter().zip(&pushed.views) {
            assert_eq!(
                a.view, b.view,
                "case {case}: view '{}' diverged under pushdown",
                a.name
            );
            let fp = |installs: &[dwsweep::warehouse::InstallRecord]| -> Vec<Vec<_>> {
                installs.iter().map(|rec| rec.consumed.clone()).collect()
            };
            assert_eq!(
                fp(&a.installs),
                fp(&b.installs),
                "case {case}: view '{}' install sequences differ",
                a.name
            );
            assert!(b.view.all_positive(), "case {case}: view '{}'", b.name);
            let c = b.consistency.as_ref().unwrap();
            assert!(
                c.level >= ConsistencyLevel::Convergent,
                "case {case}: view {} got {}: {}",
                b.name,
                c.level,
                c.detail
            );
        }
        if let Some(m) = &pushed.mutual {
            assert!(m.final_agreement, "case {case}: {}", m.detail);
        }
        assert!(
            pushed.net.label("answer").bytes <= plain.net.label("answer").bytes,
            "case {case}: pushdown increased answer bytes"
        );
    }
}

/// The sharded warehouse behind the transport on the same adversarial
/// network: S concurrent per-shard lanes under drops, duplication,
/// reordering, and a source crash/restart — half the cases additionally
/// state-crash the (durable) warehouse mid-run, every lane at once. Each
/// case runs unbatched and again with every lane folding up to 2 or 4
/// queued same-source updates inside its mask. Retransmission delays can
/// legitimately permute cross-source arrival (and hence install) order,
/// so this arm asserts the order-independent guarantees: every view
/// drains, lands on exactly the clean-network unsharded engine's final
/// bag, and stays a legal bag throughout.
#[test]
fn sharded_sweep_converges_on_fault_schedules() {
    for case in 0..(32 * fuzz_scale()) {
        let mut r = Rng64::new(0xF8_0000 + case);
        let shards = [2, 4][r.usize_below(2)];
        let generated = ShardedConfig {
            n_sources: 3,
            shards,
            updates: 6 + r.usize_below(6),
            mean_gap: r.u64_in(300, 2_000),
            cross_shard_frac: if case % 3 == 0 { 0.3 } else { 0.0 },
            seed: r.next_u64(),
            ..Default::default()
        }
        .generate()
        .unwrap();
        let mut plan = hostile_plan(&mut r, 3);
        let latency = LatencyModel::Constant(r.u64_in(500, 3_000));
        let net_seed = r.next_u64();
        let durable = case % 2 == 1;
        if durable {
            // Pile a warehouse state crash on top of the link faults:
            // every lane loses its volatile sweep; checkpoint + WAL bring
            // them back.
            let txns = &generated.scenario.txns;
            let anchor = txns[r.usize_below(txns.len())].at;
            let down_at = anchor + 1_000;
            plan = plan.state_crash(0, down_at, down_at + r.u64_in(500, 3_000));
        }
        // Referee: the unsharded engine on a clean network. Final bags
        // are arrival-order-independent, so they must agree exactly.
        let clean = MultiViewExperiment::new(generated.scenario.clone())
            .run()
            .unwrap();
        assert!(clean.quiescent, "case {case}");
        for batch in [1, 2 + 2 * (case / 2 % 2) as usize] {
            let mut exp = MultiViewExperiment::new(generated.scenario.clone())
                .shards(generated.map.clone())
                .batch(batch)
                .latency(latency.clone())
                .seed(net_seed)
                .transport_auto();
            if durable {
                exp = exp.durability(1 + (case % 3) as usize);
            }
            let report = exp.faults(plan.clone()).run().unwrap();
            assert!(report.quiescent, "case {case}, batch {batch}");
            assert_eq!(report.views.len(), clean.views.len(), "case {case}");
            for (a, b) in report.views.iter().zip(&clean.views) {
                assert_eq!(
                    a.view, b.view,
                    "case {case}, batch {batch}: view '{}' diverged under faults + sharding",
                    a.name
                );
                assert!(a.view.all_positive(), "case {case}: view '{}'", a.name);
            }
            if let Some(m) = &report.mutual {
                assert!(
                    m.final_agreement,
                    "case {case}, batch {batch}: {}",
                    m.detail
                );
            }
        }
    }
}

/// The scenario *generator* (dw-workload's FaultScenarioConfig) also only
/// produces schedules the transport can survive.
#[test]
fn generated_fault_scenarios_preserve_completeness() {
    for case in 0..32u64 {
        let mut r = Rng64::new(0xFC_0000 + case);
        let cfg = fault_config(&mut r);
        let plan = FaultScenarioConfig {
            n_nodes: cfg.n_sources + 1,
            ..Default::default()
        }
        .generate(case);
        let report = Experiment::new(cfg.generate().unwrap())
            .policy(PolicyKind::Sweep(Default::default()))
            .latency(LatencyModel::Constant(2_000))
            .faults(plan)
            .transport_auto()
            .run()
            .unwrap();
        assert!(report.quiescent, "case {case}");
        assert_eq!(
            report.consistency.as_ref().unwrap().level,
            ConsistencyLevel::Complete,
            "case {case}: {}",
            report.consistency.as_ref().unwrap().detail
        );
        assert!(report.view.all_positive(), "case {case}");
    }
}
