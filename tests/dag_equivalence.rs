//! DAG-maintenance equivalence: across random view stacks × update
//! streams × latency models × engines × fault schedules, every derived
//! view must equal a **fresh recompute of its operator over the
//! parent's contents at the same install epoch** — at every epoch, not
//! just at quiescence. The cascade consumes the same update ids as the
//! parent install, so the two install logs align 1:1 and the oracle is
//! exact.
//!
//! Arms: the flat shared-sweep scheduler, the sharded scheduler, link
//! faults behind the reliability transport, and warehouse state crashes
//! with durability armed. Seeded loops; every failure names the case
//! seed for replay.

use dw_rng::Rng64;
use dwsweep::prelude::*;
use dwsweep::protocol::WAREHOUSE_NODE;

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

/// Modest-but-interfering streams with a derived stack on top: up to 5
/// derived views (σ/Π and Σ mixed, stacks compose over earlier draws).
fn arb_dag(r: &mut Rng64) -> MultiViewConfig {
    MultiViewConfig {
        stream: StreamConfig {
            n_sources: 2 + r.usize_below(3),
            initial_per_source: 5 + r.usize_below(12),
            domain: r.u64_in(4, 16),
            updates: 1 + r.usize_below(10),
            mean_gap: r.u64_in(50, 6_000),
            insert_ratio: 0.1 + r.f64() * 0.8,
            keyed: true,
            seed: r.next_u64(),
            ..Default::default()
        },
        n_views: 1 + r.usize_below(3),
        view_seed: r.next_u64(),
        full_span: r.usize_below(3) == 0,
        n_derived: 1 + r.usize_below(5),
        derived_seed: r.next_u64(),
    }
}

/// The derived slots of a report.
fn derived(report: &MultiViewReport) -> Vec<&ViewOutcome> {
    report.views.iter().filter(|v| v.parent.is_some()).collect()
}

/// Assert every derived slot is classified at least strong — each install
/// epoch equal to the fresh recompute of its operator chain over the
/// truth at the epoch's consumed set, and the final contents the truth's
/// — and that each child's install log mirrors its parent's epochs 1:1.
fn assert_dag_clean(report: &MultiViewReport, case: u64, arm: &str) {
    let stack = derived(report);
    assert!(!stack.is_empty(), "case {case} [{arm}]: no stack");
    for d in stack {
        let c = d.consistency.as_ref().expect("checking is on");
        // Snapshots are on in these arms, so every install epoch must
        // have been checked (a parent whose span saw no traffic installs
        // nothing, and its child then legitimately checks zero epochs).
        assert_eq!(
            c.installs_checked,
            d.installs.len(),
            "case {case} [{arm}]: derived '{}' partially audited",
            d.name
        );
        assert!(
            c.level >= ConsistencyLevel::Strong,
            "case {case} [{arm}]: derived '{}' (ops {:?}, parent slot {:?}) classified {}: {}",
            d.name,
            d.slot.ops,
            d.parent,
            c.level,
            c.detail
        );
        let parent = &report.views[d.parent.unwrap()];
        assert_eq!(
            d.installs.len(),
            parent.installs.len(),
            "case {case} [{arm}]: derived '{}' epochs misaligned with its parent",
            d.name
        );
    }
    assert!(report.quiescent, "case {case} [{arm}]: did not drain");
}

const CASES: u64 = 64;

/// Flat engine, clean network: 64 random DAGs, per-epoch oracle.
#[test]
fn derived_views_equal_fresh_recompute_at_every_epoch() {
    for case in 0..CASES {
        let mut r = Rng64::new(0xDA6_0000 + case);
        let cfg = arb_dag(&mut r);
        let latency = arb_latency(&mut r);
        let net_seed = r.next_u64();
        let scenario = cfg.generate().unwrap();
        let n_derived = scenario.derived.len();

        let report = MultiViewExperiment::new(scenario)
            .latency(latency)
            .seed(net_seed)
            .run()
            .unwrap();
        assert_eq!(derived(&report).len(), n_derived, "case {case}");
        assert_dag_clean(&report, case, "flat");
        // The cascade's install counter is exactly the sum of the
        // children's install logs — nothing fed twice, nothing skipped.
        let total: u64 = derived(&report)
            .iter()
            .map(|d| d.installs.len() as u64)
            .sum();
        assert_eq!(report.cascade.child_installs, total, "case {case}");
    }
}

/// Child maintenance costs zero source messages: the query/answer bill
/// with the stack registered is byte-identical to the same scenario
/// with the stack removed, across random cases.
#[test]
fn derived_views_never_touch_the_sources() {
    for case in 0..CASES {
        let mut r = Rng64::new(0xDA6_1000 + case);
        let cfg = arb_dag(&mut r);
        let latency = arb_latency(&mut r);
        let net_seed = r.next_u64();
        let with = cfg.generate().unwrap();
        let mut without = with.clone();
        without.derived.clear();

        let a = MultiViewExperiment::new(with)
            .latency(latency.clone())
            .seed(net_seed)
            .run()
            .unwrap();
        let b = MultiViewExperiment::new(without)
            .latency(latency)
            .seed(net_seed)
            .run()
            .unwrap();
        assert_dag_clean(&a, case, "billed");
        assert_eq!(
            a.query_messages(),
            b.query_messages(),
            "case {case}: registering the stack changed the source bill"
        );
        assert_eq!(a.events, b.events, "case {case}: stack altered traffic");
    }
}

/// Sharded engine: same DAGs over a banded scenario; the cascade rides
/// the sequenced install release, and flat/sharded agree per derived
/// view, epoch for epoch.
#[test]
fn sharded_cascade_matches_flat_per_epoch() {
    for case in 0..32u64 {
        let mut r = Rng64::new(0xDA6_2000 + case);
        let cfg = ShardedConfig {
            n_sources: 2 + r.usize_below(2),
            shards: 1 + r.usize_below(3),
            updates: 4 + r.usize_below(12),
            mean_gap: r.u64_in(100, 2_000),
            n_views: 1 + r.usize_below(2),
            seed: r.next_u64(),
            ..Default::default()
        };
        let mut generated = cfg.generate().unwrap();
        // Stack: σ over V0, Σ over V0, σ over the Σ (three layers).
        generated.scenario.derived = vec![
            DerivedSpec {
                name: "hot".into(),
                parent: "V0".into(),
                op: DerivedOp::Select {
                    selects: vec![(0, CmpOp::Ge, Value::Int(1))],
                    projection: Some(vec![0, 1]),
                },
            },
            DerivedSpec {
                name: "counts".into(),
                parent: "V0".into(),
                op: DerivedOp::Aggregate(AggregateSpec {
                    group_by: vec![0],
                    aggs: vec![AggFn::CountRows, AggFn::Max(1)],
                }),
            },
            DerivedSpec {
                name: "busy".into(),
                parent: "counts".into(),
                op: DerivedOp::Select {
                    selects: vec![(1, CmpOp::Ge, Value::Int(2))],
                    projection: None,
                },
            },
        ];

        let sharded = MultiViewExperiment::new(generated.scenario.clone())
            .shards(generated.map)
            .run()
            .unwrap();
        let flat = MultiViewExperiment::new(generated.scenario).run().unwrap();
        assert!(sharded.quiescent && flat.quiescent, "case {case}");
        assert_dag_clean(&sharded, case, "sharded");
        assert_dag_clean(&flat, case, "flat-arm");
        assert_eq!(sharded.views.len(), flat.views.len(), "case {case}");
        for (s, f) in derived(&sharded).into_iter().zip(derived(&flat)) {
            assert_eq!(s.view, f.view, "case {case}: derived '{}'", s.name);
            assert_eq!(
                s.installs.len(),
                f.installs.len(),
                "case {case}: derived '{}' epoch count",
                s.name
            );
            for (si, fi) in s.installs.iter().zip(f.installs.iter()) {
                assert_eq!(
                    si.consumed, fi.consumed,
                    "case {case}: derived '{}' consumed sets",
                    s.name
                );
                assert_eq!(
                    si.delta, fi.delta,
                    "case {case}: derived '{}' epoch delta",
                    s.name
                );
            }
        }
    }
}

/// Link faults (drops, duplicates, reordering) behind the reliability
/// transport: the oracle must hold at every epoch anyway.
#[test]
fn dag_survives_link_faults_behind_transport() {
    for case in 0..16u64 {
        let mut r = Rng64::new(0xDA6_3000 + case);
        let cfg = arb_dag(&mut r);
        let net_seed = r.next_u64();
        let faults = FaultPlan::default().uniform(LinkFaults {
            drop_rate: 0.10,
            dup_rate: 0.05,
            reorder_rate: 0.05,
            reorder_window: 3_000,
        });
        let report = MultiViewExperiment::new(cfg.generate().unwrap())
            .latency(LatencyModel::Constant(900))
            .seed(net_seed)
            .faults(faults)
            .transport_auto()
            .run()
            .unwrap();
        assert_dag_clean(&report, case, "link-faults");
    }
}

/// Warehouse state crashes with durability armed: recovery replays the
/// WAL's base installs and re-runs the cascade deterministically —
/// derived state (including Σ support multisets) must come back exact.
#[test]
fn dag_survives_warehouse_crashes_with_durability() {
    for case in 0..16u64 {
        let mut r = Rng64::new(0xDA6_4000 + case);
        let cfg = arb_dag(&mut r);
        let net_seed = r.next_u64();
        let scenario = cfg.generate().unwrap();
        // Crash mid-stream: the window opens inside the txn schedule.
        let last_at = scenario.txns.last().map(|t| t.at).unwrap_or(2_000);
        let down = last_at / 2;
        let up = down + r.u64_in(500, 3_000);

        let faulted = MultiViewExperiment::new(scenario.clone())
            .latency(LatencyModel::Constant(1_000))
            .seed(net_seed)
            .faults(FaultPlan::default().state_crash(WAREHOUSE_NODE, down, up))
            .transport_auto()
            .durability(1 + (case as usize % 3))
            .run()
            .unwrap();
        assert_dag_clean(&faulted, case, "crash");

        // Restart-equivalence for the stack: same final bags as the
        // fault-free run of the identical scenario.
        let clean = MultiViewExperiment::new(scenario)
            .latency(LatencyModel::Constant(1_000))
            .seed(net_seed)
            .run()
            .unwrap();
        assert_eq!(faulted.views.len(), clean.views.len(), "case {case}");
        for (a, b) in derived(&faulted).into_iter().zip(derived(&clean)) {
            assert_eq!(
                a.view, b.view,
                "case {case}: derived '{}' diverged across the crash",
                a.name
            );
        }
    }
}

/// Reads on every slot, base and derived, audit clean: a derived slot's
/// answer is its operator chain over its base ancestor's truth at the
/// pinned epoch, and its staleness span is the ancestor's. Every point
/// and scan read is counted — none is skipped as unauditable.
#[test]
fn reads_on_every_slot_audit_clean() {
    let (mut derived_answered, mut derived_bounded) = (0, 0);
    for case in 0..24u64 {
        let mut r = Rng64::new(0xDA6_5000 + case);
        let cfg = arb_dag(&mut r);
        let net_seed = r.next_u64();
        let scenario = cfg.generate().unwrap();
        let base_slots = scenario.views.len();
        let reads = ReadMixConfig {
            readers: 3,
            reads_per_reader: 12,
            n_views: base_slots + scenario.derived.len(),
            seed: r.next_u64(),
            ..ReadMixConfig::default()
        }
        .generate();
        let report = MultiViewExperiment::new(scenario)
            .seed(net_seed)
            .reads(reads)
            .run()
            .unwrap();
        let audit = audit_reads(&report).unwrap();
        assert!(audit.clean(), "case {case}: {audit:?}");
        let served = report.served().unwrap();
        let read = |r: &&ReadOutcome| matches!(r.op.kind, ReadKind::Point { .. } | ReadKind::Scan);
        let reads: Vec<&ReadOutcome> = served.reads.iter().filter(read).collect();
        assert_eq!(audit.reads, reads.len() as u64, "case {case}");
        let derived = reads.iter().filter(|r| r.op.view >= base_slots);
        derived_answered += derived.clone().filter(|r| r.answered()).count();
        derived_bounded += derived.filter(|r| r.op.bound_window.is_some()).count();
    }
    assert!(derived_answered > 0 && derived_bounded > 0);
}

/// Bounded subscriptions cover every slot: on an E20-shaped stack (σ → Σ →
/// σ over one full-span SWEEP view) under a queue bound of 1, polls on the
/// Σ slot in the middle of the stack find it lagged mid-run, and every
/// resume snapshot and the folded stream audit clean against that slot's
/// truth.
#[test]
fn lagged_subscriptions_on_a_derived_slot_resume_clean() {
    let mut scenario = MultiViewConfig {
        stream: StreamConfig {
            n_sources: 3,
            initial_per_source: 20,
            updates: 16,
            mean_gap: 1_200,
            domain: 10,
            keyed: true,
            seed: 0xE20,
            ..Default::default()
        },
        n_views: 1,
        view_seed: 0xE20,
        full_span: true,
        n_derived: 0,
        derived_seed: 0,
    }
    .generate()
    .unwrap();
    let derived = |name: &str, parent: &str, op| DerivedSpec {
        name: name.into(),
        parent: parent.into(),
        op,
    };
    scenario.derived = vec![
        derived(
            "hot",
            "V0",
            DerivedOp::Select {
                selects: vec![(0, CmpOp::Ge, Value::Int(2))],
                projection: Some(vec![0, 1]),
            },
        ),
        derived(
            "counts",
            "hot",
            DerivedOp::Aggregate(AggregateSpec {
                group_by: vec![0],
                aggs: vec![AggFn::CountRows],
            }),
        ),
        derived(
            "busy",
            "counts",
            DerivedOp::Select {
                selects: vec![(1, CmpOp::Ge, Value::Int(2))],
                projection: None,
            },
        ),
    ];
    let slot = 2;
    // A sweep takes ≈ 6 ms here: about two installs land between polls.
    let polls = (1..=8).map(|k| ReadOp {
        at: 12_000 * k,
        reader: 0,
        view: slot,
        kind: ReadKind::Poll,
        bound_window: None,
    });
    let report = MultiViewExperiment::new(scenario)
        .latency(LatencyModel::Constant(2_000))
        .reads(polls.collect())
        .bounded_subscriptions(1)
        .run()
        .unwrap();
    let audit = audit_lag_recoveries(&report).unwrap();
    assert!(audit.clean(), "{audit:?}");
    assert_eq!(audit.subs, 4, "one bounded subscription per slot");
    let served = report.served().unwrap();
    let on_slot = served.lag.iter().filter(|s| s.view == slot);
    let events = on_slot.flat_map(|s| &s.events);
    let resumes = events.filter(|e| matches!(e, LagEvent::Resumed { .. }));
    assert!(resumes.count() >= 1, "{audit:?}");
    let mid_run = |r: &&ReadOutcome| matches!(r.result, ReadResult::Polled { resumed: true, .. });
    assert!(
        served.reads.iter().any(|r| mid_run(&r)),
        "no poll resumed mid-run"
    );
}
