//! Property-based equivalence for the multi-view scheduler: across random
//! view sets × update streams × latency models × seeds, the shared sweep
//! (one incremental query per hop, answer reused by every affected view)
//! must land **every** view on exactly the bag that an independent,
//! single-view plain SWEEP computes for that view's own sub-chain — and
//! V one-view warehouses, each maintaining one of the views alone (the
//! naive per-view baseline), must agree with the shared one tuple for
//! tuple.
//!
//! Seeded random loops; every failure message names the case seed for
//! exact replay.

use dw_rng::Rng64;
use dwsweep::prelude::*;
use dwsweep::protocol::UpdateId;

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

/// Modest-but-interfering stream shapes so hundreds of cases stay fast.
fn arb_multiview(r: &mut Rng64) -> MultiViewConfig {
    MultiViewConfig {
        stream: StreamConfig {
            n_sources: 2 + r.usize_below(4),
            initial_per_source: 5 + r.usize_below(15),
            domain: r.u64_in(4, 20),
            updates: 1 + r.usize_below(12),
            mean_gap: r.u64_in(50, 8_000),
            insert_ratio: 0.1 + r.f64() * 0.8,
            keyed: true,
            seed: r.next_u64(),
            ..Default::default()
        },
        n_views: 1 + r.usize_below(4),
        view_seed: r.next_u64(),
        // Mix: 1/3 of cases use the E14 full-span setup, the rest draw
        // random contiguous sub-chains.
        full_span: r.usize_below(3) == 0,
        n_derived: 0,
        derived_seed: 0,
    }
}

/// The oracle: the view's own single-view scenario, in span-local
/// coordinates — its compiled sub-chain definition, the initial contents
/// of just its relations, and only the transactions that hit its span.
fn oracle_scenario(sc: &MultiViewScenario, spec: &ViewSpec) -> GeneratedScenario {
    let local = spec.compile(&sc.base).unwrap();
    GeneratedScenario {
        view: local,
        keys: KeySpec::new(vec![Vec::new(); spec.hi - spec.lo + 1]),
        initial: sc.initial[spec.lo..=spec.hi].to_vec(),
        txns: sc
            .txns
            .iter()
            .filter(|t| spec.references(t.source))
            .map(|t| ScheduledTxn {
                at: t.at,
                source: t.source - spec.lo,
                delta: t.delta.clone(),
                global: None,
            })
            .collect(),
    }
}

const CASES: u64 = 112;

#[test]
fn shared_sweep_matches_per_view_plain_sweep() {
    for case in 0..CASES {
        let mut r = Rng64::new(0xE9_0000 + case);
        let cfg = arb_multiview(&mut r);
        let latency = arb_latency(&mut r);
        let net_seed = r.next_u64();
        let scenario = cfg.generate().unwrap();

        let shared = MultiViewExperiment::new(scenario.clone())
            .latency(latency.clone())
            .seed(net_seed)
            .run()
            .unwrap();
        assert!(shared.quiescent, "case {case}: shared run did not drain");

        for (spec, outcome) in scenario.views.iter().zip(shared.views.iter()) {
            let oracle = Experiment::new(oracle_scenario(&scenario, spec))
                .policy(PolicyKind::Sweep(Default::default()))
                .latency(LatencyModel::Constant(1_000))
                .run()
                .unwrap();
            assert!(oracle.quiescent, "case {case}: oracle for {}", spec.name);
            assert_eq!(
                outcome.view, oracle.view,
                "case {case}: shared sweep and independent SWEEP disagree on \
                 view {} (span [{}, {}], policy {:?})",
                spec.name, spec.lo, spec.hi, spec.policy
            );
            assert!(outcome.view.all_positive(), "case {case}: {}", spec.name);
        }
    }
}

/// The `V·2(n−1)` baseline, literally: every view maintained alone by a
/// warehouse of its own over the same sources, stream, links and seed —
/// a referee that shares no scheduling state with the shared run.
#[test]
fn shared_sweep_matches_one_view_warehouses() {
    let (mut views_compared, mut fingerprints_compared) = (0, 0);
    for case in 0..CASES {
        let mut r = Rng64::new(0xEA_0000 + case);
        let cfg = arb_multiview(&mut r);
        let latency = arb_latency(&mut r);
        let net_seed = r.next_u64();
        let scenario = cfg.generate().unwrap();
        let run = |scenario: MultiViewScenario| {
            let exp = MultiViewExperiment::new(scenario).latency(latency.clone());
            exp.seed(net_seed).run().unwrap()
        };

        let shared = run(scenario.clone());
        assert!(shared.quiescent, "case {case}");
        let mut alone_messages = 0;
        for (spec, s) in scenario.views.iter().zip(&shared.views) {
            let alone = run(MultiViewScenario {
                views: vec![spec.clone()],
                ..scenario.clone()
            });
            assert!(alone.quiescent, "case {case}: {} alone", spec.name);
            alone_messages += alone.query_messages();
            let a = &alone.views[0];
            assert_eq!(
                s.view, a.view,
                "case {case}: the shared sweep and a warehouse of its own disagree on view {}",
                spec.name
            );
            // Either way the view consumes its in-span updates in the
            // order its warehouse received them…
            let arrived = |report: &MultiViewReport| -> Vec<UpdateId> {
                let ids = report.delivery_log.iter().map(|&(id, _)| id);
                ids.filter(|id| spec.references(id.source)).collect()
            };
            let consumed = |v: &ViewOutcome| -> Vec<Vec<UpdateId>> {
                v.installs.iter().map(|r| r.consumed.clone()).collect()
            };
            assert_eq!(consumed(s).concat(), arrived(&shared), "case {case}");
            assert_eq!(consumed(a).concat(), arrived(&alone), "case {case}");
            // …so where the two warehouses received the same order (the
            // links draw one latency stream, and the runs send different
            // numbers of queries), a SWEEP-cadence view has one
            // fingerprint.
            if spec.policy == ViewPolicy::Sweep && arrived(&shared) == arrived(&alone) {
                assert_eq!(consumed(s), consumed(a), "case {case}: {}", spec.name);
                fingerprints_compared += 1;
            }
            views_compared += 1;
            let level = alone.min_consistency().unwrap();
            assert!(
                level >= ConsistencyLevel::Convergent,
                "case {case}: {} alone is {level}",
                spec.name
            );
        }
        // Sharing never costs messages: one sweep over the union of the
        // spans against one sweep per affected view.
        assert!(shared.query_messages() <= alone_messages, "case {case}");
        // The shared run lands every view on final ground truth…
        if let Some(level) = shared.min_consistency() {
            assert!(
                level >= ConsistencyLevel::Convergent,
                "case {case}: shared sweep's weakest view is {level}"
            );
        }
        // …and after the drain every view agrees on the shared sources.
        if let Some(m) = &shared.mutual {
            assert!(m.final_agreement, "case {case}: {}", m.detail);
        }
    }
    assert!(views_compared >= 2 * CASES as usize, "{views_compared}");
    assert!(fingerprints_compared >= 32, "{fingerprints_compared}");
}
