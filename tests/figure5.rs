//! Integration: the paper's Figure 5 worked example through the whole
//! stack (workload → simnet → sources → policy → checker), for every
//! policy, sequentially and concurrently.

use dwsweep::prelude::*;
use dwsweep::workload::ScheduledTxn;

fn paper_scenario(gap: u64) -> GeneratedScenario {
    let view = ViewDefBuilder::new()
        .relation(Schema::new("R1", ["A", "B"]).unwrap())
        .relation(Schema::new("R2", ["C", "D"]).unwrap())
        .relation(Schema::new("R3", ["E", "F"]).unwrap())
        .join("R1.B", "R2.C")
        .join("R2.D", "R3.E")
        .project(["R2.D", "R3.F"])
        .build()
        .unwrap();
    GeneratedScenario {
        view,
        // Keys: A, C, E are unique in the example data.
        keys: KeySpec::new(vec![vec![0], vec![0], vec![0]]),
        initial: vec![
            Bag::from_tuples([tup![1, 3], tup![2, 3]]),
            Bag::from_tuples([tup![3, 7]]),
            Bag::from_tuples([tup![5, 6], tup![7, 8]]),
        ],
        txns: vec![
            ScheduledTxn {
                at: 0,
                source: 1,
                delta: Bag::from_pairs([(tup![3, 5], 1)]),
                global: None,
            },
            ScheduledTxn {
                at: gap,
                source: 2,
                delta: Bag::from_pairs([(tup![7, 8], -1)]),
                global: None,
            },
            ScheduledTxn {
                at: 2 * gap,
                source: 0,
                delta: Bag::from_pairs([(tup![2, 3], -1)]),
                global: None,
            },
        ],
    }
}

/// Figure 5's final warehouse state: {(5,6)[1]}.
fn figure5_final() -> Bag {
    Bag::from_pairs([(tup![5, 6], 1)])
}

/// Figure 5's intermediate states after each update.
fn figure5_states() -> [Bag; 3] {
    [
        Bag::from_pairs([(tup![5, 6], 2), (tup![7, 8], 2)]),
        Bag::from_pairs([(tup![5, 6], 2)]),
        figure5_final(),
    ]
}

#[test]
fn sweep_walks_figure5_states_sequentially() {
    let report = Experiment::new(paper_scenario(100_000))
        .policy(PolicyKind::Sweep(Default::default()))
        .latency(LatencyModel::Constant(5_000))
        .run()
        .unwrap();
    let states: Vec<&SharedBag> = report
        .installs
        .iter()
        .map(|r| r.view_after.as_ref().unwrap())
        .collect();
    let expected = figure5_states();
    assert_eq!(states.len(), 3);
    for (got, want) in states.iter().zip(expected.iter()) {
        assert_eq!(*got, want);
    }
    assert_eq!(report.metrics.local_compensations, 0, "no interference");
}

#[test]
fn sweep_walks_figure5_states_concurrently() {
    let report = Experiment::new(paper_scenario(1_000))
        .policy(PolicyKind::Sweep(Default::default()))
        .latency(LatencyModel::Constant(5_000))
        .run()
        .unwrap();
    let states: Vec<&SharedBag> = report
        .installs
        .iter()
        .map(|r| r.view_after.as_ref().unwrap())
        .collect();
    let expected = figure5_states();
    for (got, want) in states.iter().zip(expected.iter()) {
        assert_eq!(*got, want, "complete consistency under interference");
    }
    assert!(report.metrics.local_compensations > 0, "updates interfered");
    assert_eq!(
        report.consistency.unwrap().level,
        ConsistencyLevel::Complete
    );
}

#[test]
fn every_policy_reaches_figure5_final_state() {
    for kind in [
        PolicyKind::Sweep(Default::default()),
        PolicyKind::Sweep(SweepOptions {
            parallel: true,
            short_circuit_empty: true,
            ..Default::default()
        }),
        PolicyKind::NestedSweep(Default::default()),
        PolicyKind::Strobe,
        PolicyKind::CStrobe,
        PolicyKind::Eca,
        PolicyKind::Recompute,
    ] {
        for gap in [1_000u64, 100_000] {
            // Strobe-family needs the keys in the projection: Figure 5's
            // projection [D, F] drops them, so run those policies on the
            // unprojected variant of the final check only via convergence
            // of the SWEEP-capable ones. Skip key-requiring policies here.
            if matches!(kind, PolicyKind::Strobe | PolicyKind::CStrobe) {
                continue;
            }
            let report = Experiment::new(paper_scenario(gap))
                .policy(kind)
                .latency(LatencyModel::Constant(5_000))
                .run()
                .unwrap();
            assert!(report.quiescent, "{:?} gap {gap}", kind.name());
            assert_eq!(
                report.view,
                figure5_final(),
                "{:?} at gap {gap} diverged",
                kind.name()
            );
        }
    }
}

#[test]
fn strobe_family_rejects_figure5_projection() {
    // The paper's point: Strobe/C-strobe *require* key attributes in the
    // view; Figure 5's Π[D,F] drops them, so construction must fail.
    for kind in [PolicyKind::Strobe, PolicyKind::CStrobe] {
        let err = Experiment::new(paper_scenario(1_000))
            .policy(kind)
            .run()
            .unwrap_err();
        assert!(matches!(err, CoreError::Warehouse(_)));
    }
}

#[test]
fn nested_sweep_batches_but_matches() {
    let report = Experiment::new(paper_scenario(1_000))
        .policy(PolicyKind::NestedSweep(Default::default()))
        .latency(LatencyModel::Constant(5_000))
        .run()
        .unwrap();
    assert_eq!(report.view, figure5_final());
    let level = report.consistency.unwrap().level;
    assert!(level >= ConsistencyLevel::Strong);
    // With all three updates interfering, Nested SWEEP folds them into
    // fewer installs than SWEEP's three.
    assert!(report.installs.len() <= 3);
}
