//! Quickstart: the paper's §5.2 worked example (Figure 5), end to end.
//!
//! Three sources hold `R1[A,B]`, `R2[C,D]`, `R3[E,F]`; the warehouse
//! materializes `Π[D,F](R1 ⋈ R2 ⋈ R3)`. Three concurrent updates fly at
//! the warehouse while sweeps are in progress, and SWEEP's local
//! compensation still walks the view through every intermediate state.
//!
//! Run with: `cargo run --example quickstart`

use dwsweep::prelude::*;
use dwsweep::workload::ScheduledTxn;

fn main() {
    // --- The paper's view definition -----------------------------------
    let view = ViewDefBuilder::new()
        .relation(Schema::new("R1", ["A", "B"]).unwrap())
        .relation(Schema::new("R2", ["C", "D"]).unwrap())
        .relation(Schema::new("R3", ["E", "F"]).unwrap())
        .join("R1.B", "R2.C")
        .join("R2.D", "R3.E")
        .project(["R2.D", "R3.F"])
        .build()
        .unwrap();
    println!("view: {view}");

    // --- Initial contents (Figure 5, row 1) ----------------------------
    let initial = vec![
        Bag::from_tuples([tup![1, 3], tup![2, 3]]), // R1
        Bag::from_tuples([tup![3, 7]]),             // R2
        Bag::from_tuples([tup![5, 6], tup![7, 8]]), // R3
    ];

    // --- The three updates, injected almost simultaneously -------------
    // ΔR2 = +(3,5), ΔR3 = −(7,8), ΔR1 = −(2,3): with 5 ms query latency
    // and 1 ms between updates, all three interfere.
    let txns = vec![
        ScheduledTxn {
            at: 0,
            source: 1,
            delta: Bag::from_pairs([(tup![3, 5], 1)]),
            global: None,
        },
        ScheduledTxn {
            at: 1_000,
            source: 2,
            delta: Bag::from_pairs([(tup![7, 8], -1)]),
            global: None,
        },
        ScheduledTxn {
            at: 2_000,
            source: 0,
            delta: Bag::from_pairs([(tup![2, 3], -1)]),
            global: None,
        },
    ];

    let scenario = GeneratedScenario {
        view,
        keys: KeySpec::new(vec![vec![0], vec![0], vec![0]]),
        initial,
        txns,
    };

    // --- Run SWEEP over slow links so the updates overlap ---------------
    let slot = SlotView::base(scenario.view.clone(), 0);
    let report = Experiment::new(scenario)
        .policy(PolicyKind::Sweep(EngineOptions::FIGURE_4))
        .latency(LatencyModel::Constant(5_000))
        .run()
        .unwrap();

    // Each install logs its delta: the view's states are its initial
    // contents plus the deltas so far.
    println!("\ninstall history (every intermediate state, in order):");
    let initial_view = report.truth.state(&slot, &|_| false).unwrap();
    let states = view_states(initial_view.into(), &report.views[0].installs);
    for (k, (rec, state)) in report.views[0].installs.iter().zip(states).enumerate() {
        let upd = rec.consumed[0];
        println!(
            "  install {k}: after ΔR{} (seq {}) at t={}µs  →  V = {state:?}",
            upd.source + 1,
            upd.seq,
            rec.at,
        );
    }

    let consistency = report.views[0].consistency.as_ref().unwrap();
    println!("\nfinal view:   {:?}", report.views[0].view);
    println!(
        "consistency:  {} ({})",
        consistency.level, consistency.detail
    );
    println!(
        "messages:     {} queries + answers for {} updates ({} per update = 2(n−1))",
        report.query_messages(),
        report.scheduler_metrics.updates_received,
        report.messages_per_update()
    );
    println!(
        "compensated:  {} concurrent error terms, all locally",
        report.scheduler_metrics.local_compensations
    );

    // The Figure 5 final state.
    assert_eq!(report.views[0].view, Bag::from_pairs([(tup![5, 6], 1)]));
    assert_eq!(consistency.level, ConsistencyLevel::Complete);
}
