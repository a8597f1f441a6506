//! The maintenance DAG in one sitting: base relations at autonomous
//! sources → a SWEEP-maintained join view at the warehouse → an
//! aggregate rollup view derived from it → a filter over the rollup.
//!
//! Only the join view ever talks to the sources (the paper's 2(n−1)
//! messages per update). Everything above it is fed locally by the
//! cascade: when the join view commits an install, its signed delta is
//! pushed through each derived operator — σ/Π re-evaluated per delta,
//! Σ folded into per-group accumulators with support multisets so
//! MIN/MAX survive retractions — and every derived view stays equal to
//! a fresh recompute over its parent at every single install epoch: the
//! report grades each slot, base or derived, against the same truth.
//!
//! Run with: `cargo run --example dag_demo`

use dwsweep::prelude::*;

fn main() {
    // --- Base layer: a 3-source join view, maintained by SWEEP -----------
    let mut scenario = MultiViewConfig {
        stream: StreamConfig {
            n_sources: 3,
            initial_per_source: 20,
            updates: 16,
            mean_gap: 1_200,
            domain: 10,
            keyed: true,
            seed: 7,
            ..Default::default()
        },
        n_views: 1, // "V0": the full-span join of all three relations
        view_seed: 7,
        full_span: true,
        n_derived: 0,
        derived_seed: 0,
    }
    .generate()
    .unwrap();

    // --- The stack: rollup over the join, filter over the rollup ---------
    scenario.derived = vec![
        // Σ: per-key row count and sum over the join's column 1.
        DerivedSpec {
            name: "rollup".into(),
            parent: "V0".into(),
            op: DerivedOp::Aggregate(AggregateSpec {
                group_by: vec![0],
                aggs: vec![AggFn::CountRows, AggFn::Sum(1)],
            }),
        },
        // σ over the rollup: groups with at least three rows.
        DerivedSpec {
            name: "busy-keys".into(),
            parent: "rollup".into(),
            op: DerivedOp::Select {
                selects: vec![(1, CmpOp::Ge, Value::Int(3))],
                projection: None,
            },
        },
    ];

    // Referee: the identical run with the stack removed — the source
    // bill must not move by a single message.
    let mut referee = scenario.clone();
    referee.derived.clear();

    let report = MultiViewExperiment::new(scenario).run().unwrap();
    let referee = MultiViewExperiment::new(referee).run().unwrap();
    assert!(report.quiescent);

    println!(
        "join view: {} installs, {:.1} source messages/update (2(n-1) = {})\n",
        report.views[0].installs.len(),
        report.messages_per_update(),
        2 * (3 - 1),
    );

    // One outcome per registry slot — the join view, then the stack —
    // each graded against the run's one ground truth like any other view.
    for v in &report.views {
        let level = v.consistency.as_ref().unwrap().level;
        let over = match v.parent {
            Some(p) => format!("'{}'", report.views[p].name),
            None => "the sources".to_string(),
        };
        let op = v.slot.ops.last().map_or("join", DerivedOp::name);
        println!(
            "slot '{}' ({op} over {over}): {} epochs, {} tuples at quiescence, {level}",
            v.name,
            v.installs.len(),
            v.view.distinct_len(),
        );
        assert!(level >= ConsistencyLevel::Strong);
    }

    println!(
        "\ncascade: {} child installs fed locally ({} memo hits, {} fresh evals)",
        report.cascade.child_installs,
        report.cascade.shared_derivations,
        report.cascade.linear_evals,
    );

    // The whole stack cost zero extra source messages.
    assert_eq!(report.query_messages(), referee.query_messages());
    println!(
        "source bill with stack = {} messages, without = {} — the DAG is free \
         at the sources:\nderived views are maintained from the parent's \
         committed install delta, never by queries.",
        report.query_messages(),
        referee.query_messages(),
    );
}
