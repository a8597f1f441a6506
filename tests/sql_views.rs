//! Integration: views defined through the SQL parser behave identically to
//! builder-defined views through the whole maintenance pipeline.

use dwsweep::prelude::*;
use dwsweep::relational::parse_view;
use dwsweep::workload::ScheduledTxn;

fn catalog() -> Vec<Schema> {
    vec![
        Schema::new("R1", ["A", "B"]).unwrap(),
        Schema::new("R2", ["C", "D"]).unwrap(),
        Schema::new("R3", ["E", "F"]).unwrap(),
    ]
}

fn scenario_with(view: ViewDef) -> GeneratedScenario {
    GeneratedScenario {
        view,
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
                at: 500,
                source: 0,
                delta: Bag::from_pairs([(tup![2, 3], -1)]),
                global: None,
            },
        ],
    }
}

#[test]
fn sql_view_maintained_like_builder_view() {
    let sql_view = parse_view(
        "SELECT R2.D, R3.F FROM R1, R2, R3 WHERE R1.B = R2.C AND R2.D = R3.E",
        &catalog(),
    )
    .unwrap();
    let built_view = ViewDefBuilder::new()
        .relation(Schema::new("R1", ["A", "B"]).unwrap())
        .relation(Schema::new("R2", ["C", "D"]).unwrap())
        .relation(Schema::new("R3", ["E", "F"]).unwrap())
        .join("R1.B", "R2.C")
        .join("R2.D", "R3.E")
        .project(["R2.D", "R3.F"])
        .build()
        .unwrap();

    let run = |view: ViewDef| {
        Experiment::new(scenario_with(view))
            .policy(PolicyKind::Sweep(Default::default()))
            .latency(LatencyModel::Constant(3_000))
            .run()
            .unwrap()
    };
    let sql_report = run(sql_view);
    let built_report = run(built_view);
    assert_eq!(sql_report.view, built_report.view);
    assert_eq!(sql_report.events, built_report.events);
    assert_eq!(
        sql_report.consistency.unwrap().level,
        ConsistencyLevel::Complete
    );
}

#[test]
fn sql_view_with_selection_filters_updates() {
    // A local selection R1.A > 1: the delete of (2,3) survives it, but an
    // insert of (0,3) would be filtered at the seed.
    let view = parse_view(
        "SELECT R2.D, R3.F FROM R1, R2, R3 \
         WHERE R1.B = R2.C AND R2.D = R3.E AND R1.A > 1",
        &catalog(),
    )
    .unwrap();
    let mut s = scenario_with(view);
    s.txns.push(ScheduledTxn {
        at: 1_000,
        source: 0,
        delta: Bag::from_pairs([(tup![0, 3], 1)]), // filtered out
        global: None,
    });
    let run = |indexed: bool| {
        Experiment::new(s.clone())
            .policy(PolicyKind::Sweep(Default::default()))
            .indexed_sources(indexed)
            .run()
            .unwrap()
    };
    let report = run(false);
    assert_eq!(
        report.consistency.as_ref().unwrap().level,
        ConsistencyLevel::Complete
    );
    // Sources that probe a maintained join index honour `R1.A > 1` too:
    // same view, same install log, same number of deliveries.
    let indexed = run(true);
    assert_eq!(indexed.view, report.view);
    assert_eq!(indexed.installs, report.installs);
    assert_eq!(indexed.events, report.events);
    // Only tuples derived through A>1 rows remain; (1,3)'s derivations are
    // excluded by the selection and (2,3) was deleted → only (3,5)'s join
    // through... R1 has no surviving row joining B=3 after the delete, so
    // the view is empty except pre-existing (7,8)-derived rows from (2,3),
    // which the selection admitted but the delete removed.
    for (t, c) in report.view.iter() {
        assert!(c > 0, "negative count for {t}");
    }
}
