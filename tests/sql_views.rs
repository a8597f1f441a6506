//! Integration: views defined through the SQL parser behave identically to
//! builder-defined views through the whole maintenance pipeline.

use dwsweep::prelude::*;
use dwsweep::relational::{eval_view, parse_view};
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
            .policy(PolicyKind::Sweep(EngineOptions::FIGURE_4))
            .latency(LatencyModel::Constant(3_000))
            .run()
            .unwrap()
    };
    let sql_report = run(sql_view);
    let built_report = run(built_view);
    assert_eq!(sql_report.views[0].view, built_report.views[0].view);
    assert_eq!(sql_report.events, built_report.events);
    assert_eq!(
        sql_report.views[0].consistency.as_ref().unwrap().level,
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
            .policy(PolicyKind::Sweep(EngineOptions::FIGURE_4))
            .indexed_sources(indexed)
            .run()
            .unwrap()
    };
    let report = run(false);
    assert_eq!(
        report.views[0].consistency.as_ref().unwrap().level,
        ConsistencyLevel::Complete
    );
    // Sources that probe a maintained join index honour `R1.A > 1` too:
    // same view, same install log, same number of deliveries.
    let indexed = run(true);
    assert_eq!(indexed.views[0].view, report.views[0].view);
    assert_eq!(indexed.views[0].installs, report.views[0].installs);
    assert_eq!(indexed.events, report.events);
    // The view's σ filters the seed: with the short-circuit the insert
    // of (0,3) sends no query, and still installs (an empty delta).
    let short = Experiment::new(s.clone())
        .policy(PolicyKind::Sweep(EngineOptions {
            short_circuit_empty: true,
            ..EngineOptions::FIGURE_4
        }))
        .run()
        .unwrap();
    assert_eq!(report.scheduler_metrics.queries_sent, 6);
    assert_eq!(short.scheduler_metrics.queries_sent, 4);
    assert_eq!(short.views[0].view, report.views[0].view);
    assert_eq!(
        short.views[0].installs.len(),
        report.views[0].installs.len()
    );
    // Only tuples derived through A>1 rows remain; (1,3)'s derivations are
    // excluded by the selection and (2,3) was deleted → only (3,5)'s join
    // through... R1 has no surviving row joining B=3 after the delete, so
    // the view is empty except pre-existing (7,8)-derived rows from (2,3),
    // which the selection admitted but the delete removed.
    for (t, c) in report.views[0].view.iter() {
        assert!(c > 0, "negative count for {t}");
    }
}

/// Every [`ViewDef`] — builder or SQL, with local σ, residual
/// comparisons and Π — round-trips through its [`ViewSpec`]: compiled
/// over its own bare chain it prints and evaluates as the view itself,
/// over seeded relations.
#[test]
fn view_specs_round_trip_builder_and_sql_views() {
    let [r1, r2, r3] = [0, 1, 2].map(|i| catalog()[i].clone());
    let built = |b: ViewDefBuilder| b.build().unwrap();
    let chain3 = || {
        ViewDefBuilder::new()
            .relation(r1.clone())
            .relation(r2.clone())
            .relation(r3.clone())
            .join("R1.B", "R2.C")
            .join("R2.D", "R3.E")
    };
    let sql = |q: &str| parse_view(q, &catalog()).unwrap();
    let views = [
        built(chain3()),
        built(
            chain3()
                .select("R1.A", CmpOp::Gt, 1)
                .select("R3.F", CmpOp::Le, 7)
                .select("R1.B", CmpOp::Ne, 4)
                .select_across("R1.A", CmpOp::Lt, "R3.F")
                .select_across("R2.C", CmpOp::Le, "R2.D")
                .project(["R3.F", "R1.A", "R2.D"]),
        ),
        built(chain3().select_across("R3.F", CmpOp::Ge, "R1.A")),
        built(chain3().project(["R1.A", "R1.B", "R2.C", "R2.D", "R3.E", "R3.F"])),
        built(
            ViewDefBuilder::new()
                .relation(r1.clone())
                .relation(r2.clone())
                .join("R1.B", "R2.C")
                .select("R2.D", CmpOp::Ge, 2)
                .project(["R2.D", "R2.D"]),
        ),
        built(ViewDefBuilder::new().relation(r3.clone())),
        sql("SELECT R2.D, R3.F FROM R1, R2, R3 WHERE R1.B = R2.C AND R2.D = R3.E"),
        sql("SELECT R2.D, R3.F FROM R1, R2, R3 \
             WHERE R1.B = R2.C AND R2.D = R3.E AND R1.A > 1"),
        sql("SELECT * FROM R1, R2, R3 \
             WHERE R1.B = R2.C AND R2.D = R3.E AND R1.A = R3.F AND R2.C < R2.D"),
    ];
    for seed in 0..8u64 {
        let mut rng = dw_rng::Rng64::new(seed);
        let mut relation = || {
            let rows = (0..12).map(|_| tup![rng.i64_in(0, 6), rng.i64_in(0, 6)]);
            Bag::from_tuples(rows)
        };
        let rels = [relation(), relation(), relation()];
        for v in &views {
            let spec = ViewSpec::of("v", v).unwrap();
            let compiled = spec.compile(&v.chain()).unwrap();
            assert_eq!(compiled.to_string(), v.to_string());
            let names = catalog()
                .iter()
                .map(|s| s.name().to_string())
                .collect::<Vec<_>>();
            let first = names.iter().position(|n| n == v.schema(0).name()).unwrap();
            let refs: Vec<&Bag> = rels[first..first + v.num_relations()].iter().collect();
            let want = eval_view(v, &refs).unwrap();
            assert_eq!(
                eval_view(&compiled, &refs).unwrap(),
                want,
                "{v} seed {seed}"
            );
        }
    }
}
