//! Analytics dashboard: a SQL-defined view maintained by SWEEP, with
//! GROUP-BY aggregates (COUNT / SUM, AVG as their quotient) folded
//! incrementally from the very same `ΔV` stream the installs produce —
//! no rescans of the view.
//!
//! Run with: `cargo run --example analytics_dashboard`

use dwsweep::prelude::*;
use dwsweep::relational::parse_view;
use dwsweep::rng::Rng64;
use dwsweep::workload::ScheduledTxn;

fn main() {
    // --- Catalog + SQL view definition ---------------------------------
    let catalog = [
        Schema::new("Sales", ["SaleId", "Region", "Amount"]).unwrap(),
        Schema::new("Regions", ["Region", "Manager"]).unwrap(),
    ];
    let view = parse_view(
        "SELECT Sales.SaleId, Sales.Amount, Regions.Region \
         FROM Sales, Regions WHERE Sales.Region = Regions.Region",
        &catalog,
    )
    .unwrap();
    println!("view: {view}\n");

    // --- Workload: a stream of sales against 3 regions ------------------
    let regions = Bag::from_tuples((0..3i64).map(|r| tup![r, 100 + r]));
    let mut rng = Rng64::new(7);
    let mut txns = Vec::new();
    let mut live: Vec<Tuple> = Vec::new();
    let mut t = 0u64;
    for sale_id in 0..50i64 {
        t += rng.u64_in(300, 2_500);
        if sale_id > 10 && rng.chance(0.25) && !live.is_empty() {
            // A refund: delete a previous sale.
            let idx = rng.usize_below(live.len());
            let victim = live.swap_remove(idx);
            txns.push(ScheduledTxn {
                at: t,
                source: 0,
                delta: Bag::from_pairs([(victim, -1)]),
                global: None,
            });
        } else {
            let tup = tup![sale_id, rng.i64_in(0, 3), rng.i64_in(10, 500)];
            live.push(tup.clone());
            txns.push(ScheduledTxn {
                at: t,
                source: 0,
                delta: Bag::from_pairs([(tup, 1)]),
                global: None,
            });
        }
    }
    let scenario = GeneratedScenario {
        view,
        keys: KeySpec::new(vec![vec![0], vec![0]]),
        initial: vec![Bag::new(), regions],
        txns,
    };

    // --- Maintain with SWEEP; fold installs into the aggregates ---------
    let report = Experiment::new(scenario)
        .policy(PolicyKind::Sweep(EngineOptions::FIGURE_4))
        .latency(LatencyModel::Jittered {
            base: 1_000,
            jitter: 1_500,
        })
        .run()
        .unwrap();

    // View tuple layout: (SaleId, Amount, Region) → group by Region (2),
    // aggregate COUNT and SUM(Amount); AVG is printed as SUM / COUNT.
    let spec = AggregateSpec {
        group_by: vec![2],
        aggs: vec![AggFn::CountRows, AggFn::Sum(1)],
    };
    let mut dashboard = AggregateState::new(spec.clone());
    // Each install logs its delta; the first is relative to the initial
    // (empty-sales) view.
    for rec in &report.views[0].installs {
        dashboard.apply(&rec.delta).unwrap();
    }

    // Cross-check against a from-scratch aggregation of the final view.
    assert_eq!(
        dashboard.current(),
        spec.eval(&report.views[0].view).unwrap()
    );

    println!("region dashboard (incrementally maintained):");
    println!(
        "{:>7} {:>7} {:>10} {:>10}",
        "region", "sales", "revenue", "avg"
    );
    for (t, _) in dashboard.current().to_sorted_vec() {
        let (Value::Int(sales), Value::Int(revenue)) = (t.at(1), t.at(2)) else {
            panic!("COUNT and SUM over integer amounts are integers: {t}");
        };
        println!(
            "{:>7} {:>7} {:>10} {:>10.2}",
            t.at(0).to_string(),
            sales,
            revenue,
            *revenue as f64 / *sales as f64
        );
    }
    println!(
        "\nconsistency: {} — aggregates match a from-scratch recomputation ✓",
        report.min_consistency().unwrap()
    );
}
