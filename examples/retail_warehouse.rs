//! A retail analytics warehouse: the scenario the paper's introduction
//! motivates — OLTP systems keep running while an analytical view is
//! maintained incrementally off to the side.
//!
//! Three autonomous systems feed the warehouse:
//!   * `Orders[OrderId, CustId, ProdId]` — the order-entry system,
//!   * `Products[ProdId, Category, SupplierId]` — the catalog service,
//!   * `Suppliers[SupplierId, Region]` — the procurement system.
//!
//! The warehouse materializes "orders joined to their product's supplier
//! region", maintained by SWEEP and by Nested SWEEP under a bursty update
//! storm, with staleness and message accounting compared.
//!
//! Run with: `cargo run --example retail_warehouse`

use dwsweep::prelude::*;
use dwsweep::rng::Rng64;
use dwsweep::workload::ScheduledTxn;

fn build_scenario(seed: u64) -> GeneratedScenario {
    let view = ViewDefBuilder::new()
        .relation(Schema::new("Orders", ["OrderId", "CustId", "ProdId"]).unwrap())
        .relation(Schema::new("Products", ["ProdId", "Category", "SupplierId"]).unwrap())
        .relation(Schema::new("Suppliers", ["SupplierId", "Region"]).unwrap())
        .join("Orders.ProdId", "Products.ProdId")
        .join("Products.SupplierId", "Suppliers.SupplierId")
        .project(["Orders.OrderId", "Products.Category", "Suppliers.Region"])
        .build()
        .unwrap();

    let mut rng = Rng64::new(seed);
    const PRODUCTS: i64 = 12;
    const SUPPLIERS: i64 = 4;

    // Catalog and procurement start populated; orders start empty.
    let products = Bag::from_tuples((0..PRODUCTS).map(|p| tup![p, p % 5, p % SUPPLIERS]));
    let suppliers = Bag::from_tuples((0..SUPPLIERS).map(|s| tup![s, s % 3]));
    let initial = vec![Bag::new(), products, suppliers];

    // A burst of order entries with occasional catalog churn.
    let mut txns = Vec::new();
    let mut t = 0u64;
    let mut order_id = 0i64;
    let mut live_orders: Vec<Tuple> = Vec::new();
    for _ in 0..60 {
        t += rng.u64_in(200, 2_000);
        let roll: f64 = rng.f64();
        if roll < 0.75 || live_orders.is_empty() {
            // New order.
            let o = tup![order_id, rng.i64_in(0, 100), rng.i64_in(0, PRODUCTS)];
            order_id += 1;
            live_orders.push(o.clone());
            txns.push(ScheduledTxn {
                at: t,
                source: 0,
                delta: Bag::from_pairs([(o, 1)]),
                global: None,
            });
        } else if roll < 0.9 {
            // Order cancelled.
            let idx = rng.usize_below(live_orders.len());
            let o = live_orders.swap_remove(idx);
            txns.push(ScheduledTxn {
                at: t,
                source: 0,
                delta: Bag::from_pairs([(o, -1)]),
                global: None,
            });
        } else {
            // Catalog churn: a product is recategorized — a *modify*,
            // modeled per the paper as delete + insert in one source-local
            // transaction.
            let p = rng.i64_in(0, PRODUCTS);
            let old = tup![p, p % 5, p % SUPPLIERS];
            let new = tup![p, (p % 5 + 1) % 5, p % SUPPLIERS];
            // Only valid the first time for each product; guard by testing
            // a recognizable category shift on even rounds.
            if p % 2 == 0
                && !txns
                    .iter()
                    .any(|x: &ScheduledTxn| x.source == 1 && x.delta.count(&old) == -1)
            {
                txns.push(ScheduledTxn {
                    at: t,
                    source: 1,
                    delta: Bag::from_pairs([(old, -1), (new, 1)]),
                    global: None,
                });
            }
        }
    }

    GeneratedScenario {
        view,
        keys: KeySpec::new(vec![vec![0], vec![0], vec![0]]),
        initial,
        txns,
    }
}

fn main() {
    println!("retail warehouse: Orders ⋈ Products ⋈ Suppliers under bursty load\n");
    let mut rows = Vec::new();
    for (label, kind) in [
        ("SWEEP", PolicyKind::Sweep(EngineOptions::FIGURE_4)),
        (
            "SWEEP (parallel sweeps)",
            PolicyKind::Sweep(EngineOptions::default()),
        ),
        ("Nested SWEEP", PolicyKind::Sweep(EngineOptions::FIGURE_6)),
    ] {
        let report = Experiment::new(build_scenario(2024))
            .policy(kind)
            .latency(LatencyModel::Jittered {
                base: 3_000,
                jitter: 1_000,
            })
            .run()
            .unwrap();
        let cons = report.views[0].consistency.as_ref().unwrap();
        rows.push((
            label,
            cons.level.to_string(),
            report.views[0].metrics.installs,
            report.messages_per_update(),
            report.views[0].metrics.mean_staleness() / 1_000.0,
            report.scheduler_metrics.local_compensations,
            report.views[0].view.distinct_len(),
        ));
    }

    println!(
        "{:<24} {:>11} {:>9} {:>10} {:>12} {:>14} {:>11}",
        "policy",
        "consistency",
        "installs",
        "msgs/upd",
        "stale(ms)",
        "compensations",
        "view tuples"
    );
    let mut views = Vec::new();
    for (label, cons, installs, mpu, stale, comp, tuples) in rows {
        println!(
            "{label:<24} {cons:>11} {installs:>9} {mpu:>10.2} {stale:>12.2} {comp:>14} {tuples:>11}"
        );
        views.push(tuples);
    }
    assert!(views.windows(2).all(|w| w[0] == w[1]), "all policies agree");
    println!("\nall three policies converged to the same view — as they must.");
}
