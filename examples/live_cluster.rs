//! Live cluster: the same SWEEP state machine, but on OS threads with real
//! OS channels instead of the deterministic simulator — one thread
//! per data source plus one for the warehouse, racing for real.
//!
//! Run with: `cargo run --example live_cluster`

use dwsweep::livenet::run_live;
use dwsweep::prelude::*;
use dwsweep::relational::eval_view;
use std::time::Duration;

fn main() {
    let scenario = StreamConfig {
        n_sources: 4,
        initial_per_source: 40,
        updates: 40,
        mean_gap: 1_500,
        seed: 99,
        ..Default::default()
    }
    .generate()
    .unwrap();

    // Ground truth: all transactions applied, view recomputed.
    let mut rels = scenario.initial.clone();
    for t in &scenario.txns {
        rels[t.source].merge(&t.delta);
    }
    let refs: Vec<&Bag> = rels.iter().collect();
    let expected = eval_view(&scenario.view, &refs).unwrap();

    println!(
        "spawning 1 warehouse + {} source threads, {} transactions…",
        scenario.view.num_relations(),
        scenario.txns.len()
    );
    let report = run_live(
        &scenario,
        EngineOptions::FIGURE_4,
        10.0, // compress scenario time 10×
        Duration::from_secs(60),
    )
    .unwrap();

    println!("policy:        {}", EngineOptions::FIGURE_4.sweep_name());
    println!("wall time:     {:?}", report.wall);
    println!("updates:       {}", report.metrics.updates_received);
    println!(
        "installs:      {} (one per update — complete consistency)",
        report.views[0].installs.len()
    );
    println!(
        "compensations: {} error terms corrected locally",
        report.metrics.local_compensations
    );
    println!("view tuples:   {}", report.views[0].view.distinct_len());

    assert!(report.quiescent);
    assert_eq!(
        report.views[0].view, expected,
        "live run must converge to ground truth"
    );
    assert_eq!(report.views[0].installs.len(), scenario.txns.len());
    println!("\nlive view matches the ground-truth recomputation ✓");
}
