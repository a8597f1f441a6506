//! Consistency audit: run every maintenance policy on the same generated
//! workload and let the checker classify each one — an executable version
//! of the paper's Table 1 consistency column.
//!
//! Run with: `cargo run --example consistency_audit`

use dwsweep::prelude::*;

fn main() {
    let mk = || {
        StreamConfig {
            n_sources: 4,
            initial_per_source: 30,
            updates: 30,
            mean_gap: 800, // dense against 2 ms links: constant interference
            domain: 10,
            keyed: true,
            seed: 77,
            ..Default::default()
        }
        .generate()
        .unwrap()
    };

    println!("policy × verified consistency (same workload, 4 sources, 30 updates)\n");
    println!(
        "{:<14} {:>12} {:>9} {:>10} {:>12}  detail",
        "policy", "consistency", "installs", "msgs/upd", "stale(ms)"
    );

    for kind in [
        PolicyKind::Sweep(EngineOptions::FIGURE_4),
        PolicyKind::Sweep(EngineOptions::FIGURE_6),
        PolicyKind::Strobe,
        PolicyKind::CStrobe,
        PolicyKind::Eca,
        PolicyKind::Recompute,
    ] {
        let report = Experiment::new(mk())
            .policy(kind)
            .latency(LatencyModel::Constant(2_000))
            .run()
            .unwrap();
        let cons = report.views[0].consistency.as_ref().unwrap();
        println!(
            "{:<14} {:>12} {:>9} {:>10.2} {:>12.2}  {}",
            kind.name(),
            cons.level.to_string(),
            report.views[0].metrics.installs,
            report.messages_per_update(),
            report.views[0].metrics.mean_staleness() / 1_000.0,
            cons.detail
        );
        assert!(
            cons.level >= ConsistencyLevel::Convergent,
            "{}: view corrupted!",
            kind.name()
        );
    }

    println!(
        "\nreading guide: SWEEP and C-strobe must report `complete`; Nested SWEEP,\n\
         Strobe and ECA at least `strong`; Recompute only `convergent`."
    );
}
