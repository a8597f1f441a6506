//! **E10 — §5.3 optimizations, ablated**:
//!
//! * *parallel sweeps* — the left and right for-loops of `ViewChange` are
//!   independent; running them concurrently roughly halves the per-update
//!   critical path (the paper's first observation);
//! * *empty short-circuit* — once the in-flight `ΔV` is empty the final
//!   change is empty, so remaining queries can be skipped (saves messages
//!   on low-selectivity workloads);
//! * *pipelining* — `window: 0` overlaps the sweeps of different updates,
//!   installs staying in arrival order.
//!
//! All must preserve complete consistency — asserted on every row.

use dw_bench::TableWriter;
use dw_core::{EngineOptions, Experiment, PolicyKind};
use dw_simnet::LatencyModel;
use dw_workload::StreamConfig;

fn main() {
    let args = dw_bench::BenchArgs::parse();
    let updates = dw_bench::pick(args.smoke, 12, 40);
    println!("SWEEP ablation (n = 6, 3 ms links, {updates} updates)\n");
    let mut t = TableWriter::new([
        "variant",
        "selectivity",
        "msgs/upd",
        "mean stale (ms)",
        "makespan (ms)",
        "consistency",
    ]);

    let figure_4 = EngineOptions::FIGURE_4;
    let variants: [(&str, PolicyKind); 5] = [
        ("baseline", PolicyKind::Sweep(figure_4)),
        (
            "parallel sweeps",
            PolicyKind::Sweep(EngineOptions {
                sequential: false,
                ..figure_4
            }),
        ),
        (
            "short-circuit",
            PolicyKind::Sweep(EngineOptions {
                short_circuit_empty: true,
                ..figure_4
            }),
        ),
        (
            "parallel + short-circuit",
            PolicyKind::Sweep(EngineOptions {
                sequential: false,
                short_circuit_empty: true,
                ..figure_4
            }),
        ),
        (
            "pipelined (unbounded)",
            PolicyKind::Sweep(EngineOptions {
                window: 0,
                ..figure_4
            }),
        ),
    ];

    // Two selectivity regimes: "dense" joins (fanout ≈ 1 per hop — most
    // deltas survive the chain) and "sparse" joins (large domain — ΔV
    // often dies mid-sweep, where short-circuiting shines).
    for (sel_label, domain) in [("dense", 20u64), ("sparse", 400u64)] {
        let mut base_makespan = None;
        for (label, kind) in variants {
            let scenario = StreamConfig {
                n_sources: 6,
                initial_per_source: 20,
                updates,
                mean_gap: 2_000,
                domain,
                seed: 8,
                ..Default::default()
            }
            .generate()
            .unwrap();
            let report = Experiment::new(scenario)
                .policy(kind)
                .latency(LatencyModel::Constant(3_000))
                .run()
                .unwrap();
            let level = report.min_consistency().unwrap();
            assert_eq!(level.to_string(), "complete", "{label} broke consistency");
            let makespan = report.end_time as f64 / 1_000.0;
            if label == "baseline" {
                base_makespan = Some(makespan);
            }
            t.row([
                label.to_string(),
                sel_label.to_string(),
                format!("{:.2}", report.messages_per_update()),
                format!("{:.2}", report.views[0].metrics.mean_staleness() / 1_000.0),
                format!(
                    "{makespan:.1} ({:.0}%)",
                    100.0 * makespan / base_makespan.unwrap()
                ),
                level.to_string(),
            ]);
        }
    }
    t.print();
    println!(
        "\npaper shape check: parallel sweeps cut per-update latency toward ~half on\n\
         long chains; short-circuiting saves messages only when joins are sparse;\n\
         pipelining overlaps whole sweeps and collapses both staleness and makespan;\n\
         every variant stays complete."
    );
}
