//! **E3 — Figure 2 / §4**: on-line error correction, traced. A sweep for
//! `ΔR_2` is in flight toward `R_1` when `ΔR_1` commits at source 1. FIFO
//! guarantees the warehouse sees the update *before* the contaminated
//! answer, computes the error term `ΔR_1 ⋈ TempView` locally, and never
//! sends a compensating query. The network trace printed below is the
//! paper's Figure 2 timeline, measured.

use dw_core::{EngineOptions, Experiment, PolicyKind};
use dw_relational::{tup, Bag, KeySpec, Schema, ViewDefBuilder};
use dw_simnet::{LatencyModel, TraceKind};
use dw_workload::{GeneratedScenario, ScheduledTxn};

fn main() {
    // `--smoke` accepted for uniformity: the Figure 2 timeline is already
    // minimal, so smoke and full coincide.
    let _ = dw_bench::BenchArgs::parse();
    let view = ViewDefBuilder::new()
        .relation(Schema::new("R1", ["A", "B"]).unwrap())
        .relation(Schema::new("R2", ["C", "D"]).unwrap())
        .relation(Schema::new("R3", ["E", "F"]).unwrap())
        .join("R1.B", "R2.C")
        .join("R2.D", "R3.E")
        .project(["R2.D", "R3.F"])
        .build()
        .unwrap();
    let scenario = GeneratedScenario {
        view,
        keys: KeySpec::new(vec![vec![0], vec![0], vec![0]]),
        initial: vec![
            Bag::from_tuples([tup![1, 3], tup![2, 3]]),
            Bag::from_tuples([tup![3, 7]]),
            Bag::from_tuples([tup![5, 6], tup![7, 8]]),
        ],
        txns: vec![
            // The sweep for this update queries R1 first…
            ScheduledTxn {
                at: 0,
                source: 1,
                delta: Bag::from_pairs([(tup![3, 5], 1)]),
                global: None,
            },
            // …and this one commits at source 1 while that query is in
            // flight (query latency 5 ms, injection at 2 ms).
            ScheduledTxn {
                at: 2_000,
                source: 0,
                delta: Bag::from_pairs([(tup![2, 3], -1)]),
                global: None,
            },
        ],
    };

    let report = Experiment::new(scenario)
        .policy(PolicyKind::Sweep(EngineOptions::FIGURE_4))
        .latency(LatencyModel::Constant(5_000))
        .trace(true)
        .run()
        .unwrap();

    println!("network trace (=> is a delivery; N0 = warehouse, N1..N3 = sources):\n");
    for ev in report.trace.iter().filter(|e| e.kind == TraceKind::Deliver) {
        let note = match (ev.label, ev.from, ev.to) {
            ("update", 1, 0) => "  <-- ΔR1 arrives BEFORE the answer from R1 (FIFO)",
            ("answer", 1, 0) => "  <-- contaminated answer; error term removed LOCALLY",
            _ => "",
        };
        println!("  {ev}{note}");
    }

    println!(
        "\nlocal compensations: {}",
        report.scheduler_metrics.local_compensations
    );
    println!(
        "compensating queries sent: {}",
        report.scheduler_metrics.compensation_queries
    );
    println!("consistency: {}", report.min_consistency().unwrap());
    assert!(report.scheduler_metrics.local_compensations >= 1);
    assert_eq!(report.scheduler_metrics.compensation_queries, 0);
    println!("\nerror corrected on-line with zero compensating queries ✓");
}
