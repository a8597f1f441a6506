//! **E2 — Figure 5**: the paper's worked example, replayed twice:
//! sequentially (each update settles before the next) and fully
//! concurrently (all three interfere). Complete consistency demands the
//! *same* state sequence either way — and SWEEP delivers it.

use dw_bench::TableWriter;
use dw_consistency::{view_states, SlotView};
use dw_core::{EngineOptions, Experiment, PolicyKind};
use dw_relational::{tup, Bag, KeySpec, Schema, ViewDefBuilder};
use dw_simnet::LatencyModel;
use dw_workload::{GeneratedScenario, ScheduledTxn};

fn scenario(gap: u64) -> GeneratedScenario {
    let view = ViewDefBuilder::new()
        .relation(Schema::new("R1", ["A", "B"]).unwrap())
        .relation(Schema::new("R2", ["C", "D"]).unwrap())
        .relation(Schema::new("R3", ["E", "F"]).unwrap())
        .join("R1.B", "R2.C")
        .join("R2.D", "R3.E")
        .project(["R2.D", "R3.F"])
        .build()
        .unwrap();
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
                at: gap,
                source: 2,
                delta: Bag::from_pairs([(tup![7, 8], -1)]),
                global: None,
            },
            ScheduledTxn {
                at: 2 * gap,
                source: 0,
                delta: Bag::from_pairs([(tup![2, 3], -1)]),
                global: None,
            },
        ],
    }
}

fn run(label: &str, gap: u64) -> Vec<String> {
    let scenario = scenario(gap);
    let slot = SlotView::base(scenario.view.clone(), 0);
    let report = Experiment::new(scenario)
        .policy(PolicyKind::Sweep(EngineOptions::FIGURE_4))
        .latency(LatencyModel::Constant(5_000))
        .run()
        .unwrap();
    // The view after each install: its initial contents plus the deltas.
    let initial = report.truth.state(&slot, &|_| false).unwrap();
    let states = view_states(initial.into(), &report.views[0].installs);
    let states: Vec<String> = states.map(|state| format!("{state:?}")).collect();
    println!(
        "{label}: consistency = {}, compensations = {}",
        report.min_consistency().unwrap(),
        report.scheduler_metrics.local_compensations
    );
    states
}

fn main() {
    // `--smoke` accepted for uniformity: the worked example is already
    // minimal, so smoke and full coincide.
    let _ = dw_bench::BenchArgs::parse();
    println!("Figure 5 (reproduced): V = Π[D,F](R1 ⋈ R2 ⋈ R3)");
    println!("updates: ΔR2 = +(3,5);  ΔR3 = −(7,8);  ΔR1 = −(2,3)\n");

    // Sequential: 100 ms apart, far longer than any sweep.
    let seq = run("sequential (no interference)", 100_000);
    // Concurrent: 1 ms apart against 5 ms links — every sweep interferes.
    let conc = run("concurrent (all interfere)  ", 1_000);

    let mut t = TableWriter::new(["Event", "paper says", "sequential run", "concurrent run"]);
    let paper = [
        "{(5,6)[2], (7,8)[2]}",
        "{(5,6)[2]}",
        "{+(5,6)}", // (5,6)[1]
    ];
    let events = [
        "after ΔR2 = +(3,5)",
        "after ΔR3 = −(7,8)",
        "after ΔR1 = −(2,3)",
    ];
    for i in 0..3 {
        t.row([
            events[i].to_string(),
            paper[i].to_string(),
            seq[i].clone(),
            conc[i].clone(),
        ]);
    }
    println!();
    t.print();

    assert_eq!(seq, conc, "complete consistency: identical state sequences");
    println!("\nsequential and concurrent state sequences are identical ✓");
}
