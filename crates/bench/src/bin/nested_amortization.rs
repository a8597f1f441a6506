//! **E7 — §6.2**: Nested SWEEP amortization. When updates arrive in bursts
//! that interfere with the running sweep, Nested SWEEP folds them into one
//! composite view change: the queries for the shared chain segments are
//! paid once, so messages *per update* fall below SWEEP's `2(n−1)` as the
//! burst grows (while worst-case stays bounded by SWEEP's cost).

use dw_bench::TableWriter;
use dw_core::{EngineOptions, Experiment, PolicyKind};
use dw_simnet::LatencyModel;
use dw_workload::{GapKind, StreamConfig};

fn msgs_per_update(kind: PolicyKind, burst: usize) -> (f64, u64, String) {
    // `burst` updates land 100 µs apart (inside the 3 ms query RTT), then
    // a long silence; repeated 6 times via total update count.
    let scenario = StreamConfig {
        n_sources: 4,
        initial_per_source: 20,
        updates: burst * 6,
        mean_gap: 100,
        gap: GapKind::Constant,
        domain: 8,
        seed: 31,
        ..Default::default()
    }
    .generate()
    .unwrap();
    let report = Experiment::new(scenario)
        .policy(kind)
        .latency(LatencyModel::Constant(3_000))
        .run()
        .unwrap();
    (
        report.messages_per_update(),
        report.views[0].metrics.installs,
        report.min_consistency().unwrap().to_string(),
    )
}

fn main() {
    println!("Nested SWEEP amortization: messages per update vs burst size (n = 4)\n");
    let mut t = TableWriter::new([
        "burst",
        "SWEEP msgs/upd",
        "SWEEP installs",
        "Nested msgs/upd",
        "Nested installs",
        "Nested level",
        "saving",
    ]);
    let args = dw_bench::BenchArgs::parse();
    let bursts: &[usize] = dw_bench::pick(args.smoke, &[1, 4, 16], &[1, 2, 4, 8, 16, 32]);
    for &burst in bursts {
        let (s_m, s_i, _) = msgs_per_update(PolicyKind::Sweep(EngineOptions::FIGURE_4), burst);
        let (n_m, n_i, n_l) = msgs_per_update(PolicyKind::Sweep(EngineOptions::FIGURE_6), burst);
        t.row([
            burst.to_string(),
            format!("{s_m:.2}"),
            s_i.to_string(),
            format!("{n_m:.2}"),
            n_i.to_string(),
            n_l,
            format!("{:.0}%", (1.0 - n_m / s_m) * 100.0),
        ]);
        assert!(n_m <= s_m + 1e-9, "Nested must never exceed SWEEP");
    }
    t.print();
    println!(
        "\npaper shape check: SWEEP is pinned at 2(n−1) = 6; Nested SWEEP's cost per\n\
         update falls as bursts grow (one composite sweep serves the batch), at the\n\
         price of complete → strong consistency (fewer, batched installs)."
    );
}
