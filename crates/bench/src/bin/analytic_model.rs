//! **E11 — the \[Yur97] analytical model vs. the simulator.** The paper's
//! §6.2 cites an analytical performance model for (Nested) SWEEP. This
//! experiment reconstructs the model's first-order predictions
//! (`dw_bench::model`) and validates them against measured runs:
//!
//! * SWEEP messages per update — exact: `2(n−1)`;
//! * SWEEP local compensations per update — Poisson interference window:
//!   `(n−1)(1 − e^{−2λL})`;
//! * Nested SWEEP batch size — busy-period growth `1/(1−ρ)`.

use dw_bench::{model, TableWriter};
use dw_core::{EngineOptions, Experiment, PolicyKind};
use dw_simnet::LatencyModel;
use dw_workload::{GapKind, StreamConfig};

fn main() {
    let args = dw_bench::BenchArgs::parse();
    let n = 4usize;
    let latency = 2_000u64;
    let updates = dw_bench::pick(args.smoke, 80, 400);
    let gaps: &[u64] = dw_bench::pick(
        args.smoke,
        &[50_000, 10_000],
        &[50_000, 20_000, 10_000, 6_000],
    );
    println!(
        "analytical model vs simulation: n = {n}, L = {latency} µs, {updates} updates, \
         Poisson arrivals\n"
    );
    let mut t = TableWriter::new([
        "gap (µs)",
        "λ/src (1/µs)",
        "comp/upd pred",
        "comp/upd meas",
        "nested batch pred",
        "nested batch meas",
        "nested m/u pred",
        "nested m/u meas",
    ]);

    for &mean_gap in gaps {
        // mean_gap is the aggregate inter-arrival; per-source rate:
        let lambda = 1.0 / (mean_gap as f64 * n as f64);
        let scenario = |seed| {
            StreamConfig {
                n_sources: n,
                initial_per_source: 30,
                updates,
                mean_gap,
                gap: GapKind::Exponential,
                domain: 30,
                seed,
                ..Default::default()
            }
            .generate()
            .unwrap()
        };
        let sweep = Experiment::new(scenario(5))
            .policy(PolicyKind::Sweep(EngineOptions::FIGURE_4))
            .latency(LatencyModel::Constant(latency))
            .check_consistency(false)
            .run()
            .unwrap();
        let nested = Experiment::new(scenario(5))
            .policy(PolicyKind::Sweep(EngineOptions::FIGURE_6))
            .latency(LatencyModel::Constant(latency))
            .check_consistency(false)
            .run()
            .unwrap();

        assert_eq!(
            sweep.messages_per_update(),
            model::sweep_messages(n) as f64,
            "exact prediction must hold"
        );
        let comp_pred = model::sweep_compensations_per_update_queued(n, lambda, latency);
        let comp_meas = sweep.scheduler_metrics.local_compensations as f64
            / sweep.scheduler_metrics.updates_received as f64;
        let batch_pred = model::nested_batch_size(n, lambda, latency);
        let batch_meas = nested.scheduler_metrics.updates_received as f64
            / nested.views[0].metrics.installs.max(1) as f64;
        let mpu_pred = model::nested_messages_per_update(n, lambda, latency);
        let mpu_meas = nested.messages_per_update();

        t.row([
            mean_gap.to_string(),
            format!("{lambda:.2e}"),
            format!("{comp_pred:.3}"),
            format!("{comp_meas:.3}"),
            if batch_pred.is_finite() {
                format!("{batch_pred:.2}")
            } else {
                "sat.".to_string()
            },
            format!("{batch_meas:.2}"),
            format!("{mpu_pred:.2}"),
            format!("{mpu_meas:.2}"),
        ]);
    }
    t.print();
    println!(
        "\nreading guide: the exact law (messages = 2(n−1)) holds to the digit; the\n\
         stochastic predictions track the measurements within the model's first-order\n\
         assumptions and diverge exactly where queueing effects (which the simple\n\
         model ignores) kick in — the same caveat [Yur97]-style models carry."
    );
}
