//! **E5 — §3 (C-strobe)**: compensating-query blow-up. C-strobe and SWEEP
//! both provide complete consistency; the paper's point is the price:
//! C-strobe needs up to `K^(n−2)` (or `(n−1)!` with grouping) queries per
//! update under interference, while SWEEP is always exactly `n−1`.
//! We sweep the chain length and the interference density and measure
//! queries per update for both.

use dw_bench::TableWriter;
use dw_core::{EngineOptions, Experiment, PolicyKind};
use dw_simnet::LatencyModel;
use dw_workload::StreamConfig;

fn run(n: usize, gap: u64, kind: PolicyKind, updates: usize) -> (f64, String) {
    let scenario = StreamConfig {
        n_sources: n,
        initial_per_source: 25,
        updates,
        mean_gap: gap,
        domain: 8,
        keyed: true,
        insert_ratio: 0.5, // deletes drive C-strobe's compensating queries
        seed: 11,
        ..Default::default()
    }
    .generate()
    .unwrap();
    let report = Experiment::new(scenario)
        .policy(kind)
        .latency(LatencyModel::Constant(2_000))
        .run()
        .unwrap();
    let cons = report.min_consistency().unwrap().to_string();
    (
        report.scheduler_metrics.queries_sent as f64
            / report.scheduler_metrics.updates_received as f64,
        cons,
    )
}

fn main() {
    let args = dw_bench::BenchArgs::parse();
    let ns: &[usize] = dw_bench::pick(args.smoke, &[3, 4], &[3, 4, 5, 6]);
    let updates = dw_bench::pick(args.smoke, 12, 30);
    println!("C-strobe query blow-up vs SWEEP's flat n−1 ({updates} updates, 2 ms links)\n");
    let mut t = TableWriter::new([
        "n",
        "interference",
        "SWEEP q/upd",
        "SWEEP level",
        "C-strobe q/upd",
        "C-strobe level",
        "ratio",
    ]);

    for &n in ns {
        for (label, gap) in [("sparse", 60_000u64), ("dense", 600u64)] {
            let (sweep_q, sweep_c) =
                run(n, gap, PolicyKind::Sweep(EngineOptions::FIGURE_4), updates);
            let (cs_q, cs_c) = run(n, gap, PolicyKind::CStrobe, updates);
            t.row([
                n.to_string(),
                label.to_string(),
                format!("{sweep_q:.2}"),
                sweep_c.clone(),
                format!("{cs_q:.2}"),
                cs_c.clone(),
                format!("{:.1}x", cs_q / sweep_q),
            ]);
            assert_eq!(sweep_q, (n - 1) as f64, "SWEEP is exactly n−1 queries");
        }
    }
    t.print();
    println!(
        "\npaper shape check: under sparse updates both need ≈ n−1 queries; under\n\
         dense interference C-strobe's compensating queries multiply while SWEEP\n\
         stays pinned at n−1 — same consistency level, very different cost."
    );
}
