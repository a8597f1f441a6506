//! **E4 — §3 (ECA)**: "the size of query messages is quadratic in the
//! number of interfering updates". We drive the single-site ECA warehouse
//! with bursts of K updates inside one query round-trip (alternating
//! relations so every pending query compensates every other) and measure
//! the total query bytes and compensation terms per burst.

use dw_bench::TableWriter;
use dw_core::{Experiment, PolicyKind};
use dw_simnet::LatencyModel;
use dw_workload::{GapKind, SourcePick, StreamConfig};

fn main() {
    println!("ECA compensation growth: K updates interfering within one round-trip\n");
    let mut t = TableWriter::new([
        "K (burst)",
        "query msgs",
        "query bytes",
        "bytes/query",
        "comp. terms",
        "terms/query",
    ]);

    let args = dw_bench::BenchArgs::parse();
    let ks: &[usize] = dw_bench::pick(args.smoke, &[1, 4, 16], &[1, 2, 4, 8, 16, 32]);
    let mut prev_bpq = 0.0;
    for &k in ks {
        let scenario = StreamConfig {
            n_sources: 2,
            initial_per_source: 20,
            updates: k,
            mean_gap: 10, // all K updates land inside the 10 ms round-trip
            gap: GapKind::Constant,
            source_pick: SourcePick::AlternatingEnds,
            insert_ratio: 1.0,
            domain: 6,
            seed: 4,
            ..Default::default()
        }
        .generate()
        .unwrap();
        let report = Experiment::new(scenario)
            .policy(PolicyKind::Eca)
            .latency(LatencyModel::Constant(10_000))
            .run()
            .unwrap();
        let queries = report.net.label("eca_query").messages;
        let bytes = report.net.label("eca_query").bytes;
        let bpq = bytes as f64 / queries as f64;
        t.row([
            k.to_string(),
            queries.to_string(),
            bytes.to_string(),
            format!("{bpq:.0}"),
            report.scheduler_metrics.compensation_queries.to_string(),
            format!(
                "{:.1}",
                report.scheduler_metrics.compensation_queries as f64 / queries as f64
            ),
        ]);
        assert!(bpq >= prev_bpq, "query size must grow with interference");
        prev_bpq = bpq;
    }
    t.print();
    println!(
        "\npaper shape check: per-query size grows ~linearly in K, so total bytes\n\
         per K-burst grow ~quadratically — SWEEP queries carry only ΔV and stay flat."
    );
}
