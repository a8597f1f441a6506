//! **E14 — shared-sweep message sharing across a multi-view warehouse**:
//! register V views over the same source chain and compare the shared
//! scheduler (one incremental query per hop, answer reused by every
//! affected view) against the naive baseline: V independent one-view
//! warehouses, each sweeping for its own view. The paper maintains a
//! single view at `2(n−1)` messages per update (§5); the shared sweep
//! keeps that bound *regardless of view count*, while the naive fan-out
//! pays `V·2(n−1)`.
//!
//! Scenario, sweep points, rows and laws are the `dw_bench::perf::E14Row`
//! phase; this file is presentation.

use dw_bench::perf::{self, E14Row};
use dw_bench::TableWriter;

fn main() {
    let args = dw_bench::BenchArgs::parse();
    let (rows, details) = perf::measure_checked::<E14Row>(args.smoke);
    let n = rows[0].n;
    println!(
        "multi-view maintenance (n = {n} sources, {} updates, 2 ms links;\n\
         V random full-span views with mixed policies share one warehouse)\n",
        details[0].shared.scheduler_metrics.updates_received
    );
    let mut t = TableWriter::new([
        "views",
        "shared msgs/upd",
        "naive msgs/upd",
        "sharing ratio",
        "min consistency",
        "mutual",
        "stale p50 (ms)",
        "stale p95 (ms)",
    ]);

    for (row, run) in rows.iter().zip(&details) {
        let views = row.views;
        assert!(run.shared.quiescent, "V={views}: no drain");
        assert_eq!(run.shared.views.len(), run.naive.len());
        let shared_installs = run.shared.install_fingerprint();
        for (v, (s, alone)) in run.shared.views.iter().zip(&run.naive).enumerate() {
            assert!(alone.quiescent, "V={views}: {} alone: no drain", s.name);
            assert_eq!(
                s.view, alone.views[0].view,
                "V={views}: shared and naive disagree on {}",
                s.name
            );
            assert_eq!(
                shared_installs[v],
                alone.install_fingerprint()[0],
                "V={views}: shared and naive install {} differently",
                s.name
            );
        }
        t.row([
            views.to_string(),
            format!("{:.2}", row.shared_msgs_per_update),
            format!("{:.2}", row.naive_msgs_per_update),
            format!("{:.2}x", row.sharing_ratio),
            row.min_consistency.clone(),
            row.mutual_agreement.to_string(),
            format!("{:.1}", row.stale_p50_us as f64 / 1_000.0),
            format!("{:.1}", row.stale_p95_us as f64 / 1_000.0),
        ]);
    }
    t.print();
    println!(
        "\npaper shape check: the shared sweep stays on 2(n−1) = {} messages per\n\
         update no matter how many views it maintains — each hop's incremental\n\
         answer is fetched once and re-projected per view at the warehouse — while\n\
         the naive per-view fan-out scales linearly in V; both land every view on\n\
         the same final bag.",
        2 * (n - 1)
    );
}
