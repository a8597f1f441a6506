//! **E12 — the price of earning reliable FIFO**: SWEEP behind the
//! reliability transport while the network drops, duplicates, and reorders
//! messages. The paper (§2) assumes the channel contract; here it is
//! *implemented*, so the contract's cost becomes measurable: wire traffic
//! inflates with retransmissions and staleness grows as lost legs wait out
//! retransmission timeouts — while the *logical* message count stays at the
//! paper's 2(n−1) per update and consistency stays complete at every loss
//! rate.
//!
//! Scenario, sweep points, rows and laws are the `dw_bench::perf::E12Row`
//! phase; this file is presentation.

use dw_bench::perf::{self, E12Row};
use dw_bench::TableWriter;

fn main() {
    let args = dw_bench::BenchArgs::parse();
    // The laws: complete, drained and logically on 2(n−1) at every rate.
    let (rows, details) = perf::measure_checked::<E12Row>(args.smoke);
    println!(
        "fault sweep (n = {}, 2 ms links, {} updates, SWEEP + reliability transport;\n\
         each loss rate also duplicates 2% and reorders 2% of messages)\n",
        details[0].n, details[0].report.scheduler_metrics.updates_received
    );
    let mut t = TableWriter::new([
        "loss",
        "dropped",
        "retx",
        "phys msgs",
        "logical msgs",
        "inflation",
        "overhead (B)",
        "logical msgs/upd",
        "mean stale (ms)",
        "makespan (ms)",
        "consistency",
    ]);

    for (row, detail) in rows.iter().zip(&details) {
        let report = &detail.report;
        t.row([
            format!("{:.0}%", row.loss_pct),
            report.net.fault_counters().dropped.to_string(),
            report.net.retransmitted().messages.to_string(),
            report.net.total().messages.to_string(),
            report.net.logical_total().messages.to_string(),
            format!("{:.3}", row.inflation),
            report.transport_overhead_bytes().to_string(),
            format!("{:.2}", row.logical_msgs_per_update),
            format!("{:.2}", report.views[0].metrics.mean_staleness() / 1_000.0),
            format!("{:.1}", report.end_time as f64 / 1_000.0),
            row.consistency.clone(),
        ]);
    }
    t.print();
    println!(
        "\npaper shape check: logical msgs/update pins at 2(n−1) = 4 whatever the\n\
         loss rate — faults inflate the wire (retx, acks), never the algorithm;\n\
         staleness and makespan grow with loss as lost legs wait out RTOs; SWEEP\n\
         stays complete at every rate because the transport restores §2's channel\n\
         contract."
    );
}
