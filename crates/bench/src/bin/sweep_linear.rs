//! **E6 — §5.3**: SWEEP's message complexity is linear in the number of
//! data sources — exactly `n−1` queries (`2(n−1)` messages) per update,
//! *independent of how much concurrency interferes*, because all
//! compensation is local.
//!
//! Scenario, sweep points, rows and laws are the `dw_bench::perf::E6Row`
//! phase; this file is presentation.

use dw_bench::perf::{self, E6Row};
use dw_bench::TableWriter;

fn main() {
    let args = dw_bench::BenchArgs::parse();
    // The phase's laws are the experiment's claim: every row exactly on
    // 2(n−1), sparse and dense, regardless of interference.
    let (rows, _) = perf::measure_checked::<E6Row>(args.smoke);
    println!("SWEEP message linearity: queries per update vs n, sparse and dense\n");
    let mut t = TableWriter::new([
        "n",
        "expected 2(n−1)",
        "sparse msgs/upd",
        "dense msgs/upd",
        "dense compensations",
        "consistency",
    ]);
    for row in &rows {
        t.row([
            row.n.to_string(),
            row.expected_msgs_per_update.to_string(),
            format!("{:.2}", row.sparse_msgs_per_update),
            format!("{:.2}", row.dense_msgs_per_update),
            row.dense_compensations.to_string(),
            row.consistency.clone(),
        ]);
    }
    t.print();
    println!(
        "\npaper shape check: messages/update = 2(n−1) in every row, sparse or dense —\n\
         interference changes the compensation count, never the message count."
    );
}
