//! **E16 — σ query pushdown to the sources**: the shared sweep ships each
//! per-relation σ (the OR-union of the affected views' selections) with
//! its `SweepQuery`, so the source filters *before* joining and only
//! qualifying tuples ride the answers back. The same seeded scenario runs
//! twice — pushdown off, then on — and the table compares the wire. The
//! hop structure is pinned (pushdown rewrites payloads, never the message
//! count), every view lands on the same final contents and install
//! sequence (see the conformance suite), and as the σ gets more selective
//! the answer bytes fall while the unpushed run keeps paying full freight.
//!
//! Scenario, sweep points, rows and laws are the `dw_bench::perf::E16Row`
//! phase; this file is presentation.
//!
//! Usage: `pushdown [--smoke]`

use dw_bench::perf::{self, E16Row};
use dw_bench::TableWriter;

fn main() {
    let args = dw_bench::BenchArgs::parse();
    // The laws pin the hop structure and forbid inflated answers.
    let (rows, thresholds) = perf::measure_checked::<E16Row>(args.smoke);
    println!(
        "\u{3c3} query pushdown (n = {} sources, {} full-span SWEEP views, {} updates, \
         2 ms links;\neach view selects B >= t on every span relation, join values in 0..10)\n",
        rows[0].n, rows[0].views, rows[0].updates
    );

    let mut t = TableWriter::new([
        "sigma",
        "query KB (plain)",
        "query KB (pushed)",
        "answer KB (plain)",
        "answer KB (pushed)",
        "reduction",
        "min consistency",
    ]);

    for (row, threshold) in rows.iter().zip(&thresholds) {
        t.row([
            match threshold {
                None => "none".to_string(),
                Some(v) => format!("B >= {v}"),
            },
            format!("{:.1}", row.query_bytes_plain as f64 / 1e3),
            format!("{:.1}", row.query_bytes_pushed as f64 / 1e3),
            format!("{:.1}", row.answer_bytes_plain as f64 / 1e3),
            format!("{:.1}", row.answer_bytes_pushed as f64 / 1e3),
            if row.answer_bytes_plain == 0 {
                "-".to_string()
            } else {
                format!("{:.0}%", row.answer_reduction_pct)
            },
            row.min_consistency.clone(),
        ]);
    }
    t.print();

    println!(
        "\nthe pushed \u{3c3} filters at the source, so answers (and downstream partials) carry\n\
         only qualifying tuples; compensation applies the same \u{3c3} to queued deltas, keeping\n\
         pushed and unpushed runs install-for-install identical"
    );
}
