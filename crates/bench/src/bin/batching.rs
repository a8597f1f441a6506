//! **E15 — cross-update batching under a saturated queue**: every update
//! comes from one mid-chain source, injected back-to-back far faster than
//! a sweep round trip, so updates pile up at the warehouse while a sweep
//! is in flight. With batch width `k` the shared scheduler folds up to
//! `k` queued same-source updates into one sweep: the first update sweeps
//! alone, every later sweep folds exactly `k`, and messages/update falls
//! from the paper's `2(n−1)` per-update cost (§5) toward the `2(n−1)/k`
//! amortization floor. The price is granularity, not correctness:
//! batched installs skip intermediate states (strong instead of complete
//! consistency) but every view still lands on the same final contents.
//!
//! Scenario, sweep points, rows and laws are the `dw_bench::perf::E15Row`
//! phase; this file is presentation.
//!
//! Usage: `batching [--smoke]`

use dw_bench::perf::{self, E15Row};
use dw_bench::TableWriter;

fn main() {
    let args = dw_bench::BenchArgs::parse();
    let (rows, details) = perf::measure_checked::<E15Row>(args.smoke);
    println!(
        "cross-update batching (n = {} sources, {} burst updates from source {}, \
         2 ms links;\n2 full-span SWEEP views, one shared sweep folds up to k queued updates)\n",
        rows[0].n, rows[0].updates, details[0]
    );

    let mut t = TableWriter::new([
        "batch k",
        "sweeps",
        "msgs/upd",
        "floor 2(n-1)/k",
        "min consistency",
        "mutual",
        "stale p50 (ms)",
        "stale p95 (ms)",
    ]);

    for row in &rows {
        t.row([
            row.batch.to_string(),
            row.sweeps.to_string(),
            format!("{:.2}", row.msgs_per_update),
            format!("{:.2}", row.amortized_floor),
            row.min_consistency.clone(),
            row.mutual_agreement.to_string(),
            format!("{:.1}", row.stale_p50_us as f64 / 1e3),
            format!("{:.1}", row.stale_p95_us as f64 / 1e3),
        ]);
    }
    t.print();

    println!(
        "\none shared sweep services k queued same-source updates: sweeps = 1 + ceil((U-1)/k),\n\
         so msgs/update = 2(n-1)*sweeps/U falls toward 2(n-1)/k as k grows"
    );
}
