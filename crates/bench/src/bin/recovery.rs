//! **E17 — the price of surviving a warehouse crash**: the scheduler
//! keeps a durable checkpoint + sweep-WAL store; a state-crash window
//! wipes its volatile state mid-sweep and recovery replays the store,
//! re-seeds the aborted sweep, and fences pre-crash stragglers by the
//! incarnation every query and qid carries. The knob is the checkpoint cadence: rare
//! checkpoints mean cheap steady-state writes but a long WAL replay (and
//! a longer staleness spike) at recovery; frequent checkpoints invert
//! the trade. Every run must land on the *exact* fault-free bags and
//! install fingerprints — the table only prices the recovery, never the
//! answer.
//!
//! Scenario, sweep points, rows and laws are the `dw_bench::perf::E17Row`
//! phase; this file is presentation.

use dw_bench::perf::{self, E17Row};
use dw_bench::TableWriter;

fn main() {
    let args = dw_bench::BenchArgs::parse();
    // The laws: every crashed run converges to the fault-free bags and
    // install fingerprints, drained, with at least one recovery fired.
    let (rows, details) = perf::measure_checked::<E17Row>(args.smoke);
    let (down_at, up_at) = details[0].crash_window;
    println!(
        "crash recovery (n = {}, {} full-span views, {} sparse updates;\n\
         warehouse state-crash window [{down_at}, {up_at}]µs interrupts the last sweep mid-hop)\n",
        rows[0].n, rows[0].views, details[0].updates
    );
    let mut t = TableWriter::new([
        "ckpt every",
        "ckpts",
        "copied tuples",
        "WAL bytes",
        "replayed B",
        "replayed recs",
        "reseeded",
        "stale drops",
        "recovery (ms)",
        "max stale (ms)",
        "equal",
    ]);

    for row in &rows {
        t.row([
            row.checkpoint_every.to_string(),
            row.checkpoints_taken.to_string(),
            row.checkpoint_copied_tuples.to_string(),
            row.wal_bytes_written.to_string(),
            row.wal_bytes_replayed.to_string(),
            row.wal_records_replayed.to_string(),
            row.sweeps_reseeded.to_string(),
            row.stale_answers_dropped.to_string(),
            format!("{:.1}", row.recovery_latency_us as f64 / 1_000.0),
            format!("{:.1}", row.stale_max_us as f64 / 1_000.0),
            row.converged.to_string(),
        ]);
    }
    t.print();
    println!(
        "\npaper shape check: the paper assumes the warehouse never fails; here the\n\
         failure is priced instead of assumed. Replayed WAL bytes fall as\n\
         checkpoints get denser while the recovered answer never moves — the\n\
         cadence trades recovery latency against steady-state checkpoint work,\n\
         not correctness."
    );
}
