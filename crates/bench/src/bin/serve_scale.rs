//! **E21 — serve at scale**: the E19 maintenance load under a
//! point-heavy, zipf-skewed read schedule, every point read answered
//! through the pinned epoch's point index (the store's one route) and
//! audited against a from-scratch recompute of its view at that epoch.
//! Cost is a deterministic work proxy (tuples examined), never
//! wall-clock, so the gated speedup is byte-stable: the index must
//! undercut linearly scanning each read's pinned epoch (`Σ |V_epoch|`,
//! analytic) by its floor on the skewed mix, deep-copying no bag at all
//! (epochs share structure: a publish copies only the chunks its delta
//! touches, and a scale arm holds that count flat from a 27k- to a
//! 270k-tuple view), and leaving
//! the maintenance makespan equal to a no-reader referee. A lag arm
//! runs one tightly bounded subscription per view under a
//! poll-heavy mix: overflowed subscribers get the typed `Lagged` signal,
//! resume from the snapshot at `resume_epoch` (the paper's Stale View
//! Cleaning move), and the audit proves each recovered stream equivalent
//! to the unbounded one.
//!
//! Scenario, sweep points, rows and laws are the `dw_bench::perf::E21Row`
//! phase; this file is presentation.

use dw_bench::perf::{self, E21Row};
use dw_bench::TableWriter;

fn main() {
    let args = dw_bench::BenchArgs::parse();
    // The laws: oracle-exact answers, the speedup floor, zero bag deep
    // copies with a publish cost flat in the view size, untouched
    // maintenance, and stream-equivalent lag recovery.
    let (rows, lag_audits) = perf::measure_checked::<E21Row>(args.smoke);
    println!(
        "serve at scale ({} full-span SWEEP views over a {}-source chain, {}\n\
         updates; 6 readers of point lookups over a 64-key domain per mix;\n\
         epoch point-indexes vs scanning each read's pinned epoch)\n",
        rows[0].views, rows[0].n, rows[0].updates
    );

    let mut t = TableWriter::new([
        "mix",
        "points",
        "scan work",
        "index work",
        "speedup",
        "idx builds",
        "idx hits",
        "deep copies",
        "copied tuples",
        "installs",
        "= oracle",
    ]);
    for row in &rows {
        t.row([
            row.mix.clone(),
            row.point_reads.to_string(),
            row.linear_work_tuples.to_string(),
            row.index_work_tuples.to_string(),
            format!("{:.1}x", row.speedup),
            row.index_builds.to_string(),
            row.index_hits.to_string(),
            row.bags_deep_cloned.to_string(),
            row.publish_copied_tuples.to_string(),
            row.snapshots_published.to_string(),
            row.reads_match_recompute.to_string(),
        ]);
    }
    t.print();

    // The scale arm does not depend on the key distribution either.
    println!(
        "\nscale arm (16 installs of 8 tuples published over each view size):\n\n\
         tuples copied over a 27k-tuple view: {}, over 270k: {} (ratio {:.2}, ceiling 1.5)",
        rows[0].scale_copied_27k, rows[0].scale_copied_270k, rows[0].scale_copied_ratio
    );

    println!("\nbackpressure arm (one max_lag=1 subscription per view, poll-heavy mix):\n");
    // The lag arm does not depend on the key distribution: every row
    // carries the same audit.
    let audit = &lag_audits[0];
    let mut t = TableWriter::new(["subs", "delivered", "lagged", "resumes", "equivalent"]);
    t.row([
        audit.subs.to_string(),
        audit.delivered.to_string(),
        audit.lag_events.to_string(),
        audit.resumes.to_string(),
        audit.clean().to_string(),
    ]);
    t.print();

    println!(
        "\npaper shape check: the warehouse's answer path must scale past the\n\
         view it maintains — a point query should touch the tuples it returns,\n\
         not the whole view, and a slow subscriber must not pin unbounded\n\
         delta queues. The epoch store makes both safe: indexes derive\n\
         per-epoch from the install delta (never a rescan), each group\n\
         carries its multiplicity so a hit is one lookup, and a dropped\n\
         subscriber recovers by re-reading the snapshot at its resume epoch\n\
         — the same Stale View Cleaning move the paper uses for missed deltas."
    );
}
