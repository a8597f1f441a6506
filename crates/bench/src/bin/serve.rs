//! **E19 — the serving layer**: attach a snapshot-pinned read frontend to
//! the multi-view maintenance engine and drive seeded point/scan/subscribe
//! mixes against it while the sweeps run. Every committed install becomes
//! an immutable epoch; readers pin an epoch, answer from it, and unpin —
//! so the gated claims are exact: the maintenance makespan and message
//! bill are bit-identical to a no-reader referee run (readers never block
//! installs), every answered read equals a fresh recompute of its view at
//! the pinned epoch, and every staleness-bound rejection matches the
//! delivery-ledger oracle. A second table re-runs the scenario on real OS
//! threads (the livenet runtime) with free-running reader threads:
//! nondeterministic, so the assertions there are torn-read absence and
//! subscription/install agreement, not traces.
//!
//! Scenario, sweep points, rows and laws are the `dw_bench::perf::E19Row`
//! phase; this file is presentation.

use dw_bench::perf::{self, E19Row};
use dw_bench::TableWriter;
use dw_livenet::run_live_views;
use std::time::Duration;

fn main() {
    let args = dw_bench::BenchArgs::parse();
    // The laws: makespan and message bill equal to the no-reader referee,
    // fresh-recompute answers, oracle-exact rejections, everything drained.
    let (rows, details) = perf::measure_checked::<E19Row>(args.smoke);
    println!(
        "serving layer ({} full-span SWEEP views over a {}-source chain, {}\n\
         updates; ~{} concurrent reads per mix, half carrying a 2.5 ms\n\
         staleness bound; no-reader run as the interference referee)\n",
        rows[0].views, rows[0].n, rows[0].updates, details[0].reads_scheduled
    );

    let mut t = TableWriter::new([
        "mix",
        "reads",
        "answered",
        "rejected",
        "oracle rej",
        "read qps",
        "makespan (ms)",
        "ref (ms)",
        "msgs/upd",
        "snapshots",
        "exact",
    ]);
    for row in &rows {
        t.row([
            row.mix.clone(),
            row.reads.to_string(),
            row.answered.to_string(),
            row.rejected.to_string(),
            row.expected_rejected.to_string(),
            format!("{:.0}", row.read_qps),
            format!("{:.1}", row.makespan_us as f64 / 1_000.0),
            format!("{:.1}", row.baseline_makespan_us as f64 / 1_000.0),
            format!("{:.1}", row.msgs_per_update),
            row.snapshots_published.to_string(),
            (row.reads_match_recompute && row.subs_match_installs).to_string(),
        ]);
    }
    t.print();

    println!("\nlivenet arm (same scenario on OS threads, 4 free-running readers):\n");
    let mut t = TableWriter::new(["readers", "answered", "torn", "subs ok", "wall (ms)"]);
    let scenario = &details[0].scenario;
    let live = run_live_views(scenario, None, 4, 20.0, Duration::from_secs(60)).unwrap();
    let served = live.serve.expect("a run with readers serves");
    assert_eq!(served.torn_reads, 0, "livenet readers saw a torn epoch");
    t.row([
        "4".to_string(),
        served.reads_answered.to_string(),
        served.torn_reads.to_string(),
        served.subs_match_installs.to_string(),
        format!("{:.1}", live.wall.as_secs_f64() * 1_000.0),
    ]);
    t.print();

    println!(
        "\npaper shape check: the paper's warehouse answers analyst queries from\n\
         the same view the sweeps are patching; pinning each committed install\n\
         as an immutable epoch decouples the two — readers get a consistent\n\
         cut (fresh-recompute fidelity at their epoch) and bounded staleness\n\
         on demand, while the maintenance engine never waits on a lock a\n\
         reader holds. Interference is provably zero: the makespan under\n\
         readers is the referee's, to the microsecond."
    );
}
