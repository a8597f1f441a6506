//! **E18 — sharded scaling**: partition each base relation into `S`
//! value bands and run `S` per-shard sweep lanes concurrently, funneling
//! every install through one global sequencer. The same logical load —
//! identical source count, update count and arrival gaps — replays at
//! each shard count; the virtual-time makespan (last install minus first
//! arrival, deterministic and machine-independent) must fall near-
//! linearly, while every shard-local sweep still pays the paper's exact
//! `2(n−1)` messages and the install sequence stays byte-identical to
//! the unsharded engine's. A second table re-runs the `S`-way scenarios
//! on real OS threads (the livenet runtime) as a wall-clock sanity arm:
//! nondeterministic, so only convergence and the scheduler's own
//! counters are asserted there.
//!
//! Scenario, sweep points, rows and laws are the `dw_bench::perf::E18Row`
//! phase; this file is presentation.

use dw_bench::perf::{self, E18Row};
use dw_bench::TableWriter;
use dw_livenet::run_live_views;
use std::time::Duration;

fn main() {
    let args = dw_bench::BenchArgs::parse();
    let (rows, scenarios) = perf::measure_checked::<E18Row>(args.smoke);

    println!(
        "sharded scaling ({}-source chain, {} full-span SWEEP views, {} shard-local\n\
         updates 300 µs apart; virtual-time makespan, unsharded engine as referee)\n",
        rows[0].n, rows[0].views, rows[0].updates
    );
    let mut t = TableWriter::new([
        "S",
        "makespan (ms)",
        "speedup",
        "floor",
        "msgs/upd",
        "max lanes",
        "escalations",
        "conforms",
    ]);
    for row in &rows {
        t.row([
            row.shards.to_string(),
            format!("{:.1}", row.makespan_us as f64 / 1_000.0),
            format!("{:.2}", row.speedup),
            format!("{:.2}", row.expected_min_speedup),
            format!("{:.1}", row.msgs_per_update),
            row.max_lanes.to_string(),
            row.escalations.to_string(),
            row.conforms.to_string(),
        ]);
    }
    t.print();

    println!("\nlivenet arm (same scenarios on OS threads; wall-clock, nondeterministic):\n");
    let mut t = TableWriter::new(["S", "wall (ms)", "max lanes", "quiescent"]);
    for (row, generated) in rows.iter().zip(&scenarios) {
        let (scenario, map) = (&generated.scenario, Some(&generated.map));
        let live = run_live_views(scenario, map, 0, 50.0, Duration::from_secs(60)).unwrap();
        t.row([
            row.shards.to_string(),
            format!("{:.1}", live.wall.as_secs_f64() * 1_000.0),
            live.shard_stats.max_concurrent_lanes.to_string(),
            live.quiescent.to_string(),
        ]);
    }
    t.print();

    println!(
        "\npaper shape check: the paper's SWEEP serializes updates through one\n\
         warehouse queue; banding the sources by value gives S provably\n\
         non-interfering queues, so S sweeps run at once — the makespan falls\n\
         near-linearly while the message bill per update and the install order\n\
         are exactly the single-engine ones. Concurrency is invisible\n\
         downstream; it only shows up in the clock."
    );
}
