//! **The CI perf-regression gate (E13).** Re-runs every gated phase in
//! `dw_bench::perf::PHASES` in the same mode as the committed
//! `BENCH_report.json` and diffs fresh against baseline (see
//! `dw_bench::perf::gate` for the exact rules):
//!
//! * every phase's exact laws hold on the fresh run (`perf_report`
//!   prints one line per phase naming them; EXPERIMENTS.md has the
//!   details under each `## E<N>`);
//! * no baseline row is missing and no consistency level is downgraded;
//! * no >25 % regression on a tracked ratio (the `ratio` fields of the
//!   row schema — EXPERIMENTS.md E13 lists them).
//!
//! Wall-clock is printed for comparison but never gated — the simulator
//! is deterministic in *virtual* time only.
//!
//! Usage: `perf_gate [BASELINE]` (default `BENCH_report.json`).
//! Exit code 0 = gate passes, 1 = violations (listed on stderr).
//! Re-baseline intentionally changed numbers with `perf_report --smoke`.

use dw_bench::perf::{self, PerfReport};

fn main() {
    let path = dw_bench::BenchArgs::parse().positional_or("BENCH_report.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("cannot read baseline {path}: {e} — generate it with perf_report")
    });
    let baseline = PerfReport::from_text(&text)
        .unwrap_or_else(|e| panic!("cannot parse baseline {path}: {e}"));

    let smoke = baseline.mode == "smoke";
    let labels: Vec<&str> = perf::PHASES.iter().map(|phase| phase.label).collect();
    println!(
        "perf gate: re-running {} in {} mode against {path}",
        labels.join("/"),
        baseline.mode
    );
    let fresh = perf::collect(smoke);

    for (phase, fresh_ms) in &fresh.phase_wall_ms {
        let base_ms = baseline
            .phase_wall_ms
            .iter()
            .find(|(p, _)| p == phase)
            .map(|(_, ms)| *ms);
        match base_ms {
            Some(base_ms) => println!(
                "  {phase}: {fresh_ms:.0} ms wall-clock (baseline {base_ms:.0} ms, informational)"
            ),
            None => println!("  {phase}: {fresh_ms:.0} ms wall-clock (no baseline)"),
        }
    }

    let violations = perf::gate(&baseline, &fresh);
    if violations.is_empty() {
        println!(
            "perf gate OK: invariants hold, no consistency downgrades, all tracked \
             ratios within {:.0}%",
            perf::RATIO_TOLERANCE * 100.0
        );
    } else {
        eprintln!("perf gate FAILED ({} violations):", violations.len());
        for v in &violations {
            eprintln!("  FAIL {v}");
        }
        std::process::exit(1);
    }
}
