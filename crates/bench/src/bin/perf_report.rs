//! **E13 — the perf baseline**: run every gated phase in
//! `dw_bench::perf::PHASES` and write a machine-readable
//! `BENCH_report.json`.
//! The committed copy is the baseline `perf_gate` diffs against in CI.
//!
//! Usage: `perf_report [--smoke] [PATH]`
//!
//! `--smoke` shrinks the workloads (the committed baseline uses it so the
//! CI gate stays fast); `PATH` defaults to `BENCH_report.json` in the
//! current directory. The simulator is deterministic in virtual time, so
//! everything except the `phase_wall_ms` block is byte-stable across runs
//! and machines.

use dw_bench::perf;

fn main() {
    let args = dw_bench::BenchArgs::parse();
    let path = args.positional_or("BENCH_report.json");

    let report = perf::collect(args.smoke);
    let violations = perf::invariant_violations(&report);
    if !violations.is_empty() {
        eprintln!("refusing to write a baseline that breaks invariants:");
        for v in &violations {
            eprintln!("  FAIL {v}");
        }
        std::process::exit(1);
    }

    std::fs::write(&path, report.to_json().render())
        .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));

    let counts: Vec<String> = perf::PHASES
        .iter()
        .map(|phase| format!("{} {} rows", phase.cells(&report).len(), phase.label))
        .collect();
    println!(
        "wrote {path} (mode = {}, {})",
        report.mode,
        counts.join(", ")
    );
    for (phase, ms) in &report.phase_wall_ms {
        println!("  {phase}: {ms:.0} ms wall-clock");
    }
    let laws: Vec<String> = perf::PHASES
        .iter()
        .map(|phase| format!("{} {}", phase.label, phase.law))
        .collect();
    println!("invariants verified: {}", laws.join("; "));
}
