//! Wall-clock live benchmark of the warehouse (see `README.md`).
//!
//! ```text
//! dw-benchmark --workload W --seed N --seconds S --trace 0|1 [--quick]
//!     one workload in this process, all threads on one CPU; the last
//!     line of stdout is the result as one JSON object (the form
//!     `BENCHMARK.json` names)
//! dw-benchmark run     [--seed N] [--seconds S] [--workload W] [--traced] [--quick]
//!     every workload (or one), each in a fresh process; prints every
//!     metric as `name unit value n=<samples>`, writes out/run-seed<N>.json,
//!     exits non-zero on any referee failure or invalid paced run
//! dw-benchmark kernels [--seed N]
//!     the kernel table alone
//! dw-benchmark repeat  [--seed N] [--seconds S]
//!     the end-to-end set twice back to back: both values, relative
//!     difference and PASS/FAIL against each metric's bound
//! ```

mod cluster;
mod kernels;
mod measure;
mod os;
mod quiet;
mod referee;
mod round;
mod spec;
mod stats;
mod trace;

use dw_bench::json::{self, Json};
use measure::{measure, Outcome};
use round::Plan;
use spec::{MetricDef, Scale, Workload, END_TO_END, PER_LAYER};
use std::process::{Command, ExitCode, Stdio};
use std::sync::OnceLock;
use std::time::Instant;

/// Run length when `--seconds` is not given: `run_seconds` of
/// `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 15;

/// Where traces and run summaries go: `benchmark/out/`, git-ignored.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// How a child marks, on stdout, a paced run whose timings are not to be
/// trusted (its result line still says whether the outputs were correct).
const INVALID_PREFIX: &str = "# INVALID paced run: ";

/// The time origin every tracer of this process shares.
pub fn process_origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// Parsed command line.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Args {
    command: Option<String>,
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    traced: bool,
    quick: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: None,
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        traced: false,
        quick: false,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{arg} needs a value ({what})"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload '{name}'"))?,
                );
            }
            "--seed" => {
                args.seed = value("an integer")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("an integer")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be in 1..=60".into());
                }
            }
            "--trace" => {
                args.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--traced" => args.traced = true,
            "--quick" => args.quick = true,
            cmd @ ("run" | "kernels" | "repeat") if args.command.is_none() => {
                args.command = Some(cmd.to_string())
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

impl Args {
    fn scale(&self) -> Scale {
        if self.quick {
            Scale::Quick
        } else {
            Scale::Full
        }
    }
}

fn print_metric(def: &MetricDef, value: f64, n: usize) {
    println!("{:<44} {:<6} {value:<22} n={n}", def.name, def.unit);
}

/// The one-line result object the driver reads.
fn result_json(outcome: &Outcome) -> Json {
    Json::obj(vec![
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::Num(outcome.attempted.max(1) as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        (
            "metrics",
            Json::Obj(
                outcome
                    .metrics
                    .iter()
                    .map(|m| {
                        (
                            m.def.name.to_string(),
                            Json::obj(vec![
                                ("value", Json::Num(m.value)),
                                ("unit", Json::Str(m.def.unit.to_string())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

fn one_line(doc: &Json) -> String {
    doc.render().lines().map(str::trim_start).collect()
}

/// One workload in this process. Exits 0 whenever a result was
/// produced; the result says whether it is correct.
fn bench_one(args: &Args, workload: Workload) -> Result<(), String> {
    let plan = Plan {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        scale: args.scale(),
    };
    let trace_path = format!("{OUT_DIR}/trace-{}.json", workload.name());
    let outcome = measure(
        &plan,
        args.traced,
        args.traced.then_some(trace_path.as_str()),
    )?;
    println!(
        "# {} seed={} seconds={}",
        workload.name(),
        args.seed,
        args.seconds
    );
    for m in &outcome.metrics {
        print_metric(&m.def, m.value, m.n);
    }
    for note in &outcome.notes {
        eprintln!("FAILED [{}]: {note}", workload.name());
    }
    // Not a failure of the program: the host did not keep the pace. On
    // stdout too, so `run` and `repeat` can exit non-zero on it.
    for why in &outcome.invalid {
        eprintln!("INVALID [{}]: {why}", workload.name());
        println!("{INVALID_PREFIX}{why}");
    }
    println!("{}", one_line(&result_json(&outcome)));
    Ok(())
}

/// The parsed result of one child process.
struct ChildResult {
    workload: Workload,
    /// Outputs correct and, on a paced workload, the pace was kept.
    correct: bool,
    doc: Json,
}

impl ChildResult {
    fn value(&self, metric: &str) -> Option<f64> {
        self.doc.get("metrics")?.get(metric)?.get("value")?.as_num()
    }
}

/// Run `workload` in a fresh process (so `peak_rss_mb` is its own),
/// echo its metric lines, and parse its result line.
fn spawn_one(args: &Args, workload: Workload, traced: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    let mut valid = true;
    for line in lines {
        valid &= !line.starts_with(INVALID_PREFIX);
        println!("{line}");
    }
    if !out.status.success() {
        return Err(format!("{} exited with {}", workload.name(), out.status));
    }
    let doc =
        json::parse(last).map_err(|e| format!("{}: bad result line: {e}", workload.name()))?;
    Ok(ChildResult {
        workload,
        correct: valid && doc.get("correct").and_then(Json::as_bool) == Some(true),
        doc,
    })
}

fn selected(args: &Args) -> Vec<Workload> {
    args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w])
}

fn cmd_run(args: &Args) -> Result<bool, String> {
    let mut all_correct = true;
    let mut report = Vec::new();
    for workload in selected(args) {
        let mut entry = Vec::new();
        let mut modes = vec![false];
        if args.traced {
            modes.push(true);
        }
        for traced in modes {
            let child = spawn_one(args, workload, traced)?;
            all_correct &= child.correct;
            entry.push((if traced { "per_layer" } else { "end_to_end" }, child.doc));
        }
        report.push((workload.name().to_string(), Json::obj(entry)));
    }
    let doc = Json::obj(vec![
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds as f64)),
        ("workloads", Json::Obj(report)),
    ]);
    std::fs::create_dir_all(OUT_DIR).map_err(|e| e.to_string())?;
    let path = format!("{OUT_DIR}/run-seed{}.json", args.seed);
    std::fs::write(&path, doc.render()).map_err(|e| format!("writing {path}: {e}"))?;
    println!("# wrote {path}");
    Ok(all_correct)
}

fn cmd_repeat(args: &Args) -> Result<bool, String> {
    let mut sets: Vec<Vec<ChildResult>> = Vec::new();
    for _ in 0..2 {
        let mut set = Vec::new();
        for workload in selected(args) {
            set.push(spawn_one(args, workload, false)?);
        }
        sets.push(set);
    }
    let mut ok = true;
    println!(
        "{:<16} {:<22} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for (a, b) in sets[0].iter().zip(&sets[1]) {
        ok &= a.correct && b.correct;
        for def in END_TO_END {
            let bound = def.bound.unwrap_or(0.0);
            let (Some(x), Some(y)) = (a.value(def.name), b.value(def.name)) else {
                return Err(format!("{}: no value for {}", a.workload.name(), def.name));
            };
            let pass = !def.regressed(x, y, bound) && !def.regressed(y, x, bound);
            ok &= pass;
            println!(
                "{:<16} {:<22} {x:>14.4} {y:>14.4} {:>7.2}% {:>5.0}%  {}",
                a.workload.name(),
                def.name,
                (y - x) / x * 100.0,
                bound * 100.0,
                if pass { "PASS" } else { "FAIL" }
            );
        }
    }
    Ok(ok)
}

fn cmd_kernels(args: &Args) {
    let by_name = |name: &str| PER_LAYER.iter().find(|d| d.name == name);
    let rows = kernels::table(args.seed, args.scale());
    println!("# kernels seed={}", args.seed);
    for (name, value, n) in rows {
        if let Some(def) = by_name(name) {
            print_metric(def, value, n);
        }
    }
}

fn main() -> ExitCode {
    process_origin();
    // Before any thread is started, so that all inherit it (`os`).
    match os::pin_to_one_cpu() {
        Ok(cpu) => eprintln!("dw-benchmark: all threads on CPU {cpu}"),
        Err(e) => eprintln!("dw-benchmark: NOT pinned to one CPU ({e}); expect noisier times"),
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("dw-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = match (args.command.as_deref(), args.workload) {
        (None, Some(workload)) => bench_one(&args, workload).map(|()| true),
        (None, None) => Err("give --workload W, or one of: run, kernels, repeat".into()),
        (Some("run"), _) => cmd_run(&args),
        (Some("repeat"), _) => cmd_repeat(&args),
        (Some(_), _) => {
            cmd_kernels(&args);
            Ok(true)
        }
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("dw-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_form_parses() {
        let a = parse_args(&argv("--workload backlog --seed 7 --seconds 12 --trace 1")).unwrap();
        assert_eq!(a.command, None);
        assert_eq!(a.workload, Some(Workload::Backlog));
        assert_eq!((a.seed, a.seconds, a.traced, a.quick), (7, 12, true, false));
    }

    #[test]
    fn subcommand_form_parses_with_defaults() {
        let a = parse_args(&argv("run --traced --quick")).unwrap();
        assert_eq!(a.command.as_deref(), Some("run"));
        assert_eq!(a.workload, None);
        assert_eq!(
            (a.seed, a.seconds, a.traced, a.quick),
            (1, DEFAULT_SECONDS, true, true)
        );
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
        assert!(parse_args(&argv("frobnicate")).is_err());
    }

    /// The result line must carry exactly the manifest's metric names,
    /// on one line, and survive a JSON round trip.
    #[test]
    fn result_line_round_trips() {
        let outcome = Outcome {
            metrics: END_TO_END
                .iter()
                .enumerate()
                .map(|(i, def)| measure::Metric {
                    def: *def,
                    value: 1.5 + i as f64,
                    n: 3,
                })
                .collect(),
            attempted: 10,
            failed: 0,
            notes: Vec::new(),
            invalid: Vec::new(),
        };
        let line = one_line(&result_json(&outcome));
        assert!(!line.contains('\n'));
        let doc = json::parse(&line).unwrap();
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(10));
        assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(0));
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            panic!("metrics object");
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
        assert_eq!(names, want);
        assert_eq!(metrics[0].1.get("value").and_then(Json::as_num), Some(1.5));
    }

    /// Each workload at 1/10 size, plain and traced, through the whole
    /// path: generator → cluster → referee → metric tables.
    #[test]
    fn quick_smoke_runs_every_workload_correctly() {
        for workload in Workload::ALL {
            let plan = Plan {
                workload,
                seed: 3,
                seconds: 5,
                scale: Scale::Quick,
            };
            for traced in [false, true] {
                let outcome = measure(&plan, traced, None).expect("workload runs");
                assert_eq!(
                    outcome.failed,
                    0,
                    "{} traced={traced}: {:?}",
                    workload.name(),
                    outcome.notes
                );
                assert!(outcome.attempted > 0);
                let table = if traced { PER_LAYER } else { END_TO_END };
                assert_eq!(outcome.metrics.len(), table.len());
                if !traced {
                    for m in &outcome.metrics {
                        assert!(m.value > 0.0, "{} is {}", m.def.name, m.value);
                    }
                }
            }
        }
    }
}
