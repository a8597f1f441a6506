//! `dwsweep` — command-line driver for warehouse maintenance experiments.
//!
//! ```console
//! $ dwsweep run --policy sweep --sources 4 --updates 50 --gap 800
//! $ dwsweep run --policy nested-sweep --max-depth 3 --latency 5000
//! $ dwsweep compare --sources 3 --updates 30
//! $ dwsweep help
//! ```
//!
//! Argument parsing is hand-rolled (the workspace deliberately carries no
//! CLI dependency); every flag maps 1:1 onto [`StreamConfig`] /
//! [`Experiment`] options.

use dwsweep::prelude::*;
use std::process::ExitCode;

/// Parsed command-line options.
#[derive(Debug, Clone)]
struct Opts {
    policy: String,
    sources: usize,
    updates: usize,
    gap: u64,
    latency: u64,
    jitter: u64,
    seed: u64,
    domain: u64,
    initial: usize,
    insert_ratio: f64,
    batch: usize,
    zipf: f64,
    keyed: bool,
    check: bool,
    parallel: bool,
    short_circuit: bool,
    max_depth: Option<usize>,
    window: usize,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            policy: "sweep".into(),
            sources: 3,
            updates: 30,
            gap: 1_000,
            latency: 2_000,
            jitter: 0,
            seed: 42,
            domain: 16,
            initial: 40,
            insert_ratio: 0.6,
            batch: 1,
            zipf: 0.0,
            keyed: true,
            check: true,
            parallel: false,
            short_circuit: false,
            max_depth: None,
            window: 0,
        }
    }
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--policy" => o.policy = val("--policy")?.clone(),
            "--sources" => o.sources = val("--sources")?.parse().map_err(|e| format!("{e}"))?,
            "--updates" => o.updates = val("--updates")?.parse().map_err(|e| format!("{e}"))?,
            "--gap" => o.gap = val("--gap")?.parse().map_err(|e| format!("{e}"))?,
            "--latency" => o.latency = val("--latency")?.parse().map_err(|e| format!("{e}"))?,
            "--jitter" => o.jitter = val("--jitter")?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => o.seed = val("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--domain" => o.domain = val("--domain")?.parse().map_err(|e| format!("{e}"))?,
            "--initial" => o.initial = val("--initial")?.parse().map_err(|e| format!("{e}"))?,
            "--insert-ratio" => {
                o.insert_ratio = val("--insert-ratio")?.parse().map_err(|e| format!("{e}"))?
            }
            "--batch" => o.batch = val("--batch")?.parse().map_err(|e| format!("{e}"))?,
            "--zipf" => o.zipf = val("--zipf")?.parse().map_err(|e| format!("{e}"))?,
            "--max-depth" => {
                o.max_depth = Some(val("--max-depth")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--window" => o.window = val("--window")?.parse().map_err(|e| format!("{e}"))?,
            "--unkeyed" => o.keyed = false,
            "--no-check" => o.check = false,
            "--parallel" => o.parallel = true,
            "--short-circuit" => o.short_circuit = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if o.sources == 0 {
        return Err("--sources must be ≥ 1".into());
    }
    Ok(o)
}

fn policy_kind(o: &Opts) -> Result<PolicyKind, String> {
    Ok(match o.policy.as_str() {
        // `pipelined` is SWEEP with a window other than Figure 4's 1.
        name @ ("sweep" | "pipelined" | "pipelined-sweep") => PolicyKind::Sweep(SweepOptions {
            parallel: o.parallel,
            short_circuit_empty: o.short_circuit,
            window: if name == "sweep" { 1 } else { o.window },
        }),
        "nested-sweep" | "nested" => PolicyKind::NestedSweep(NestedSweepOptions {
            max_depth: o.max_depth,
        }),
        "strobe" => PolicyKind::Strobe,
        "c-strobe" | "cstrobe" => PolicyKind::CStrobe,
        "eca" => PolicyKind::Eca,
        "recompute" => PolicyKind::Recompute,
        other => return Err(format!("unknown policy {other:?} (see `dwsweep help`)")),
    })
}

fn scenario(o: &Opts) -> Result<GeneratedScenario, String> {
    StreamConfig {
        n_sources: o.sources,
        initial_per_source: o.initial,
        domain: o.domain,
        zipf_theta: o.zipf,
        updates: o.updates,
        mean_gap: o.gap,
        insert_ratio: o.insert_ratio,
        batch_size: o.batch,
        keyed: o.keyed,
        seed: o.seed,
        ..Default::default()
    }
    .generate()
    .map_err(|e| e.to_string())
}

fn latency(o: &Opts) -> LatencyModel {
    if o.jitter > 0 {
        LatencyModel::Jittered {
            base: o.latency,
            jitter: o.jitter,
        }
    } else {
        LatencyModel::Constant(o.latency)
    }
}

fn run_one(o: &Opts) -> Result<RunReport, String> {
    Experiment::new(scenario(o)?)
        .policy(policy_kind(o)?)
        .latency(latency(o))
        .seed(o.seed)
        .check_consistency(o.check)
        .run()
        .map_err(|e| e.to_string())
}

fn print_report(r: &RunReport) {
    println!("policy:            {}", r.policy);
    println!("updates received:  {}", r.metrics.updates_received);
    println!("installs:          {}", r.metrics.installs);
    println!("queries sent:      {}", r.metrics.queries_sent);
    println!("msgs/update:       {:.2}", r.messages_per_update());
    println!("local comp.:       {}", r.metrics.local_compensations);
    println!("comp. queries:     {}", r.metrics.compensation_queries);
    println!(
        "staleness ms:      mean {:.2}  p95 {:.2}  max {:.2}",
        r.metrics.mean_staleness() / 1e3,
        r.metrics.staleness_percentile(95.0) as f64 / 1e3,
        r.metrics.max_staleness() as f64 / 1e3
    );
    println!("makespan:          {:.2} ms", r.end_time as f64 / 1e3);
    println!("view tuples:       {}", r.view.distinct_len());
    match &r.consistency {
        Some(c) => println!("consistency:       {} ({})", c.level, c.detail),
        None => println!("consistency:       (checking disabled)"),
    }
    println!("quiescent:         {}", r.quiescent);
}

fn cmd_compare(o: &Opts) -> Result<(), String> {
    println!(
        "{:<16} {:>12} {:>9} {:>10} {:>11} {:>12}",
        "policy", "consistency", "installs", "msgs/upd", "stale p95", "makespan ms"
    );
    for name in [
        "sweep",
        "pipelined",
        "nested-sweep",
        "strobe",
        "c-strobe",
        "eca",
        "recompute",
    ] {
        let mut po = o.clone();
        po.policy = name.into();
        match run_one(&po) {
            Ok(r) => println!(
                "{:<16} {:>12} {:>9} {:>10.2} {:>11.2} {:>12.2}",
                r.policy,
                r.consistency
                    .as_ref()
                    .map(|c| c.level.to_string())
                    .unwrap_or_default(),
                r.metrics.installs,
                r.messages_per_update(),
                r.metrics.staleness_percentile(95.0) as f64 / 1e3,
                r.end_time as f64 / 1e3
            ),
            Err(e) => println!("{name:<16} error: {e}"),
        }
    }
    Ok(())
}

const HELP: &str = "\
dwsweep — incremental view maintenance experiments (SWEEP, SIGMOD '97)

USAGE:
    dwsweep run     [flags]    run one policy, print its report
    dwsweep compare [flags]    run every policy on the same workload
    dwsweep help               this text

FLAGS (with defaults):
    --policy P          sweep | pipelined | nested-sweep | strobe |
                        c-strobe | eca | recompute        [sweep]
    --sources N         chain length / source count       [3]
    --updates N         transactions to generate          [30]
    --gap µs            mean update inter-arrival         [1000]
    --latency µs        link latency                      [2000]
    --jitter µs         added uniform jitter              [0]
    --seed N            workload + network seed           [42]
    --domain N          join-value domain                 [16]
    --initial N         initial tuples per relation       [40]
    --insert-ratio F    insert probability                [0.6]
    --batch N           tuples per source-local txn       [1]
    --zipf θ            join-value skew                   [0.0]
    --unkeyed           drop keys from the projection (Strobe must fail)
    --no-check          skip ground-truth consistency checking
    --parallel          SWEEP, pipelined: parallel left/right sweeps (§5.3)
    --short-circuit     SWEEP, pipelined: stop when ΔV is empty
    --max-depth N       Nested SWEEP: forced-termination bound (§6.2)
    --window N          pipelined (SWEEP with a window): max concurrent
                        sweeps; 0 = ∞, 1 = plain SWEEP    [0]
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => ("help", &[][..]),
    };
    let result = match cmd {
        "run" => parse_opts(rest).and_then(|o| run_one(&o).map(|r| print_report(&r))),
        "compare" => parse_opts(rest).and_then(|o| cmd_compare(&o)),
        "help" | "--help" | "-h" => {
            print!("{HELP}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?} (see `dwsweep help`)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn defaults_parse() {
        let o = parse_opts(&[]).unwrap();
        assert_eq!(o.policy, "sweep");
        assert_eq!(o.sources, 3);
        assert!(o.keyed);
    }

    #[test]
    fn flags_parse() {
        let o = parse_opts(&args(
            "--policy nested-sweep --sources 5 --updates 9 --max-depth 2 --unkeyed --no-check",
        ))
        .unwrap();
        assert_eq!(o.policy, "nested-sweep");
        assert_eq!(o.sources, 5);
        assert_eq!(o.updates, 9);
        assert_eq!(o.max_depth, Some(2));
        assert!(!o.keyed);
        assert!(!o.check);
    }

    #[test]
    fn bad_flags_rejected() {
        assert!(parse_opts(&args("--bogus 1")).is_err());
        assert!(parse_opts(&args("--sources")).is_err());
        assert!(parse_opts(&args("--sources zero")).is_err());
        assert!(parse_opts(&args("--sources 0")).is_err());
    }

    #[test]
    fn policy_names_resolve() {
        for (name, want) in [
            ("sweep", "sweep"),
            ("nested", "nested-sweep"),
            ("pipelined", "pipelined-sweep"),
            ("strobe", "strobe"),
            ("cstrobe", "c-strobe"),
            ("eca", "eca"),
            ("recompute", "recompute"),
        ] {
            let o = Opts {
                policy: name.into(),
                ..Opts::default()
            };
            assert_eq!(policy_kind(&o).unwrap().name(), want);
        }
        let o = Opts {
            policy: "nope".into(),
            ..Opts::default()
        };
        assert!(policy_kind(&o).is_err());
    }

    #[test]
    fn run_smoke() {
        let o = Opts {
            updates: 5,
            initial: 10,
            ..Opts::default()
        };
        let r = run_one(&o).unwrap();
        assert!(r.quiescent);
        assert_eq!(
            r.consistency.unwrap().level,
            dwsweep::prelude::ConsistencyLevel::Complete
        );
    }

    #[test]
    fn latency_model_selection() {
        let mut o = Opts::default();
        assert!(matches!(latency(&o), LatencyModel::Constant(2_000)));
        o.jitter = 5;
        assert!(matches!(latency(&o), LatencyModel::Jittered { .. }));
    }
}
