//! What the benchmark runs and what it reports: the four workloads with
//! their sizes and rates, and the two metric tables. `BENCHMARK.json`
//! repeats the names; a unit test keeps the two in step.
//!
//! Sizes and rates change only in a PR whose sole purpose is the
//! benchmark (see `README.md`): every later PR is compared on them.

use dw_workload::{GapKind, MultiViewConfig, ShardedConfig, StreamConfig, ViewSpec};

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Paced single view, no serving.
    Steady,
    /// `Steady`'s data, every update due at once.
    Backlog,
    /// Three served views, durability, one reader.
    ServeMixed,
    /// Banded data on the sharded scheduler, every update due at once.
    ShardedBacklog,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Steady,
        Workload::Backlog,
        Workload::ServeMixed,
        Workload::ShardedBacklog,
    ];

    /// Name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Steady => "steady",
            Workload::Backlog => "backlog",
            Workload::ServeMixed => "serve_mixed",
            Workload::ShardedBacklog => "sharded_backlog",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Updates per second of a paced workload; `None` for the backlog
    /// workloads, whose updates are all due at t = 0.
    pub fn rate(self) -> Option<u64> {
        match self {
            Workload::Steady => Some(150),
            Workload::ServeMixed => Some(120),
            Workload::Backlog | Workload::ShardedBacklog => None,
        }
    }

    /// Updates per replay of a backlog workload: ≈ 4.5 s of work each, so
    /// that [`REPLAYS`] of them stay well inside the driver's time limit.
    fn backlog_updates(self) -> usize {
        match self {
            Workload::ShardedBacklog => 750,
            _ => 1_200,
        }
    }

    /// Does a `ReadFrontend` with a reader thread ride along?
    pub fn serves(self) -> bool {
        self == Workload::ServeMixed
    }

    /// Are message counts pinned to the paper's `2(n−1)` per update?
    /// (The sharded scheduler's escalations keep the same bill, but the
    /// issue only requires the number to be reported there.)
    pub fn exact_message_bill(self) -> bool {
        self != Workload::ShardedBacklog
    }
}

/// Sources in every workload (`2(n−1) = 4` messages per update).
pub const N_SOURCES: usize = 3;
/// Times every workload replays its scenario (`quiet`): five chances for
/// every piece of work to run between two bursts of the host.
pub const REPLAYS: usize = 5;
/// Point reads per timed batch of the reader.
pub const POINT_BATCH: usize = 32;
/// The reader scans on every this-many-th batch.
pub const SCAN_EVERY: usize = 8;
/// Zipf skew of the reader's point keys.
pub const READ_ZIPF_THETA: f64 = 0.9;

/// How large a run is: full size, or the 1/10 smoke size of `--quick`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes every committed number is measured at.
    Full,
    /// One tenth of the tuples and updates; checks only, no numbers.
    Quick,
}

impl Scale {
    fn div(self, n: usize) -> usize {
        match self {
            Scale::Full => n,
            Scale::Quick => (n / 10).max(1),
        }
    }
}

/// The generator input of one workload.
pub enum ScenarioConfig {
    /// Flat chain: stream shape and how many full-span views.
    Flat(MultiViewConfig),
    /// Banded chain for the sharded scheduler.
    Sharded(ShardedConfig),
}

/// Generator configuration of one replay of `workload`. A paced workload
/// gets `rate × seconds ÷ REPLAYS` updates, so that its replays together
/// measure for `seconds`; a backlog workload gets its fixed replay size
/// (the runner repeats replays until `seconds` have passed).
pub fn scenario_config(
    workload: Workload,
    seed: u64,
    seconds: u64,
    scale: Scale,
) -> ScenarioConfig {
    let updates = match workload.rate() {
        Some(rate) => scale.div((rate * seconds) as usize / REPLAYS),
        None => scale.div(workload.backlog_updates()),
    };
    let flat = |initial: usize, domain: u64, n_views: usize| {
        ScenarioConfig::Flat(MultiViewConfig {
            stream: StreamConfig {
                n_sources: N_SOURCES,
                initial_per_source: scale.div(initial),
                domain: scale.div(domain as usize) as u64,
                updates,
                mean_gap: workload.rate().map_or(0, |r| 1_000_000 / r),
                gap: GapKind::Constant,
                insert_ratio: 0.6,
                batch_size: 1,
                keyed: true,
                seed,
                ..StreamConfig::default()
            },
            n_views,
            full_span: true,
            n_derived: 0,
            ..MultiViewConfig::default()
        })
    };
    match workload {
        // Fan-out ≈ 1: |V| ≈ 7 k, almost no compensation when paced.
        Workload::Steady | Workload::Backlog => flat(10_000, 10_000, 1),
        // Fan-out ≈ 3: |V| ≈ 27 k, a 9-tuple delta per update.
        Workload::ServeMixed => flat(3_000, 1_000, 3),
        Workload::ShardedBacklog => ScenarioConfig::Sharded(ShardedConfig {
            n_sources: N_SOURCES,
            shards: 4,
            width: 1_000_000,
            band_domain: scale.div(2_500) as i64,
            initial_per_shard: scale.div(2_500),
            updates,
            mean_gap: 0,
            delete_ratio: 0.2,
            cross_shard_frac: 0.05,
            n_views: 2,
            seed,
        }),
    }
}

/// The views of a flat workload: `MultiViewConfig::generate` draws
/// random policies and projections, so the benchmark sets them.
pub fn full_views(n_views: usize) -> Vec<ViewSpec> {
    (0..n_views)
        .map(|v| ViewSpec::full(format!("V{v}"), N_SOURCES))
        .collect()
}

/// One reported metric, as `BENCHMARK.json` declares it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MetricDef {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may get worse before a PR is rejected.
    pub bound: Option<f64>,
}

impl MetricDef {
    /// Is `b` worse than `a` by more than `bound`?
    pub fn regressed(&self, a: f64, b: f64, bound: f64) -> bool {
        match self.better {
            "higher" => b < a * (1.0 - bound),
            _ => b > a * (1.0 + bound),
        }
    }
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
        bound: None,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "higher",
        bound: None,
    }
}

/// End-to-end metrics, measured with tracing off, on every workload.
/// Lags are timed from when the update was *due* at its source (open
/// loop), so a stall anywhere on the way counts. All timings are
/// quiet-time estimates over the replays (`quiet`).
///
/// The bounds are wider than the issue asked (10/10/15/10/10 %): they
/// were chosen on a 2-vCPU shared host whose speed on memory-heavy work
/// moves by tens of per cent from minute to minute (README, "How the
/// bounds were chosen"). They are a tripwire for regressions; a gain is
/// claimed with alternating parent/change pairs, never from the bound.
/// The 95th-percentile lag is not here: its spread reached 105 %, so by
/// the issue's own rule it is per-layer (`live.install_lag_p95_ms`) and
/// unbounded.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("updates_per_s", "1/s", "higher", 0.25),
    e2e("install_lag_p50_ms", "ms", "lower", 0.25),
    e2e("readable_lag_p50_ms", "ms", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.25),
];

/// Per-layer metrics, from the traced run, public counters and the
/// kernel table. A metric reads 0 on a workload its layer is not part of.
pub const PER_LAYER: &[MetricDef] = &[
    // dw-relational kernels.
    lo("relational.extend_partial_us", "us"),
    lo("relational.extend_partial_indexed_us", "us"),
    lo("relational.bag_plus_ns_per_tuple", "ns"),
    lo("relational.bag_clone_ns_per_tuple", "ns"),
    lo("relational.compensate_ns_per_tuple", "ns"),
    lo("relational.eval_view_ms", "ms"),
    // dw-source.
    lo("source.query_us_p50", "us"),
    lo("source.query_us_p99", "us"),
    lo("source.apply_us_p50", "us"),
    lo("source.busy_frac_max", "frac"),
    lo("source.answer_rows_mean", "count"),
    // dw-protocol.
    lo("protocol.msgs_per_update", "count"),
    lo("protocol.query_msgs_per_update", "count"),
    lo("protocol.answer_msgs_per_update", "count"),
    lo("protocol.wire_bytes_per_update", "B"),
    // dw-engine.
    lo("engine.compensations_per_update", "count"),
    lo("engine.install_us", "us"),
    lo("engine.wal_append_ns", "ns"),
    lo("engine.checkpoint_us", "us"),
    lo("engine.drain_tail_ms", "ms"),
    // dw-multiview.
    lo("multiview.on_update_us_p50", "us"),
    lo("multiview.on_answer_us_p50", "us"),
    lo("multiview.on_answer_us_p99", "us"),
    lo("multiview.busy_frac", "frac"),
    lo("multiview.durable_wal_bytes_per_update", "B"),
    lo("multiview.checkpoints", "count"),
    lo("multiview.escalations", "count"),
    hi("multiview.shard_local", "count"),
    // dw-serve, in the run.
    lo("serve.point_read_p50_us", "us"),
    lo("serve.scan_read_p50_us", "us"),
    lo("serve.publish_us_p50", "us"),
    lo("serve.publish_us_p99", "us"),
    lo("serve.publish_share", "frac"),
    lo("serve.bags_deep_cloned_per_install", "count"),
    lo("serve.index_maint_tuples_per_install", "count"),
    hi("serve.point_index_hit_ratio", "frac"),
    hi("serve.cache_hit_ratio", "frac"),
    lo("serve.read_work_tuples_per_read", "count"),
    lo("serve.retained_epochs_max", "count"),
    lo("serve.sub_events_per_install", "count"),
    // dw-serve kernels.
    lo("serve.read_point_hot_ns", "ns"),
    lo("serve.read_point_cold_ns", "ns"),
    lo("serve.read_scan_ns", "ns"),
    lo("serve.pin_unpin_ns", "ns"),
    lo("serve.poll_ns_per_delta", "ns"),
    // Live transport.
    lo("live.inject_late_us_p99", "us"),
    lo("live.install_lag_p95_ms", "ms"),
    lo("live.install_lag_p99_ms", "ms"),
    lo("live.install_lag_max_ms", "ms"),
    lo("live.outstanding_at_last_due_frac", "frac"),
    lo("live.unattributed_frac", "frac"),
    // dw-obs and the benchmark itself.
    hi("obs.on_throughput_ratio", "frac"),
    lo("bench.trace_overhead_frac", "frac"),
    hi("bench.attributed_frac_min", "frac"),
    hi("bench.lag_samples", "count"),
    hi("bench.read_samples", "count"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use dw_bench::json::{self, Json};

    /// `(name, unit, better, bound)` of every entry of one manifest array.
    type Row = (String, String, String, Option<f64>);

    fn rows_in(doc: &Json, key: &str) -> Vec<Row> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no array '{key}'"))
            .iter()
            .map(|e| {
                let field = |f: &str| e.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                (
                    field("name"),
                    field("unit"),
                    field("better"),
                    e.get("bound").and_then(Json::as_num),
                )
            })
            .collect()
    }

    fn table(defs: &[MetricDef]) -> Vec<Row> {
        defs.iter()
            .map(|d| (d.name.into(), d.unit.into(), d.better.into(), d.bound))
            .collect()
    }

    /// A name (or unit, direction, bound) in `BENCHMARK.json` and not in
    /// the tables, or the other way round, fails: the driver refuses a
    /// run whose metrics differ from the manifest.
    #[test]
    fn metric_tables_match_the_manifest() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(rows_in(&doc, "end_to_end"), table(END_TO_END));
        assert_eq!(rows_in(&doc, "per_layer"), table(PER_LAYER));
        let workloads: Vec<String> = rows_in(&doc, "workloads")
            .into_iter()
            .map(|row| row.0)
            .collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate metric '{}'", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn regression_respects_the_direction() {
        let ups = END_TO_END[1];
        assert!(ups.regressed(100.0, 89.0, 0.10));
        assert_eq!(ups.better, "higher");
        assert!(!ups.regressed(100.0, 91.0, 0.10));
        assert!(!ups.regressed(100.0, 150.0, 0.10));
        let lag = END_TO_END[2];
        assert_eq!(lag.name, "install_lag_p50_ms");
        assert!(lag.regressed(10.0, 11.5, 0.10));
        assert!(!lag.regressed(10.0, 10.5, 0.10));
        assert!(!lag.regressed(10.0, 5.0, 0.10));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn quick_scale_is_a_tenth() {
        let ScenarioConfig::Flat(full) = scenario_config(Workload::Steady, 1, 10, Scale::Full)
        else {
            panic!("steady is flat");
        };
        let ScenarioConfig::Flat(quick) = scenario_config(Workload::Steady, 1, 10, Scale::Quick)
        else {
            panic!("steady is flat");
        };
        // 150/s × 10 s over five replays.
        assert_eq!(full.stream.updates, 300);
        assert_eq!(quick.stream.updates, 30);
        assert_eq!(
            quick.stream.initial_per_source * 10,
            full.stream.initial_per_source
        );
    }
}
