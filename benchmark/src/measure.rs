//! Turn replays into the reported metrics.
//!
//! Every workload replays its scenario in fresh clusters: a paced
//! workload (`steady`, `serve_mixed`) exactly [`REPLAYS`] times, each
//! `rate × seconds ÷ REPLAYS` updates long; a backlog workload at least
//! [`REPLAYS`] times and until `seconds` have passed. The timing metrics
//! are the quiet-time estimate over the replays (`quiet`); `setup_s` is
//! the fastest of [`SETUPS`] set-ups (the replays' and a few more), for
//! the same reason.
//!
//! End-to-end metrics come from untraced replays only. With `--trace 1`
//! the replays of a paced workload are all traced and those of a backlog
//! workload cycle through plain → traced → `Obs::trace()` attached, which
//! yields the tracing overhead and the `dw-obs` throughput ratio; the
//! span-derived numbers come from the first traced replay and the kernel
//! table is appended.

use crate::cluster::NodeLog;
use crate::kernels;
use crate::quiet::{quietest_by_key, quietest_by_position, segment_durations, timeline_lags};
use crate::round::{run, setup, Instrument, Plan, RoundOut};
use crate::spec::{MetricDef, Scale, END_TO_END, PER_LAYER, REPLAYS};
use crate::stats::{median, percentile, ratio};
use crate::trace::{self, Tracer};
use dw_protocol::UpdateId;
use dw_simnet::Time;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// A paced run is *invalid* when more than this share of its updates was
/// still uninstalled at the last injection: the backlog was growing, so
/// the lags measure the run length, not the system. Invalid is not
/// incorrect: it depends on how fast the host was during the run (one
/// 100 ms stall of a shared host is enough), not on what the program
/// computed, so it is reported beside the result (`Outcome::invalid`),
/// never counted in `failed`.
const MAX_OUTSTANDING_FRAC: f64 = 0.05;
/// … or when the 99th percentile of (ApplyTxn handled − due) exceeds
/// this: the generator (or a whole source) was stalled. A source busy
/// with a sweep query delays an `ApplyTxn` by one query (≈ 2 ms) without
/// any fault, hence the width.
const MAX_LATE_US_P99: f64 = 25_000.0;

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name and unit, from the tables in `spec`.
    pub def: MetricDef,
    /// The value as measured.
    pub value: f64,
    /// Samples behind it (replays for a per-replay figure, timings for a
    /// percentile, 1 for a counter).
    pub n: usize,
}

/// The result of one benchmark invocation.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Every end-to-end metric (untraced) or every per-layer metric
    /// (traced), in table order.
    pub metrics: Vec<Metric>,
    /// Updates × views + reads, over every replay.
    pub attempted: u64,
    /// Updates never installed + failed reads + referee mismatches.
    pub failed: u64,
    /// What failed, one line each.
    pub notes: Vec<String>,
    /// Why a paced run's timings are not to be trusted (the generator ran
    /// late, or the backlog was growing), one line each. The outputs were
    /// still checked; this says nothing about them.
    pub invalid: Vec<String>,
}

/// Fewest set-ups `setup_s` is the fastest of.
const SETUPS: usize = 9;

/// Installs of view 0 per segment of a backlog replay (`quiet`): ≈ 100 ms
/// of work, shorter than the gaps between the host's bursts.
const SEGMENT_UPDATES: usize = 25;

/// One timing per (view, update).
type ByUpdate = HashMap<(usize, UpdateId), f64>;

/// The timings of one replay, as it ran.
struct Replay {
    /// Updates installed in view 0 ÷ `wall_s`.
    updates_per_s: f64,
    /// First due time → last install of view 0 readable (s).
    wall_s: f64,
    /// Per (view, update): due time → the scheduler's `publish` begins (ms).
    lag_ms: ByUpdate,
    /// Per (view, update): due time → the last publisher returned (ms).
    readable_lag_ms: ByUpdate,
    /// Per segment of view 0's install stream: its duration on the
    /// `installed` stamps (ms).
    segments_ms: Vec<f64>,
    /// The same on the `readable` stamps.
    readable_segments_ms: Vec<f64>,
    /// Per (source, k-th `ApplyTxn`): handled − due (µs).
    late_us: HashMap<(usize, usize), f64>,
}

fn replay(r: &RoundOut) -> Replay {
    let due: HashMap<UpdateId, Time> = r.due_us.iter().copied().collect();
    let since_t0_ms = |at: Instant| at.duration_since(r.t0).as_secs_f64() * 1e3;
    let mut lag_ms = ByUpdate::with_capacity(r.n_updates * r.n_views);
    let mut readable_lag_ms = ByUpdate::with_capacity(r.n_updates * r.n_views);
    // View 0's installs, one entry per consumed update, in install order.
    let mut installed_at = Vec::with_capacity(r.n_updates);
    let mut readable_at = Vec::with_capacity(r.n_updates);
    for i in &r.installs {
        for id in &i.consumed {
            let due_ms = due.get(id).copied().unwrap_or(0) as f64 / 1e3;
            lag_ms.insert((i.view, *id), since_t0_ms(i.installed) - due_ms);
            readable_lag_ms.insert((i.view, *id), since_t0_ms(i.readable) - due_ms);
            if i.view == 0 {
                installed_at.push(since_t0_ms(i.installed));
                readable_at.push(since_t0_ms(i.readable));
            }
        }
    }
    let first_due_ms = r.due_us.iter().map(|(_, at)| *at).min().unwrap_or(0) as f64 / 1e3;
    let drained_ms = readable_at.iter().copied().fold(first_due_ms, f64::max);
    let wall_s = (drained_ms - first_due_ms) / 1e3;
    Replay {
        updates_per_s: ratio(installed_at.len() as f64, wall_s),
        wall_s,
        lag_ms,
        readable_lag_ms,
        segments_ms: segment_durations(&installed_at, first_due_ms, SEGMENT_UPDATES),
        readable_segments_ms: segment_durations(&readable_at, first_due_ms, SEGMENT_UPDATES),
        late_us: r
            .src_logs
            .iter()
            .enumerate()
            .flat_map(|(src, l)| {
                l.late_us
                    .iter()
                    .enumerate()
                    .map(move |(k, late)| ((src, k), *late))
            })
            .collect(),
    }
}

/// The quiet-time estimate (`quiet`) over the replays of one kind.
struct Quiet {
    /// Backlog: updates ÷ length of the quiet timeline. Paced: the median
    /// achieved rate, which is the pacing rate unless the run fell behind.
    updates_per_s: f64,
    /// Per (view, update) on a paced workload, per update of view 0 on a
    /// backlog workload: due time → `publish` begins (ms).
    lag_ms: Vec<f64>,
    /// … → readable (ms).
    readable_lag_ms: Vec<f64>,
    /// Per `ApplyTxn`: handled − due (µs).
    late_us: Vec<f64>,
    /// Paced: share of view 0's updates not yet installed when the last
    /// one was due. Above [`MAX_OUTSTANDING_FRAC`] the backlog was growing.
    outstanding_at_last_due_frac: f64,
}

fn quiet(paced: bool, replays: &[(&RoundOut, &Replay)]) -> Quiet {
    fn values<K>(m: HashMap<K, f64>) -> Vec<f64> {
        m.into_values().collect()
    }
    let of = |f: &dyn Fn(&Replay) -> &ByUpdate| {
        quietest_by_key(&replays.iter().map(|(_, e)| f(e)).collect::<Vec<_>>())
    };
    let late_us = values(quietest_by_key(
        &replays.iter().map(|(_, e)| &e.late_us).collect::<Vec<_>>(),
    ));
    let Some((first, _)) = replays.first() else {
        return Quiet {
            updates_per_s: 0.0,
            lag_ms: Vec::new(),
            readable_lag_ms: Vec::new(),
            late_us,
            outstanding_at_last_due_frac: 0.0,
        };
    };
    if paced {
        let lag = of(&|e| &e.lag_ms);
        let last_due = first.due_us.iter().map(|(_, at)| *at).max().unwrap_or(0);
        let outstanding = first
            .due_us
            .iter()
            .filter(|(id, due)| {
                lag.get(&(0, *id))
                    .is_none_or(|lag_ms| *due as f64 + lag_ms * 1e3 > last_due as f64)
            })
            .count();
        let rates: Vec<f64> = replays.iter().map(|(_, e)| e.updates_per_s).collect();
        Quiet {
            updates_per_s: median(&rates),
            lag_ms: values(lag),
            readable_lag_ms: values(of(&|e| &e.readable_lag_ms)),
            late_us,
            outstanding_at_last_due_frac: ratio(outstanding as f64, first.n_updates as f64),
        }
    } else {
        let timeline = |f: &dyn Fn(&Replay) -> &[f64]| {
            quietest_by_position(&replays.iter().map(|(_, e)| f(e)).collect::<Vec<_>>())
        };
        let n = first.n_updates;
        let readable = timeline(&|e| &e.readable_segments_ms);
        Quiet {
            updates_per_s: ratio(n as f64, readable.iter().sum::<f64>() / 1e3),
            lag_ms: timeline_lags(&timeline(&|e| &e.segments_ms), n, SEGMENT_UPDATES),
            readable_lag_ms: timeline_lags(&readable, n, SEGMENT_UPDATES),
            late_us,
            outstanding_at_last_due_frac: 0.0,
        }
    }
}

/// `VmHWM` of this process in MB (0 where `/proc` is absent).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn all_tracers(r: &RoundOut) -> Vec<&Tracer> {
    std::iter::once(&r.wh_log)
        .chain(&r.src_logs)
        .chain(r.reader.as_ref().map(|rd| &rd.log))
        .filter_map(|l| l.tracer.as_ref())
        .collect()
}

/// Run the workload and compute its metrics. `traced` selects which
/// table is reported; `trace_path` is where a traced run writes its
/// spans.
pub fn measure(plan: &Plan, traced: bool, trace_path: Option<&str>) -> Result<Outcome, String> {
    let paced = plan.workload.rate().is_some();
    let cycle: &[Instrument] = match (traced, paced) {
        (false, _) => &[Instrument::Plain],
        (true, true) => &[Instrument::Traced],
        (true, false) => &[Instrument::Plain, Instrument::Traced, Instrument::ObsOn],
    };
    let full = plan.scale == Scale::Full;
    let budget = Duration::from_secs(plan.seconds) / if full { 1 } else { 10 };
    let started = Instant::now();

    // Whole cycles, so that every kind has as many replays as the others.
    let min_replays = REPLAYS.div_ceil(cycle.len()) * cycle.len();
    let mut setups = Vec::new();
    let mut replays: Vec<(Instrument, RoundOut, Replay)> = Vec::new();
    while replays.len() < min_replays || (!paced && started.elapsed() < budget) {
        let instrument = cycle[replays.len() % cycle.len()];
        let t = Instant::now();
        let cluster = setup(plan)?;
        setups.push(t.elapsed().as_secs_f64());
        let out = run(plan, cluster, instrument)?;
        let times = replay(&out);
        replays.push((instrument, out, times));
    }
    // A set-up is 40–120 ms, as long as one of the host's bursts: give
    // `setup_s` a few more chances at a quiet moment than there are replays.
    while setups.len() < SETUPS {
        let t = Instant::now();
        drop(setup(plan)?);
        setups.push(t.elapsed().as_secs_f64());
    }

    let mut attempted = 0;
    let mut failed = 0;
    let mut notes = Vec::new();
    for (k, (instrument, r, e)) in replays.iter().enumerate() {
        eprintln!(
            "replay {k} {instrument:?}: {} updates, {:.1} updates/s",
            r.n_updates, e.updates_per_s
        );
        attempted += r.attempted;
        failed += r.failed;
        notes.extend(r.notes.iter().cloned());
    }
    let of = |want: Instrument| -> Vec<(&RoundOut, &Replay)> {
        replays
            .iter()
            .filter(|(i, _, _)| *i == want)
            .map(|(_, r, e)| (r, e))
            .collect()
    };

    // The replays the headline numbers come from: plain when there are
    // any, else (a traced paced run) the traced ones.
    let headline = if of(Instrument::Plain).is_empty() {
        quiet(paced, &of(Instrument::Traced))
    } else {
        quiet(paced, &of(Instrument::Plain))
    };
    // At 1/10 size only the checks mean anything, not the pace.
    let mut invalid = Vec::new();
    if paced && full {
        let late_p99 = percentile(&headline.late_us, 99.0);
        if late_p99 > MAX_LATE_US_P99 {
            invalid.push(format!(
                "injections handled {late_p99:.0} µs late at p99 in every replay"
            ));
        }
        if headline.outstanding_at_last_due_frac > MAX_OUTSTANDING_FRAC {
            invalid.push(format!(
                "{:.0} % of the updates uninstalled at the last injection in every replay",
                headline.outstanding_at_last_due_frac * 100.0
            ));
        }
    }

    let mut values: HashMap<&'static str, (f64, usize)> = HashMap::new();
    let mut put = |name: &'static str, value: f64, n: usize| {
        values.insert(name, (value, n));
    };

    if !traced {
        let fastest_setup = setups.iter().copied().fold(f64::INFINITY, f64::min);
        put("setup_s", fastest_setup, setups.len());
        put("updates_per_s", headline.updates_per_s, replays.len());
        put(
            "install_lag_p50_ms",
            percentile(&headline.lag_ms, 50.0),
            headline.lag_ms.len(),
        );
        put(
            "readable_lag_p50_ms",
            percentile(&headline.readable_lag_ms, 50.0),
            headline.readable_lag_ms.len(),
        );
        put("peak_rss_mb", peak_rss_mb(), 1);
    } else {
        let (t, te) = *of(Instrument::Traced)
            .first()
            .ok_or("a traced run has a traced replay")?;
        let updates = t.n_updates as f64;
        let installs = t.installs.len() as f64;
        let wall_ns = te.wall_s * 1e9;
        let wh = t.wh_log.tracer.as_ref().ok_or("warehouse tracer")?;
        let srcs: Vec<&Tracer> = t
            .src_logs
            .iter()
            .filter_map(|l: &NodeLog| l.tracer.as_ref())
            .collect();
        let src_spans =
            |name: &str| -> Vec<f64> { srcs.iter().flat_map(|s| s.durations_us(name)).collect() };

        // dw-source.
        let q = src_spans("source.query");
        put("source.query_us_p50", percentile(&q, 50.0), q.len());
        put("source.query_us_p99", percentile(&q, 99.0), q.len());
        let a = src_spans("source.apply");
        put("source.apply_us_p50", percentile(&a, 50.0), a.len());
        let src_busy: Vec<f64> = srcs.iter().map(|s| s.busy_ns() as f64).collect();
        put(
            "source.busy_frac_max",
            ratio(src_busy.iter().copied().fold(0.0, f64::max), wall_ns),
            srcs.len(),
        );
        put(
            "source.answer_rows_mean",
            ratio(t.wh_log.answer_rows as f64, t.wh_log.answers as f64),
            t.wh_log.answers as usize,
        );

        // dw-protocol.
        let queries: u64 = t.src_logs.iter().map(|l| l.queries).sum();
        let bytes: u64 = t.wh_log.wire_bytes + t.src_logs.iter().map(|l| l.wire_bytes).sum::<u64>();
        put(
            "protocol.msgs_per_update",
            (queries + t.wh_log.answers) as f64 / updates,
            1,
        );
        put(
            "protocol.query_msgs_per_update",
            queries as f64 / updates,
            1,
        );
        put(
            "protocol.answer_msgs_per_update",
            t.wh_log.answers as f64 / updates,
            1,
        );
        put("protocol.wire_bytes_per_update", bytes as f64 / updates, 1);

        // dw-engine.
        put(
            "engine.compensations_per_update",
            t.compensations as f64 / updates,
            1,
        );
        let last_install = t.installs.iter().map(|i| i.readable).max();
        put(
            "engine.drain_tail_ms",
            last_install.map_or(0.0, |at| {
                (t.cluster_wall.as_secs_f64() - at.duration_since(t.t0).as_secs_f64()) * 1e3
            }),
            1,
        );

        // dw-multiview: self time, i.e. without the serve layer's work
        // inside the publisher.
        let on_update = wh.self_times_us("multiview.on_update");
        put(
            "multiview.on_update_us_p50",
            percentile(&on_update, 50.0),
            on_update.len(),
        );
        let on_answer = wh.self_times_us("multiview.on_answer");
        put(
            "multiview.on_answer_us_p50",
            percentile(&on_answer, 50.0),
            on_answer.len(),
        );
        put(
            "multiview.on_answer_us_p99",
            percentile(&on_answer, 99.0),
            on_answer.len(),
        );
        put(
            "multiview.busy_frac",
            ratio(wh.busy_ns() as f64, wall_ns),
            1,
        );
        let durable = t.durable.unwrap_or_default();
        put(
            "multiview.durable_wal_bytes_per_update",
            durable.wal_bytes_written as f64 / updates,
            1,
        );
        put("multiview.checkpoints", durable.checkpoints_taken as f64, 1);
        let (escalations, shard_local) = t.shard.unwrap_or_default();
        put("multiview.escalations", escalations as f64, 1);
        put("multiview.shard_local", shard_local as f64, 1);

        // dw-serve.
        let publish = wh.durations_us("serve.publish");
        put(
            "serve.publish_us_p50",
            percentile(&publish, 50.0),
            publish.len(),
        );
        put(
            "serve.publish_us_p99",
            percentile(&publish, 99.0),
            publish.len(),
        );
        put(
            "serve.publish_share",
            ratio(
                publish.iter().fold(0.0, |a, b| a + b) * 1e3,
                wh.busy_ns() as f64,
            ),
            publish.len(),
        );
        let s = t.serve.clone().unwrap_or_default();
        put(
            "serve.bags_deep_cloned_per_install",
            ratio(s.bags_deep_cloned as f64, installs),
            1,
        );
        put(
            "serve.index_maint_tuples_per_install",
            ratio(s.index_maintenance_tuples as f64, installs),
            1,
        );
        put(
            "serve.point_index_hit_ratio",
            ratio(
                s.point_index_hits as f64,
                (s.point_index_hits + s.point_index_misses) as f64,
            ),
            1,
        );
        put(
            "serve.cache_hit_ratio",
            ratio(s.cache_hits as f64, (s.cache_hits + s.cache_misses) as f64),
            1,
        );
        put(
            "serve.read_work_tuples_per_read",
            ratio(s.read_work_tuples as f64, s.reads_answered as f64),
            1,
        );
        put(
            "serve.sub_events_per_install",
            ratio(s.sub_events as f64, installs),
            1,
        );
        let (point, scan, retained) = t.reader.as_ref().map_or((&[][..], &[][..], 0), |r| {
            (&r.point_us[..], &r.scan_us[..], r.retained_max)
        });
        put("serve.point_read_p50_us", median(point), point.len());
        put("serve.scan_read_p50_us", median(scan), scan.len());
        put("serve.retained_epochs_max", retained as f64, scan.len());
        put("bench.read_samples", (point.len() + scan.len()) as f64, 1);

        // Live transport: the quiet-time estimate over the traced replays.
        let tq = quiet(paced, &of(Instrument::Traced));
        put(
            "live.inject_late_us_p99",
            percentile(&tq.late_us, 99.0),
            tq.late_us.len(),
        );
        put(
            "live.install_lag_p95_ms",
            percentile(&tq.lag_ms, 95.0),
            tq.lag_ms.len(),
        );
        put(
            "live.install_lag_p99_ms",
            percentile(&tq.lag_ms, 99.0),
            tq.lag_ms.len(),
        );
        put(
            "live.install_lag_max_ms",
            percentile(&tq.lag_ms, 100.0),
            tq.lag_ms.len(),
        );
        put(
            "live.outstanding_at_last_due_frac",
            tq.outstanding_at_last_due_frac,
            1,
        );
        put("bench.lag_samples", tq.lag_ms.len() as f64, 1);
        put(
            "live.unattributed_frac",
            1.0 - ratio(wh.busy_ns() as f64 + src_busy.iter().sum::<f64>(), wall_ns),
            1,
        );
        let window = (
            wh.ns_at(t.t0),
            wh.ns_at(t.t0) + t.cluster_wall.as_nanos() as u64,
        );
        let attributed = std::iter::once(wh)
            .chain(srcs.iter().copied())
            .map(|tr| tr.attributed_frac(window))
            .fold(f64::INFINITY, f64::min);
        put("bench.attributed_frac_min", attributed, 1 + srcs.len());

        // Instrumentation cost, where replays of each kind exist.
        let throughput = |want: Instrument| quiet(paced, &of(want)).updates_per_s;
        let plain = throughput(Instrument::Plain);
        put(
            "bench.trace_overhead_frac",
            if plain > 0.0 {
                1.0 - tq.updates_per_s / plain
            } else {
                0.0
            },
            of(Instrument::Traced).len(),
        );
        put(
            "obs.on_throughput_ratio",
            ratio(throughput(Instrument::ObsOn), plain),
            of(Instrument::ObsOn).len(),
        );

        for (name, value, n) in kernels::table(plan.seed, plan.scale) {
            put(name, value, n);
        }

        if let Some(path) = trace_path {
            let write = || -> std::io::Result<()> {
                if let Some(dir) = std::path::Path::new(path).parent() {
                    std::fs::create_dir_all(dir)?;
                }
                let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
                trace::write_json(
                    &mut out,
                    plan.workload.name(),
                    plan.seed,
                    window,
                    &all_tracers(t),
                )?;
                std::io::Write::flush(&mut out)
            };
            write().map_err(|e| format!("writing {path}: {e}"))?;
        }
    }

    let table = if traced { PER_LAYER } else { END_TO_END };
    let metrics = table
        .iter()
        .map(|def| {
            let (value, n) = values
                .get(def.name)
                .copied()
                .ok_or_else(|| format!("metric '{}' was not computed", def.name))?;
            Ok(Metric {
                def: *def,
                value,
                n,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        notes,
        invalid,
    })
}
