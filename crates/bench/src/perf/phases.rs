//! The eleven gated phases. Each is defined **once**, here: its row
//! (declared with `row!`, which derives the JSON codec and the gate's
//! baseline checks), its experiment ([`Phase::run`]: scenario, sweep
//! points and builder configuration) and its exact laws
//! ([`Phase::invariants`]). `perf::collect` and the phase's `src/bin`
//! binary both run the experiment through `perf::measure`; the binaries
//! keep only presentation.

use super::schema::{cell, row, Cell, Field, Kind::*, Phase, Row, Worse::*};
use super::{level_rank, PerfReport, EXACT_EPS};
use crate::json::Json;
use crate::pick;
use dw_core::{
    audit_lag_recoveries, audit_reads, publish_copied_tuples, Experiment, LagAudit,
    MultiViewExperiment, MultiViewReport, PolicyKind, RunReport,
};
use dw_relational::{tup, AggFn, AggregateSpec, Bag, CmpOp, Value};
use dw_simnet::{FaultPlan, LatencyModel, LinkFaults};
use dw_workload::{
    DerivedOp, DerivedSpec, MultiViewConfig, MultiViewScenario, ReadKind, ReadMixConfig, ReadOp,
    ShardedConfig, ShardedScenario, StreamConfig, ViewSpec,
};
use std::collections::BTreeSet;

/// The weakest per-view level of a multi-view run, as the report spells it.
fn min_level(reports: &[&MultiViewReport]) -> String {
    reports
        .iter()
        .map(|r| r.min_consistency())
        .min()
        .flatten()
        .map(|l| l.to_string())
        .unwrap_or_default()
}

fn mutual_agreement(report: &MultiViewReport) -> bool {
    report.mutual.as_ref().is_some_and(|m| m.final_agreement)
}

/// The floor every multi-view row must hold: no view weaker than
/// `strong`, and all views agreeing on the shared sources at the end.
fn views_floor(v: &mut Vec<String>, what: &str, min_consistency: &str, mutual_agreement: bool) {
    if level_rank(min_consistency) < level_rank("strong") {
        v.push(format!(
            "{what}: weakest view consistency '{min_consistency}' below 'strong'"
        ));
    }
    if !mutual_agreement {
        v.push(format!(
            "{what}: views disagree on shared sources after drain"
        ));
    }
}

fn stale_percentiles(report: &RunReport) -> (u64, u64, u64) {
    (
        report.metrics.staleness_percentile(50.0),
        report.metrics.staleness_percentile(95.0),
        report.metrics.staleness_percentile(99.0),
    )
}

/// `n_views` generated full-span views over the chain `stream` describes,
/// with no derived stack.
fn chain_views(stream: StreamConfig, n_views: usize, view_seed: u64) -> MultiViewScenario {
    MultiViewConfig {
        stream,
        n_views,
        view_seed,
        full_span: true,
        n_derived: 0,
        derived_seed: 0,
    }
    .generate()
    .unwrap()
}

// ------------------------------------------------------------------ E1

row! {
    /// One algorithm row of the E1 (Table 1) phase.
    E1Row in e1 as "E1" / "e1_table1" {
        /// Algorithm name as printed in Table 1.
        policy: String = Key,
        /// Verified consistency level ("complete", "strong", …).
        consistency: String = Level,
        /// Query/answer messages per processed update.
        msgs_per_update: f64 = Ratio(Higher, "msgs/update"),
        /// Number of view installs.
        installs: u64 = Ratio(Lower, "installs"),
        /// Updates the warehouse processed.
        updates: u64 = Info,
        /// Local (warehouse-side) compensations.
        local_compensations: u64 = Info,
        /// Compensating queries sent to sources.
        compensation_queries: u64 = Info,
        /// Staleness percentiles, µs from delivery to install.
        stale_p50_us: u64 = Info,
        /// 95th percentile staleness (µs).
        stale_p95_us: u64 = Ratio(Higher, "staleness p95"),
        /// 99th percentile staleness (µs).
        stale_p99_us: u64 = Info,
    }
}

impl Phase for E1Row {
    const LAW: &'static str = "no exact law: levels and ratios are tracked against the baseline";
    /// Number of data sources (the row does not record it).
    type Detail = usize;

    /// The Table 1 comparison: every algorithm on the same dense keyed
    /// stream (800 µs gaps against 2 ms links — constant interference).
    fn run(smoke: bool) -> Vec<(E1Row, usize)> {
        let n = 4;
        let updates = pick(smoke, 12, 40);
        let policies: [(&str, PolicyKind); 6] = [
            ("ECA", PolicyKind::Eca),
            ("Strobe", PolicyKind::Strobe),
            ("C-strobe", PolicyKind::CStrobe),
            ("SWEEP", PolicyKind::Sweep(Default::default())),
            ("Nested SWEEP", PolicyKind::NestedSweep(Default::default())),
            ("Recompute", PolicyKind::Recompute),
        ];
        policies
            .into_iter()
            .map(|(name, kind)| {
                let scenario = StreamConfig {
                    n_sources: n,
                    initial_per_source: 30,
                    updates,
                    mean_gap: 800,
                    domain: 10,
                    keyed: true,
                    seed: 7,
                    ..Default::default()
                }
                .generate()
                .unwrap();
                let report = Experiment::new(scenario)
                    .policy(kind)
                    .latency(LatencyModel::Constant(2_000))
                    .run()
                    .unwrap();
                let (stale_p50_us, stale_p95_us, stale_p99_us) = stale_percentiles(&report);
                let row = E1Row {
                    policy: name.to_string(),
                    consistency: report.consistency.as_ref().unwrap().level.to_string(),
                    msgs_per_update: report.messages_per_update(),
                    installs: report.metrics.installs,
                    updates: report.metrics.updates_received,
                    local_compensations: report.metrics.local_compensations,
                    compensation_queries: report.metrics.compensation_queries,
                    stale_p50_us,
                    stale_p95_us,
                    stale_p99_us,
                };
                (row, n)
            })
            .collect()
    }

    fn invariants(_rows: &[E1Row]) -> Vec<String> {
        Vec::new()
    }
}

// ------------------------------------------------------------------ E6

row! {
    /// One chain-length row of the E6 (message linearity) phase.
    E6Row in e6 as "E6" / "e6_sweep_linear" {
        /// Number of data sources in the chain.
        n: u64 = Key,
        /// The paper's exact prediction: `2(n−1)`.
        expected_msgs_per_update: f64 = Info,
        /// Measured messages/update with sparse (non-interfering) updates.
        sparse_msgs_per_update: f64 = Info,
        /// Measured messages/update with dense (interfering) updates.
        dense_msgs_per_update: f64 = Info,
        /// Local compensations in the dense run.
        dense_compensations: u64 = Info,
        /// Verified consistency level of the dense run.
        consistency: String = Level,
    }
}

impl Phase for E6Row {
    const LAW: &'static str = "exactly 2(n\u{2212}1) messages per update, sparse or dense";
    type Detail = ();

    /// SWEEP over chains of growing length, each run sparse (50 ms gaps:
    /// updates never interfere) and dense (300 µs gaps against 1.5 ms
    /// links: every sweep is interfered with). Per-hop join fanout is
    /// kept ≈ 1 (`initial_per_source / domain`) so long chains don't
    /// explode.
    fn run(smoke: bool) -> Vec<(E6Row, ())> {
        let ns: &[usize] = pick(smoke, &[2, 4, 8], &[2, 3, 4, 6, 8, 12, 16]);
        let updates = pick(smoke, 10, 25);
        let sweep = |n: usize, mean_gap: u64| {
            let scenario = StreamConfig {
                n_sources: n,
                initial_per_source: 15,
                updates,
                mean_gap,
                domain: 15,
                seed: 21,
                ..Default::default()
            }
            .generate()
            .unwrap();
            Experiment::new(scenario)
                .policy(PolicyKind::Sweep(Default::default()))
                .latency(LatencyModel::Constant(1_500))
                .run()
                .unwrap()
        };
        ns.iter()
            .map(|&n| {
                let (sparse, dense) = (sweep(n, 50_000), sweep(n, 300));
                let row = E6Row {
                    n: n as u64,
                    expected_msgs_per_update: (2 * (n - 1)) as f64,
                    sparse_msgs_per_update: sparse.messages_per_update(),
                    dense_msgs_per_update: dense.messages_per_update(),
                    dense_compensations: dense.metrics.local_compensations,
                    consistency: dense.consistency.as_ref().unwrap().level.to_string(),
                };
                (row, ())
            })
            .collect()
    }

    fn invariants(rows: &[E6Row]) -> Vec<String> {
        let mut v = Vec::new();
        for row in rows {
            let expect = (2 * (row.n - 1)) as f64;
            if (row.expected_msgs_per_update - expect).abs() > EXACT_EPS {
                v.push(format!(
                    "E6 n={}: recorded expectation {} != 2(n-1) = {expect}",
                    row.n, row.expected_msgs_per_update
                ));
            }
            for (label, measured) in [
                ("sparse", row.sparse_msgs_per_update),
                ("dense", row.dense_msgs_per_update),
            ] {
                if (measured - expect).abs() > EXACT_EPS {
                    v.push(format!(
                        "E6 n={} ({label}): msgs/update {measured} != 2(n-1) = {expect}",
                        row.n
                    ));
                }
            }
            if row.consistency != "complete" {
                v.push(format!(
                    "E6 n={}: consistency '{}' != 'complete'",
                    row.n, row.consistency
                ));
            }
        }
        v
    }
}

// ----------------------------------------------------------------- E12

row! {
    /// One loss-rate row of the E12 (faults + transport) phase.
    E12Row in e12 as "E12" / "e12_fault_sweep" {
        /// Link loss probability in percent.
        loss_pct: f64 = Key,
        /// Logical (send-once) query/answer messages per update.
        logical_msgs_per_update: f64 = Info,
        /// The invariant the row must pin to: `2(n−1)`.
        expected_msgs_per_update: f64 = Info,
        /// Physical wire messages over logical messages (≥ 1).
        inflation: f64 = Ratio(Higher, "wire inflation"),
        /// Verified consistency level.
        consistency: String = Level,
        /// Whether the run drained to quiescence.
        quiescent: bool = Info,
        /// Staleness percentiles, µs from delivery to install.
        stale_p50_us: u64 = Info,
        /// 95th percentile staleness (µs).
        stale_p95_us: u64 = Ratio(Higher, "staleness p95"),
        /// 99th percentile staleness (µs).
        stale_p99_us: u64 = Info,
    }
}

/// What the `fault_sweep` binary prints besides the E12 row.
pub struct E12Detail {
    /// Number of data sources.
    pub n: usize,
    /// The run: wire counters, transport overhead, mean staleness.
    pub report: RunReport,
}

impl Phase for E12Row {
    const LAW: &'static str = "complete, drained and logically on 2(n\u{2212}1) at every loss rate";
    type Detail = E12Detail;

    /// SWEEP behind the reliability transport over a network that drops,
    /// duplicates and reorders (each lossy rate also duplicates and
    /// reorders 2 % of messages).
    fn run(smoke: bool) -> Vec<(E12Row, E12Detail)> {
        let losses: &[f64] = pick(smoke, &[0.0, 0.05, 0.20], &[0.0, 0.01, 0.05, 0.10, 0.20]);
        let updates = pick(smoke, 15, 40);
        let n = 3usize;
        losses
            .iter()
            .map(|&loss| {
                let scenario = StreamConfig {
                    n_sources: n,
                    initial_per_source: 30,
                    updates,
                    mean_gap: 2_000,
                    domain: 20,
                    seed: 12,
                    ..Default::default()
                }
                .generate()
                .unwrap();
                let plan = FaultPlan::default().uniform(LinkFaults {
                    drop_rate: loss,
                    dup_rate: if loss > 0.0 { 0.02 } else { 0.0 },
                    reorder_rate: if loss > 0.0 { 0.02 } else { 0.0 },
                    reorder_window: 4_000,
                });
                let report = Experiment::new(scenario)
                    .policy(PolicyKind::Sweep(Default::default()))
                    .latency(LatencyModel::Constant(2_000))
                    .faults(plan)
                    .transport_auto()
                    .run()
                    .unwrap();
                let (stale_p50_us, stale_p95_us, stale_p99_us) = stale_percentiles(&report);
                let row = E12Row {
                    loss_pct: loss * 100.0,
                    logical_msgs_per_update: report.logical_messages_per_update(),
                    expected_msgs_per_update: (2 * (n - 1)) as f64,
                    inflation: report.net.inflation(),
                    consistency: report.consistency.as_ref().unwrap().level.to_string(),
                    quiescent: report.quiescent,
                    stale_p50_us,
                    stale_p95_us,
                    stale_p99_us,
                };
                (row, E12Detail { n, report })
            })
            .collect()
    }

    fn invariants(rows: &[E12Row]) -> Vec<String> {
        let mut v = Vec::new();
        for row in rows {
            if (row.logical_msgs_per_update - row.expected_msgs_per_update).abs() > EXACT_EPS {
                v.push(format!(
                    "E12 loss={}%: logical msgs/update {} != 2(n-1) = {}",
                    row.loss_pct, row.logical_msgs_per_update, row.expected_msgs_per_update
                ));
            }
            if row.consistency != "complete" {
                v.push(format!(
                    "E12 loss={}%: consistency '{}' != 'complete'",
                    row.loss_pct, row.consistency
                ));
            }
            if !row.quiescent {
                v.push(format!("E12 loss={}%: run did not drain", row.loss_pct));
            }
        }
        v
    }
}

// ----------------------------------------------------------------- E14

row! {
    /// One view-count row of the E14 (multi-view shared sweep) phase.
    E14Row in e14 as "E14" / "e14_multiview" {
        /// Number of registered full-span views.
        views: u64 = Key,
        /// Number of data sources in the base chain.
        n: u64 = Info,
        /// The shared-sweep prediction: `2(n−1)`, independent of `views`.
        expected_shared: f64 = Info,
        /// Measured messages/update in shared mode.
        shared_msgs_per_update: f64 = Info,
        /// The naive prediction: `V·2(n−1)`.
        expected_naive: f64 = Info,
        /// Measured messages/update with each view maintained alone: the
        /// sum over `views` one-view warehouses fed the same stream.
        naive_msgs_per_update: f64 = Info,
        /// naive / shared — the amortization factor (≈ `views`).
        sharing_ratio: f64 = Info,
        /// Weakest per-view consistency level in the shared run.
        min_consistency: String = Level,
        /// Cross-view mutual consistency held at the end of the shared run.
        mutual_agreement: bool = Info,
        /// Staleness percentiles across all views, µs delivery → install.
        stale_p50_us: u64 = Info,
        /// 95th percentile staleness (µs).
        stale_p95_us: u64 = Ratio(Higher, "staleness p95"),
        /// 99th percentile staleness (µs).
        stale_p99_us: u64 = Info,
    }
}

/// What the `multiview` binary checks besides the E14 row: every run, so
/// it can hold each view maintained alone to its shared twin.
pub struct E14Detail {
    /// One shared sweep feeding every view.
    pub shared: MultiViewReport,
    /// The `V·2(n−1)` baseline is what it literally is: V independent
    /// one-view warehouses over the same scenario, in view order.
    pub naive: Vec<MultiViewReport>,
}

impl Phase for E14Row {
    const LAW: &'static str =
        "shared sweep on 2(n\u{2212}1) whatever the view count, naive on V\u{b7}2(n\u{2212}1)";
    type Detail = E14Detail;

    /// V random views sharing one warehouse, against the same views in a
    /// warehouse each. All views are full-span so the laws are exact.
    fn run(smoke: bool) -> Vec<(E14Row, E14Detail)> {
        let n = 4usize;
        let view_counts: &[usize] = pick(smoke, &[1, 3, 6], &[1, 2, 4, 8, 12]);
        let updates = pick(smoke, 12, 30);
        view_counts
            .iter()
            .map(|&views| {
                let stream = StreamConfig {
                    n_sources: n,
                    initial_per_source: 20,
                    updates,
                    mean_gap: 800,
                    domain: 10,
                    seed: 31,
                    ..Default::default()
                };
                let scenario = chain_views(stream, views, 0xE14 ^ views as u64);
                let sweep = |views: &[ViewSpec]| {
                    let views = views.to_vec();
                    MultiViewExperiment::new(MultiViewScenario {
                        views,
                        ..scenario.clone()
                    })
                    .latency(LatencyModel::Constant(2_000))
                    .run()
                    .unwrap()
                };
                let shared = sweep(&scenario.views);
                let naive: Vec<_> = scenario.views.chunks(1).map(sweep).collect();
                let naive_msgs: u64 = naive.iter().map(MultiViewReport::query_messages).sum();
                let naive_msgs_per_update =
                    naive_msgs as f64 / shared.scheduler_metrics.updates_received as f64;
                let row = E14Row {
                    views: views as u64,
                    n: n as u64,
                    expected_shared: (2 * (n - 1)) as f64,
                    shared_msgs_per_update: shared.messages_per_update(),
                    expected_naive: (views * 2 * (n - 1)) as f64,
                    naive_msgs_per_update,
                    sharing_ratio: naive_msgs_per_update / shared.messages_per_update(),
                    min_consistency: min_level(&[&shared]),
                    mutual_agreement: mutual_agreement(&shared),
                    stale_p50_us: shared.staleness_percentile(50.0).unwrap_or(0),
                    stale_p95_us: shared.staleness_percentile(95.0).unwrap_or(0),
                    stale_p99_us: shared.staleness_percentile(99.0).unwrap_or(0),
                };
                (row, E14Detail { shared, naive })
            })
            .collect()
    }

    fn invariants(rows: &[E14Row]) -> Vec<String> {
        let mut v = Vec::new();
        for row in rows {
            let shared_expect = (2 * (row.n - 1)) as f64;
            let naive_expect = (row.views * 2 * (row.n - 1)) as f64;
            if (row.expected_shared - shared_expect).abs() > EXACT_EPS
                || (row.expected_naive - naive_expect).abs() > EXACT_EPS
            {
                v.push(format!(
                    "E14 V={}: recorded expectations ({}, {}) != (2(n-1), V*2(n-1)) = ({shared_expect}, {naive_expect})",
                    row.views, row.expected_shared, row.expected_naive
                ));
            }
            if (row.shared_msgs_per_update - shared_expect).abs() > EXACT_EPS {
                v.push(format!(
                    "E14 V={}: shared msgs/update {} != 2(n-1) = {shared_expect} — shared sweep must not scale with view count",
                    row.views, row.shared_msgs_per_update
                ));
            }
            if (row.naive_msgs_per_update - naive_expect).abs() > EXACT_EPS {
                v.push(format!(
                    "E14 V={}: naive msgs/update {} != V*2(n-1) = {naive_expect}",
                    row.views, row.naive_msgs_per_update
                ));
            }
            let what = format!("E14 V={}", row.views);
            views_floor(&mut v, &what, &row.min_consistency, row.mutual_agreement);
        }
        v
    }
}

// ----------------------------------------------------------------- E15

row! {
    /// One batch-width row of the E15 (cross-update batching) phase.
    ///
    /// The workload saturates the warehouse queue with updates from a single
    /// mid-chain source (burst arrivals far faster than a sweep round trip),
    /// so the sweep count is fully determined: the first update sweeps alone
    /// and every later sweep folds exactly `k` queued updates —
    /// `1 + ⌈(U−1)/k⌉` sweeps for `U` updates, messages/update falling toward
    /// the `2(n−1)/k` amortization floor as `k` grows.
    E15Row in e15 as "E15" / "e15_batching" {
        /// Batch width `k` (1 = batching off).
        batch: u64 = Key,
        /// Number of data sources in the base chain.
        n: u64 = Info,
        /// Burst updates the warehouse processed (`U`).
        updates: u64 = Info,
        /// Shared sweeps actually run (= installs per view).
        sweeps: u64 = Info,
        /// The exact prediction: `2(n−1) · (1 + ⌈(U−1)/k⌉) / U`.
        expected_msgs_per_update: f64 = Info,
        /// Measured query/answer messages per update.
        msgs_per_update: f64 = Ratio(Higher, "msgs/update"),
        /// The steady-state amortization floor: `2(n−1)/k`.
        amortized_floor: f64 = Info,
        /// Weakest per-view consistency level.
        min_consistency: String = Level,
        /// Cross-view mutual consistency held at the end of the run.
        mutual_agreement: bool = Info,
        /// Whether the run drained to quiescence.
        quiescent: bool = Info,
        /// Staleness percentiles across all views, µs delivery → install.
        stale_p50_us: u64 = Info,
        /// 95th percentile staleness (µs).
        stale_p95_us: u64 = Ratio(Higher, "staleness p95"),
        /// 99th percentile staleness (µs).
        stale_p99_us: u64 = Info,
    }
}

impl Phase for E15Row {
    const LAW: &'static str =
        "batching on the 1 + \u{2308}(U\u{2212}1)/k\u{2309} sweep schedule, never costlier as k widens";
    /// The mid-chain source every burst update comes from.
    type Detail = usize;

    /// One saturated same-source burst, swept at growing batch widths.
    fn run(smoke: bool) -> Vec<(E15Row, usize)> {
        let n = 5usize;
        let batches: &[usize] = pick(smoke, &[1, 4], &[1, 2, 4, 8, 16]);
        let burst_source = n / 2;
        let scenario = burst_scenario(n, pick(smoke, 60, 150), burst_source);
        batches
            .iter()
            .map(|&k| {
                let report = MultiViewExperiment::new(scenario.clone())
                    .batch(k)
                    .latency(LatencyModel::Constant(2_000))
                    .run()
                    .unwrap();
                let updates = report.scheduler_metrics.updates_received;
                let expected_sweeps = 1 + (updates - 1).div_ceil(k as u64);
                let row = E15Row {
                    batch: k as u64,
                    n: n as u64,
                    updates,
                    sweeps: report.views[0].installs.len() as u64,
                    expected_msgs_per_update: (2 * (n - 1)) as f64 * expected_sweeps as f64
                        / updates as f64,
                    msgs_per_update: report.messages_per_update(),
                    amortized_floor: (2 * (n - 1)) as f64 / k as f64,
                    min_consistency: min_level(&[&report]),
                    mutual_agreement: mutual_agreement(&report),
                    quiescent: report.quiescent,
                    stale_p50_us: report.staleness_percentile(50.0).unwrap_or(0),
                    stale_p95_us: report.staleness_percentile(95.0).unwrap_or(0),
                    stale_p99_us: report.staleness_percentile(99.0).unwrap_or(0),
                };
                (row, burst_source)
            })
            .collect()
    }

    fn invariants(rows: &[E15Row]) -> Vec<String> {
        let mut v = Vec::new();
        for row in rows {
            if row.batch == 0 || row.updates < 2 {
                v.push(format!(
                    "E15 k={}: degenerate row ({} updates)",
                    row.batch, row.updates
                ));
                continue;
            }
            let expected_sweeps = 1 + (row.updates - 1).div_ceil(row.batch);
            if row.sweeps != expected_sweeps {
                v.push(format!(
                    "E15 k={}: {} sweeps for {} saturated same-source updates != 1 + ceil((U-1)/k) = {expected_sweeps} — batching did not fold the queue",
                    row.batch, row.sweeps, row.updates
                ));
            }
            let expect = (2 * (row.n - 1)) as f64 * expected_sweeps as f64 / row.updates as f64;
            if (row.expected_msgs_per_update - expect).abs() > EXACT_EPS {
                v.push(format!(
                    "E15 k={}: recorded expectation {} != 2(n-1)*(1+ceil((U-1)/k))/U = {expect}",
                    row.batch, row.expected_msgs_per_update
                ));
            }
            if (row.msgs_per_update - expect).abs() > EXACT_EPS {
                v.push(format!(
                    "E15 k={}: msgs/update {} != {expect}",
                    row.batch, row.msgs_per_update
                ));
            }
            let floor = (2 * (row.n - 1)) as f64 / row.batch as f64;
            if (row.amortized_floor - floor).abs() > EXACT_EPS {
                v.push(format!(
                    "E15 k={}: recorded floor {} != 2(n-1)/k = {floor}",
                    row.batch, row.amortized_floor
                ));
            }
            let what = format!("E15 k={}", row.batch);
            views_floor(&mut v, &what, &row.min_consistency, row.mutual_agreement);
            if !row.quiescent {
                v.push(format!("E15 k={}: run did not drain", row.batch));
            }
        }
        for pair in rows.windows(2) {
            if pair[1].msgs_per_update > pair[0].msgs_per_update + EXACT_EPS {
                v.push(format!(
                    "E15: msgs/update rose from {} (k={}) to {} (k={}) — widening the batch must never cost messages",
                    pair[0].msgs_per_update, pair[0].batch, pair[1].msgs_per_update, pair[1].batch
                ));
            }
        }
        v
    }
}

/// The E15 workload: two full-span SWEEP views over an `n`-source chain,
/// with the generated stream reshaped into a single-source burst — only
/// updates from `burst_source`, re-stamped 10 µs apart so every one of
/// them is queued before the first sweep's round trip completes.
fn burst_scenario(n: usize, updates: usize, burst_source: usize) -> MultiViewScenario {
    let stream = StreamConfig {
        n_sources: n,
        initial_per_source: 20,
        updates,
        mean_gap: 500,
        domain: 10,
        seed: 15,
        ..Default::default()
    };
    let mut scenario = chain_views(stream, 2, 0xE15);
    scenario.views = vec![ViewSpec::full("burst-a", n), ViewSpec::full("burst-b", n)];
    scenario.txns.retain(|t| t.source == burst_source);
    for (i, t) in scenario.txns.iter_mut().enumerate() {
        t.at = 1 + 10 * i as u64;
    }
    assert!(
        scenario.txns.len() > 1,
        "burst workload needs at least two updates from source {burst_source}"
    );
    scenario
}

// ----------------------------------------------------------------- E16

row! {
    /// One selectivity row of the E16 (σ query pushdown) phase.
    ///
    /// Each row runs the *same* seeded multi-view scenario twice — pushdown
    /// off, then on — and compares the wire. Pushdown is a transport
    /// optimization, so the hop structure is pinned (identical query/answer
    /// message counts) and the answers can only shrink; on the selective
    /// workload they *must* shrink, and on the σ-free control the two runs
    /// must be byte-identical.
    E16Row in e16 as "E16" / "e16_pushdown" {
        /// Workload label: "none" (σ-free control), "keep-all" (a pushed σ
        /// every tuple satisfies) or "selective" (σ keeps a small fraction).
        label: String = Key,
        /// Number of data sources in the base chain.
        n: u64 = Info,
        /// Number of registered views.
        views: u64 = Info,
        /// Updates the warehouse processed.
        updates: u64 = Info,
        /// Query/answer messages without pushdown.
        query_msgs_plain: u64 = Info,
        /// Query/answer messages with pushdown — must equal the plain count.
        query_msgs_pushed: u64 = Info,
        /// Query bytes without pushdown.
        query_bytes_plain: u64 = Info,
        /// Query bytes with pushdown (partials shrink, predicates ride along).
        query_bytes_pushed: u64 = Info,
        /// Answer bytes without pushdown — the tuples-on-wire baseline.
        answer_bytes_plain: u64 = Info,
        /// Answer bytes with pushdown — never more than the plain run.
        answer_bytes_pushed: u64 = Ratio(Higher, "pushed answer bytes"),
        /// `100·(plain − pushed)/plain` answer-byte reduction (0 when the
        /// plain run shipped nothing).
        answer_reduction_pct: f64 = Ratio(Lower, "answer reduction"),
        /// Weakest per-view consistency level across *both* runs.
        min_consistency: String = Level,
        /// Cross-view mutual consistency held in both runs.
        mutual_agreement: bool = Info,
        /// Both runs drained to quiescence.
        quiescent: bool = Info,
    }
}

impl Phase for E16Row {
    const LAW: &'static str = "\u{3c3} pushdown never changes the hop count nor inflates the answers, and shrinks them on the selective workload";
    /// The σ threshold `t`: view `v` selects `B >= t + v` on every span
    /// relation (`None`: no selection).
    type Detail = Option<i64>;

    /// The same seeded two-view workload per σ threshold, pushdown off
    /// and on, so the comparison isolates bytes. The three gated cases
    /// are "none", "keep-all" and "selective"; the full sweep adds
    /// intermediate thresholds.
    fn run(smoke: bool) -> Vec<(E16Row, Option<i64>)> {
        let n = 4usize;
        let views = 2usize;
        let updates = pick(smoke, 10, 25);
        let cases: &[(&str, Option<i64>)] = pick(
            smoke,
            &[
                ("none", None),
                ("keep-all", Some(0)),
                ("selective", Some(7)),
            ],
            &[
                ("none", None),
                ("keep-all", Some(0)),
                ("B>=3", Some(3)),
                ("B>=5", Some(5)),
                ("selective", Some(7)),
                ("B>=9", Some(9)),
            ],
        );
        cases
            .iter()
            .map(|&(label, threshold)| {
                let scenario = selective_scenario(n, updates, views, threshold);
                let sweep = |pushdown| {
                    MultiViewExperiment::new(scenario.clone())
                        .pushdown(pushdown)
                        .latency(LatencyModel::Constant(2_000))
                        .run()
                        .unwrap()
                };
                let (plain, pushed) = (sweep(false), sweep(true));
                let (pq, pa) = (plain.net.label("query"), plain.net.label("answer"));
                let (uq, ua) = (pushed.net.label("query"), pushed.net.label("answer"));
                let row = E16Row {
                    label: label.to_string(),
                    n: n as u64,
                    views: views as u64,
                    updates: plain.scheduler_metrics.updates_received,
                    query_msgs_plain: pq.messages + pa.messages,
                    query_msgs_pushed: uq.messages + ua.messages,
                    query_bytes_plain: pq.bytes,
                    query_bytes_pushed: uq.bytes,
                    answer_bytes_plain: pa.bytes,
                    answer_bytes_pushed: ua.bytes,
                    answer_reduction_pct: if pa.bytes == 0 {
                        0.0
                    } else {
                        100.0 * (pa.bytes as f64 - ua.bytes as f64) / pa.bytes as f64
                    },
                    min_consistency: min_level(&[&plain, &pushed]),
                    mutual_agreement: mutual_agreement(&plain) && mutual_agreement(&pushed),
                    quiescent: plain.quiescent && pushed.quiescent,
                };
                (row, threshold)
            })
            .collect()
    }

    fn invariants(rows: &[E16Row]) -> Vec<String> {
        let mut v = Vec::new();
        for row in rows {
            if row.query_msgs_pushed != row.query_msgs_plain {
                v.push(format!(
                    "E16 {}: pushdown changed the query/answer hop count ({} vs {}) — it must rewrite payloads, never the message structure",
                    row.label, row.query_msgs_pushed, row.query_msgs_plain
                ));
            }
            if row.answer_bytes_pushed > row.answer_bytes_plain {
                v.push(format!(
                    "E16 {}: pushdown shipped {} answer bytes vs {} unpushed — a pushed σ must never ship more tuples",
                    row.label, row.answer_bytes_pushed, row.answer_bytes_plain
                ));
            }
            let expect_pct = if row.answer_bytes_plain == 0 {
                0.0
            } else {
                100.0 * (row.answer_bytes_plain as f64 - row.answer_bytes_pushed as f64)
                    / row.answer_bytes_plain as f64
            };
            if (row.answer_reduction_pct - expect_pct).abs() > EXACT_EPS {
                v.push(format!(
                    "E16 {}: recorded reduction {}% != {expect_pct}%",
                    row.label, row.answer_reduction_pct
                ));
            }
            // σ-free views collapse the pushed predicate to True, which is
            // never sent: the runs must be byte-identical.
            if row.label == "none"
                && (row.query_bytes_pushed != row.query_bytes_plain
                    || row.answer_bytes_pushed != row.answer_bytes_plain)
            {
                v.push(format!(
                    "E16 {}: σ-free control diverged on the wire (query {} vs {}, answer {} vs {})",
                    row.label,
                    row.query_bytes_pushed,
                    row.query_bytes_plain,
                    row.answer_bytes_pushed,
                    row.answer_bytes_plain
                ));
            }
            // A σ every tuple satisfies rides the queries but filters
            // nothing: the answers must not move.
            if row.label == "keep-all" && row.answer_bytes_pushed != row.answer_bytes_plain {
                v.push(format!(
                    "E16 {}: a σ every tuple satisfies changed the answers ({} vs {} bytes)",
                    row.label, row.answer_bytes_pushed, row.answer_bytes_plain
                ));
            }
            // The headline: selective σ must show a measurable reduction.
            if row.label == "selective" && row.answer_bytes_pushed >= row.answer_bytes_plain {
                v.push(format!(
                    "E16 {}: no measurable reduction ({} vs {} answer bytes) — the pushed σ filtered nothing",
                    row.label, row.answer_bytes_pushed, row.answer_bytes_plain
                ));
            }
            let what = format!("E16 {}", row.label);
            views_floor(&mut v, &what, &row.min_consistency, row.mutual_agreement);
            if !row.quiescent {
                v.push(format!("E16 {}: a run did not drain", row.label));
            }
        }
        v
    }
}

/// The E16 workload: `views` full-span SWEEP views over an `n`-source
/// chain. With `threshold = Some(t)`, view `v` selects
/// `B >= t + v` on *every* span relation — every relation carries a σ
/// from every view, so the pushed predicate is the OR-union
/// `B >= t ∨ B >= t+1 ∨ …` (= `B >= t`, join values live in
/// `0..domain`). `None` leaves the views selection-free, the control
/// where pushdown must be a wire no-op.
fn selective_scenario(
    n: usize,
    updates: usize,
    views: usize,
    threshold: Option<i64>,
) -> MultiViewScenario {
    let stream = StreamConfig {
        n_sources: n,
        initial_per_source: 20,
        updates,
        mean_gap: 800,
        domain: 10,
        seed: 0xE16,
        ..Default::default()
    };
    let mut scenario = chain_views(stream, views, 0xE16);
    scenario.views = (0..views)
        .map(|v| {
            let mut spec = ViewSpec::full(format!("sel-{v}"), n);
            if let Some(t) = threshold {
                for k in 0..n {
                    let attr = scenario.base.schema(k).arity() - 1;
                    spec.selects
                        .push((k, attr, CmpOp::Ge, Value::Int(t + v as i64)));
                }
            }
            spec
        })
        .collect();
    scenario
}

// ----------------------------------------------------------------- E17

row! {
    /// One checkpoint-interval row of the E17 (crash recovery) phase.
    ///
    /// Each row runs the *same* seeded sparse multi-view scenario twice —
    /// fault-free, then with a warehouse state-crash window interrupting the
    /// last update's sweep mid-hop — with durable checkpoints every
    /// `checkpoint_every` sweep commits. Recovery replays checkpoint + WAL,
    /// re-seeds the aborted sweep, and must land on the fault-free run's
    /// exact per-view bags and install fingerprints. Rows are ordered by
    /// rising `checkpoint_every`, so replayed WAL bytes must rise
    /// monotonically down the table (rarer checkpoints ⇒ longer replay).
    E17Row in e17 as "E17" / "e17_recovery" {
        /// Durable checkpoint cadence (sweep commits per checkpoint).
        checkpoint_every: u64 = Key,
        /// Number of data sources in the base chain.
        n: u64 = Info,
        /// Number of registered views.
        views: u64 = Info,
        /// Updates the warehouse processed.
        updates: u64 = Info,
        /// Crashed run matched the fault-free run: per-view bags and install
        /// fingerprints identical, both runs drained.
        converged: bool = Info,
        /// State-crash recoveries the scheduler performed (≥ 1 by design).
        recoveries: u64 = Info,
        /// WAL records replayed across all recoveries.
        wal_records_replayed: u64 = Info,
        /// Modeled WAL bytes replayed across all recoveries.
        wal_bytes_replayed: u64 = Ratio(Higher, "replayed WAL bytes"),
        /// In-flight sweeps aborted by the crash and re-seeded from the
        /// durable pending queue.
        sweeps_reseeded: u64 = Info,
        /// Pre-crash answers fenced off by the incarnation their qid carries.
        stale_answers_dropped: u64 = Info,
        /// Durable checkpoints taken over the crashed run.
        checkpoints_taken: u64 = Info,
        /// View tuples copied taking them. Must be exactly 0: an image
        /// holds structurally shared handles onto the live views (the
        /// modeled byte sizes in this row stay the *logical* sizes).
        checkpoint_copied_tuples: u64 = Info,
        /// Total modeled WAL bytes appended over the crashed run.
        wal_bytes_written: u64 = Info,
        /// Extra virtual time the crashed run needed to drain, vs the
        /// fault-free run (µs) — the recovery latency.
        recovery_latency_us: u64 = Ratio(Higher, "recovery latency"),
        /// Worst install staleness in the crashed run (µs).
        stale_max_us: u64 = Ratio(Higher, "staleness spike"),
        /// The recorded staleness budget: fault-free worst case + crash
        /// window + retransmission allowance (µs). The spike must stay under
        /// it.
        stale_bound_us: u64 = Info,
        /// Both runs drained to quiescence.
        quiescent: bool = Info,
    }
}

/// What the `recovery` binary's header prints besides the E17 rows.
pub struct E17Detail {
    /// Updates in the stream (the row's own counter restarts at the
    /// crashed run's last recovery).
    pub updates: usize,
    /// The warehouse state-crash window `[down, up]` (µs).
    pub crash_window: (u64, u64),
}

impl Phase for E17Row {
    const LAW: &'static str = "crash recovery converges to the fault-free run with a bounded staleness spike, WAL replay monotone in the checkpoint interval and checkpoints that copy no view tuple";
    type Detail = E17Detail;

    /// One seeded sparse workload, swept over checkpoint intervals. The
    /// crash window opens 50 µs after the last update's sweep launched
    /// (first query already in flight) and closes 3 ms later, so recovery
    /// must fence the in-flight answer, re-seed the aborted sweep from
    /// the durable pending queue, and replay exactly the WAL suffix the
    /// checkpoint cadence left behind.
    fn run(smoke: bool) -> Vec<(E17Row, E17Detail)> {
        let n = 4usize;
        let views = 2usize;
        let cadences: &[usize] = pick(smoke, &[1, 16], &[1, 2, 4, 8, 16]);
        let scenario = recovery_scenario(n, pick(smoke, 6, 12), views);
        let window = 3_000u64;
        let down_at = scenario.txns.last().unwrap().at + 1_050;
        let plan = FaultPlan::default().state_crash(0, down_at, down_at + window);
        // Slack for the transport to re-drive the fenced answer and the
        // re-seeded sweep's round trips after the window closes.
        let retransmit_allowance = 60_000u64;

        cadences
            .iter()
            .map(|&k| {
                let sweep = |faults: FaultPlan| {
                    MultiViewExperiment::new(scenario.clone())
                        .faults(faults)
                        .transport_auto()
                        .durability(k)
                        .run()
                        .unwrap()
                };
                let (clean, crashed) = (sweep(FaultPlan::default()), sweep(plan.clone()));
                let matched = clean.views.len() == crashed.views.len()
                    && clean.views.iter().zip(&crashed.views).all(|(a, b)| {
                        a.view == b.view
                            && a.installs
                                .iter()
                                .map(|r| &r.consumed)
                                .eq(b.installs.iter().map(|r| &r.consumed))
                    });
                let clean_max = clean.staleness_percentile(100.0).unwrap_or(0);
                let row = E17Row {
                    checkpoint_every: k as u64,
                    n: n as u64,
                    views: views as u64,
                    updates: crashed.scheduler_metrics.updates_received,
                    converged: matched && clean.quiescent && crashed.quiescent,
                    recoveries: crashed.recovery.recoveries,
                    wal_records_replayed: crashed.recovery.wal_records_replayed,
                    wal_bytes_replayed: crashed.recovery.wal_bytes_replayed,
                    sweeps_reseeded: crashed.recovery.sweeps_reseeded,
                    stale_answers_dropped: crashed.recovery.stale_answers_dropped,
                    checkpoints_taken: crashed.checkpoints_taken,
                    checkpoint_copied_tuples: crashed.checkpoint_copied_tuples,
                    wal_bytes_written: crashed.wal_bytes_written,
                    recovery_latency_us: crashed.end_time.saturating_sub(clean.end_time),
                    stale_max_us: crashed.staleness_percentile(100.0).unwrap_or(0),
                    stale_bound_us: clean_max + window + retransmit_allowance,
                    quiescent: clean.quiescent && crashed.quiescent,
                };
                let detail = E17Detail {
                    updates: scenario.txns.len(),
                    crash_window: (down_at, down_at + window),
                };
                (row, detail)
            })
            .collect()
    }

    fn invariants(rows: &[E17Row]) -> Vec<String> {
        let mut v = Vec::new();
        for row in rows {
            if !row.converged {
                v.push(format!(
                    "E17 ckpt={}: crashed run did not converge to the fault-free bags and fingerprints",
                    row.checkpoint_every
                ));
            }
            if row.recoveries == 0 {
                v.push(format!(
                    "E17 ckpt={}: no recovery fired — the crash window missed the run",
                    row.checkpoint_every
                ));
            }
            if row.stale_max_us > row.stale_bound_us {
                v.push(format!(
                    "E17 ckpt={}: recovery staleness spike {}µs exceeds the recorded bound {}µs",
                    row.checkpoint_every, row.stale_max_us, row.stale_bound_us
                ));
            }
            if row.wal_bytes_replayed > row.wal_bytes_written {
                v.push(format!(
                    "E17 ckpt={}: replayed {} WAL bytes but only {} were ever written",
                    row.checkpoint_every, row.wal_bytes_replayed, row.wal_bytes_written
                ));
            }
            if row.checkpoint_copied_tuples != 0 {
                v.push(format!(
                    "E17 ckpt={}: {} checkpoints copied {} view tuples — an image must share the live views' structure",
                    row.checkpoint_every, row.checkpoints_taken, row.checkpoint_copied_tuples
                ));
            }
            if !row.quiescent {
                v.push(format!(
                    "E17 ckpt={}: a run did not drain",
                    row.checkpoint_every
                ));
            }
        }
        for pair in rows.windows(2) {
            if pair[1].checkpoint_every > pair[0].checkpoint_every
                && pair[1].wal_bytes_replayed < pair[0].wal_bytes_replayed
            {
                v.push(format!(
                    "E17: replayed WAL bytes fell from {} (ckpt={}) to {} (ckpt={}) — rarer checkpoints must never shorten the replay",
                    pair[0].wal_bytes_replayed,
                    pair[0].checkpoint_every,
                    pair[1].wal_bytes_replayed,
                    pair[1].checkpoint_every
                ));
            }
        }
        v
    }
}

/// The E17 workload: `views` full-span SWEEP views over an `n`-source
/// chain, constant 200 ms gaps — sparse enough that every sweep (even one
/// interrupted by the crash window and re-driven through the transport)
/// finishes before the next update arrives, which pins the install
/// fingerprint on both the crashed and fault-free runs.
fn recovery_scenario(n: usize, updates: usize, views: usize) -> MultiViewScenario {
    let stream = StreamConfig {
        n_sources: n,
        initial_per_source: 20,
        updates,
        mean_gap: 200_000,
        gap: dw_workload::GapKind::Constant,
        domain: 10,
        keyed: true,
        seed: 0xE17,
        ..Default::default()
    };
    chain_views(stream, views, 0xE17)
}

// ----------------------------------------------------------------- E18

row! {
    /// One shard-count row of the E18 (sharded scaling) phase.
    ///
    /// Every row replays the *same* logical load — identical source count,
    /// update count and arrival gaps, seeded identically — banded for `S`
    /// shards, and runs it through the sharded scheduler. The `shards = 1`
    /// row is the serialization baseline the speedups divide. Makespan is
    /// deterministic **virtual time** (last install minus first arrival), so
    /// the speedup column is exact and machine-independent; the gate demands
    /// near-linear scaling (`≥ 0.7·S`) and that shard-local sweeps stay on
    /// the unsharded cost line: exactly `2(n−1)` messages per update, zero
    /// escalations, and an install sequence identical to the unsharded
    /// engine on the same scenario (`conforms`).
    E18Row in e18 as "E18" / "e18_sharded" {
        /// Shard count `S` (1 = the serialization baseline).
        shards: u64 = Key,
        /// Number of data sources in the base chain.
        n: u64 = Info,
        /// Number of registered full-span SWEEP views.
        views: u64 = Info,
        /// Updates the warehouse processed.
        updates: u64 = Info,
        /// Virtual-time maintenance makespan: last install − first arrival (µs).
        makespan_us: u64 = Ratio(Higher, "makespan"),
        /// `makespan(S = 1) / makespan(S)` — exact, deterministic.
        speedup: f64 = Ratio(Lower, "speedup"),
        /// The gated floor: `0.7·S` for `S > 1`, `1.0` for the baseline row.
        expected_min_speedup: f64 = Info,
        /// Measured query/answer messages per update.
        msgs_per_update: f64 = Info,
        /// The invariant: shard-local sweeps pay the same `2(n−1)`.
        expected_msgs_per_update: f64 = Info,
        /// Updates whose delta touched more than one band (0 on this workload).
        escalations: u64 = Info,
        /// Peak concurrently in-flight sweep lanes.
        max_lanes: u64 = Info,
        /// Final bags, install fingerprints and query count all matched the
        /// unsharded engine on the same scenario.
        conforms: bool = Info,
        /// Run drained to quiescence.
        quiescent: bool = Info,
    }
}

impl Phase for E18Row {
    const LAW: &'static str = "sharded sweeps on 2(n\u{2212}1) with zero escalations, speedup \u{2265} 0.7\u{b7}S, in the unsharded install order";
    /// The banded scenario and its shard map (the `sharded` binary's
    /// livenet arm replays it on OS threads).
    type Detail = ShardedScenario;

    /// One logical load (same n, update count and constant arrival gaps),
    /// banded for each shard count, each run beside the *unsharded*
    /// engine on the same scenario.
    fn run(smoke: bool) -> Vec<(E18Row, ShardedScenario)> {
        let updates = pick(smoke, 24, 64);
        let mut base_makespan = 0u64;
        [1usize, 2, 4]
            .into_iter()
            .map(|s| {
                let generated = sharded_scenario(s, updates);
                let n = generated.scenario.base.num_relations();
                let flat = MultiViewExperiment::new(generated.scenario.clone())
                    .run()
                    .unwrap();
                let sharded = MultiViewExperiment::new(generated.scenario.clone())
                    .shards(generated.map.clone())
                    .run()
                    .unwrap();
                let stats = sharded.shard_stats.as_ref().expect("sharded run");
                let conforms = flat.quiescent
                    && sharded.install_fingerprint() == flat.install_fingerprint()
                    && sharded
                        .views
                        .iter()
                        .zip(&flat.views)
                        .all(|(a, b)| a.view == b.view)
                    && sharded.query_messages() == flat.query_messages();
                let makespan = sharded.makespan();
                if s == 1 {
                    base_makespan = makespan;
                }
                let row = E18Row {
                    shards: s as u64,
                    n: n as u64,
                    views: generated.scenario.views.len() as u64,
                    updates: sharded.scheduler_metrics.updates_received,
                    makespan_us: makespan,
                    speedup: base_makespan as f64 / makespan as f64,
                    expected_min_speedup: if s == 1 { 1.0 } else { 0.7 * s as f64 },
                    msgs_per_update: sharded.messages_per_update(),
                    expected_msgs_per_update: (2 * (n - 1)) as f64,
                    escalations: stats.escalations,
                    max_lanes: stats.max_concurrent_lanes as u64,
                    conforms,
                    quiescent: sharded.quiescent,
                };
                (row, generated)
            })
            .collect()
    }

    fn invariants(rows: &[E18Row]) -> Vec<String> {
        let mut v = Vec::new();
        let e18_base = rows.iter().find(|r| r.shards == 1);
        for row in rows {
            let expect = (2 * (row.n - 1)) as f64;
            if (row.expected_msgs_per_update - expect).abs() > EXACT_EPS {
                v.push(format!(
                    "E18 S={}: recorded expectation {} != 2(n-1) = {expect}",
                    row.shards, row.expected_msgs_per_update
                ));
            }
            if (row.msgs_per_update - expect).abs() > EXACT_EPS {
                v.push(format!(
                    "E18 S={}: msgs/update {} != 2(n-1) = {expect} — shard locality must buy concurrency, never extra traffic",
                    row.shards, row.msgs_per_update
                ));
            }
            if row.escalations != 0 {
                v.push(format!(
                    "E18 S={}: {} escalations on a shard-local workload — the partitioner misclassified pure updates",
                    row.shards, row.escalations
                ));
            }
            let floor = if row.shards == 1 {
                1.0
            } else {
                0.7 * row.shards as f64
            };
            if (row.expected_min_speedup - floor).abs() > EXACT_EPS {
                v.push(format!(
                    "E18 S={}: recorded speedup floor {} != 0.7*S = {floor}",
                    row.shards, row.expected_min_speedup
                ));
            }
            if row.speedup + EXACT_EPS < row.expected_min_speedup {
                v.push(format!(
                    "E18 S={}: speedup {:.3} below the {:.2} near-linear floor — parallel lanes are not cutting the makespan",
                    row.shards, row.speedup, row.expected_min_speedup
                ));
            }
            if let Some(base) = e18_base {
                let expect_speedup = base.makespan_us as f64 / row.makespan_us as f64;
                if (row.speedup - expect_speedup).abs() > EXACT_EPS {
                    v.push(format!(
                        "E18 S={}: recorded speedup {} != makespan(1)/makespan(S) = {expect_speedup}",
                        row.shards, row.speedup
                    ));
                }
            }
            if row.shards > 1 && row.max_lanes < 2 {
                v.push(format!(
                    "E18 S={}: lanes never overlapped — partitioning bought no concurrency",
                    row.shards
                ));
            }
            if !row.conforms {
                v.push(format!(
                    "E18 S={}: sharded run diverged from the unsharded engine (bags, install sequence or query count)",
                    row.shards
                ));
            }
            if !row.quiescent {
                v.push(format!("E18 S={}: run did not drain", row.shards));
            }
        }
        v
    }
}

/// The E18 workload: a banded chain whose updates are all shard-local
/// (pure in one band), homes assigned round-robin so every lane carries
/// an equal share, arriving every 300 µs — far faster than a sweep's
/// round trips, so the S-lane engine overlaps what the 1-lane engine
/// serializes.
fn sharded_scenario(shards: usize, updates: usize) -> ShardedScenario {
    ShardedConfig {
        n_sources: 3,
        shards,
        updates,
        mean_gap: 300,
        cross_shard_frac: 0.0,
        seed: 0xE18,
        ..Default::default()
    }
    .generate()
    .unwrap()
}

// ----------------------------------------------------------------- E19

row! {
    /// One read-mix row of the E19 (serving layer) phase.
    ///
    /// Each row replays the *same* seeded multi-view maintenance load with a
    /// different concurrent read mix resolved against the snapshot-pinned
    /// serving layer, and pairs it with a **no-reader referee**: the identical
    /// harness with an empty read schedule. Because reads resolve against
    /// immutable epoch snapshots at the warehouse, the maintenance engine must
    /// be bit-for-bit oblivious to them — same virtual-time makespan, same
    /// message cost. Every answered read is audited against a fresh recompute
    /// of its view at the pinned epoch, and every accept/reject verdict
    /// against the delivery-ledger staleness oracle.
    E19Row in e19 as "E19" / "e19_serve" {
        /// Read-mix label ("point-heavy", "scan-heavy").
        mix: String = Key,
        /// Number of data sources in the base chain.
        n: u64 = Info,
        /// Number of registered views.
        views: u64 = Info,
        /// Updates the warehouse processed.
        updates: u64 = Info,
        /// Point + scan reads issued (subscriptions excluded).
        reads: u64 = Info,
        /// Reads answered from a pinned epoch.
        answered: u64 = Info,
        /// Reads rejected with `TooStale`.
        rejected: u64 = Info,
        /// Rejections the delivery-ledger oracle demands. Must equal
        /// `rejected` exactly.
        expected_rejected: u64 = Info,
        /// Answered reads per virtual second — the serving throughput the
        /// gate tracks against the baseline.
        read_qps: f64 = Ratio(Lower, "read qps"),
        /// Virtual-time maintenance makespan under concurrent readers (µs).
        makespan_us: u64 = Ratio(Higher, "makespan"),
        /// The no-reader referee's makespan (µs). Must equal `makespan_us`
        /// exactly: readers never block installs.
        baseline_makespan_us: u64 = Info,
        /// Query/answer messages per update under concurrent readers.
        msgs_per_update: f64 = Info,
        /// The no-reader referee's message cost. Must match exactly: reads
        /// are warehouse-local and add zero network traffic.
        baseline_msgs_per_update: f64 = Info,
        /// Epoch snapshots published by the install pipeline.
        snapshots_published: u64 = Info,
        /// Unpinned snapshots garbage-collected.
        snapshots_gced: u64 = Info,
        /// Every answered read equaled a fresh recompute at its pinned epoch
        /// and every verdict matched the staleness oracle.
        reads_match_recompute: bool = Info,
        /// Every subscription stream replayed the install log exactly, in
        /// ticket order.
        subs_match_installs: bool = Info,
        /// Run and no-reader referee drained to quiescence.
        quiescent: bool = Info,
    }
}

/// What the `serve` binary uses besides the E19 row.
pub struct E19Detail {
    /// The maintenance load (the livenet arm replays it on OS threads).
    pub scenario: MultiViewScenario,
    /// Operations in the read schedule, subscriptions included.
    pub reads_scheduled: usize,
}

impl Phase for E19Row {
    const LAW: &'static str = "snapshot-pinned reads at fresh-recompute fidelity, oracle-exact staleness rejections, zero install interference";
    type Detail = E19Detail;

    /// One seeded multi-view maintenance load, replayed once per read mix
    /// with concurrent snapshot-pinned readers and once as a **no-reader
    /// referee**.
    fn run(smoke: bool) -> Vec<(E19Row, E19Detail)> {
        let scenario = serve_scenario(pick(smoke, 16, 48));
        let n = scenario.base.num_relations();
        let views = scenario.views.len();
        let referee = serving(&scenario, Vec::new()).run().unwrap();
        let mixes: [(&str, f64, f64); 2] = [("point-heavy", 0.8, 0.15), ("scan-heavy", 0.15, 0.8)];
        mixes
            .into_iter()
            .map(|(mix, point_frac, scan_frac)| {
                let reads = serve_read_mix(smoke, views, point_frac, scan_frac);
                let reads_scheduled = reads.len();
                let issued = reads
                    .iter()
                    .filter(|r| !matches!(r.kind, ReadKind::Subscribe))
                    .count() as u64;
                let report = serving(&scenario, reads).run().unwrap();
                let stats = &report.served().unwrap().serve_stats;
                let audit = audit_reads(&scenario, &report).unwrap();
                debug_assert_eq!(audit.reads, issued);
                let row = E19Row {
                    mix: mix.to_string(),
                    n: n as u64,
                    views: views as u64,
                    updates: report.scheduler_metrics.updates_received,
                    reads: audit.reads,
                    answered: audit.answered,
                    rejected: audit.rejected,
                    expected_rejected: audit.expected_rejected,
                    read_qps: audit.answered as f64 * 1e6 / report.end_time.max(1) as f64,
                    makespan_us: report.makespan(),
                    baseline_makespan_us: referee.makespan(),
                    msgs_per_update: report.messages_per_update(),
                    baseline_msgs_per_update: referee.messages_per_update(),
                    snapshots_published: stats.snapshots_published,
                    snapshots_gced: stats.snapshots_gced,
                    reads_match_recompute: audit.clean(),
                    subs_match_installs: report.subscriptions_match_installs(),
                    quiescent: report.quiescent && referee.quiescent,
                };
                let detail = E19Detail {
                    scenario: scenario.clone(),
                    reads_scheduled,
                };
                (row, detail)
            })
            .collect()
    }

    fn invariants(rows: &[E19Row]) -> Vec<String> {
        let mut v = Vec::new();
        let e19_mixes: BTreeSet<&str> = rows.iter().map(|r| r.mix.as_str()).collect();
        if e19_mixes.len() < 2 {
            v.push(format!(
                "E19: serving must be exercised at >= 2 distinct read-mix levels, got {:?}",
                e19_mixes
            ));
        }
        for row in rows {
            if row.makespan_us != row.baseline_makespan_us {
                v.push(format!(
                    "E19 {}: readers must never block installs — makespan {}us under readers != {}us no-reader baseline",
                    row.mix, row.makespan_us, row.baseline_makespan_us
                ));
            }
            if (row.msgs_per_update - row.baseline_msgs_per_update).abs() > EXACT_EPS {
                v.push(format!(
                    "E19 {}: readers added network traffic — {} msgs/update under readers != {} no-reader baseline",
                    row.mix, row.msgs_per_update, row.baseline_msgs_per_update
                ));
            }
            if row.answered + row.rejected != row.reads {
                v.push(format!(
                    "E19 {}: answered {} + rejected {} != {} reads issued — reads went unaccounted",
                    row.mix, row.answered, row.rejected, row.reads
                ));
            }
            if row.rejected != row.expected_rejected {
                v.push(format!(
                    "E19 {}: staleness rejections {} diverged from the delivery-ledger oracle's {}",
                    row.mix, row.rejected, row.expected_rejected
                ));
            }
            if !row.reads_match_recompute {
                v.push(format!(
                    "E19 {}: an answered read diverged from fresh recompute at its pinned epoch",
                    row.mix
                ));
            }
            if !row.subs_match_installs {
                v.push(format!(
                    "E19 {}: a subscription stream did not replay the install log in ticket order",
                    row.mix
                ));
            }
            if row.snapshots_published == 0 {
                v.push(format!(
                    "E19 {}: the install pipeline published no snapshots — the serving layer saw nothing",
                    row.mix
                ));
            }
            if row.answered == 0 || row.read_qps <= 0.0 {
                v.push(format!(
                    "E19 {}: answered {} reads (read_qps {}) — the read path is dead",
                    row.mix, row.answered, row.read_qps
                ));
            }
            if !row.quiescent {
                v.push(format!("E19 {}: run did not drain", row.mix));
            }
        }
        v
    }
}

/// One serving arm of E19/E21: the maintenance load with `reads`
/// resolved beside it (an empty schedule is the no-reader referee). The
/// delivery-ledger oracles referee these runs, so the per-view
/// consistency checker — CPU only, no recorded field — stays off.
fn serving(scenario: &MultiViewScenario, reads: Vec<ReadOp>) -> MultiViewExperiment {
    MultiViewExperiment::new(scenario.clone())
        .reads(reads)
        .check_consistency(false)
}

/// The E19 maintenance load: `3` full-span SWEEP views over a 3-source
/// chain, updates arriving faster than a sweep's round trips so the
/// install queue (and therefore observable staleness) actually builds —
/// tight read bounds then have something to reject.
fn serve_scenario(updates: usize) -> MultiViewScenario {
    let stream = StreamConfig {
        n_sources: 3,
        initial_per_source: 20,
        updates,
        mean_gap: 1_500,
        domain: 12,
        keyed: true,
        seed: 0xE19,
        ..Default::default()
    };
    chain_views(stream, 3, 0xE19)
}

/// The E19 read schedule: 4 readers issuing seeded point/scan reads over
/// the scenario's span, half of them carrying a staleness bound tight
/// enough to be rejected while the sweep queue is deep.
fn serve_read_mix(smoke: bool, n_views: usize, point_frac: f64, scan_frac: f64) -> Vec<ReadOp> {
    ReadMixConfig {
        readers: 4,
        reads_per_reader: pick(smoke, 8, 20),
        start: 500,
        mean_gap: 3_000,
        n_views,
        point_frac,
        scan_frac,
        bound_frac: 0.5,
        bound_window: 2_500,
        seed: 0xE19,
        ..Default::default()
    }
    .generate()
}

// ----------------------------------------------------------------- E20

row! {
    /// One stack-shape row of the E20 (maintenance DAG) phase.
    ///
    /// Each row replays the *same* seeded base-view maintenance load with a
    /// handwritten view-over-view stack registered on top, and pairs it with
    /// a **stack-free referee**: the identical scenario with no derived
    /// views. Derived views are fed locally by the cascade from the parent's
    /// committed install delta, so the source-message bill must be
    /// byte-identical — the `2(n−1)` toll is paid exactly once at the base
    /// layer, and child maintenance costs exactly zero source messages.
    /// Every derived view is audited per install epoch against a fresh
    /// recompute of its operator over the parent's same-epoch snapshot.
    E20Row in e20 as "E20" / "e20_dag" {
        /// Stack-shape label ("sibling-fanout", "deep-stack").
        label: String = Key,
        /// Number of data sources in the base chain.
        n: u64 = Info,
        /// Registered base views.
        views: u64 = Info,
        /// Registered derived views in the stack.
        derived: u64 = Info,
        /// Updates the warehouse processed.
        updates: u64 = Info,
        /// The paper line the base bill must sit on: `2(n−1)`.
        expected_msgs_per_update: f64 = Info,
        /// Query/answer messages per update with the stack registered.
        msgs_per_update: f64 = Info,
        /// The stack-free referee's message cost. Must match exactly.
        baseline_msgs_per_update: f64 = Info,
        /// |query messages with stack − without stack|. Must be exactly 0:
        /// child maintenance never touches a source.
        derived_source_msgs: u64 = Info,
        /// Child installs the cascade performed.
        child_installs: u64 = Ratio(Lower, "child installs"),
        /// Linear sibling derivations served from the shared memo.
        shared_derivations: u64 = Info,
        /// Linear derivations evaluated fresh.
        linear_evals: u64 = Info,
        /// shared/(shared+fresh) — the sweep-sharing ratio the gate tracks.
        sharing_ratio: f64 = Ratio(Lower, "sharing ratio"),
        /// Every derived view (σ/Π and Σ alike) matched the fresh-recompute
        /// oracle at every audited install epoch and at quiescence.
        aggregate_fidelity: bool = Info,
        /// Both runs drained to quiescence.
        quiescent: bool = Info,
    }
}

impl Phase for E20Row {
    const LAW: &'static str = "derived stacks add exactly zero source messages to the 2(n\u{2212}1) base bill, at fresh-recompute fidelity";
    type Detail = ();

    /// One seeded base-view load, replayed once per stack shape with the
    /// stack registered and once as a **stack-free referee**.
    fn run(smoke: bool) -> Vec<(E20Row, ())> {
        let updates = pick(smoke, 14, 40);
        ["sibling-fanout", "deep-stack"]
            .into_iter()
            .map(|label| {
                let scenario = dag_scenario(updates, label);
                let n = scenario.base.num_relations();
                let views = scenario.views.len();
                let derived = scenario.derived.len();
                let mut referee_scenario = scenario.clone();
                referee_scenario.derived.clear();
                let sweep = |scenario| {
                    MultiViewExperiment::new(scenario)
                        .latency(LatencyModel::Constant(2_000))
                        .run()
                        .unwrap()
                };
                let (report, referee) = (sweep(scenario), sweep(referee_scenario));
                let row = E20Row {
                    label: label.to_string(),
                    n: n as u64,
                    views: views as u64,
                    derived: derived as u64,
                    updates: report.scheduler_metrics.updates_received,
                    expected_msgs_per_update: (2 * (n - 1)) as f64,
                    msgs_per_update: report.messages_per_update(),
                    baseline_msgs_per_update: referee.messages_per_update(),
                    derived_source_msgs: report.query_messages().abs_diff(referee.query_messages()),
                    child_installs: report.cascade.child_installs,
                    shared_derivations: report.cascade.shared_derivations,
                    linear_evals: report.cascade.linear_evals,
                    sharing_ratio: report.sharing_ratio(),
                    aggregate_fidelity: report.derived_clean(),
                    quiescent: report.quiescent && referee.quiescent,
                };
                (row, ())
            })
            .collect()
    }

    fn invariants(rows: &[E20Row]) -> Vec<String> {
        let mut v = Vec::new();
        let e20_labels: BTreeSet<&str> = rows.iter().map(|r| r.label.as_str()).collect();
        if e20_labels.len() < 2 {
            v.push(format!(
                "E20: the DAG must be exercised at >= 2 distinct stack shapes, got {:?}",
                e20_labels
            ));
        }
        for row in rows {
            let expect = (2 * (row.n - 1)) as f64;
            if (row.expected_msgs_per_update - expect).abs() > EXACT_EPS {
                v.push(format!(
                    "E20 {}: recorded expectation {} != 2(n-1) = {expect}",
                    row.label, row.expected_msgs_per_update
                ));
            }
            if (row.msgs_per_update - expect).abs() > EXACT_EPS {
                v.push(format!(
                    "E20 {}: base maintenance left the 2(n-1) line — {} msgs/update != {expect}",
                    row.label, row.msgs_per_update
                ));
            }
            if (row.msgs_per_update - row.baseline_msgs_per_update).abs() > EXACT_EPS
                || row.derived_source_msgs != 0
            {
                v.push(format!(
                    "E20 {}: derived maintenance touched the sources — {} msgs/update with the \
                     stack vs {} without ({} extra source messages); children must be fed \
                     locally by the cascade",
                    row.label,
                    row.msgs_per_update,
                    row.baseline_msgs_per_update,
                    row.derived_source_msgs
                ));
            }
            if row.derived == 0 {
                v.push(format!("E20 {}: no derived stack registered", row.label));
            }
            if row.child_installs == 0 {
                v.push(format!(
                    "E20 {}: the cascade never fed a child — derived views went unmaintained",
                    row.label
                ));
            }
            if !row.aggregate_fidelity {
                v.push(format!(
                    "E20 {}: a derived view diverged from fresh recompute over its parent at \
                     an install epoch",
                    row.label
                ));
            }
            if row.label == "sibling-fanout" && row.shared_derivations != 2 * row.linear_evals {
                v.push(format!(
                    "E20 {}: the sibling memo broke — {} shared derivations != 2 x {} fresh \
                     evaluations for 3 identical siblings",
                    row.label, row.shared_derivations, row.linear_evals
                ));
            }
            if !row.quiescent {
                v.push(format!("E20 {}: run did not drain", row.label));
            }
        }
        v
    }
}

/// The E20 maintenance load: one full-span SWEEP base view over a
/// 3-source chain, with the named stack registered on top.
fn dag_scenario(updates: usize, stack: &str) -> MultiViewScenario {
    let stream = StreamConfig {
        n_sources: 3,
        initial_per_source: 20,
        updates,
        mean_gap: 1_200,
        domain: 10,
        keyed: true,
        seed: 0xE20,
        ..Default::default()
    };
    let mut scenario = chain_views(stream, 1, 0xE20);
    scenario.derived = dag_stack(stack);
    scenario
}

/// The two stack shapes E20 measures. `sibling-fanout`: three
/// *identical* σ/Π siblings of the base view — the cascade's shared memo
/// must pay one evaluation and two hits per epoch (shared = 2·fresh,
/// checked exactly by the gate) — plus one Σ/group-by sibling.
/// `deep-stack`: σ → Σ → σ, three layers of view-over-view with the
/// aggregate in the middle.
fn dag_stack(label: &str) -> Vec<DerivedSpec> {
    let hot = |name: &str, parent: &str| DerivedSpec {
        name: name.to_string(),
        parent: parent.to_string(),
        op: DerivedOp::Select {
            selects: vec![(0, CmpOp::Ge, Value::Int(2))],
            projection: Some(vec![0, 1]),
        },
    };
    match label {
        "sibling-fanout" => vec![
            hot("hot-a", "V0"),
            hot("hot-b", "V0"),
            hot("hot-c", "V0"),
            DerivedSpec {
                name: "counts".to_string(),
                parent: "V0".to_string(),
                op: DerivedOp::Aggregate(AggregateSpec {
                    group_by: vec![0],
                    aggs: vec![AggFn::CountRows, AggFn::Sum(1)],
                }),
            },
        ],
        "deep-stack" => vec![
            hot("hot", "V0"),
            DerivedSpec {
                name: "counts".to_string(),
                parent: "hot".to_string(),
                op: DerivedOp::Aggregate(AggregateSpec {
                    group_by: vec![0],
                    aggs: vec![AggFn::CountRows, AggFn::Max(1)],
                }),
            },
            DerivedSpec {
                name: "busy".to_string(),
                parent: "counts".to_string(),
                op: DerivedOp::Select {
                    selects: vec![(1, CmpOp::Ge, Value::Int(2))],
                    projection: None,
                },
            },
        ],
        other => panic!("unknown E20 stack shape '{other}'"),
    }
}

// ----------------------------------------------------------------- E21

row! {
    /// One key-distribution row of the E21 (serve at scale) phase.
    ///
    /// Each row replays the *same* seeded maintenance load under a
    /// point-heavy read mix, every point read answered through the pinned
    /// epoch's point index — the store's one route. Cost is a
    /// deterministic work proxy — tuples examined — never wall-clock: an
    /// index build bills the bag walked once, an incremental derive the
    /// delta-touched groups, an answer the length of its group. The
    /// yardstick is analytic: what linearly scanning each answered point
    /// read's pinned epoch would examine, `Σ |V_epoch|`. Every answer must
    /// equal the recompute oracle at its pinned epoch; the indexed work
    /// must undercut the scan by `expected_min_speedup`. A **lag arm**
    /// runs bounded subscriptions with polls under the same load and
    /// proves every overflowed subscriber's deltas-plus-resume-snapshot
    /// history equivalent to the unbounded stream. A **scale arm**
    /// publishes one fixed delta stream over a 27k- and a 270k-tuple view
    /// and counts the tuples each publish copied: epochs share structure,
    /// so the count follows `|Δ|` and must stay flat in the view size.
    E21Row in e21 as "E21" / "e21_serve_scale" {
        /// Key-distribution label ("hot-key-skew", "uniform").
        mix: String = Key,
        /// Number of data sources in the base chain.
        n: u64 = Info,
        /// Number of registered views.
        views: u64 = Info,
        /// Updates the warehouse processed.
        updates: u64 = Info,
        /// Point reads issued.
        point_reads: u64 = Info,
        /// Tuples a linear scan of each answered point read's pinned epoch
        /// would examine, `Σ |V_epoch|` — analytic, from the recompute
        /// oracle's views.
        linear_work_tuples: u64 = Info,
        /// Tuples the store examined answering through the index (answered
        /// groups, index builds, incremental derives).
        index_work_tuples: u64 = Ratio(Higher, "indexed work"),
        /// `linear_work_tuples / max(1, index_work_tuples)` — the gated
        /// point-read speedup.
        speedup: f64 = Ratio(Lower, "point-read speedup"),
        /// The floor `speedup` must clear (5.0 on the skewed mix).
        expected_min_speedup: f64 = Info,
        /// Full index builds (first point read on a `(view, epoch,
        /// column)`).
        index_builds: u64 = Info,
        /// Incremental index derivations at publish.
        index_derives: u64 = Info,
        /// Point reads answered through an already-present index.
        index_hits: u64 = Info,
        /// Serve-side bag deep copies. Must be exactly 0: neither
        /// publishing nor reading copies a bag.
        bags_deep_cloned: u64 = Info,
        /// Tuples the run's publishes copied (the touched chunks of each
        /// install's view, copy-on-write) — exact and deterministic.
        publish_copied_tuples: u64 = Ratio(Higher, "publish copied tuples"),
        /// Epoch snapshots published by the install pipeline.
        snapshots_published: u64 = Info,
        /// Every answered read equalled a fresh recompute of its view at
        /// its pinned epoch, and every staleness verdict the oracle's.
        reads_match_recompute: bool = Info,
        /// Virtual-time maintenance makespan under the readers (µs).
        makespan_us: u64 = Info,
        /// The no-reader referee's makespan (µs). Must equal `makespan_us`
        /// exactly: readers change read cost, never maintenance.
        baseline_makespan_us: u64 = Info,
        /// Bounded subscriptions that overflowed their `max_lag` bound in
        /// the lag arm. Must be ≥ 1: the backpressure path was exercised.
        lag_events: u64 = Info,
        /// Snapshot resumes taken by lagged subscribers.
        lag_resumes: u64 = Info,
        /// Every lagged subscriber's delivered-deltas-plus-resume-snapshot
        /// history reconstructed the unbounded stream exactly.
        lag_stream_equivalent: bool = Info,
        /// Scale arm: tuples copied publishing the fixed delta stream over
        /// the 27k-tuple view.
        scale_copied_27k: u64 = Info,
        /// Scale arm: the same stream over the 270k-tuple view.
        scale_copied_270k: u64 = Info,
        /// `scale_copied_270k / scale_copied_27k`. Must stay ≤ 1.5: what
        /// a publish copies does not grow with the view.
        scale_copied_ratio: f64 = Ratio(Higher, "publish copied-tuples ratio 270k/27k"),
        /// The read run, the lag arm and the no-reader referee all drained
        /// to quiescence.
        quiescent: bool = Info,
    }
}

impl Phase for E21Row {
    const LAW: &'static str = "indexed point answers equal the recompute oracle at \u{2265} 5\u{d7} less work than scanning the pinned epoch on the skewed mix, zero bag deep copies with publish copying O(|\u{394}|) tuples flat in the view size, stream-equivalent lag recovery";
    /// The lag arm's stream-equivalence audit (the `serve_scale` binary
    /// prints its subscriber and delivery counts).
    type Detail = LagAudit;

    /// The E19 maintenance load under a point-heavy read schedule per key
    /// distribution, audited read by read against the recompute oracle,
    /// beside a no-reader referee.
    fn run(smoke: bool) -> Vec<(E21Row, LagAudit)> {
        let scenario = serve_scenario(pick(smoke, 16, 48));
        let n = scenario.base.num_relations();
        let views = scenario.views.len();
        let referee = serving(&scenario, Vec::new()).run().unwrap();

        // The lag arm: the same maintenance load under a poll-heavy mix
        // with one bounded subscription (max_lag = 1) per view. It does
        // not depend on the key distribution, so every row records it.
        let lag_reads = ReadMixConfig {
            n_views: views,
            ..ReadMixConfig::laggy_subscribers(4, pick(smoke, 10, 24), 0xE21)
        }
        .generate();
        let lagged = serving(&scenario, lag_reads)
            .bounded_subscriptions(1)
            .run()
            .unwrap();
        let lag_audit = audit_lag_recoveries(&scenario, &lagged).unwrap();
        let (scale_27k, scale_270k) = (publish_copied(27_000), publish_copied(270_000));

        let mixes: [(&str, f64, f64); 2] = [("hot-key-skew", 1.1, 5.0), ("uniform", 0.0, 1.0)];
        mixes
            .into_iter()
            .map(|(mix, zipf_theta, expected_min_speedup)| {
                let reads = scale_read_mix(smoke, views, zipf_theta);
                let point_reads = reads
                    .iter()
                    .filter(|r| matches!(r.kind, ReadKind::Point { .. }))
                    .count() as u64;
                let served = serving(&scenario, reads).run().unwrap();
                let audit = audit_reads(&scenario, &served).unwrap();
                let stats = &served.served().unwrap().serve_stats;
                let linear_work = audit.point_scan_tuples;
                let index_work = stats.read_work_tuples + stats.index_maintenance_tuples;

                let row = E21Row {
                    mix: mix.to_string(),
                    n: n as u64,
                    views: views as u64,
                    updates: served.scheduler_metrics.updates_received,
                    point_reads,
                    linear_work_tuples: linear_work,
                    index_work_tuples: index_work,
                    speedup: linear_work as f64 / index_work.max(1) as f64,
                    expected_min_speedup,
                    index_builds: stats.point_index_builds,
                    index_derives: stats.point_index_derived,
                    index_hits: stats.point_index_hits,
                    bags_deep_cloned: stats.bags_deep_cloned,
                    publish_copied_tuples: stats.publish_copied_tuples,
                    snapshots_published: stats.snapshots_published,
                    reads_match_recompute: audit.clean(),
                    makespan_us: served.makespan(),
                    baseline_makespan_us: referee.makespan(),
                    lag_events: lag_audit.lag_events,
                    lag_resumes: lag_audit.resumes,
                    lag_stream_equivalent: lag_audit.clean(),
                    scale_copied_27k: scale_27k,
                    scale_copied_270k: scale_270k,
                    scale_copied_ratio: scale_270k as f64 / scale_27k.max(1) as f64,
                    quiescent: referee.quiescent && served.quiescent && lagged.quiescent,
                };
                (row, lag_audit.clone())
            })
            .collect()
    }

    fn invariants(rows: &[E21Row]) -> Vec<String> {
        let mut v = Vec::new();
        let e21_mixes: BTreeSet<&str> = rows.iter().map(|r| r.mix.as_str()).collect();
        if e21_mixes.len() < 2 {
            v.push(format!(
                "E21: serving scale must be exercised at >= 2 distinct key distributions, got {:?}",
                e21_mixes
            ));
        }
        for row in rows {
            if !row.reads_match_recompute {
                v.push(format!(
                    "E21 {}: an indexed answer diverged from the recompute oracle at its pinned \
                     epoch — the point index is visible to correctness",
                    row.mix
                ));
            }
            if row.speedup + EXACT_EPS < row.expected_min_speedup {
                v.push(format!(
                    "E21 {}: point-read speedup {:.2} below the {}x floor — scanning the pinned \
                     epochs examines {} tuples vs {} through the index",
                    row.mix,
                    row.speedup,
                    row.expected_min_speedup,
                    row.linear_work_tuples,
                    row.index_work_tuples
                ));
            }
            if row.bags_deep_cloned != 0 {
                v.push(format!(
                    "E21 {}: {} serve-side bag deep copies over {} installs — epochs must share \
                     structure, never copy a bag",
                    row.mix, row.bags_deep_cloned, row.snapshots_published
                ));
            }
            if row.scale_copied_27k == 0 || row.scale_copied_ratio > SCALE_COPIED_MAX_RATIO {
                v.push(format!(
                    "E21 {}: publishing the same deltas copied {} tuples over a 270k-tuple view \
                     vs {} over 27k (ratio {:.2} > {}) — publish must cost O(|\u{394}|), not O(|V|)",
                    row.mix,
                    row.scale_copied_270k,
                    row.scale_copied_27k,
                    row.scale_copied_ratio,
                    SCALE_COPIED_MAX_RATIO
                ));
            }
            if row.makespan_us != row.baseline_makespan_us {
                v.push(format!(
                    "E21 {}: readers perturbed maintenance — makespan {}us != {}us no-reader \
                     baseline",
                    row.mix, row.makespan_us, row.baseline_makespan_us
                ));
            }
            if row.index_builds == 0 || row.index_hits == 0 {
                v.push(format!(
                    "E21 {}: the point index never engaged ({} builds, {} hits)",
                    row.mix, row.index_builds, row.index_hits
                ));
            }
            if row.lag_events == 0 || row.lag_resumes == 0 {
                v.push(format!(
                    "E21 {}: backpressure never fired ({} lag events, {} resumes) — the bounded \
                     subscription arm is dead",
                    row.mix, row.lag_events, row.lag_resumes
                ));
            }
            if !row.lag_stream_equivalent {
                v.push(format!(
                    "E21 {}: a lagged subscriber's resumed stream diverged from the unbounded \
                     stream — Stale View Cleaning recovery is broken",
                    row.mix
                ));
            }
            if row.point_reads == 0 {
                v.push(format!("E21 {}: no point reads issued", row.mix));
            }
            if !row.quiescent {
                v.push(format!("E21 {}: run did not drain", row.mix));
            }
        }
        v
    }
}

/// Ceiling on E21's scale-arm ratio (copied tuples, 270k- over 27k-tuple
/// view, same deltas).
const SCALE_COPIED_MAX_RATIO: f64 = 1.5;

/// E21's scale arm: register a view of `tuples` rows with a read
/// frontend, publish 16 installs of 8 tuples each — half inserts of new
/// rows, half deletes of rows every view size holds — and return the
/// tuples those publishes copied.
fn publish_copied(tuples: i64) -> u64 {
    let view = Bag::from_tuples((0..tuples).map(|i| tup![i, i % 97]));
    let deltas = (1..=16i64).map(|epoch| {
        let inserts = (0..4).map(|k| (tup![-(epoch * 4 + k), k], 1));
        let deletes = (0..4).map(|k| epoch * 1_000 + k);
        let deletes = deletes.map(|i| (tup![i, i % 97], -1));
        inserts.chain(deletes).collect()
    });
    publish_copied_tuples(view, deltas)
}

/// The E21 read schedule: 6 readers hammering point lookups over a
/// 64-key domain at the given zipf skew — the mix where the per-epoch
/// index earns its keep.
fn scale_read_mix(smoke: bool, n_views: usize, zipf_theta: f64) -> Vec<ReadOp> {
    ReadMixConfig {
        n_views,
        zipf_theta,
        ..ReadMixConfig::hot_key_points(6, pick(smoke, 24, 60), 0xE21)
    }
    .generate()
}
