//! Serve-equivalence under seeded schedules: every read the snapshot
//! frontend answers must equal an **oracle evaluation at its pinned
//! epoch** — the view recomputed from first principles out of the
//! scenario's initial relations plus the txn deltas of exactly the
//! updates that epoch consumed — and every staleness verdict must match
//! an oracle re-derivation from the delivery-log prefix visible at issue
//! time. Subscription streams must replay the install log delta-for-delta
//! in ticket order.
//!
//! The headline theorem runs 128 seeded schedules (dense arrivals, mixed
//! point/scan/subscribe reads, tight and loose staleness bounds, flat and
//! sharded engines alternating). Two further suites aim state-crash
//! windows at the durable warehouse — the flat engine on sparse
//! schedules, the partitioned one on dense schedules with every lane in
//! flight — with reads scheduled *inside* the window: the frontend must keep answering from the last
//! committed epoch (or reject per the oracle), never block, and never
//! leak a torn or rolled-back state.
//!
//! `DW_FUZZ_SCHEDULES=<k>` multiplies the schedule count (`ci.sh --deep`
//! sets it; every failure message names the case seed for replay).

use dwsweep::prelude::*;

const SEED_BASE: u64 = 0x5E_0000;

/// Base schedule count, scaled by the `DW_FUZZ_SCHEDULES` multiplier.
fn cases(base: u64) -> u64 {
    std::env::var("DW_FUZZ_SCHEDULES")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .map_or(base, |mult| base * mult.max(1))
}

/// Dense multi-view scenario: updates arrive faster than a sweep's round
/// trips, so the install queue (and observable staleness) builds and
/// tight read bounds have something to reject.
fn dense_scenario(k: u64) -> MultiViewScenario {
    MultiViewConfig {
        stream: StreamConfig {
            n_sources: 3,
            initial_per_source: 12,
            domain: 8,
            updates: 8 + (k % 5) as usize,
            mean_gap: 1_200 + (k % 3) * 900,
            keyed: true,
            seed: SEED_BASE + k,
            ..Default::default()
        },
        n_views: 1 + (k % 3) as usize,
        view_seed: k * 41 + 13,
        full_span: false,
        n_derived: 0,
        derived_seed: 0,
    }
    .generate()
    .unwrap()
}

/// Sparse variant (constant 200 ms gaps) for the crash suites: every
/// sweep — even one re-driven through the transport after a crash —
/// completes before the next update, pinning the install fingerprint.
fn sparse_scenario(k: u64) -> MultiViewScenario {
    MultiViewConfig {
        stream: StreamConfig {
            n_sources: 3,
            initial_per_source: 15,
            domain: 8,
            updates: 4 + (k % 2) as usize,
            mean_gap: 200_000,
            gap: GapKind::Constant,
            keyed: true,
            seed: SEED_BASE + 0x1000 + k,
            ..Default::default()
        },
        n_views: 1 + (k % 3) as usize,
        view_seed: k * 37 + 11,
        full_span: false,
        n_derived: 0,
        derived_seed: 0,
    }
    .generate()
    .unwrap()
}

/// Seeded read mix for case `k`: point/scan/subscribe fractions, bound
/// tightness and key skew all rotate with the seed.
fn read_mix(k: u64, scenario: &MultiViewScenario) -> Vec<ReadOp> {
    let span = scenario.txns.last().map_or(10_000, |t| t.at);
    ReadMixConfig {
        readers: 2 + (k % 3) as usize,
        reads_per_reader: 4 + (k % 4) as usize,
        start: 300,
        mean_gap: (span / 6).max(500),
        n_views: scenario.views.len(),
        point_frac: [0.8, 0.4, 0.1][(k % 3) as usize],
        scan_frac: [0.15, 0.4, 0.8][(k % 3) as usize],
        bound_frac: [0.3, 0.6, 1.0][(k % 3) as usize],
        bound_window: [0, 1_500, 4_000][(k % 3) as usize],
        seed: SEED_BASE + k * 7,
        ..Default::default()
    }
    .generate()
}

/// Audit a finished run: every answered read equals the oracle recompute
/// at its pinned epoch, every verdict matches the staleness oracle, and
/// subscription streams replay the install log.
fn check(report: &MultiViewReport, k: u64) -> OracleAudit {
    assert!(report.quiescent, "case {k}: run did not drain");
    let audit = audit_reads(report).unwrap();
    assert_eq!(
        audit.content_mismatches, 0,
        "case {k}: an answered read diverged from the oracle recompute at its pinned epoch"
    );
    assert_eq!(
        audit.verdict_mismatches, 0,
        "case {k}: a staleness verdict diverged from the delivery-ledger oracle"
    );
    assert_eq!(
        audit.answered + audit.rejected,
        audit.reads,
        "case {k}: reads went unaccounted"
    );
    assert!(
        report.subscriptions_match_installs(),
        "case {k}: a subscription stream did not replay the install log in ticket order"
    );
    audit
}

/// The headline theorem: 128 seeded schedules, flat and sharded engines
/// alternating — every answered read equals the oracle evaluation at its
/// pinned epoch and every subscription stream equals the install
/// fingerprint. The mixes are adversarial enough that both outcomes
/// (answers and staleness rejections) occur many times.
#[test]
fn answered_reads_equal_oracle_recompute_across_seeded_schedules() {
    let n_cases = cases(128);
    let (mut answered, mut rejected, mut sharded_runs, mut snapshots) = (0u64, 0u64, 0u64, 0u64);
    let mut index_hits = 0u64;
    for k in 0..n_cases {
        let scenario = dense_scenario(k);
        let reads = read_mix(k, &scenario);
        let mut exp = MultiViewExperiment::new(scenario.clone())
            .reads(reads)
            .seed(k);
        if k % 3 == 2 {
            exp = exp.shards(ShardMap::hash(2 + (k % 2) as usize));
            sharded_runs += 1;
        }
        let report = exp.run().unwrap();
        let audit = check(&report, k);
        answered += audit.answered;
        rejected += audit.rejected;
        // Every install the engine committed became exactly one epoch. A
        // narrow-span view whose sources never update legitimately
        // publishes nothing, so the exercised floor is aggregate.
        let installs: u64 = report.views.iter().map(|v| v.installs.len() as u64).sum();
        assert_eq!(
            report.served().unwrap().serve_stats.snapshots_published,
            installs,
            "case {k}: installs and published snapshots diverged"
        );
        snapshots += report.served().unwrap().serve_stats.snapshots_published;
        index_hits += report.served().unwrap().serve_stats.point_index_hits;
    }
    assert!(answered > n_cases, "only {answered} reads answered");
    assert!(index_hits > 0, "no point read ever reused an epoch index");
    assert!(
        snapshots > n_cases,
        "only {snapshots} snapshots published — the serving layer barely ran"
    );
    assert!(
        rejected > 0,
        "no schedule ever exercised a staleness rejection"
    );
    assert!(sharded_runs > 0, "no schedule ever ran sharded");
}

/// Reads issued while the warehouse is state-crashed (durable flat
/// engine, checkpoint + WAL recovery) still answer from the last
/// committed epoch: the snapshot store is fed only by committed installs,
/// so a crash window can delay freshness but never expose a torn or
/// rolled-back state — and the oracle audit proves it read-by-read.
#[test]
fn reads_during_crash_recovery_answer_from_last_committed_epoch() {
    let mut recoveries = 0u64;
    let mut in_window_reads = 0u64;
    let n_cases = cases(16);
    for k in 0..n_cases {
        let scenario = sparse_scenario(k);
        let anchor = scenario.txns[(k % scenario.txns.len() as u64) as usize].at;
        let down_at = anchor + [1_050, 2_500, 4_500][(k % 3) as usize];
        let up_at = down_at + [3_000, 50_000][(k % 2) as usize];
        // Reads pinned inside and just after the crash window, with and
        // without a bound demanding everything delivered before issue.
        let mut reads = read_mix(k, &scenario);
        for (i, &at) in [down_at + 100, (down_at + up_at) / 2, up_at + 500]
            .iter()
            .enumerate()
        {
            in_window_reads += 2;
            for (reader, bound_window) in [(90 + i, None), (95 + i, Some(0))] {
                reads.push(ReadOp {
                    at,
                    reader,
                    view: (k % scenario.views.len() as u64) as usize,
                    kind: ReadKind::Scan,
                    bound_window,
                });
            }
        }
        reads.sort_by_key(|op| (op.at, op.reader));
        let report = MultiViewExperiment::new(scenario.clone())
            .reads(reads)
            .seed(k)
            .transport_auto()
            .durability(1 + (k % 3) as usize)
            .faults(FaultPlan::default().state_crash(0, down_at, up_at))
            .run()
            .unwrap();
        check(&report, k);
        recoveries += report.recovery.recoveries;
    }
    assert!(
        recoveries >= n_cases / 2,
        "only {recoveries} recoveries across {n_cases} cases — the windows are not biting"
    );
    assert!(in_window_reads > 0);
}

/// Bounded subscriptions with a queue bound of 1 under dense install
/// traffic: overflowed subscribers receive the typed `Lagged` signal,
/// resume from the snapshot at `resume_epoch`, and — per
/// [`audit_lag_recoveries`] — their delivered-deltas-plus-resume-snapshot
/// history reconstructs exactly the stream an unbounded subscriber saw.
#[test]
fn lagged_subscribers_recover_equivalent_streams_across_schedules() {
    let n_cases = cases(32);
    let (mut lag_events, mut resumes) = (0u64, 0u64);
    for k in 0..n_cases {
        let scenario = dense_scenario(0x80 + k);
        let reads = ReadMixConfig {
            n_views: scenario.views.len(),
            ..ReadMixConfig::laggy_subscribers(3, 12, SEED_BASE + k)
        }
        .generate();
        let report = MultiViewExperiment::new(scenario.clone())
            .reads(reads)
            .seed(k)
            .bounded_subscriptions(1 + (k % 2) as usize)
            .run()
            .unwrap();
        check(&report, k);
        let audit = audit_lag_recoveries(&report).unwrap();
        assert!(audit.clean(), "case {k}: {audit:?}");
        assert_eq!(
            report.served().unwrap().serve_stats.subs_lagged,
            audit.lag_events,
            "case {k}: store lag counter disagrees with the event history"
        );
        lag_events += audit.lag_events;
        resumes += audit.resumes;
    }
    assert!(
        lag_events > 0 && resumes > 0,
        "no schedule ever overflowed a bounded subscription \
         ({lag_events} lag events, {resumes} resumes)"
    );
}

/// State-crash windows on the partitioned engine under dense arrivals:
/// every lane aborts and re-seeds from the durable store — reads during
/// the window still resolve against committed epochs only, and the
/// oracle audit holds on every one.
#[test]
fn reads_during_sharded_crash_recovery_answer_from_committed_epochs() {
    let mut reseeds = 0u64;
    let n_cases = cases(16);
    for k in 0..n_cases {
        let scenario = dense_scenario(0x40 + k);
        let shards = if k.is_multiple_of(2) { 2 } else { 4 };
        let anchor = scenario.txns[(2 + k % 4) as usize].at;
        let down_at = anchor + [1_050, 2_500, 3_500][(k % 3) as usize];
        let up_at = down_at + [400, 900, 1_600][(k % 3) as usize];
        let mut reads = read_mix(k, &scenario);
        for (reader, bound_window) in [(90, None), (95, Some(0))] {
            reads.push(ReadOp {
                at: (down_at + up_at) / 2,
                reader,
                view: (k % scenario.views.len() as u64) as usize,
                kind: ReadKind::Scan,
                bound_window,
            });
        }
        reads.sort_by_key(|op| (op.at, op.reader));
        let report = MultiViewExperiment::new(scenario.clone())
            .shards(ShardMap::hash(shards))
            .reads(reads)
            .seed(k)
            .transport_auto()
            .durability(1 + (k % 3) as usize)
            .faults(FaultPlan::default().state_crash(0, down_at, up_at))
            .run()
            .unwrap();
        check(&report, k);
        assert_eq!(
            report.recovery.recoveries, 1,
            "case {k}: the window never fired"
        );
        reseeds += report.recovery.sweeps_reseeded;
    }
    assert!(
        reseeds > 0,
        "no window ever caught a lane in flight across {n_cases} cases"
    );
}
