//! Restart-equivalence under hostile schedules: a warehouse that
//! *state-crashes* mid-run — volatile scheduler state lost, durable
//! checkpoint + sweep WAL intact — must recover to **exactly** the run a
//! fault-free warehouse would have produced: per view, the identical
//! final bag and the identical install fingerprint (consumed-update
//! sequences, in install order). One recovery serves every
//! configuration: flat or sharded, one sweep outstanding or many.
//!
//! Why that's achievable and not just hoped for: the WAL records an
//! update's ticket at arrival and a task's consumed set at formation, a
//! task leaves the durable pending set only at its atomic commit record,
//! and a commit replays through the install sequencer it went through
//! live — so recovery re-seeds every aborted sweep with the *same*
//! consumed set under the *same* ticket, a commit that was waiting behind
//! an earlier ticket still waits behind it, and the incarnation a qid
//! carries (epoch fencing at the sources, the same number at the
//! scheduler) shuts out every pre-crash query/answer straggler. See
//! DESIGN.md §failure model.
//!
//! Two schedule shapes pin the install fingerprint to the fault-free
//! run's. The *sparse* arms space updates 200 ms apart, so each update's
//! sweep — even one interrupted by a crash window and re-driven through
//! the reliability transport's retransmissions — completes before the
//! next update arrives: 128 seeded schedules × adversarial crash
//! placements (mid-hop, answer-in-flight, post-commit, pre-arrival).
//! The *dense* arm sends a burst of updates ≤ 300 µs apart into 1 ms
//! links and crashes the warehouse while
//! the burst drains — several lanes in flight, commits buffered behind
//! earlier tickets, groups fused by installed impure tuples — with the
//! window opening after the burst's last delivery, so arrival order (and
//! with it the fingerprint) is the fault-free flat run's. A window that
//! swallows update deliveries may legitimately permute arrival across
//! sources; the arms that allow it hold the install order to the run's
//! own arrival order instead.
//!
//! `DW_FUZZ_SCHEDULES=<k>` multiplies the schedule count (`ci.sh --deep`
//! sets it; every failure message names the case seed for replay).

use dwsweep::multiview::CompletionLog;
use dwsweep::prelude::*;
use dwsweep::protocol::UpdateId;
use std::sync::Arc;

const SEED_BASE: u64 = 0xD0_0000;

/// Base schedule count, scaled by the `DW_FUZZ_SCHEDULES` multiplier.
fn cases(base: u64) -> u64 {
    std::env::var("DW_FUZZ_SCHEDULES")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .map_or(base, |mult| base * mult.max(1))
}

/// Sparse multi-view scenario: 3 sources, 200 ms constant gaps, 1–3
/// random span views with random σ/Π/policies.
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
            seed: SEED_BASE + k,
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

/// Every install's consumed-update set and delta, in install order.
fn install_fingerprint(installs: &[InstallEvent]) -> Vec<(Vec<UpdateId>, Arc<Bag>)> {
    let install = |r: &InstallEvent| (r.consumed.clone(), Arc::clone(&r.delta));
    installs.iter().map(install).collect()
}

/// Adversarial state-crash window for case `k`, anchored on one chosen
/// update's warehouse arrival (`txn.at` + 1 ms link). With 1 ms constant
/// links a sweep hop is a 2 ms round trip, so the offsets place the
/// crash: before the update even arrives (retransmitted into the rebuilt
/// queue), just after task formation (first query in flight), mid-chain
/// (an answer in flight), and after the likely commit (recovery with
/// nothing pending). Window widths stay far below the 200 ms gap so the
/// transport re-drives everything before the next update.
fn crash_window(k: u64, txns: &[ScheduledTxn]) -> (Time, Time) {
    let anchor = txns[(k % txns.len() as u64) as usize].at;
    let offset = [0, 1_050, 2_500, 4_500, 15_000][(k % 5) as usize];
    let width = [800, 3_000, 50_000][(k % 3) as usize];
    let down_at = anchor + offset;
    (down_at, down_at + width)
}

fn run(scenario: &MultiViewScenario, k: u64, faults: FaultPlan) -> dwsweep::core::MultiViewReport {
    MultiViewExperiment::new(scenario.clone())
        .seed(k)
        .faults(faults)
        .transport_auto()
        .durability(1 + (k % 4) as usize)
        .run()
        .unwrap()
}

/// The headline theorem: 128 seeded schedules × adversarial crash
/// placements — crashed and fault-free runs are install-fingerprint- and
/// bag-identical, per view.
#[test]
fn state_crash_runs_match_fault_free_runs() {
    let mut crashes_fired = 0u64;
    let n_cases = cases(128);
    for k in 0..n_cases {
        let scenario = sparse_scenario(k);
        let (down_at, up_at) = crash_window(k, &scenario.txns);
        let mut plan = FaultPlan::default().state_crash(0, down_at, up_at);
        if k % 4 == 3 {
            // A second window later in the schedule: recovery must be
            // re-enterable, not a one-shot.
            let (d2, u2) = crash_window(k / 2 + 1, &scenario.txns);
            if d2 >= up_at || u2 <= down_at {
                plan = plan.state_crash(0, d2, u2);
            }
        }

        let clean = run(&scenario, k, FaultPlan::default());
        let crashed = run(&scenario, k, plan);

        assert!(clean.quiescent && crashed.quiescent, "case {k}");
        assert_eq!(clean.views.len(), crashed.views.len(), "case {k}");
        for (a, b) in clean.views.iter().zip(&crashed.views) {
            assert_eq!(
                a.view, b.view,
                "case {k}: view '{}' diverged after crash recovery",
                a.name
            );
            assert_eq!(
                install_fingerprint(&a.installs),
                install_fingerprint(&b.installs),
                "case {k}: view '{}' install fingerprints differ",
                a.name
            );
        }
        assert_eq!(clean.recovery.recoveries, 0, "case {k}");
        // Checkpoints (cadence and post-recovery alike) share the live
        // views' structure: none of them copied a tuple.
        assert!(crashed.checkpoints_taken > 0, "case {k}");
        assert_eq!(crashed.checkpoint_copied_tuples, 0, "case {k}");
        crashes_fired += crashed.recovery.recoveries;
        // Recovery accounting is self-consistent: replayed bytes only
        // exist if records were replayed.
        if crashed.recovery.wal_bytes_replayed > 0 {
            assert!(crashed.recovery.wal_records_replayed > 0, "case {k}");
        }
    }
    // The placements are adversarial, not decorative: the large majority
    // of cases must actually exercise a recovery.
    assert!(
        crashes_fired >= n_cases,
        "only {crashes_fired} recoveries across {n_cases} cases"
    );
}

/// An answer caught in flight by the crash window is retransmitted after
/// recovery and must be dropped — its qid carries the dead incarnation —
/// not re-applied, and not mistaken for an answer to the re-seeded
/// sweep, whose qids count from zero again under the new incarnation.
#[test]
fn stale_answers_are_fenced_by_their_incarnation() {
    let mut seen_stale_drop = false;
    for k in 0..cases(16) {
        let scenario = sparse_scenario(k);
        // First update arrives at the warehouse at `at + 1_000`, its
        // first query answer lands at `at + 3_000`; a window over
        // [at+2_500, at+3_500] swallows the answer mid-flight, so the
        // transport re-delivers it only after recovery entered the next
        // incarnation.
        let at = scenario.txns[0].at;
        let plan = FaultPlan::default().state_crash(0, at + 2_500, at + 3_500);
        let crashed = run(&scenario, k, plan);
        let clean = run(&scenario, k, FaultPlan::default());
        assert!(crashed.quiescent, "case {k}");
        for (a, b) in clean.views.iter().zip(&crashed.views) {
            assert_eq!(a.view, b.view, "case {k}: view '{}'", a.name);
        }
        // Every fenced straggler answered a query that was counted as
        // sent and never as a hop: the wire saw more answers than the
        // fault-free run's sweeps needed.
        let dropped = crashed.recovery.stale_answers_dropped;
        assert!(
            crashed.scheduler_metrics.answers_received
                >= clean.scheduler_metrics.answers_received + dropped,
            "case {k}"
        );
        seen_stale_drop |= dropped > 0;
    }
    assert!(
        seen_stale_drop,
        "no schedule ever exercised the incarnation fence"
    );
}

/// A plain crash loses no application state — its restart only resyncs
/// the transport — so beside a state crash in the same plan it must not
/// count as, or act like, a second recovery: one replay, and the
/// fault-free outcome.
#[test]
fn a_plain_crash_beside_a_state_crash_recovers_once() {
    for k in 0..cases(16) {
        let scenario = sparse_scenario(0x200 + k);
        // The plain window swallows the first update's first answer (a
        // sweep is in flight at its restart); the state crash lands
        // mid-sweep on the last update.
        let first = scenario.txns[0].at;
        let last = scenario.txns[scenario.txns.len() - 1].at;
        let plan = FaultPlan::default()
            .crash(0, first + 2_500, first + 3_500)
            .state_crash(0, last + 2_500, last + 5_500);
        let clean = run(&scenario, k, FaultPlan::default());
        let crashed = run(&scenario, k, plan);
        assert!(clean.quiescent && crashed.quiescent, "case {k}");
        assert_eq!(crashed.recovery.recoveries, 1, "case {k}");
        for (a, b) in clean.views.iter().zip(&crashed.views) {
            assert_eq!(a.view, b.view, "case {k}: view '{}'", a.name);
            assert_eq!(
                install_fingerprint(&a.installs),
                install_fingerprint(&b.installs),
                "case {k}: view '{}' install fingerprints differ",
                a.name
            );
        }
    }
}

/// Durability without any crash must not change the run at all — same
/// bags, same fingerprints, same wire traffic as the undurable engine —
/// while actually checkpointing and journaling.
#[test]
fn durability_is_invisible_without_a_crash() {
    for k in 0..cases(8) {
        let scenario = sparse_scenario(0x100 + k);
        let plain = MultiViewExperiment::new(scenario.clone())
            .seed(k)
            .transport_auto()
            .run()
            .unwrap();
        let durable = MultiViewExperiment::new(scenario)
            .seed(k)
            .transport_auto()
            .durability(2)
            .run()
            .unwrap();
        assert!(plain.quiescent && durable.quiescent, "case {k}");
        assert_eq!(plain.events, durable.events, "case {k}: wire diverged");
        assert_eq!(plain.end_time, durable.end_time, "case {k}");
        for (a, b) in plain.views.iter().zip(&durable.views) {
            assert_eq!(a.view, b.view, "case {k}: view '{}'", a.name);
            assert_eq!(
                install_fingerprint(&a.installs),
                install_fingerprint(&b.installs),
                "case {k}"
            );
        }
        assert_eq!(durable.recovery, Default::default(), "case {k}");
        assert!(durable.checkpoints_taken >= 1, "case {k}");
        assert!(durable.wal_bytes_written > 0, "case {k}");
        assert_eq!(plain.checkpoints_taken, 0, "case {k}");
    }
}

/// The recovered run's install order is its own arrival order: every
/// view (full-span, SWEEP cadence) installs exactly one update per
/// delivery, in delivery order.
fn assert_installs_in_arrival_order(report: &dwsweep::core::MultiViewReport, k: u64) {
    let arrived = report.delivery_log().into_iter().map(|(id, _)| vec![id]);
    let arrival_order: Vec<Vec<UpdateId>> = arrived.collect();
    for installed in report.install_fingerprint() {
        let consumed: Vec<_> = installed.into_iter().map(|(ids, _)| ids).collect();
        assert_eq!(consumed, arrival_order, "case {k}: install order");
    }
}

/// Whole-warehouse state crashes on the sharded, durable scheduler,
/// placed like the flat arm's — including over update deliveries, which
/// the transport then re-drives in whatever cross-source order its
/// timers give. Every lane dies; the recovered run must converge to the
/// fault-free run's exact per-view bags, install in its own arrival
/// order (tickets are durable), and fence every pre-crash straggler.
#[test]
fn sharded_state_crashes_reseed_every_lane() {
    let mut stale_drops = 0u64;
    let mut reseeds = 0u64;
    let n_cases = cases(24);
    for k in 0..n_cases {
        let shards = if k.is_multiple_of(2) { 2 } else { 4 };
        let generated = ShardedConfig {
            n_sources: 3,
            shards,
            updates: 12,
            mean_gap: 300,
            seed: SEED_BASE + 0x300 + k,
            ..Default::default()
        }
        .generate()
        .unwrap();
        // Anchor mid-run: with 1 ms links an update injected at `at`
        // reaches the warehouse at `at + 1_000` and its first answers
        // land at `at + 3_000`, so these offsets open the window just
        // after lane formation, mid-chain with an answer in flight, and
        // near the likely commit.
        let anchor = generated.scenario.txns[(4 + k % 4) as usize].at;
        let down_at = anchor + [1_050, 2_500, 3_500][(k % 3) as usize];
        let up_at = down_at + [400, 900, 1_600][(k % 3) as usize];
        let plan = FaultPlan::default().state_crash(0, down_at, up_at);

        let clean = MultiViewExperiment::new(generated.scenario.clone())
            .shards(generated.map.clone())
            .seed(k)
            .run()
            .unwrap();
        let crashed = MultiViewExperiment::new(generated.scenario)
            .shards(generated.map)
            .seed(k)
            .faults(plan)
            .transport_auto()
            .durability(1 + (k % 3) as usize)
            .run()
            .unwrap();

        assert!(clean.quiescent && crashed.quiescent, "case {k}");
        assert_eq!(crashed.recovery.recoveries, 1, "case {k}");
        assert_installs_in_arrival_order(&crashed, k);
        for (a, b) in clean.views.iter().zip(&crashed.views) {
            assert_eq!(
                a.view, b.view,
                "case {k}: view '{}' diverged after the state crash",
                a.name
            );
        }
        assert_eq!(crashed.checkpoint_copied_tuples, 0, "case {k}");
        stale_drops += crashed.recovery.stale_answers_dropped;
        reseeds += crashed.recovery.sweeps_reseeded;
    }
    assert!(
        reseeds >= n_cases,
        "only {reseeds} lanes re-seeded across {n_cases} cases"
    );
    assert!(
        stale_drops > 0,
        "no crashed lane ever had an answer fenced by its incarnation"
    );
}

/// The dense schedule of case `k`: one burst of banded updates ≤ 300 µs
/// apart over `shards` bands. Families, by `(k / 9) % 4`: 0 — every
/// delta pure; 1 and 3 — 30 % of the deltas straddle two bands; 2 — the
/// *fused* family: the burst opens with the impure `R2` tuple
/// `(5, 1005)`, whose install fuses bands 0 and 1, and closes with an
/// `R1` and an `R3` insert, each pure in one of those bands, that both
/// join through it. Swept side by side (which only a scheduler that
/// forgot the fusion would do) each picks the other up and the joined
/// tuple is counted twice.
fn dense_scenario(k: u64, shards: usize) -> ShardedScenario {
    let family = (k / 9) % 4;
    let mut generated = ShardedConfig {
        n_sources: 3,
        shards,
        updates: 8 + (k % 4) as usize,
        mean_gap: 150 + 50 * (k % 4),
        cross_shard_frac: if family % 2 == 1 { 0.3 } else { 0.0 },
        seed: SEED_BASE + 0x400 + k,
        ..Default::default()
    }
    .generate()
    .unwrap();
    if family == 2 && shards > 1 {
        let txns = &mut generated.scenario.txns;
        let n = txns.len();
        let spliced = [
            (0, 1, tup![5, 1005]),
            (n - 2, 0, tup![7, 5]),
            (n - 1, 2, tup![1005, 1009]),
        ];
        for (slot, source, tuple) in spliced {
            txns[slot].source = source;
            txns[slot].delta = Bag::from_tuples([tuple]);
        }
    }
    generated
}

/// Dense-schedule recovery: S ∈ {1, 2, 4} × checkpoint cadence {1, 2, 3}
/// × the four [`dense_scenario`] families, the crash window swept across
/// the burst's drain — so it catches several lanes mid-sweep, commits
/// buffered behind an earlier ticket, and groups already fused by an
/// installed impure tuple. Every update is delivered before the window
/// opens, so arrival order is the fault-free run's and the recovered,
/// served run must equal the fault-free *flat* referee outright: bags,
/// install fingerprints, publication order, subscription streams.
#[test]
fn dense_state_crashes_match_the_fault_free_flat_run() {
    let (mut multi_reseeds, mut buffered_commits, mut fused) = (0u64, 0u64, 0u64);
    let n_cases = cases(144);
    for k in 0..n_cases {
        let shards = [1, 2, 4][(k % 3) as usize];
        let cadence = 1 + (k / 3 % 3) as usize;
        let generated = dense_scenario(k, shards);
        let scenario = &generated.scenario;
        // The window opens after the last delivery (send + 1 ms) and
        // sweeps across the drain, which S lanes shorten.
        let delivered = scenario.txns.last().unwrap().at + 1_000;
        let drain = 3_000 * scenario.txns.len() as u64 / shards as u64;
        let down_at = delivered + 50 + drain * (k % 16) / 16;
        let up_at = down_at + [400, 900, 1_600][(k / 2 % 3) as usize];
        let reads = ReadMixConfig {
            readers: 2,
            reads_per_reader: 5,
            start: 300,
            mean_gap: (up_at / 8).max(500),
            n_views: scenario.views.len(),
            seed: SEED_BASE + k * 7,
            ..Default::default()
        }
        .generate();

        let referee = MultiViewExperiment::new(scenario.clone())
            .reads(reads.clone())
            .seed(k)
            .run()
            .unwrap();
        let done = CompletionLog::default();
        let crashed = MultiViewExperiment::new(scenario.clone())
            .shards(generated.map.clone())
            .reads(reads)
            .seed(k)
            .faults(FaultPlan::default().state_crash(0, down_at, up_at))
            .transport_auto()
            .durability(cadence)
            .record_completions(done.clone())
            .run()
            .unwrap();

        assert!(referee.quiescent && crashed.quiescent, "case {k}");
        assert_eq!(crashed.recovery.recoveries, 1, "case {k}");
        assert_eq!(crashed.delivery_log().len(), referee.delivery_log().len());
        assert_eq!(
            crashed.install_fingerprint(),
            referee.install_fingerprint(),
            "case {k}: S={shards} install fingerprints differ"
        );
        for (a, b) in referee.views.iter().zip(&crashed.views) {
            assert_eq!(
                a.view, b.view,
                "case {k}: S={shards} view '{}' diverged after crash recovery",
                a.name
            );
        }
        // The readers' side: the oracle audit, every subscription against
        // its view's install log, and the referee's publication order and
        // from-the-start streams (install times aside).
        let audit = audit_reads(&crashed).unwrap();
        assert!(audit.clean(), "case {k}: {audit:?}");
        assert!(crashed.subscriptions_match_installs(), "case {k}");
        let (ours, theirs) = (crashed.served().unwrap(), referee.served().unwrap());
        assert_eq!(ours.publication_log, theirs.publication_log, "case {k}");
        let baseline_streams = |served: &dwsweep::core::ServeOutcome| -> Vec<_> {
            let baseline = served
                .subscriptions
                .iter()
                .filter(|s| s.reader == usize::MAX);
            let content =
                |d: &InstallEvent| (d.view_index, d.epoch, d.consumed.clone(), d.delta.clone());
            baseline
                .map(|s| s.stream.iter().map(content).collect::<Vec<_>>())
                .collect()
        };
        assert_eq!(baseline_streams(ours), baseline_streams(theirs), "case {k}");

        // What the crash caught. A lane completion before the window that
        // the first view's log does not show installed by then is a
        // commit that was waiting behind an earlier ticket.
        let before = |at: Time| at < down_at;
        let completed = done.lock().unwrap().iter().filter(|c| before(c.1)).count();
        let installs = crashed.views[0].installs.iter();
        let installed = installs.filter(|r| before(r.at)).count();
        assert!(completed >= installed, "case {k}");
        buffered_commits += u64::from(completed > installed);
        multi_reseeds += u64::from(crashed.recovery.sweeps_reseeded >= 2);
        fused += u64::from((k / 9) % 4 == 2 && shards > 1 && completed > 0);
    }
    assert!(
        multi_reseeds >= 16,
        "only {multi_reseeds} of {n_cases} crashes caught two sweeps outstanding"
    );
    assert!(
        buffered_commits >= 8,
        "only {buffered_commits} of {n_cases} crashes caught a commit behind an earlier ticket"
    );
    assert!(
        fused >= 4,
        "only {fused} crashes came after the fused family's impure install"
    );
}

/// The generated warehouse state-crash schedules from dw-workload's
/// fault-scenario family also recover to the fault-free outcome. Crash
/// placement here is random rather than anchored, and a window can
/// stretch past an inter-arrival gap — stalled updates from different
/// sources may then be re-delivered in either order, legitimately
/// permuting the install fingerprint — so this test asserts the
/// convergence guarantee only: identical final bags per view.
#[test]
fn generated_state_crash_schedules_recover() {
    for k in 0..cases(16) {
        let scenario = sparse_scenario(0x200 + k);
        let horizon = scenario.txns.last().unwrap().at + 50_000;
        let plan = FaultScenarioConfig {
            n_nodes: 4,
            max_drop_rate: 0.0,
            max_dup_rate: 0.0,
            max_reorder_rate: 0.0,
            partitions: 0,
            crashes: 0,
            state_crashes: 1 + (k % 2) as usize,
            horizon,
            ..Default::default()
        }
        .generate(k);
        let clean = run(&scenario, k, FaultPlan::default());
        let crashed = run(&scenario, k, plan);
        assert!(crashed.quiescent, "case {k}");
        for (a, b) in clean.views.iter().zip(&crashed.views) {
            assert_eq!(a.view, b.view, "case {k}: view '{}'", a.name);
        }
    }
}
