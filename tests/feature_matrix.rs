//! The feature matrix: shards × {the plain constructor's defaults, σ
//! pushdown, durability, cross-update batching}, serving on top, plus
//! every refused cell.
//!
//! One scheduler runs every configuration, so "flat" must literally be
//! the one-group case of the lane machinery:
//!
//! * **(a)** a 1-shard [`ShardMap`] through the sharded constructor and
//!   the plain constructor must be indistinguishable — per-view bags,
//!   install logs (consumed sets *and* install times) and message counts
//!   — on 64 seeded multi-view schedules, derived DAG on and off;
//! * **(b)** S ∈ {2, 4} — on the same schedules (where hash bands force
//!   merged groups and escalations) and on banded ones (where lanes
//!   overlap) — must match the same referee on bags, install
//!   fingerprints and message counts (install *times* legitimately
//!   differ — that is the concurrency);
//! * **(b′)** S ∈ {2, 4} × σ pushdown, on the same two families (every
//!   banded view given selections, so the pushed σ bites), must match the
//!   flat `.pushdown(true)` referee the same way and the unpushed run on
//!   bags — a lane's query is an ordinary query, so the pushed predicate
//!   algebra holds per lane exactly as it holds flat;
//! * **(b″)** S ∈ {2, 4} × durability — checkpoints and the sweep WAL
//!   armed on a sharded scheduler, with and without σ pushdown, a serving
//!   arm and the derived DAG — must match the plain referee the same way
//!   while actually journaling and checkpointing (what a state crash
//!   then does to such a run is `recovery_equivalence.rs`'s dense arm);
//! * **(b‴)** shards × batching: a 1-shard map × `batch ∈ {2, 4}` is the
//!   plain scheduler at the same batch, install times included; S ∈ {2, 4}
//!   × `batch ∈ {2, 4}` on the same two families, with and without
//!   pushdown, lands every view on the unbatched run's bags, strongly
//!   consistent, every install a per-source run of consecutive updates,
//!   never costlier in messages than the unbatched sharded run — and the
//!   same cell made durable and served recovers from a warehouse state
//!   crash to its own fault-free bags under the read oracles;
//! * **(c)** every combination the scheduler refuses returns its
//!   documented, typed error (the table in DESIGN.md) instead of being
//!   silently dropped — one builder, so one refusal per cell;
//! * **(d)** serving composes: `.reads(mix)` × {batch 4, pushdown, both}
//!   on the same schedules, bounded subscriptions on, must pass the
//!   read, lag and subscription oracles and leave
//!   maintenance exactly as the same options leave it without readers;
//! * **(e)** serving is invisible to maintenance: an empty read schedule
//!   changes nothing but the presence of `report.serve`.
//!
//! The referee here is the plain constructor of the same scheduler, so
//! every run is also held to the independent oracles: per-view
//! consistency classification against ground truth, mutual consistency,
//! and the derived views' fresh-recompute audit at every epoch.

use dwsweep::engine::{EngineOptions, WarehouseError};
use dwsweep::multiview::MvError;
use dwsweep::prelude::*;
use dwsweep::protocol::WAREHOUSE_NODE;

const SCHEDULES: u64 = 64;
const SEED_BASE: u64 = 0xFEA7_0000;

/// A seeded multi-view schedule: 3–4 sources, dense enough that sweeps
/// interfere, every view on the SWEEP cadence (so install fingerprints
/// are a pure function of arrival order and comparable across shard
/// counts), odd seeds with a derived stack on top.
fn schedule(k: u64) -> MultiViewScenario {
    let mut scenario = MultiViewConfig {
        stream: StreamConfig {
            n_sources: 3 + (k % 2) as usize,
            updates: 8 + (k % 5) as usize,
            initial_per_source: 10,
            domain: 8,
            mean_gap: 300 + 200 * (k % 4),
            seed: SEED_BASE + k,
            ..Default::default()
        },
        n_views: 2 + (k % 3) as usize,
        view_seed: SEED_BASE ^ k,
        full_span: k.is_multiple_of(4),
        n_derived: if k % 2 == 1 { 3 } else { 0 },
        derived_seed: SEED_BASE.rotate_left(7) ^ k,
    }
    .generate()
    .unwrap();
    for view in &mut scenario.views {
        view.policy = ViewPolicy::Sweep;
    }
    scenario
}

/// Run `scenario` through the plain constructor (`None`) or the sharded
/// one, and hold the run to the independent oracles.
fn run(scenario: &MultiViewScenario, map: Option<ShardMap>, k: u64) -> MultiViewReport {
    run_with(scenario, map, false, 1, k)
}

/// [`run`], with σ pushdown on or off and a batch width.
fn run_with(
    scenario: &MultiViewScenario,
    map: Option<ShardMap>,
    pushdown: bool,
    batch: usize,
    k: u64,
) -> MultiViewReport {
    let arm = format!("schedule {k}, map {map:?}, pushdown {pushdown}, batch {batch}");
    let mut exp = MultiViewExperiment::new(scenario.clone())
        .seed(k)
        .pushdown(pushdown)
        .batch(batch);
    if let Some(map) = map {
        exp = exp.shards(map);
    }
    let report = exp.run().unwrap();
    assert!(report.quiescent, "{arm}: did not drain");
    // Folding k updates into one install skips states: a batched
    // SWEEP-cadence view is strongly, not completely, consistent.
    let level = report.min_consistency().unwrap();
    let floor = [ConsistencyLevel::Strong, ConsistencyLevel::Complete][usize::from(batch == 1)];
    assert!(level >= floor, "{arm}: weakest view is {level}");
    let mutual = report.mutual.as_ref().unwrap();
    assert!(mutual.final_agreement, "{arm}: {}", mutual.detail);
    assert!(report.derived_clean(), "{arm}: derived oracle audit");
    report
}

/// Bags, install fingerprints and the message bill match the referee's —
/// base and derived views alike.
fn assert_same_outcome(got: &MultiViewReport, referee: &MultiViewReport, arm: &str) {
    assert_eq!(got.query_messages(), referee.query_messages(), "{arm}");
    assert_eq!(
        got.install_fingerprint(),
        referee.install_fingerprint(),
        "{arm}: install order"
    );
    for (a, b) in got.views.iter().zip(&referee.views) {
        assert_eq!(a.view, b.view, "{arm}: view '{}'", a.name);
    }
    assert_eq!(got.derived.len(), referee.derived.len(), "{arm}");
    for (a, b) in got.derived.iter().zip(&referee.derived) {
        assert_eq!(a.view, b.view, "{arm}: derived '{}'", a.name);
        let consumed = |d: &DerivedOutcome| -> Vec<Vec<_>> {
            d.installs.iter().map(|r| r.consumed.clone()).collect()
        };
        assert_eq!(consumed(a), consumed(b), "{arm}: derived '{}'", a.name);
    }
}

/// Everything maintenance produced, install times included.
fn assert_same_maintenance(got: &MultiViewReport, referee: &MultiViewReport, arm: &str) {
    assert_same_outcome(got, referee, arm);
    for (a, b) in got.views.iter().zip(&referee.views) {
        assert_eq!(a.installs, b.installs, "{arm}: view '{}'", a.name);
    }
    for (a, b) in got.derived.iter().zip(&referee.derived) {
        assert_eq!(a.installs, b.installs, "{arm}: derived '{}'", a.name);
    }
    assert_eq!(got.net.total(), referee.net.total(), "{arm}: wire");
    assert_eq!(got.makespan(), referee.makespan(), "{arm}");
    assert_eq!(got.delivery_log, referee.delivery_log, "{arm}");
    assert_eq!(
        (got.events, got.end_time),
        (referee.events, referee.end_time)
    );
}

#[test]
fn one_shard_is_the_plain_scheduler() {
    let mut with_derived = 0;
    for k in 0..SCHEDULES {
        let scenario = schedule(k);
        with_derived += usize::from(!scenario.derived.is_empty());
        // One band holds every update, so under a 1-shard map the fold
        // rule is flat batching: batch 2 or 4 has the same referee.
        for batch in [1, 2 + 2 * (k % 2) as usize] {
            let flat = run_with(&scenario, None, false, batch, k);
            for map in [ShardMap::hash(1), ShardMap::range(4, 1)] {
                let arm = format!("schedule {k}, {map:?}, batch {batch}");
                let one = run_with(&scenario, Some(map), false, batch, k);
                // One group ⇒ one lane ⇒ the very same timeline: every
                // install lands at the same instant with the same contents.
                assert_same_maintenance(&one, &flat, &arm);
                let stats = one.shard_stats.as_ref().unwrap();
                assert_eq!(stats.escalations, 0, "{arm}: one band cannot straddle");
                assert!(
                    stats.max_concurrent_lanes <= 1,
                    "{arm}: one group, one lane"
                );
            }
            assert!(flat.shard_stats.is_none(), "no map, no shard report");
        }
    }
    assert!(with_derived >= SCHEDULES as usize / 2, "DAG arm never ran");
}

/// The two sharded families of case `k`: the multi-view schedule under
/// hash bands, which cut straight through its value domain — impure
/// residents merge the groups and updates escalate, so this arm is
/// lanes whose masks cover most of the warehouse — then a banded
/// schedule of its own (every
/// fourth with cross-shard updates mixed in), where the lanes genuinely
/// overlap.
fn sharded_arms(k: u64, shards: usize) -> [(MultiViewScenario, ShardMap); 2] {
    let banded = ShardedConfig {
        n_sources: 3,
        shards,
        updates: 8 + (k % 5) as usize,
        mean_gap: 300 + 100 * (k % 3),
        cross_shard_frac: if k % 4 == 3 { 0.3 } else { 0.0 },
        seed: SEED_BASE + 0x1000 + k,
        ..Default::default()
    }
    .generate()
    .unwrap();
    [
        (schedule(k), ShardMap::hash(shards)),
        (banded.scenario, banded.map),
    ]
}

#[test]
fn two_and_four_shards_match_the_plain_scheduler() {
    let mut overlapped = 0;
    for k in 0..SCHEDULES {
        for shards in [2, 4] {
            for (scenario, map) in sharded_arms(k, shards) {
                let arm = format!("schedule {k}, {map:?}");
                let flat = run(&scenario, None, k);
                let sharded = run(&scenario, Some(map), k);
                assert_same_outcome(&sharded, &flat, &arm);
                let stats = sharded.shard_stats.as_ref().unwrap();
                overlapped += usize::from(stats.max_concurrent_lanes > 1);
            }
        }
    }
    assert!(
        overlapped >= SCHEDULES as usize,
        "only {overlapped} runs ever overlapped two lanes"
    );
}

#[test]
fn two_and_four_shards_compose_with_pushdown() {
    let (mut runs, mut overlapped, mut bitten) = (0, 0, 0);
    for k in 0..SCHEDULES {
        for shards in [2, 4] {
            let [hashed, (mut banded, banded_map)] = sharded_arms(k, shards);
            // The pushed σ is the union over the views spanning a
            // relation, so it bites only where every view selects: R2.B
            // (offsets below the threshold, band 0) and R1.A (the top of
            // the last band).
            let top = (shards as i64 - 1) * ShardedConfig::default().width + 9;
            for (v, view) in banded.views.iter_mut().enumerate() {
                let v = v as i64;
                view.selects.push((1, 1, CmpOp::Ge, Value::Int(2 + v)));
                view.selects.push((0, 0, CmpOp::Lt, Value::Int(top + v)));
            }
            for (scenario, map) in [hashed, (banded, banded_map)] {
                let arm = format!("schedule {k}, {map:?}, pushdown");
                let plain = run(&scenario, None, k);
                let flat = run_with(&scenario, None, true, 1, k);
                let sharded = run_with(&scenario, Some(map), true, 1, k);
                assert_same_outcome(&sharded, &flat, &arm);
                for (a, b) in sharded.views.iter().zip(&plain.views) {
                    assert_eq!(a.view, b.view, "{arm}: view '{}' vs unpushed", a.name);
                }
                // Same timeline flat, pushed or not, so the byte bills
                // compare: did the σ this scenario pushes drop anything?
                let answers = |r: &MultiViewReport| r.net.label("answer").bytes;
                bitten += usize::from(answers(&flat) < answers(&plain));
                runs += 1;
                let stats = sharded.shard_stats.as_ref().unwrap();
                overlapped += usize::from(stats.max_concurrent_lanes > 1);
            }
        }
    }
    assert!(runs >= 256, "only {runs} sharded × pushdown runs");
    assert!(
        overlapped >= SCHEDULES as usize,
        "only {overlapped} runs ever overlapped two lanes"
    );
    assert!(
        bitten >= SCHEDULES as usize,
        "the pushed σ shrank an answer in only {bitten} runs"
    );
}

#[test]
fn two_and_four_shards_compose_with_durability() {
    let (mut overlapped, mut with_derived, mut served, mut cadence_fired) = (0, 0, 0, 0);
    for k in 0..SCHEDULES {
        for shards in [2, 4] {
            for (scenario, map) in sharded_arms(k, shards) {
                let (pushdown, reads) = (k % 2 == 1, k % 4 >= 2);
                let arm = format!("schedule {k}, {map:?}, durable, pushdown {pushdown}");
                let flat = run(&scenario, None, k);
                let mut exp = MultiViewExperiment::new(scenario.clone())
                    .shards(map)
                    .seed(k)
                    .pushdown(pushdown)
                    .durability(1 + (k % 3) as usize);
                if reads {
                    exp = exp.reads(read_mix(k, &scenario));
                }
                let durable = exp.run().unwrap();
                assert!(durable.quiescent, "{arm}: did not drain");
                assert!(durable.derived_clean(), "{arm}: derived oracle audit");
                assert_same_outcome(&durable, &flat, &arm);
                if reads {
                    let audit = audit_reads(&scenario, &durable).unwrap();
                    assert!(audit.clean(), "{arm}: {audit:?}");
                    assert!(durable.subscriptions_match_installs(), "{arm}");
                    served += 1;
                }
                assert_eq!(durable.recovery, Default::default(), "{arm}");
                assert!(durable.wal_bytes_written > 0, "{arm}");
                assert_eq!(durable.checkpoint_copied_tuples, 0, "{arm}");
                cadence_fired += usize::from(durable.checkpoints_taken > 1);
                let stats = durable.shard_stats.as_ref().unwrap();
                overlapped += usize::from(stats.max_concurrent_lanes > 1);
                with_derived += usize::from(!scenario.derived.is_empty());
            }
        }
    }
    assert!(served >= SCHEDULES as usize, "only {served} served runs");
    assert!(
        cadence_fired >= 2 * SCHEDULES as usize,
        "only {cadence_fired} runs checkpointed past the initial image"
    );
    assert!(with_derived >= SCHEDULES as usize / 2, "DAG arm never ran");
    assert!(
        overlapped >= SCHEDULES as usize,
        "only {overlapped} runs ever overlapped two lanes"
    );
}

/// Per view and source, the installs consumed `0, 1, 2, …` in order:
/// every install holds a run of consecutive updates of each source and
/// none was skipped over — each installed state is a source state.
fn assert_consecutive_runs(report: &MultiViewReport, arm: &str) {
    for view in &report.views {
        let mut next = std::collections::HashMap::new();
        for id in view.installs.iter().flat_map(|rec| &rec.consumed) {
            let next = next.entry(id.source).or_insert(0);
            assert_eq!(id.seq, *next, "{arm}: view '{}'", view.name);
            *next += 1;
        }
    }
}

#[test]
fn two_and_four_shards_compose_with_batching() {
    let (mut runs, mut overlapped, mut folded, mut saved) = (0, 0, 0, 0);
    let (mut recovered, mut reseeded, mut audited) = (0, 0, 0);
    for k in 0..SCHEDULES {
        for shards in [2, 4] {
            for (scenario, map) in sharded_arms(k, shards) {
                let (pushdown, batch) = (k % 2 == 1, [2, 4][(k / 2 % 2) as usize]);
                let arm = format!("schedule {k}, {map:?}, batch {batch}, pushdown {pushdown}");
                let unbatched = run_with(&scenario, Some(map.clone()), pushdown, 1, k);
                let batched = run_with(&scenario, Some(map.clone()), pushdown, batch, k);
                for (a, b) in batched.views.iter().zip(&unbatched.views) {
                    assert_eq!(a.view, b.view, "{arm}: view '{}'", a.name);
                }
                assert_consecutive_runs(&batched, &arm);
                let widest = batched.views.iter().flat_map(|v| &v.installs);
                let widest = widest.map(|rec| rec.consumed.len()).max().unwrap_or(0);
                assert!(widest <= batch, "{arm}: an install consumed {widest}");
                assert!(
                    batched.messages_per_update() <= unbatched.messages_per_update(),
                    "{arm}: batching cost messages"
                );
                runs += 1;
                folded += usize::from(widest > 1);
                saved += usize::from(batched.query_messages() < unbatched.query_messages());
                let stats = batched.shard_stats.as_ref().unwrap();
                overlapped += usize::from(stats.max_concurrent_lanes > 1);

                // The same cell, durable and served, through a warehouse
                // state crash while the burst drains (every update is in:
                // the window opens after the last delivery). Formed
                // batches are fixed by their `TaskFormed` record; what was
                // still queued may fold differently once every lane
                // re-seeds at the same instant, so the crashed run is held
                // to its own fault-free bags and the same invariants.
                let delivered = scenario.txns.last().unwrap().at + 1_000;
                let down_at = delivered + 50 + 700 * (k % 8);
                let crash =
                    FaultPlan::default().state_crash(WAREHOUSE_NODE, down_at, down_at + 900);
                let crashed = MultiViewExperiment::new(scenario.clone())
                    .shards(map)
                    .seed(k)
                    .pushdown(pushdown)
                    .batch(batch)
                    .reads(read_mix(k, &scenario))
                    .faults(crash)
                    .transport_auto()
                    .durability(1 + (k % 3) as usize)
                    .run()
                    .unwrap();
                assert!(crashed.quiescent, "{arm}: crashed run did not drain");
                assert_eq!(crashed.recovery.recoveries, 1, "{arm}");
                for (a, b) in crashed.views.iter().zip(&batched.views) {
                    assert_eq!(a.view, b.view, "{arm}: view '{}' after the crash", a.name);
                }
                assert!(
                    crashed.min_consistency().unwrap() >= ConsistencyLevel::Strong,
                    "{arm}: crashed run"
                );
                assert!(crashed.mutual.as_ref().unwrap().final_agreement, "{arm}");
                assert!(crashed.derived_clean(), "{arm}: derived oracle audit");
                assert_consecutive_runs(&crashed, &arm);
                let audit = audit_reads(&scenario, &crashed).unwrap();
                assert!(audit.clean(), "{arm}: {audit:?}");
                assert!(crashed.subscriptions_match_installs(), "{arm}");
                recovered += 1;
                reseeded += usize::from(crashed.recovery.sweeps_reseeded > 0);
                audited += audit.answered;
            }
        }
    }
    assert!(runs >= 128, "only {runs} sharded × batched runs");
    assert!(
        overlapped >= SCHEDULES as usize,
        "only {overlapped} runs ever overlapped two lanes"
    );
    assert!(
        folded >= SCHEDULES as usize,
        "only {folded} runs ever folded"
    );
    assert!(
        saved >= SCHEDULES as usize / 2,
        "only {saved} runs saved a sweep"
    );
    assert_eq!(recovered, runs);
    assert!(
        reseeded >= SCHEDULES as usize,
        "only {reseeded} crashes caught a sweep in flight"
    );
    assert!(audited > recovered, "only {audited} reads answered");
}

/// The one-view scenario over the chain `R1(A,B) × R2(C,D)` — no `.join`
/// names the pair, so the hop equates nothing.
fn cross_join(initial: [Bag; 2], txns: Vec<ScheduledTxn>) -> MultiViewScenario {
    let base = ViewDefBuilder::new()
        .relation(Schema::new("R1", ["A", "B"]).unwrap())
        .relation(Schema::new("R2", ["C", "D"]).unwrap())
        .build()
        .unwrap();
    MultiViewScenario {
        base,
        keys: KeySpec::new(vec![Vec::new(); 2]),
        initial: initial.into(),
        txns,
        views: vec![ViewSpec::full("cross", 2)],
        derived: Vec::new(),
    }
}

/// The `reason` of a typed configuration refusal, whichever layer
/// returned it.
fn refusal(e: impl Into<CoreError>) -> String {
    match e.into() {
        CoreError::Warehouse(WarehouseError::Config { reason }) => reason,
        other => panic!("expected a typed Config refusal, got {other:?}"),
    }
}

#[test]
fn refused_combinations_return_their_documented_errors() {
    let scenario = schedule(1);
    let base = scenario.base.clone();
    let map = || ShardMap::hash(2);
    let multi = || MultiViewExperiment::new(scenario.clone());
    let state_crash = || FaultPlan::default().state_crash(WAREHOUSE_NODE, 500, 900);

    // Exactly the three rows of DESIGN.md's table.
    //
    // 1. shards × a hop that equates nothing: a cross product joins across
    // bands, so purity confines nothing and lanes may not run side by
    // side. Two counter-examples: a pure insert whose only partner
    // `(11,12)` is pure in the other band (the view must gain
    // `(3,4,11,12)`), and two concurrent pure inserts in different bands
    // (each lane's answer already holds the other's tuple, and an update
    // sweeping in another lane has left the queue hops compensate
    // against: `(3,4,13,14)` would count twice).
    // Flat, both are completely consistent.
    let insert = |at, source, t: Tuple| ScheduledTxn {
        at,
        source,
        delta: Bag::from_tuples([t]),
        global: None,
    };
    let resident = [Bag::new(), Bag::from_tuples([tup![11, 12]])];
    let lost = cross_join(resident, vec![insert(100, 0, tup![3, 4])]);
    let concurrent = vec![insert(100, 0, tup![3, 4]), insert(100, 1, tup![13, 14])];
    let doubled = cross_join([Bag::new(), Bag::new()], concurrent);
    for scenario in [lost, doubled] {
        run(&scenario, None, 0);
        let sharded = MultiViewExperiment::new(scenario).shards(ShardMap::range(10, 2));
        let reason = refusal(sharded.run().unwrap_err());
        assert!(reason.contains("sharded scheduler needs an equi-join on every hop"));
    }

    // 2. A warehouse state crash with no durable store: was silently
    // survived — the window ate its messages, every volatile structure
    // stayed, the run reported clean. Refused before any traffic, flat and
    // sharded, and by the scheduler itself.
    let e = multi().faults(state_crash()).run();
    assert!(refusal(e.unwrap_err()).contains("a warehouse state crash needs a durable store"));
    let e = multi().shards(map()).faults(state_crash()).run();
    assert!(refusal(e.unwrap_err()).contains("a warehouse state crash needs a durable store"));
    let opts = EngineOptions::default();
    let mut sched = MaintenanceScheduler::with_shards(base.clone(), opts, None).unwrap();
    let mut net: Network<dwsweep::protocol::Message> = Network::new(0);
    let e = sched.crash_and_recover(&mut net).unwrap_err();
    assert!(refusal(e).contains("a warehouse state crash needs a durable store"));
    sched.enable_durability(Default::default());
    sched.crash_and_recover(&mut net).unwrap();

    // 3. The oldest one: a zero batch width, with a map or without.
    let zero = EngineOptions {
        batch: 0,
        ..EngineOptions::default()
    };
    let e = MaintenanceScheduler::with_shards(base, zero, None).err();
    assert!(refusal(e.expect("batch 0 must be refused")).contains("batch width"));
    let e = multi().shards(map()).batch(0).run().unwrap_err();
    assert!(refusal(e).contains("batch width"));

    // Internal-invariant errors are typed too, not panics.
    let e: CoreError = MvError::Internal { what: "x" }.into();
    assert!(matches!(e, CoreError::Multi(msg) if msg.contains("invariant")));
}

/// The read schedule of case `k`: points, scans, polls of the bounded
/// subscriptions and fresh subscriptions, spread over the base views.
fn read_mix(k: u64, scenario: &MultiViewScenario) -> Vec<ReadOp> {
    ReadMixConfig {
        n_views: scenario.views.len(),
        ..ReadMixConfig::laggy_subscribers(3, 10, SEED_BASE + k)
    }
    .generate()
}

#[test]
fn serving_composes_with_batching_and_pushdown() {
    let (mut audited, mut lagged, mut with_derived) = (0, 0, 0);
    // Per pushdown setting: did batch 4 ever undercut the plain message bill?
    let mut batch_saved = [false; 2];
    for k in 0..SCHEDULES {
        let scenario = schedule(k);
        with_derived += usize::from(!scenario.derived.is_empty());
        let plain = run(&scenario, None, k);
        for (batch, pushdown) in [(4, false), (1, true), (4, true)] {
            let arm = format!("schedule {k}, batch {batch}, pushdown {pushdown}");
            let options = || {
                MultiViewExperiment::new(scenario.clone())
                    .seed(k)
                    .batch(batch)
                    .pushdown(pushdown)
            };
            let quiet = options().run().unwrap();
            let served = options()
                .reads(read_mix(k, &scenario))
                .bounded_subscriptions(2)
                .run()
                .unwrap();
            assert!(served.quiescent, "{arm}: did not drain");

            // The readers saw only truth…
            let audit = audit_reads(&scenario, &served).unwrap();
            assert!(audit.clean(), "{arm}: {audit:?}");
            let lag = audit_lag_recoveries(&scenario, &served).unwrap();
            assert!(lag.clean(), "{arm}: {lag:?}");
            assert!(served.subscriptions_match_installs(), "{arm}");
            assert!(served.derived_clean(), "{arm}: derived oracle audit");
            audited += audit.answered;
            lagged += lag.lag_events;

            // …and maintenance never noticed them: same installs at the
            // same instants as these options produce alone, the bags of
            // the plain scheduler, and no weaker a consistency level.
            assert_same_maintenance(&served, &quiet, &arm);
            for (a, b) in served.views.iter().zip(&plain.views) {
                assert_eq!(a.view, b.view, "{arm}: view '{}' vs plain", a.name);
            }
            for (a, b) in served.views.iter().zip(&quiet.views) {
                // Folding k updates into one install skips states, so a
                // batched view is strongly, not completely, consistent —
                // with readers or without.
                let level = |v: &ViewOutcome| v.consistency.as_ref().unwrap().level;
                assert!(
                    level(a) >= level(b) && level(a) >= ConsistencyLevel::Strong,
                    "{arm}: view '{}' at {}",
                    a.name,
                    level(a)
                );
            }
            assert!(served.query_messages() <= plain.query_messages(), "{arm}");
            if batch > 1 && served.query_messages() < plain.query_messages() {
                batch_saved[usize::from(pushdown)] = true;
            }
        }
    }
    assert!(audited > SCHEDULES, "only {audited} reads answered");
    assert!(lagged > 0, "no bounded subscription ever overflowed");
    assert!(with_derived >= SCHEDULES as usize / 2, "DAG arm never ran");
    assert_eq!(batch_saved, [true; 2], "batching never engaged");
}

#[test]
fn serving_is_invisible_to_maintenance() {
    for k in 0..SCHEDULES {
        let scenario = schedule(k);
        let quiet = run(&scenario, None, k);
        let referee = MultiViewExperiment::new(scenario.clone())
            .seed(k)
            .reads(Vec::new())
            .run()
            .unwrap();
        let arm = format!("schedule {k}, empty read schedule");
        assert_same_maintenance(&referee, &quiet, &arm);
        assert!(quiet.serve.is_none() && quiet.served().is_err(), "{arm}");
        let installs: usize = referee.views.iter().map(|v| v.installs.len()).sum();
        let derived: usize = referee.derived.iter().map(|d| d.installs.len()).sum();
        let served = referee.served().unwrap();
        assert_eq!(served.publication_log.len(), installs + derived, "{arm}");
        assert!(served.reads.is_empty() && referee.subscriptions_match_installs());
    }
}
