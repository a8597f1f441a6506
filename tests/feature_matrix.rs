//! The feature matrix: shards × {the plain constructor's defaults, σ
//! pushdown, durability, cross-update batching, install cadence}, serving
//! on top, plus the one refused cell.
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
//!   flat pushdown referee the same way and the unpushed run on
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
//! * **(c)** the one combination the scheduler refuses — a state crash
//!   with no durable store — returns its documented, typed error (the
//!   table in DESIGN.md) instead of being silently survived; the two
//!   former rows compose: a base chain whose hop equates nothing × S ∈
//!   {2, 4} matches the flat run on bags, install fingerprints and message
//!   counts, and `batch = 0` is no bound (E15's burst test in dw-bench);
//! * **(d)** serving composes: `.reads(mix)` × {batch 4, pushdown, both}
//!   on the same schedules, bounded subscriptions on, must pass the
//!   read, lag and subscription oracles and leave
//!   maintenance exactly as the same options leave it without readers;
//! * **(e)** serving is invisible to maintenance: an empty read schedule
//!   changes nothing but the presence of `report.serve`;
//! * **(f)** SWEEP's single-view features are scheduler options and
//!   compose: `window ∈ {0, 3}` × S ∈ {1, 2, 4} × durability (a crash
//!   catching later-ticket commits behind a re-seeded lane), `sequential`
//!   × random spans, the empty short-circuit × pushdown, and type-3
//!   global transactions × S × durability × reads × batching, each held
//!   to the flat referee (and atomicity) and each failing under one
//!   mutation: compensation that skips the later tickets, the hold
//!   released one part early, one leg on mixed span starts;
//! * **(g)** Nested SWEEP is the scheduler's `depth`: depth ∈ {0, 3} ×
//!   S ∈ {1, 2, 4} × window ∈ {1, 3} on random spans, and the same cell
//!   durable and served, state-crashed while a lane holds absorbed
//!   updates. Consumed sets depend on timing, so the referee is per view
//!   the flat depth-1 run's final bag, strong consistency and
//!   exactly-once consumption. Each of these mutations fails it: absorb
//!   without the hop's compensation, absorb a mask outside the lane's, a
//!   checkpoint image that drops absorbed updates, a snapshot taken
//!   before a child folds, absorbing past a later-ticket `ΔR_j`;
//! * **(h)** per-view install cadence is the sequencer's hold: cadence
//!   ∈ {1, 3, 0} across the views × S ∈ {1, 2} × batch ∈ {1, 2} × global
//!   transactions open across cadence boundaries × durability × reads,
//!   and the same cell state-crashed while a batch is held, after a flush
//!   at a quiescent point. Per view: the SWEEP-cadence run's final bag,
//!   strong consistency, exactly-once consumption, atomic transactions,
//!   the read and subscription oracles, and — fault-free — installs that
//!   group the SWEEP-cadence run's releases and stop at the first to meet
//!   the cadence. Each of these mutations fails it: releasing a held batch
//!   inside a transaction, a checkpoint image without the held batches, a
//!   replay that skips a `Flush` record, counting payloads instead of
//!   consumed updates toward the cadence.
//!
//! The referee here is the plain constructor of the same scheduler, so
//! every run is also held to the independent oracles: per-slot
//! consistency classification against ground truth — derived views'
//! fresh recompute at every epoch included — and mutual consistency.

use dwsweep::engine::{EngineOptions, WarehouseError};
use dwsweep::multiview::{CompletionLog, MvError};
use dwsweep::prelude::*;
use dwsweep::protocol::WAREHOUSE_NODE;

const SCHEDULES: u64 = 64;
const SEED_BASE: u64 = 0xFEA7_0000;

/// A seeded multi-view schedule: 3–4 sources, dense enough that sweeps
/// interfere, every view on the SWEEP cadence (so install fingerprints
/// are a pure function of arrival order and comparable across shard
/// counts), odd seeds with a derived stack on top.
fn schedule(k: u64) -> MultiViewScenario {
    let mut scenario = schedule_config(k).generate().unwrap();
    for view in &mut scenario.views {
        view.policy = ViewPolicy::Sweep;
    }
    scenario
}

/// The generator behind [`schedule`].
fn schedule_config(k: u64) -> MultiViewConfig {
    MultiViewConfig {
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
        .options(EngineOptions {
            pushdown,
            batch,
            ..EngineOptions::default()
        });
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
    assert_derived_strong(&report, &arm);
    report
}

/// Every derived slot is classified at least strong against its truth:
/// each install epoch its consumed set's state, the final one the run's.
fn assert_derived_strong(report: &MultiViewReport, arm: &str) {
    for d in report.views.iter().filter(|v| v.parent.is_some()) {
        let c = d.consistency.as_ref().unwrap();
        assert!(
            c.level >= ConsistencyLevel::Strong,
            "{arm}: derived '{}' classified {}: {}",
            d.name,
            c.level,
            c.detail
        );
    }
}

/// Bags, install fingerprints and the message bill match the referee's —
/// every slot, base and derived alike.
fn assert_same_outcome(got: &MultiViewReport, referee: &MultiViewReport, arm: &str) {
    assert_eq!(got.query_messages(), referee.query_messages(), "{arm}");
    assert_eq!(
        got.install_fingerprint(),
        referee.install_fingerprint(),
        "{arm}: install order"
    );
    assert_eq!(got.views.len(), referee.views.len(), "{arm}");
    for (a, b) in got.views.iter().zip(&referee.views) {
        assert_eq!(a.view, b.view, "{arm}: view '{}'", a.name);
    }
}

/// Everything maintenance produced, install times included.
fn assert_same_maintenance(got: &MultiViewReport, referee: &MultiViewReport, arm: &str) {
    assert_same_outcome(got, referee, arm);
    for (a, b) in got.views.iter().zip(&referee.views) {
        assert_eq!(a.installs, b.installs, "{arm}: view '{}'", a.name);
    }
    assert_eq!(got.net.total(), referee.net.total(), "{arm}: wire");
    assert_eq!(got.makespan(), referee.makespan(), "{arm}");
    assert_eq!(got.delivery_log(), referee.delivery_log(), "{arm}");
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
                    .options(EngineOptions {
                        pushdown,
                        ..EngineOptions::default()
                    })
                    .durability(1 + (k % 3) as usize);
                if reads {
                    exp = exp.reads(read_mix(k, &scenario));
                }
                let durable = exp.run().unwrap();
                assert!(durable.quiescent, "{arm}: did not drain");
                assert_derived_strong(&durable, &arm);
                assert_same_outcome(&durable, &flat, &arm);
                if reads {
                    let audit = audit_reads(&durable).unwrap();
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
                    .options(EngineOptions {
                        pushdown,
                        batch,
                        ..EngineOptions::default()
                    })
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
                assert_derived_strong(&crashed, &arm);
                assert_consecutive_runs(&crashed, &arm);
                let audit = audit_reads(&crashed).unwrap();
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
    let multi = || MultiViewExperiment::new(scenario.clone());
    let state_crash = || FaultPlan::default().state_crash(WAREHOUSE_NODE, 500, 900);

    // Exactly the one row of DESIGN.md's table: a warehouse state crash
    // with no durable store. Was silently survived — the window ate its
    // messages, every volatile structure stayed, the run reported clean.
    // Refused before any traffic, flat and sharded, and by the scheduler
    // itself.
    let e = multi().faults(state_crash()).run();
    assert!(refusal(e.unwrap_err()).contains("a warehouse state crash needs a durable store"));
    let e = multi()
        .shards(ShardMap::hash(2))
        .faults(state_crash())
        .run();
    assert!(refusal(e.unwrap_err()).contains("a warehouse state crash needs a durable store"));
    let opts = EngineOptions::default();
    let mut sched = MaintenanceScheduler::with_shards(scenario.base.clone(), opts, None).unwrap();
    let mut net: Network<dwsweep::protocol::Message> = Network::new(0);
    let e = sched.crash_and_recover(&mut net).unwrap_err();
    assert!(refusal(e).contains("a warehouse state crash needs a durable store"));
    sched.enable_durability(Default::default());
    sched.crash_and_recover(&mut net).unwrap();

    // Internal-invariant errors are typed too, not panics.
    let e: CoreError = MvError::Internal { what: "x" }.into();
    assert!(matches!(e, CoreError::Multi(msg) if msg.contains("invariant")));
}

/// A former refusal: shards × a hop that equates nothing. A cross product
/// joins across bands, so purity confines nothing — every band starts in
/// one group and the lanes keep the flat run's one-at-a-time schedule.
/// The two counter-examples that once justified the refusal: a pure
/// insert whose only partner `(11,12)` is pure in the other band (the
/// view must gain `(3,4,11,12)`), and two concurrent pure inserts in
/// different bands (`(3,4,13,14)` must count once). At S ∈ {2, 4} each
/// matches the flat run on bags, install fingerprints and messages.
#[test]
fn cross_join_hops_compose_with_shards() {
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
    for (name, scenario) in [("lost", lost), ("doubled", doubled)] {
        let flat = run(&scenario, None, 0);
        assert!(
            !flat.views[0].view.is_empty(),
            "{name}: the view joined nothing"
        );
        for shards in [2, 4] {
            let arm = format!("{name}, S={shards}");
            let sharded = run(&scenario, Some(ShardMap::range(10, shards)), 0);
            assert_same_outcome(&sharded, &flat, &arm);
            let stats = sharded.shard_stats.as_ref().unwrap();
            assert_eq!(stats.max_concurrent_lanes, 1, "{arm}: one group, one lane");
        }
    }
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
                    .options(EngineOptions {
                        pushdown,
                        batch,
                        ..EngineOptions::default()
                    })
            };
            let quiet = options().run().unwrap();
            let served = options()
                .reads(read_mix(k, &scenario))
                .bounded_subscriptions(2)
                .run()
                .unwrap();
            assert!(served.quiescent, "{arm}: did not drain");

            // The readers saw only truth…
            let audit = audit_reads(&served).unwrap();
            assert!(audit.clean(), "{arm}: {audit:?}");
            let lag = audit_lag_recoveries(&served).unwrap();
            assert!(lag.clean(), "{arm}: {lag:?}");
            assert!(served.subscriptions_match_installs(), "{arm}");
            assert_derived_strong(&served, &arm);
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
        let served = referee.served().unwrap();
        assert_eq!(served.publication_log.len(), installs, "{arm}");
        assert!(served.reads.is_empty() && referee.subscriptions_match_installs());
    }
}

/// A dense banded burst of case `k` over `shards` bands: every update
/// delivered inside a few milliseconds, so pipelined sweeps overlap.
fn dense_burst(k: u64, shards: usize) -> ShardedScenario {
    ShardedConfig {
        n_sources: 3,
        shards,
        updates: 8 + (k % 4) as usize,
        mean_gap: 150 + 50 * (k % 4),
        cross_shard_frac: if k % 4 == 3 { 0.3 } else { 0.0 },
        seed: SEED_BASE + 0x2000 + k,
        ..Default::default()
    }
    .generate()
    .unwrap()
}

/// §5.3's pipelining as the lane rule's depth: `window ∈ {0, 3}` × S ∈
/// {1, 2, 4} on dense bursts must land on the flat Figure-4 referee's
/// bags, install fingerprints and message bill — sweeps sharing a band
/// answer each other's interference through the later-ticket tasks — and
/// the same cell, durable and served, must recover from a state crash
/// swept across the drain (catching later-ticket commits waiting behind
/// a re-seeded lane) to the same outcome under the read oracles.
#[test]
fn windows_compose_with_shards_and_durability() {
    let (mut stacked, mut buffered) = (0, 0);
    for k in 0..SCHEDULES {
        let (shards, window) = ([1, 2, 4][(k % 3) as usize], [0, 3][(k / 3 % 2) as usize]);
        let generated = dense_burst(k, shards);
        let scenario = &generated.scenario;
        let arm = format!("burst {k}, S={shards}, window {window}");
        let referee = run(scenario, None, k);
        let windowed = MultiViewExperiment::new(scenario.clone())
            .shards(generated.map.clone())
            .options(EngineOptions {
                window,
                ..EngineOptions::default()
            })
            .seed(k)
            .run()
            .unwrap();
        assert!(windowed.quiescent, "{arm}");
        assert_same_outcome(&windowed, &referee, &arm);
        assert_eq!(windowed.min_consistency(), Some(ConsistencyLevel::Complete));
        let stats = windowed.shard_stats.as_ref().unwrap();
        stacked += usize::from(stats.max_concurrent_lanes > shards);

        let delivered = scenario.txns.last().unwrap().at + 1_000;
        let down_at = delivered + 50 + 400 * (k % 8);
        let crash = FaultPlan::default().state_crash(WAREHOUSE_NODE, down_at, down_at + 900);
        let done = CompletionLog::default();
        let crashed = MultiViewExperiment::new(scenario.clone())
            .shards(generated.map)
            .options(EngineOptions {
                window,
                ..EngineOptions::default()
            })
            .seed(k)
            .reads(read_mix(k, scenario))
            .faults(crash)
            .transport_auto()
            .durability(1 + (k % 3) as usize)
            .record_completions(done.clone())
            .run()
            .unwrap();
        assert!(crashed.quiescent, "{arm}: crashed run did not drain");
        assert_eq!(crashed.recovery.recoveries, 1, "{arm}");
        // Re-seeded lanes ask again, so only the bill may differ.
        let fingerprint = crashed.install_fingerprint();
        assert_eq!(fingerprint, referee.install_fingerprint(), "{arm}: crashed");
        for (a, b) in crashed.views.iter().zip(&referee.views) {
            assert_eq!(a.view, b.view, "{arm}: view '{}' after the crash", a.name);
        }
        let audit = audit_reads(&crashed).unwrap();
        assert!(audit.clean(), "{arm}: {audit:?}");
        // A lane completion before the window that the first view's log
        // does not show installed by then was committed, unreleased.
        let before = |at: Time| at < down_at;
        let completed = done.lock().unwrap().iter().filter(|c| before(c.1)).count();
        let installs = crashed.views[0].installs.iter();
        buffered += usize::from(completed > installs.filter(|r| before(r.at)).count());
    }
    assert!(
        stacked >= SCHEDULES as usize / 2,
        "only {stacked} runs stacked sweeps on a band"
    );
    assert!(
        buffered >= 8,
        "only {buffered} crashes caught a commit behind an earlier ticket"
    );
}

/// Figure 4's one leg serves every view a walk passes through and falls
/// back to two legs for the rest: on random multi-view spans, flat and
/// sharded, `.sequential(true)` matches the two-leg referee on bags,
/// install fingerprints and the message bill.
#[test]
fn sequential_composes_with_random_spans_and_shards() {
    let mut mixed = 0;
    for k in 0..SCHEDULES {
        let scenario = schedule(k);
        let referee = run(&scenario, None, k);
        mixed += usize::from(scenario.views.iter().any(|v| v.lo != scenario.views[0].lo));
        for map in [None, Some(ShardMap::hash(2))] {
            let arm = format!("schedule {k}, {map:?}, sequential");
            let mut exp = MultiViewExperiment::new(scenario.clone())
                .options(EngineOptions {
                    sequential: true,
                    ..EngineOptions::default()
                })
                .seed(k);
            if let Some(map) = map {
                exp = exp.shards(map);
            }
            let report = exp.run().unwrap();
            assert!(report.quiescent, "{arm}");
            assert_same_outcome(&report, &referee, &arm);
            assert_eq!(report.min_consistency(), Some(ConsistencyLevel::Complete));
            assert_derived_strong(&report, &arm);
        }
    }
    assert!(
        mixed >= SCHEDULES as usize / 2,
        "only {mixed} schedules mixed span starts"
    );
}

/// The empty short-circuit under σ pushdown: a seed the pushed σ empties
/// sends no query, and a one-leg walk stops where its partial empties —
/// the bags and install fingerprints are the pushed referee's, the bill
/// never larger, and smaller where the σ bites.
#[test]
fn short_circuit_composes_with_pushdown() {
    let (mut runs, mut saved) = (0, 0);
    for k in 0..SCHEDULES {
        let [_, (mut banded, map)] = sharded_arms(k, 2);
        for (v, view) in banded.views.iter_mut().enumerate() {
            view.selects
                .push((1, 1, CmpOp::Ge, Value::Int(4 + v as i64)));
        }
        let referee = run_with(&banded, None, true, 1, k);
        for (sequential, map) in [(false, None), (true, None), (true, Some(map))] {
            let arm = format!("banded {k}, sequential {sequential}, {map:?}");
            let mut exp = MultiViewExperiment::new(banded.clone())
                .options(EngineOptions {
                    pushdown: true,
                    short_circuit_empty: true,
                    sequential,
                    ..EngineOptions::default()
                })
                .seed(k);
            if let Some(map) = map {
                exp = exp.shards(map);
            }
            let report = exp.run().unwrap();
            assert!(report.quiescent, "{arm}");
            assert_eq!(report.install_fingerprint(), referee.install_fingerprint());
            for (a, b) in report.views.iter().zip(&referee.views) {
                assert_eq!(a.view, b.view, "{arm}: view '{}'", a.name);
            }
            assert_eq!(report.min_consistency(), Some(ConsistencyLevel::Complete));
            assert!(report.query_messages() <= referee.query_messages(), "{arm}");
            saved += usize::from(report.query_messages() < referee.query_messages());
            runs += 1;
        }
    }
    assert!(
        saved >= runs / 2,
        "the short-circuit saved messages in only {saved} of {runs} runs"
    );
}

/// Per view, every install consumes all or none of the parts of each
/// global transaction whose source lies in the view's span.
fn assert_atomic(scenario: &MultiViewScenario, report: &MultiViewReport, arm: &str) {
    let mut seqs = vec![0; scenario.base.num_relations()];
    let mut gid_of = std::collections::HashMap::new();
    for t in &scenario.txns {
        let id = dwsweep::protocol::UpdateId {
            source: t.source,
            seq: seqs[t.source],
        };
        seqs[t.source] += 1;
        if let Some(g) = t.global {
            gid_of.insert(id, g.gid);
        }
    }
    for (spec, view) in scenario.views.iter().zip(&report.views) {
        let in_span = |gid: u64| {
            let parts = gid_of
                .iter()
                .filter(|&(id, g)| *g == gid && spec.references(id.source));
            parts.count()
        };
        for rec in &view.installs {
            let mut seen = std::collections::HashMap::new();
            for gid in rec.consumed.iter().filter_map(|id| gid_of.get(id)) {
                *seen.entry(*gid).or_insert(0) += 1;
            }
            for (gid, n) in seen {
                assert_eq!(
                    n,
                    in_span(gid),
                    "{arm}: '{}' split transaction {gid}",
                    view.name
                );
            }
        }
    }
}

/// Type-3 global transactions × S ∈ {1, 2, 4} × durability × serving ×
/// `batch > 1`: every view installs each transaction atomically, lands on
/// the flat unbatched referee's bags (and, under one band, on the flat
/// run's install fingerprints at the same batch), and the readers see
/// only truth.
#[test]
fn global_transactions_compose_with_shards_durability_reads_and_batching() {
    let mut held = 0;
    for k in 0..SCHEDULES / 2 {
        let mut config = MultiViewConfig {
            n_derived: 0,
            ..schedule_config(k)
        };
        config.stream.global_every = 3;
        config.stream.global_span = 2;
        let scenario = config.generate().unwrap();
        let flat = |batch| {
            let opts = EngineOptions {
                batch,
                ..EngineOptions::default()
            };
            let report = MultiViewExperiment::new(scenario.clone()).options(opts);
            let report = report.seed(k).run().unwrap();
            assert_atomic(
                &scenario,
                &report,
                &format!("schedule {k}, flat, batch {batch}"),
            );
            report
        };
        let batch = [2, 4][(k % 2) as usize];
        let (referee, flat_batched) = (flat(1), flat(batch));
        for shards in [1, 2, 4] {
            let arm = format!("schedule {k}, S={shards}, batch {batch}");
            let report = MultiViewExperiment::new(scenario.clone())
                .shards(ShardMap::hash(shards))
                .options(EngineOptions {
                    batch,
                    ..EngineOptions::default()
                })
                .durability(1 + (k % 3) as usize)
                .reads(read_mix(k, &scenario))
                .seed(k)
                .run()
                .unwrap();
            assert!(report.quiescent, "{arm}");
            assert_atomic(&scenario, &report, &arm);
            assert_consecutive_runs(&report, &arm);
            // Holding a transaction skips states: strong, not complete.
            let level = report.min_consistency().unwrap();
            assert!(level >= ConsistencyLevel::Strong, "{arm}: {level}");
            assert!(report.mutual.as_ref().unwrap().final_agreement, "{arm}");
            for (a, b) in report.views.iter().zip(&referee.views) {
                assert_eq!(a.view, b.view, "{arm}: view '{}'", a.name);
            }
            if shards == 1 {
                assert_eq!(
                    report.install_fingerprint(),
                    flat_batched.install_fingerprint()
                );
            }
            let audit = audit_reads(&report).unwrap();
            assert!(audit.clean(), "{arm}: {audit:?}");
            let widest = report.views.iter().flat_map(|v| &v.installs);
            held += usize::from(widest.map(|r| r.consumed.len()).max() > Some(batch));
        }
    }
    assert!(
        held >= SCHEDULES as usize / 2,
        "a transaction held installs in only {held} runs"
    );
}

/// Per view, every update of a source in the view's span is consumed by
/// exactly one install, and nothing else is.
fn assert_exactly_once(scenario: &MultiViewScenario, report: &MultiViewReport, arm: &str) {
    let mut seqs = vec![0; scenario.base.num_relations()];
    let mut all = Vec::new();
    for t in &scenario.txns {
        all.push(dwsweep::protocol::UpdateId {
            source: t.source,
            seq: seqs[t.source],
        });
        seqs[t.source] += 1;
    }
    for (spec, view) in scenario.views.iter().zip(&report.views) {
        let mut seen = std::collections::HashSet::new();
        for id in view.installs.iter().flat_map(|rec| &rec.consumed) {
            assert!(spec.references(id.source), "{arm}: '{}' {id:?}", view.name);
            assert!(
                seen.insert(*id),
                "{arm}: '{}' consumed {id:?} twice",
                view.name
            );
        }
        let want = all.iter().filter(|id| spec.references(id.source)).count();
        assert_eq!(seen.len(), want, "{arm}: '{}' lost an update", view.name);
    }
}

/// A nested run's referees: consumed sets depend on answer timing, so
/// per view the final bag of the flat depth-1 run, strong consistency and
/// exactly-once consumption — not install fingerprints.
fn assert_nested_outcome(
    scenario: &MultiViewScenario,
    got: &MultiViewReport,
    referee: &MultiViewReport,
    arm: &str,
) {
    assert!(got.quiescent, "{arm}: did not drain");
    for (a, b) in got.views.iter().zip(&referee.views) {
        assert_eq!(a.view, b.view, "{arm}: view '{}'", a.name);
    }
    let level = got.min_consistency().unwrap();
    assert!(
        level >= ConsistencyLevel::Strong,
        "{arm}: weakest view is {level}"
    );
    assert!(got.mutual.as_ref().unwrap().final_agreement, "{arm}");
    assert_derived_strong(got, arm);
    assert_exactly_once(scenario, got, arm);
}

/// Figure 6 as the scheduler's `depth`: depth ∈ {0, 3} × S ∈ {1, 2, 4} ×
/// window ∈ {1, 3} on Figure 4's one leg over random multi-view spans,
/// hashed and banded — and the same cell durable and served, its
/// warehouse state-crashed while a lane holds absorbed updates (the
/// instant before the first install that absorbed). Each run lands on
/// the flat depth-1 referee per view (see [`assert_nested_outcome`]), and
/// the readers see only truth.
#[test]
fn nesting_composes_with_shards_windows_durability_and_reads() {
    let (mut cells, mut nested, mut deep) = (0, 0, 0);
    for k in 0..SCHEDULES {
        let depth = [0, 3][(k % 2) as usize];
        let shards = [1, 2, 4][(k / 2 % 3) as usize];
        let window = [1, 3][(k / 6 % 2) as usize];
        for (scenario, map) in sharded_arms(k, shards) {
            let arm = format!("schedule {k}, {map:?}, depth {depth}, window {window}");
            let referee = run(&scenario, None, k);
            let opts = EngineOptions {
                depth,
                window,
                sequential: true,
                ..EngineOptions::default()
            };
            let cell = || {
                MultiViewExperiment::new(scenario.clone())
                    .shards(map.clone())
                    .options(opts)
                    .seed(k)
            };
            let quiet = cell().run().unwrap();
            assert_nested_outcome(&scenario, &quiet, &referee, &arm);
            cells += 1;
            let absorbed = quiet.views.iter().flat_map(|v| &v.installs);
            let Some(at) = absorbed
                .filter(|r| r.consumed.len() > 1)
                .map(|r| r.at)
                .min()
            else {
                continue;
            };
            nested += 1;
            deep += usize::from(quiet.scheduler_metrics.max_recursion_depth > 2);

            let crash = FaultPlan::default().state_crash(WAREHOUSE_NODE, at - 1, at + 899);
            let crashed = cell()
                .reads(read_mix(k, &scenario))
                .faults(crash)
                .transport_auto()
                .durability(2)
                .run()
                .unwrap();
            let arm = format!("{arm}, crashed at {}", at - 1);
            assert_eq!(crashed.recovery.recoveries, 1, "{arm}");
            assert_nested_outcome(&scenario, &crashed, &referee, &arm);
            let audit = audit_reads(&crashed).unwrap();
            assert!(audit.clean(), "{arm}: {audit:?}");
        }
    }
    assert!(
        nested >= cells / 3,
        "only {nested} of {cells} cells ever absorbed an update"
    );
    assert!(deep > 0, "no lane ever stacked a second child");
}

/// The cadence of view `v` in case `k`: 1, 3 and 0 (only at drain) in
/// turn across the views, rotated by the case.
fn cadence(k: u64, v: usize) -> usize {
    [1, 3, 0][(v + k as usize) % 3]
}

/// Per view of cadence `k`, the installs group the releases of the
/// SWEEP-cadence run with the same options and seed (cadence changes
/// when a view installs, never what a sweep sends or when it commits) —
/// consecutive, none skipped — and each stops at the first release that
/// brings it to `k` consumed updates, or sooner, at a flush.
fn assert_cadence(
    got: &MultiViewReport,
    sweep: &MultiViewReport,
    scenario: &MultiViewScenario,
    arm: &str,
) {
    for ((view, unit), spec) in got.views.iter().zip(&sweep.views).zip(&scenario.views) {
        let every = spec.policy.every();
        let mut units = unit.installs.iter().map(|r| r.consumed.as_slice());
        for rec in &view.installs {
            let (mut taken, mut last) = (0, 0);
            while taken < rec.consumed.len() {
                let next = units.next().unwrap_or_default();
                let got = rec.consumed.get(taken..taken + next.len());
                assert_eq!(
                    got,
                    Some(next),
                    "{arm}: '{}' regrouped a release",
                    view.name
                );
                (taken, last) = (taken + next.len(), next.len());
            }
            let held_past = every != 0 && taken - last >= every;
            assert!(
                !held_past,
                "{arm}: '{}' held {taken} past cadence {every}",
                view.name
            );
        }
        assert_eq!(units.next(), None, "{arm}: '{}' left a release", view.name);
    }
}

/// Per-view install cadence × S ∈ {1, 2} × batch ∈ {1, 2} × global
/// transactions × durability × reads: against the SWEEP-cadence run of
/// the same cell, fault-free and state-crashed while a batch is held just
/// after a flush at a quiescent point (see the module docs, (h)).
#[test]
fn cadence_composes_with_shards_transactions_durability_and_reads() {
    let (mut cells, mut across, mut folded, mut crashed_after_flush) = (0, 0, 0, 0);
    for k in 0..SCHEDULES {
        // Gaps about a sweep long: bursts fold and hold transactions
        // open, lulls let the warehouse drain and flush mid-run.
        let mut config = schedule_config(k);
        config.stream.updates = 12 + (k % 5) as usize;
        config.stream.mean_gap = 2_000 + 1_000 * (k % 3);
        config.stream.global_every = 3;
        config.stream.global_span = 2;
        let mut scenario = config.generate().unwrap();
        let sweep_cadence = {
            let mut s = scenario.clone();
            s.views
                .iter_mut()
                .for_each(|v| v.policy = ViewPolicy::Sweep);
            s
        };
        for (v, view) in scenario.views.iter_mut().enumerate() {
            view.policy = match cadence(k, v) {
                1 => ViewPolicy::Sweep,
                batch => ViewPolicy::Deferred { batch },
            };
        }
        let (shards, batch) = ([1, 2][(k % 2) as usize], [1, 2][(k / 2 % 2) as usize]);
        let arm = format!("schedule {k}, S={shards}, batch {batch}");
        let cell = |scenario: &MultiViewScenario| {
            MultiViewExperiment::new(scenario.clone())
                .shards(ShardMap::hash(shards))
                .options(EngineOptions {
                    batch,
                    ..EngineOptions::default()
                })
                .transport_auto()
                .seed(k)
        };
        let referee = cell(&sweep_cadence).run().unwrap();
        let check = |got: &MultiViewReport, arm: &str| {
            assert!(got.quiescent, "{arm}: did not drain");
            for (a, b) in got.views.iter().zip(&referee.views) {
                assert_eq!(a.view, b.view, "{arm}: view '{}'", a.name);
            }
            let level = got.min_consistency().unwrap();
            assert!(level >= ConsistencyLevel::Strong, "{arm}: {level}");
            assert!(got.mutual.as_ref().unwrap().final_agreement, "{arm}");
            assert_derived_strong(got, arm);
            assert_exactly_once(&scenario, got, arm);
            assert_atomic(&scenario, got, arm);
            let audit = audit_reads(got).unwrap();
            assert!(audit.clean(), "{arm}: {audit:?}");
            assert!(got.subscriptions_match_installs(), "{arm}: subscriptions");
        };
        let served = || cell(&scenario).durability(2).reads(read_mix(k, &scenario));
        let done = CompletionLog::default();
        let quiet = served().record_completions(done.clone()).run().unwrap();
        check(&quiet, &arm);
        assert_cadence(&quiet, &referee, &scenario, &arm);
        cells += 1;
        let base = &quiet.views[..scenario.views.len()];
        let threes = base.iter().enumerate();
        let threes = threes.filter(|(v, _)| cadence(k, *v) == 3);
        let mut threes = threes.flat_map(|(_, view)| &view.installs);
        across += usize::from(threes.any(|r| r.consumed.len() > 3));
        let mut payloads = referee.views.iter().flat_map(|v| &v.installs);
        folded += usize::from(batch > 1 && payloads.any(|r| r.consumed.len() > 1));

        // Crash right after the first commit that follows a flush at a
        // quiescent point: the checkpoint image holds batches, the log
        // may still hold the flush, and a batch is held again.
        let last_delivery = scenario.txns.last().unwrap().at;
        let drains = base.iter().enumerate();
        let drains = drains.filter(|(v, _)| cadence(k, *v) == 0);
        let flushes = drains.flat_map(|(_, view)| &view.installs).map(|r| r.at);
        let Some(flushed) = flushes.filter(|&at| at < last_delivery).min() else {
            continue;
        };
        let completions = done.lock().unwrap();
        let commits = completions.iter().map(|c| c.1);
        let Some(commit) = commits.filter(|&at| at > flushed).min() else {
            continue;
        };
        let crash = FaultPlan::default().state_crash(WAREHOUSE_NODE, commit + 1, commit + 901);
        let crashed = served().faults(crash).run().unwrap();
        let arm = format!("{arm}, crashed at {}", commit + 1);
        assert_eq!(crashed.recovery.recoveries, 1, "{arm}");
        check(&crashed, &arm);
        crashed_after_flush += 1;
    }
    assert!(
        across >= 8,
        "only {across} cells held a cadence-3 view past 3"
    );
    assert!(folded >= 8, "only {folded} cells folded a batch");
    assert!(
        crashed_after_flush >= cells / 3,
        "only {crashed_after_flush} of {cells} cells crashed after a flush"
    );
}
