//! Integration: global transactions (update type 3 of §2). The paper
//! defers their handling to the [ZGMW96] approach — tagging each part with
//! a transaction id and incorporating all parts atomically. The scheduler
//! computes each part's view change as usual but holds releases until
//! every part of every in-progress global transaction has been released,
//! then installs one atomic state transition per view — for one view or
//! many, sharded, durable or serving.

use dwsweep::engine::WarehouseError;
use dwsweep::prelude::*;
use dwsweep::protocol::{GlobalPart, UpdateId};
use std::collections::{HashMap, HashSet};

fn scenario(seed: u64, updates: usize) -> GeneratedScenario {
    stream(seed, updates, 1_200)
}

/// [`scenario`] with a mean gap of `mean_gap` µs between transactions.
fn stream(seed: u64, updates: usize, mean_gap: u64) -> GeneratedScenario {
    StreamConfig {
        n_sources: 4,
        initial_per_source: 20,
        updates,
        mean_gap,
        domain: 10,
        global_every: 4, // every 4th txn is global
        global_span: 3,  // spanning 3 sources
        seed,
        ..Default::default()
    }
    .generate()
    .unwrap()
}

/// Map each update id to its global transaction group (from the scenario).
fn groups(s: &GeneratedScenario) -> HashMap<UpdateId, u64> {
    groups_of(&s.txns, s.view.num_relations())
}

/// [`groups`] over any stream of `n` sources.
fn groups_of(txns: &[ScheduledTxn], n: usize) -> HashMap<UpdateId, u64> {
    // Reconstruct ids the way sources assign them: per-source injection
    // order = per-source seq numbers.
    let mut seqs = vec![0u64; n];
    let mut out = HashMap::new();
    for t in txns {
        let id = UpdateId {
            source: t.source,
            seq: seqs[t.source],
        };
        seqs[t.source] += 1;
        if let Some(g) = t.global {
            out.insert(id, g.gid);
        }
    }
    out
}

#[test]
fn workload_generates_global_parts() {
    let s = scenario(1, 24);
    let global_parts = s.txns.iter().filter(|t| t.global.is_some()).count();
    assert!(global_parts >= 6, "got {global_parts} global parts");
    // Parts of one gid share a timestamp and have distinct sources.
    let mut by_gid: HashMap<u64, Vec<&dwsweep::workload::ScheduledTxn>> = HashMap::new();
    for t in &s.txns {
        if let Some(g) = t.global {
            by_gid.entry(g.gid).or_default().push(t);
        }
    }
    for (gid, parts) in by_gid {
        assert_eq!(parts.len(), 3, "gid {gid}");
        assert!(parts.windows(2).all(|w| w[0].at == w[1].at));
        let sources: HashSet<usize> = parts.iter().map(|t| t.source).collect();
        assert_eq!(sources.len(), 3);
        assert_eq!(parts[0].global.unwrap().parts, 3);
    }
}

#[test]
fn sweep_installs_global_txns_atomically() {
    // Pipelining (window 0 = unbounded, 3 = bounded) overlaps the parts'
    // sweeps; the hold sits in front of the one install path either way.
    for window in [1, 0, 3] {
        sweep_window_installs_global_txns_atomically(window);
    }
}

fn sweep_window_installs_global_txns_atomically(window: usize) {
    let s = scenario(2, 24);
    let gid_of = groups(&s);
    let report = Experiment::new(s)
        .policy(PolicyKind::Sweep(EngineOptions {
            window,
            ..EngineOptions::FIGURE_4
        }))
        .latency(LatencyModel::Constant(2_000))
        .run()
        .unwrap();
    assert!(report.quiescent, "window {window}");

    // Atomicity: every install consumes all-or-none of each gid's parts.
    let arm = format!("window {window}");
    assert_atomic(&report.views[0].installs, &gid_of, |_| true, &arm);

    // Batching globals trades complete for strong consistency — verified.
    let level = report.views[0].consistency.as_ref().unwrap().level;
    assert!(
        level >= ConsistencyLevel::Strong,
        "window {window}: got {level}"
    );
}

/// Nested SWEEP holds global transactions as SWEEP does — an absorbed
/// part counts where it installs — and refuses a tag whose count cannot
/// be met, at every depth. The parts of one transaction arrive together,
/// so at a 2 ms link a hop finds its siblings queued and nests them.
#[test]
fn nested_sweep_installs_global_txns_atomically() {
    for depth in [0, 1, 2] {
        let opts = EngineOptions {
            depth,
            ..EngineOptions::FIGURE_6
        };
        for seed in 1..=4 {
            let arm = format!("depth {depth}, seed {seed}");
            let s = stream(seed, 24, 20_000);
            let gid_of = groups(&s);
            let report = Experiment::new(s)
                .policy(PolicyKind::Sweep(opts))
                .latency(LatencyModel::Constant(2_000))
                .run()
                .unwrap();
            assert!(report.quiescent, "{arm}");
            assert_atomic(&report.views[0].installs, &gid_of, |_| true, &arm);
            let level = report.views[0].consistency.as_ref().unwrap().level;
            assert!(level >= ConsistencyLevel::Strong, "{arm}: got {level}");
        }
        let mut s = scenario(5, 12);
        tag_plain_txns(&mut s.txns, 1, GlobalPart { gid: 900, parts: 0 });
        let run = Experiment::new(s).policy(PolicyKind::Sweep(opts)).run();
        assert_refused_typed(run.map(|r| r.views), "a transaction of zero parts");
    }
}

#[test]
fn global_txns_converge_across_policies_that_ignore_them() {
    // Recompute has no atomic-group support and still converges (parts
    // are ordinary updates to it); SWEEP additionally guarantees
    // atomicity.
    let baseline = Experiment::new(scenario(3, 16))
        .policy(PolicyKind::Sweep(EngineOptions::FIGURE_4))
        .run()
        .unwrap();
    let r = Experiment::new(scenario(3, 16))
        .policy(PolicyKind::Recompute)
        .run()
        .unwrap();
    assert_eq!(
        r.views[0].view,
        baseline.views[0].view,
        "{} diverged",
        PolicyKind::Recompute.name()
    );
}

#[test]
fn non_global_updates_between_parts_are_held_not_lost() {
    let s = scenario(4, 24);
    let report = Experiment::new(s)
        .policy(PolicyKind::Sweep(EngineOptions::FIGURE_4))
        .latency(LatencyModel::Constant(2_000))
        .run()
        .unwrap();
    // Every delivered update is consumed exactly once across installs.
    let mut seen = HashSet::new();
    for rec in &report.views[0].installs {
        for id in &rec.consumed {
            assert!(seen.insert(*id), "{id:?} consumed twice");
        }
    }
    assert_eq!(seen.len() as u64, report.scheduler_metrics.updates_received);
}

/// Every install in `installs` consumes all or none of the parts of each
/// global transaction that land in its view — the parts whose source
/// `in_view` admits.
fn assert_atomic(
    installs: &[InstallEvent],
    gid_of: &HashMap<UpdateId, u64>,
    in_view: impl Fn(&UpdateId) -> bool,
    arm: &str,
) {
    let mut parts_per_gid: HashMap<u64, usize> = HashMap::new();
    for (id, gid) in gid_of {
        *parts_per_gid.entry(*gid).or_default() += usize::from(in_view(id));
    }
    for (k, rec) in installs.iter().enumerate() {
        let mut seen: HashMap<u64, usize> = HashMap::new();
        for id in &rec.consumed {
            if let Some(gid) = gid_of.get(id) {
                *seen.entry(*gid).or_default() += 1;
            }
        }
        for (gid, n) in seen {
            assert_eq!(
                n, parts_per_gid[&gid],
                "{arm}: install {k} exposes a partial global transaction {gid}"
            );
        }
    }
}

/// Re-tag the first `k` plain transactions of `txns` with `tag`.
fn tag_plain_txns(txns: &mut [ScheduledTxn], k: usize, tag: GlobalPart) {
    let plain = txns.iter_mut().filter(|t| t.global.is_none());
    let tagged = plain.take(k).map(|t| t.global = Some(tag)).count();
    assert_eq!(tagged, k, "scenario has too few plain transactions");
}

fn assert_refused_typed(run: Result<impl std::fmt::Debug, CoreError>, what: &str) {
    let err = run.expect_err(what);
    assert!(
        matches!(
            err,
            CoreError::Warehouse(WarehouseError::Precondition { .. })
        ),
        "{what}: got {err}"
    );
}

/// Both warehouses refuse a malformed tag: one view, and many.
fn assert_refused_both_ways(seed: u64, tags: usize, tag: GlobalPart, what: &str) {
    let mut s = scenario(seed, 12);
    tag_plain_txns(&mut s.txns, tags, tag);
    let one = Experiment::new(s).policy(PolicyKind::Sweep(EngineOptions::FIGURE_4));
    assert_refused_typed(one.run().map(|r| r.views), what);
    let mut s = mv_scenario(seed, 12);
    tag_plain_txns(&mut s.txns, tags, tag);
    let many = MultiViewExperiment::new(s).shards(ShardMap::hash(2));
    assert_refused_typed(many.run().map(|r| r.events), what);
}

#[test]
fn a_zero_part_global_tag_is_refused_typed() {
    // `parts: 0` used to underflow the countdown: a panic in debug builds,
    // a hold that never lifts in release builds.
    let tag = GlobalPart { gid: 900, parts: 0 };
    assert_refused_both_ways(5, 1, tag, "a transaction of zero parts");
}

#[test]
fn a_part_beyond_the_announced_count_is_refused_typed() {
    // Three updates claim to be parts of a two-part transaction: the third
    // used to re-open the finished transaction and hold installs forever.
    let tag = GlobalPart { gid: 901, parts: 2 };
    assert_refused_both_ways(6, 3, tag, "a third part of a two-part transaction");
}

/// The multi-view version of [`scenario`]: three views over random spans
/// of the same four-source chain.
fn mv_scenario(seed: u64, updates: usize) -> MultiViewScenario {
    MultiViewConfig {
        stream: StreamConfig {
            n_sources: 4,
            initial_per_source: 20,
            updates,
            mean_gap: 1_200,
            domain: 10,
            global_every: 4,
            global_span: 3,
            seed,
            ..Default::default()
        },
        n_views: 3,
        view_seed: seed ^ 0x61,
        full_span: false,
        n_derived: 0,
        derived_seed: 0,
    }
    .generate()
    .unwrap()
}

/// Many views under one scheduler — flat, sharded, durable, serving —
/// install every global transaction atomically, per view: the parts in a
/// view's span all land in one of its installs.
#[test]
fn multiview_installs_global_txns_atomically() {
    let mut spanning = 0;
    for seed in [2, 3] {
        let s = mv_scenario(seed, 24);
        let gid_of = groups_of(&s.txns, 4);
        let reads = ReadMixConfig {
            n_views: s.views.len(),
            ..ReadMixConfig::hot_key_points(3, 12, seed)
        }
        .generate();
        for (shards, durable) in [(1, false), (2, false), (1, true), (2, true)] {
            let arm = format!("seed {seed}, {shards} shard(s), durable {durable}");
            let mut exp =
                MultiViewExperiment::new(s.clone()).latency(LatencyModel::Constant(2_000));
            if shards > 1 {
                exp = exp.shards(ShardMap::hash(shards));
            }
            if durable {
                exp = exp.durability(2).reads(reads.clone());
            }
            let report = exp.run().unwrap();
            assert!(report.quiescent, "{arm}");
            for (spec, view) in s.views.iter().zip(&report.views) {
                let in_view = |id: &UpdateId| spec.references(id.source);
                assert_atomic(&view.installs, &gid_of, in_view, &arm);
                let widest = view.installs.iter().map(|r| r.consumed.len()).max();
                spanning += usize::from(widest > Some(1));
            }
            assert!(
                report.min_consistency().unwrap() >= ConsistencyLevel::Strong,
                "{arm}"
            );
            if durable {
                let audit = audit_reads(&report).unwrap();
                assert!(audit.clean() && audit.answered > 0, "{arm}: {audit:?}");
            }
        }
    }
    assert!(spanning > 0, "no install ever held a global transaction");
}
