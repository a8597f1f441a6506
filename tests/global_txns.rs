//! Integration: global transactions (update type 3 of §2). The paper
//! defers their handling to the [ZGMW96] approach — tagging each part with
//! a transaction id and incorporating all parts atomically. Our SWEEP
//! implementation computes each part's view change as usual but holds
//! installs until every part of every in-progress global transaction has
//! been processed, then flushes one atomic state transition.

use dwsweep::engine::WarehouseError;
use dwsweep::prelude::*;
use dwsweep::protocol::{GlobalPart, UpdateId};
use std::collections::{HashMap, HashSet};

fn scenario(seed: u64, updates: usize) -> GeneratedScenario {
    StreamConfig {
        n_sources: 4,
        initial_per_source: 20,
        updates,
        mean_gap: 1_200,
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
    // Reconstruct ids the way sources assign them: per-source injection
    // order = per-source seq numbers.
    let mut seqs = vec![0u64; s.view.num_relations()];
    let mut out = HashMap::new();
    for t in &s.txns {
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
        .policy(PolicyKind::Sweep(SweepOptions {
            window,
            ..Default::default()
        }))
        .latency(LatencyModel::Constant(2_000))
        .run()
        .unwrap();
    assert!(report.quiescent, "window {window}");

    // Atomicity: every install consumes all-or-none of each gid's parts.
    let mut parts_per_gid: HashMap<u64, usize> = HashMap::new();
    for gid in gid_of.values() {
        *parts_per_gid.entry(*gid).or_default() += 1;
    }
    for (k, rec) in report.installs.iter().enumerate() {
        let mut seen: HashMap<u64, usize> = HashMap::new();
        for id in &rec.consumed {
            if let Some(gid) = gid_of.get(id) {
                *seen.entry(*gid).or_default() += 1;
            }
        }
        for (gid, n) in seen {
            assert_eq!(
                n, parts_per_gid[&gid],
                "window {window}: install {k} exposes a partial global transaction {gid}"
            );
        }
    }

    // Batching globals trades complete for strong consistency — verified.
    let level = report.consistency.unwrap().level;
    assert!(
        level >= ConsistencyLevel::Strong,
        "window {window}: got {level}"
    );
}

#[test]
fn global_txns_converge_across_policies_that_ignore_them() {
    // Policies without atomic-group support still converge (parts are
    // ordinary updates to them); SWEEP additionally guarantees atomicity.
    let baseline = Experiment::new(scenario(3, 16))
        .policy(PolicyKind::Sweep(Default::default()))
        .run()
        .unwrap();
    for kind in [
        PolicyKind::NestedSweep(Default::default()),
        PolicyKind::Recompute,
    ] {
        let r = Experiment::new(scenario(3, 16)).policy(kind).run().unwrap();
        assert_eq!(r.view, baseline.view, "{} diverged", r.policy);
    }
}

#[test]
fn non_global_updates_between_parts_are_held_not_lost() {
    let s = scenario(4, 24);
    let report = Experiment::new(s)
        .policy(PolicyKind::Sweep(Default::default()))
        .latency(LatencyModel::Constant(2_000))
        .run()
        .unwrap();
    // Every delivered update is consumed exactly once across installs.
    let mut seen = HashSet::new();
    for rec in &report.installs {
        for id in &rec.consumed {
            assert!(seen.insert(*id), "{id:?} consumed twice");
        }
    }
    assert_eq!(seen.len() as u64, report.metrics.updates_received);
}

/// Re-tag the first `k` plain transactions of `s` with `tag`.
fn tag_plain_txns(s: &mut GeneratedScenario, k: usize, tag: GlobalPart) {
    let plain = s.txns.iter_mut().filter(|t| t.global.is_none());
    let tagged = plain.take(k).map(|t| t.global = Some(tag)).count();
    assert_eq!(tagged, k, "scenario has too few plain transactions");
}

fn assert_refused_typed(s: GeneratedScenario, what: &str) {
    let err = Experiment::new(s)
        .policy(PolicyKind::Sweep(Default::default()))
        .run()
        .expect_err(what);
    assert!(
        matches!(
            err,
            CoreError::Warehouse(WarehouseError::Precondition { .. })
        ),
        "{what}: got {err}"
    );
}

#[test]
fn a_zero_part_global_tag_is_refused_typed() {
    // `parts: 0` used to underflow the countdown: a panic in debug builds,
    // a hold that never lifts in release builds.
    let mut s = scenario(5, 12);
    tag_plain_txns(&mut s, 1, GlobalPart { gid: 900, parts: 0 });
    assert_refused_typed(s, "a transaction of zero parts");
}

#[test]
fn a_part_beyond_the_announced_count_is_refused_typed() {
    // Three updates claim to be parts of a two-part transaction: the third
    // used to re-open the finished transaction and hold installs forever.
    let mut s = scenario(6, 12);
    tag_plain_txns(&mut s, 3, GlobalPart { gid: 901, parts: 2 });
    assert_refused_typed(s, "a third part of a two-part transaction");
}
