//! Cross-backend engine conformance: the unified sweep engine must be
//! transport-blind. The same seeded schedule driven through the
//! deterministic simulator ([`Experiment`]) and through real OS threads
//! ([`run_live`] over the engine's [`ThreadNet`]) must produce the same
//! final view *and the same install sequence* — tuple-identical consumed
//! sets, in the same order.
//!
//! Delivery order on real threads is decided by the OS scheduler, so
//! install-sequence equality is only meaningful when the schedule leaves
//! no room for races: these schedules are *sparse* — constant
//! inter-arrival gaps that, after `time_scale` compression, are still
//! orders of magnitude above a thread-hop round trip. Every sweep
//! completes before the next update arrives, on both backends, and the
//! install sequence collapses to the injection order.
//!
//! That sparseness claim is a wall-clock claim, so it degrades under
//! host load: on a busy machine a sweep's thread hops can stretch past
//! the compressed gap, updates then legitimately arrive mid-sweep, and
//! a timing-dependent fingerprint (Nested SWEEP dovetails them; plain
//! SWEEP can see cross-source arrivals swap) differs from the
//! simulator's without any engine bug. The live arm therefore retries
//! with progressively *less* time compression — wider real gaps — and
//! only a mismatch at every scale (including 1:1, where the gaps are a
//! full 200 ms) is declared a conformance failure. A genuine
//! transport-blindness bug is schedule-determined and fails at every
//! scale.

use dwsweep::livenet::run_live;
use dwsweep::multiview::CompletionLog;
use dwsweep::prelude::*;
use dwsweep::protocol::UpdateId;
use dwsweep::relational::eval_view;
use std::sync::Arc;
use std::time::Duration;

const SEEDS: u64 = 64;
const FIGURE_4: EngineOptions = EngineOptions::FIGURE_4;
const SEED_BASE: u64 = 0xC0_0000;

/// Sparse schedule: 4–5 updates, 200 ms constant gaps (8 ms real time at
/// `TIME_SCALE`), far above any thread round trip.
fn sparse_scenario(seed: u64) -> GeneratedScenario {
    StreamConfig {
        n_sources: 3,
        initial_per_source: 20,
        domain: 8,
        updates: 4 + (seed % 2) as usize,
        mean_gap: 200_000,
        gap: GapKind::Constant,
        seed,
        ..Default::default()
    }
    .generate()
    .unwrap()
}

/// Escalating real-time widths for the live arm: start fast (8 ms real
/// gaps), back off toward 1:1 (200 ms real gaps) only if host load made
/// the fast run race.
const TIME_SCALES: [f64; 3] = [25.0, 5.0, 1.0];
const DEADLINE: Duration = Duration::from_secs(60);

fn ground_truth(s: &GeneratedScenario) -> Bag {
    let mut rels = s.initial.clone();
    for t in &s.txns {
        rels[t.source].merge(&t.delta);
    }
    let refs: Vec<&Bag> = rels.iter().collect();
    eval_view(&s.view, &refs).unwrap()
}

/// The backend-independent fingerprint of a run: every install's
/// consumed-update set and delta, in install order.
fn install_fingerprint(installs: &[InstallEvent]) -> Vec<(Vec<UpdateId>, Arc<Bag>)> {
    let install = |r: &InstallEvent| (r.consumed.clone(), Arc::clone(&r.delta));
    installs.iter().map(install).collect()
}

#[test]
fn sweep_conforms_across_backends() {
    for k in 0..SEEDS {
        let s = sparse_scenario(SEED_BASE + k);
        let truth = ground_truth(&s);

        let sim = Experiment::new(s.clone())
            .policy(PolicyKind::Sweep(EngineOptions::FIGURE_4))
            .run()
            .unwrap();
        let sim_fp = install_fingerprint(&sim.views[0].installs);
        let mut live = None;
        for &scale in &TIME_SCALES {
            let r = run_live(&s, FIGURE_4, scale, DEADLINE).unwrap();
            let matched = r.quiescent && install_fingerprint(&r.views[0].installs) == sim_fp;
            live = Some(r);
            if matched {
                break;
            }
        }
        let live = live.unwrap();

        assert!(sim.quiescent && live.quiescent, "seed {k}");
        assert_eq!(
            sim.views[0].view, truth,
            "seed {k}: simnet diverged from truth"
        );
        assert_eq!(
            live.views[0].view, truth,
            "seed {k}: livenet diverged from truth"
        );
        assert_eq!(
            install_fingerprint(&sim.views[0].installs),
            install_fingerprint(&live.views[0].installs),
            "seed {k}: install sequences differ across backends"
        );
    }
}

/// Pushed vs unpushed σ: query pushdown is a *transport* optimization —
/// on 128 seeded multi-view schedules (random spans, selections,
/// projections, policies) the pushed engine must produce, per view, the identical final bag and the
/// identical install sequence, while never shipping more answer bytes.
#[test]
fn pushdown_conforms_to_unpushed_engine() {
    const MV_SEEDS: u64 = 128;
    for k in 0..MV_SEEDS {
        let mv = MultiViewConfig {
            stream: StreamConfig {
                n_sources: 3,
                initial_per_source: 15,
                domain: 8,
                updates: 3 + (k % 3) as usize,
                mean_gap: 5_000,
                keyed: true,
                seed: SEED_BASE + 0x2000 + k,
                ..Default::default()
            },
            n_views: 1 + (k % 3) as usize,
            view_seed: k * 31 + 7,
            full_span: false,
            n_derived: 0,
            derived_seed: 0,
        };
        let scenario = mv.generate().unwrap();
        let plain = MultiViewExperiment::new(scenario.clone())
            .seed(k)
            .run()
            .unwrap();
        let pushed = MultiViewExperiment::new(scenario)
            .options(EngineOptions {
                pushdown: true,
                ..EngineOptions::default()
            })
            .seed(k)
            .run()
            .unwrap();
        assert!(plain.quiescent && pushed.quiescent, "seed {k}");
        // Same hop structure: pushdown changes payloads, never the
        // number of query/answer messages.
        assert_eq!(plain.query_messages(), pushed.query_messages(), "seed {k}");
        assert_eq!(plain.views.len(), pushed.views.len(), "seed {k}");
        for (a, b) in plain.views.iter().zip(&pushed.views) {
            assert_eq!(
                a.view, b.view,
                "seed {k}: view '{}' diverged under pushdown",
                a.name
            );
            assert_eq!(
                install_fingerprint(&a.installs),
                install_fingerprint(&b.installs),
                "seed {k}: view '{}' install sequences differ",
                a.name
            );
        }
        // The reduction invariant E16 gates, checked across every seed:
        // filtered answers can only shrink.
        assert!(
            pushed.net.label("answer").bytes <= plain.net.label("answer").bytes,
            "seed {k}: pushdown increased answer bytes"
        );
    }
}

/// Sharded vs unsharded: concurrent sweep lanes behind one install
/// sequencer must be *invisible downstream* — on 128 seeded banded
/// schedules (shard counts 2, 3 and 4, dense bursts that overlap lanes,
/// half the seeds mixing in cross-shard updates whose lanes claim
/// several bands) the sharded engine must produce, per view, the
/// identical final bag, the identical install sequence, and the
/// identical query/answer message count as the unsharded shared-sweep
/// engine on the same scenario. Every view runs the SWEEP cadence, so
/// the fingerprint is a pure function of arrival order and the
/// comparison is exact even under bursts.
#[test]
fn sharded_conforms_to_unsharded_engine() {
    const MV_SEEDS: u64 = 128;
    // Runs in which a lane holding several bands was in flight together
    // with a disjoint lane.
    let mut straddler_overlapped = 0;
    for k in 0..MV_SEEDS {
        let generated = ShardedConfig {
            n_sources: 3,
            shards: [2, 3, 4][(k % 3) as usize],
            updates: 8 + (k % 4) as usize,
            mean_gap: 300 + 100 * (k % 3),
            cross_shard_frac: if k % 2 == 1 { 0.3 } else { 0.0 },
            seed: SEED_BASE + 0x3000 + k,
            ..Default::default()
        }
        .generate()
        .unwrap();
        let done = CompletionLog::default();
        let sharded = MultiViewExperiment::new(generated.scenario.clone())
            .shards(generated.map)
            .seed(k)
            .record_completions(done.clone())
            .run()
            .unwrap();
        let flat = MultiViewExperiment::new(generated.scenario)
            .seed(k)
            .run()
            .unwrap();
        assert!(sharded.quiescent && flat.quiescent, "seed {k}");
        // Referee-free: whatever order the lanes finished in, every view's
        // concatenated install log consumes updates in warehouse arrival
        // order — checked against the run's own delivery log, not against
        // a second scheduler.
        let arrival: Vec<UpdateId> = sharded.delivery_log().iter().map(|&(id, _)| id).collect();
        for v in &sharded.views {
            let consumed = v.installs.iter().flat_map(|r| r.consumed.iter());
            let positions: Vec<usize> = consumed
                .map(|id| {
                    arrival
                        .iter()
                        .position(|a| a == id)
                        .expect("consumed ⊆ delivered")
                })
                .collect();
            assert!(
                positions.windows(2).all(|w| w[0] < w[1]),
                "seed {k}: view '{}' installed out of arrival order",
                v.name
            );
        }
        assert_eq!(
            sharded.query_messages(),
            flat.query_messages(),
            "seed {k}: sharding changed the wire cost"
        );
        assert_eq!(sharded.views.len(), flat.views.len(), "seed {k}");
        for (a, b) in sharded.views.iter().zip(&flat.views) {
            assert_eq!(
                a.view, b.view,
                "seed {k}: view '{}' diverged under sharding",
                a.name
            );
            assert_eq!(
                install_fingerprint(&a.installs),
                install_fingerprint(&b.installs),
                "seed {k}: view '{}' install sequences differ",
                a.name
            );
        }
        // A lane is in flight for at least one 2 ms query round trip, so
        // two completions closer than that ran side by side.
        let done = done.lock().unwrap();
        let beside = |&(mask, at): &(u64, Time)| {
            let near = |&(other, t): &(u64, Time)| other != mask && t.abs_diff(at) < 2_000;
            mask.count_ones() > 1 && done.iter().any(near)
        };
        straddler_overlapped += usize::from(done.iter().any(beside));
    }
    assert!(
        straddler_overlapped >= 16,
        "a multi-band lane ran beside a disjoint lane in only {straddler_overlapped} runs"
    );
}

#[test]
fn nested_sweep_conforms_across_backends() {
    for k in 0..SEEDS {
        let s = sparse_scenario(SEED_BASE + 0x1000 + k);
        let truth = ground_truth(&s);

        let sim = Experiment::new(s.clone())
            .policy(PolicyKind::Sweep(EngineOptions::FIGURE_6))
            .run()
            .unwrap();
        let sim_fp = install_fingerprint(&sim.views[0].installs);
        let mut live = None;
        for &scale in &TIME_SCALES {
            let r = run_live(&s, EngineOptions::FIGURE_6, scale, DEADLINE).unwrap();
            let matched = r.quiescent && install_fingerprint(&r.views[0].installs) == sim_fp;
            live = Some(r);
            if matched {
                break;
            }
        }
        let live = live.unwrap();

        assert!(sim.quiescent && live.quiescent, "seed {k}");
        assert_eq!(
            sim.views[0].view, truth,
            "seed {k}: simnet diverged from truth"
        );
        assert_eq!(
            live.views[0].view, truth,
            "seed {k}: livenet diverged from truth"
        );
        assert_eq!(
            install_fingerprint(&sim.views[0].installs),
            install_fingerprint(&live.views[0].installs),
            "seed {k}: install sequences differ across backends"
        );
    }
}
