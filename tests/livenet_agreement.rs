//! Integration: the same scenario run in the deterministic simulator and
//! on real OS threads must converge to the same final view — the
//! algorithms do not depend on simulator artifacts.

use dwsweep::livenet::run_live;
use dwsweep::prelude::*;
use dwsweep::relational::eval_view;
use std::time::Duration;

fn scenario(seed: u64) -> GeneratedScenario {
    StreamConfig {
        n_sources: 3,
        initial_per_source: 30,
        updates: 25,
        mean_gap: 1_000,
        domain: 10,
        seed,
        ..Default::default()
    }
    .generate()
    .unwrap()
}

fn ground_truth(s: &GeneratedScenario) -> Bag {
    let mut rels = s.initial.clone();
    for t in &s.txns {
        rels[t.source].merge(&t.delta);
    }
    let refs: Vec<&Bag> = rels.iter().collect();
    eval_view(&s.view, &refs).unwrap()
}

#[test]
fn sweep_simnet_and_livenet_agree() {
    let s = scenario(101);
    let truth = ground_truth(&s);

    let sim = Experiment::new(s.clone())
        .policy(PolicyKind::Sweep(EngineOptions::FIGURE_4))
        .run()
        .unwrap();
    assert_eq!(sim.views[0].view, truth);

    let live = run_live(&s, EngineOptions::FIGURE_4, 25.0, Duration::from_secs(60)).unwrap();
    assert_eq!(live.views[0].view, truth);
    assert_eq!(
        live.views[0].installs.len(),
        s.txns.len(),
        "one install per update"
    );
}

#[test]
fn nested_sweep_live_converges() {
    let s = scenario(102);
    let truth = ground_truth(&s);
    let live = run_live(&s, EngineOptions::FIGURE_6, 25.0, Duration::from_secs(60)).unwrap();
    assert!(live.quiescent);
    assert_eq!(live.views[0].view, truth);
    // Batching means installs ≤ updates.
    assert!(live.views[0].installs.len() <= s.txns.len());
}

#[test]
fn live_view_counts_never_negative() {
    // The MaterializedView install guard would have errored the thread;
    // reaching here with a quiescent cluster proves no negative counts.
    let s = scenario(103);
    let live = run_live(&s, EngineOptions::FIGURE_4, 25.0, Duration::from_secs(60)).unwrap();
    assert!(live.views[0].view.all_positive());
}
