//! Integration: the paper's complexity claims, asserted quantitatively.

use dwsweep::prelude::*;

fn dense(n: usize, updates: usize, seed: u64) -> GeneratedScenario {
    StreamConfig {
        n_sources: n,
        initial_per_source: 20,
        updates,
        mean_gap: 500,
        domain: 20,
        keyed: true,
        seed,
        ..Default::default()
    }
    .generate()
    .unwrap()
}

#[test]
fn sweep_exactly_2n_minus_2_messages_per_update() {
    for n in [2usize, 4, 8] {
        let report = Experiment::new(dense(n, 20, 1))
            .policy(PolicyKind::Sweep(EngineOptions::FIGURE_4))
            .run()
            .unwrap();
        assert_eq!(report.messages_per_update(), (2 * (n - 1)) as f64, "n={n}");
        // And exactly one query + one answer per link per update:
        assert_eq!(
            report.scheduler_metrics.queries_sent,
            report.scheduler_metrics.answers_received
        );
    }
}

#[test]
fn nested_sweep_amortizes_below_sweep_under_bursts() {
    let burst_scenario = StreamConfig {
        n_sources: 4,
        initial_per_source: 20,
        updates: 24,
        mean_gap: 100,
        gap: GapKind::Constant,
        domain: 10,
        seed: 2,
        ..Default::default()
    }
    .generate()
    .unwrap();
    let sweep = Experiment::new(burst_scenario.clone())
        .policy(PolicyKind::Sweep(EngineOptions::FIGURE_4))
        .latency(LatencyModel::Constant(3_000))
        .run()
        .unwrap();
    let nested = Experiment::new(burst_scenario)
        .policy(PolicyKind::Sweep(EngineOptions::FIGURE_6))
        .latency(LatencyModel::Constant(3_000))
        .run()
        .unwrap();
    assert!(
        nested.messages_per_update() < sweep.messages_per_update() / 2.0,
        "nested {} vs sweep {}",
        nested.messages_per_update(),
        sweep.messages_per_update()
    );
    assert_eq!(nested.views[0].view, sweep.views[0].view);
}

#[test]
fn cstrobe_query_count_exceeds_sweep_under_interference() {
    let sweep = Experiment::new(dense(4, 25, 3))
        .policy(PolicyKind::Sweep(EngineOptions::FIGURE_4))
        .latency(LatencyModel::Constant(2_500))
        .run()
        .unwrap();
    let cstrobe = Experiment::new(dense(4, 25, 3))
        .policy(PolicyKind::CStrobe)
        .latency(LatencyModel::Constant(2_500))
        .run()
        .unwrap();
    assert!(
        cstrobe.scheduler_metrics.queries_sent > sweep.scheduler_metrics.queries_sent,
        "c-strobe {} vs sweep {}",
        cstrobe.scheduler_metrics.queries_sent,
        sweep.scheduler_metrics.queries_sent
    );
    assert_eq!(cstrobe.views[0].view, sweep.views[0].view);
}

#[test]
fn sweep_never_sends_compensating_queries() {
    let report = Experiment::new(dense(5, 30, 4))
        .policy(PolicyKind::Sweep(EngineOptions::FIGURE_4))
        .latency(LatencyModel::Uniform(500, 6_000))
        .run()
        .unwrap();
    assert!(
        report.scheduler_metrics.local_compensations > 0,
        "interference happened"
    );
    assert_eq!(
        report.scheduler_metrics.compensation_queries, 0,
        "and stayed local"
    );
}

#[test]
fn eca_query_sizes_grow_with_pending_queries() {
    // Two alternating relations, updates inside one round-trip: each ECA
    // query carries compensation terms for all pending ones.
    let scenario = StreamConfig {
        n_sources: 2,
        initial_per_source: 10,
        updates: 8,
        mean_gap: 100,
        gap: GapKind::Constant,
        source_pick: SourcePick::AlternatingEnds,
        insert_ratio: 1.0,
        domain: 5,
        seed: 5,
        ..Default::default()
    }
    .generate()
    .unwrap();
    let report = Experiment::new(scenario)
        .policy(PolicyKind::Eca)
        .latency(LatencyModel::Constant(20_000))
        .run()
        .unwrap();
    let q = report.net.label("eca_query");
    let mean_query_bytes = q.bytes as f64 / q.messages as f64;
    // A lone-update query is tiny (one term); interference multiplies
    // terms. With 8 pending updates mean size must exceed a 2-term query.
    assert!(
        mean_query_bytes > 150.0,
        "mean query bytes {mean_query_bytes}"
    );
    assert!(report.scheduler_metrics.compensation_queries >= 8);
}

#[test]
fn recompute_costs_2n_messages_per_refresh() {
    let report = Experiment::new(dense(4, 10, 6))
        .policy(PolicyKind::Recompute)
        .latency(LatencyModel::Constant(2_000))
        .run()
        .unwrap();
    let dumps = report.net.label("dump_query").messages + report.net.label("dump_answer").messages;
    assert_eq!(dumps, report.views[0].metrics.installs * 2 * 4);
}
