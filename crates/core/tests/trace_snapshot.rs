//! Observability snapshot tests: the `dw-obs` layer records in *virtual*
//! time, so two runs of the same seeded scenario must produce
//! byte-identical rendered traces — and attaching the recorder must not
//! change what the experiment computes.

use dw_core::{EngineOptions, Experiment, MultiViewExperiment, MultiViewReport, PolicyKind};
use dw_obs::Obs;
use dw_simnet::LatencyModel;
use dw_workload::{MultiViewConfig, ReadMixConfig, StreamConfig};

fn run(policy: PolicyKind, obs: Obs) -> MultiViewReport {
    let scenario = StreamConfig {
        n_sources: 3,
        initial_per_source: 15,
        updates: 12,
        mean_gap: 900,
        domain: 10,
        seed: 42,
        ..Default::default()
    }
    .generate()
    .unwrap();
    Experiment::new(scenario)
        .policy(policy)
        .latency(LatencyModel::Constant(2_000))
        .observe(obs)
        .run()
        .unwrap()
}

#[test]
fn seeded_sweep_traces_are_byte_identical() {
    let render = || {
        let (obs, rec) = Obs::trace();
        run(PolicyKind::Sweep(EngineOptions::FIGURE_4), obs);
        let rec = rec.lock().unwrap();
        rec.render()
    };
    let first = render();
    let second = render();
    assert!(!first.is_empty());
    assert_eq!(first, second, "virtual-time traces must be deterministic");
}

#[test]
fn sweep_trace_contains_expected_spans_and_counters() {
    let (obs, rec) = Obs::trace();
    let report = run(PolicyKind::Sweep(EngineOptions::FIGURE_4), obs);
    let rec = rec.lock().unwrap();
    let text = rec.render();

    // The engine names its own events: one "engine.sweep" span per
    // processed update, one "engine.hop" span per query leg.
    assert!(text.contains("== spans =="));
    assert!(text.contains("engine.sweep ["));
    assert!(
        text.contains("  engine.hop ["),
        "hops nest under the sweep span"
    );
    assert!(text.contains("== histograms =="));
    assert!(
        text.contains("engine.sweep:"),
        "span durations feed a histogram"
    );
    assert!(text.contains("net.queue_delay:"));

    // Span accounting matches the report's own counters.
    let sweeps = rec.histogram("engine.sweep").map_or(0, |h| h.count());
    assert_eq!(sweeps, report.scheduler_metrics.updates_received);
    let hops = rec.histogram("engine.hop").map_or(0, |h| h.count());
    assert_eq!(hops, report.scheduler_metrics.queries_sent);
    assert_eq!(
        rec.counter("engine.compensations"),
        report.scheduler_metrics.local_compensations
    );
}

#[test]
fn nested_sweep_traces_are_deterministic_and_labeled() {
    // Nested SWEEP is the scheduler at depth 0: the same `engine.*`
    // vocabulary, one `engine.sweep` span per install (a dovetailed batch
    // is one sweep) and one `engine.hop` per query, child runs' included.
    let render = || {
        let (obs, rec) = Obs::trace();
        let report = run(PolicyKind::Sweep(EngineOptions::FIGURE_6), obs);
        let rec = rec.lock().unwrap();
        let count = |name| rec.histogram(name).map_or(0, |h| h.count());
        assert_eq!(count("engine.sweep"), report.views[0].metrics.installs);
        assert_eq!(count("engine.hop"), report.scheduler_metrics.queries_sent);
        let compensations = rec.counter("engine.compensations");
        assert_eq!(compensations, report.scheduler_metrics.local_compensations);
        rec.render()
    };
    let first = render();
    assert_eq!(first, render());
    assert!(first.contains("engine.sweep ["));
    assert!(
        first.contains("  engine.hop ["),
        "hops nest under the sweep span"
    );
}

/// Every policy that runs through the engine, in the order the paper
/// compares them: Figure 4, Figure 6, pipelined SWEEP, Strobe, C-strobe.
fn engine_policies() -> [PolicyKind; 5] {
    let pipelined = PolicyKind::Sweep(EngineOptions {
        window: 0,
        ..EngineOptions::FIGURE_4
    });
    [
        PolicyKind::Sweep(EngineOptions::FIGURE_4),
        PolicyKind::Sweep(EngineOptions::FIGURE_6),
        pipelined,
        PolicyKind::Strobe,
        PolicyKind::CStrobe,
    ]
}

/// Every `SweepQuery` goes through the engine, which records each event
/// once under its own name: the trace holds one `engine.sweep` span per
/// unit of sweep work (Strobe and C-strobe open none) and one
/// `engine.hop` span per query and nothing else, and one
/// `engine.compensations` bump per local compensation.
#[test]
fn every_engine_policy_records_one_span_per_sweep_and_per_query() {
    for policy in engine_policies() {
        let name = policy.name();
        let render = || {
            let (obs, rec) = Obs::trace();
            let report = run(policy, obs);
            let rec = rec.lock().unwrap();
            let count = |name| rec.histogram(name).map_or(0, |h| h.count());
            let (sweeps, hops) = (count("engine.sweep"), count("engine.hop"));
            assert!(hops > 0, "{name}: no engine.hop span");
            assert_eq!(hops, report.scheduler_metrics.queries_sent, "{name}");
            let spans = rec.span_count() as u64;
            assert_eq!(
                spans,
                sweeps + report.scheduler_metrics.queries_sent,
                "{name}"
            );
            let compensations = rec.counter("engine.compensations");
            assert_eq!(
                compensations, report.scheduler_metrics.local_compensations,
                "{name}"
            );
            rec.render()
        };
        assert_eq!(render(), render(), "{name}");
    }
}

#[test]
fn observer_does_not_change_results() {
    for policy in engine_policies() {
        let silent = run(policy, Obs::off());
        let (obs, _rec) = Obs::trace();
        let observed = run(policy, obs);
        let name = policy.name();
        assert_eq!(silent.views[0].view, observed.views[0].view, "{name}");
        assert_eq!(silent.end_time, observed.end_time, "{name}");
        assert_eq!(silent.events, observed.events, "{name}");
        assert_eq!(
            silent.scheduler_metrics.local_compensations,
            observed.scheduler_metrics.local_compensations,
            "{name}"
        );
    }
}

#[test]
fn observing_a_serve_run_records_the_read_frontend() {
    let scenario = MultiViewConfig {
        stream: StreamConfig {
            n_sources: 3,
            updates: 12,
            mean_gap: 900,
            seed: 42,
            ..Default::default()
        },
        n_views: 2,
        view_seed: 42,
        full_span: true,
        n_derived: 0,
        derived_seed: 0,
    }
    .generate()
    .unwrap();
    let reads = ReadMixConfig {
        n_views: 2,
        ..ReadMixConfig::hot_key_points(3, 12, 42)
    }
    .generate();
    let (obs, rec) = Obs::trace();
    let report = MultiViewExperiment::new(scenario)
        .reads(reads)
        .observe(obs)
        .run()
        .unwrap();
    let stats = &report.served().unwrap().serve_stats;
    let rec = rec.lock().unwrap();
    assert!(stats.point_index_hits > 0 && stats.point_index_misses > 0);
    assert_eq!(rec.counter("serve.index.hit"), stats.point_index_hits);
    assert_eq!(rec.counter("serve.index.miss"), stats.point_index_misses);
    assert_eq!(rec.counter("serve.index.derive"), stats.point_index_derived);
    let text = rec.render();
    assert!(text.contains("serve.index.hit = "), "{text}");
}
