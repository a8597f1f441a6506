//! Observability snapshot tests: the `dw-obs` layer records in *virtual*
//! time, so two runs of the same seeded scenario must produce
//! byte-identical rendered traces — and attaching the recorder must not
//! change what the experiment computes.

use dw_core::{Experiment, MultiViewExperiment, PolicyKind, RunReport};
use dw_obs::Obs;
use dw_simnet::LatencyModel;
use dw_workload::{MultiViewConfig, ReadMixConfig, StreamConfig};

fn run(policy: PolicyKind, obs: Obs) -> RunReport {
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
        run(PolicyKind::Sweep(Default::default()), obs);
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
    let report = run(PolicyKind::Sweep(Default::default()), obs);
    let rec = rec.lock().unwrap();
    let text = rec.render();

    // One "sweep" span per processed update, one hop span per query leg.
    assert!(text.contains("== spans =="));
    assert!(text.contains("sweep ["));
    assert!(
        text.contains("  sweep.hop ["),
        "hops nest under the sweep span"
    );
    assert!(text.contains("== histograms =="));
    assert!(text.contains("sweep:"), "span durations feed a histogram");
    assert!(text.contains("net.queue_delay:"));

    // Span accounting matches the report's own counters.
    let sweeps = rec.histogram("sweep").map_or(0, |h| h.count());
    assert_eq!(sweeps, report.metrics.updates_received);
    let hops = rec.histogram("sweep.hop").map_or(0, |h| h.count());
    assert_eq!(hops, report.metrics.queries_sent);
    assert_eq!(
        rec.counter("sweep.compensations"),
        report.metrics.local_compensations
    );
}

#[test]
fn nested_sweep_traces_are_deterministic_and_labeled() {
    let render = || {
        let (obs, rec) = Obs::trace();
        run(PolicyKind::NestedSweep(Default::default()), obs);
        let rec = rec.lock().unwrap();
        rec.render()
    };
    let first = render();
    assert_eq!(first, render());
    assert!(first.contains("nested_sweep ["));
}

/// Every policy sends its queries through the engine, so every
/// `SweepQuery` is observable: pipelined SWEEP and Strobe record the same
/// `engine.hop` span per query that SWEEP and Nested SWEEP always have.
#[test]
fn pipelined_and_strobe_hops_are_observable_and_deterministic() {
    let pipelined = PolicyKind::Sweep(dw_warehouse::SweepOptions {
        window: 0,
        ..Default::default()
    });
    for policy in [pipelined, PolicyKind::Strobe] {
        let render = || {
            let (obs, rec) = Obs::trace();
            let report = run(policy, obs);
            let rec = rec.lock().unwrap();
            let hops = rec.histogram("engine.hop").map_or(0, |h| h.count());
            assert!(hops > 0, "{}: no engine.hop span", policy.name());
            assert_eq!(hops, report.metrics.queries_sent, "{}", policy.name());
            rec.render()
        };
        assert_eq!(render(), render(), "{}", policy.name());
    }
}

#[test]
fn observer_does_not_change_results() {
    let silent = run(PolicyKind::Sweep(Default::default()), Obs::off());
    let (obs, _rec) = Obs::trace();
    let observed = run(PolicyKind::Sweep(Default::default()), obs);
    assert_eq!(silent.view, observed.view);
    assert_eq!(silent.end_time, observed.end_time);
    assert_eq!(silent.events, observed.events);
    assert_eq!(
        silent.metrics.local_compensations,
        observed.metrics.local_compensations
    );
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
    assert!(stats.point_index_hits > 0 && stats.point_index_builds > 0);
    assert_eq!(rec.counter("serve.index.hit"), stats.point_index_hits);
    assert_eq!(rec.counter("serve.index.miss"), stats.point_index_misses);
    assert_eq!(rec.counter("serve.index.build"), stats.point_index_builds);
    assert_eq!(rec.counter("serve.index.derive"), stats.point_index_derived);
    let text = rec.render();
    assert!(text.contains("serve.index.hit = "), "{text}");
}
