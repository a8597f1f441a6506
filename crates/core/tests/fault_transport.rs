//! End-to-end robustness: the maintenance policies keep their paper
//! consistency levels when the network misbehaves, *provided* the
//! reliability transport is in the loop — and demonstrably lose them when
//! it is not. This is the repo earning §2's "reliable FIFO channels"
//! assumption instead of granting it.

use dw_consistency::{verify_fifo, ConsistencyLevel};
use dw_core::{EngineOptions, Experiment, PolicyKind};
use dw_simnet::{FaultPlan, LinkFaults};
use dw_workload::{GeneratedScenario, StreamConfig};
use std::collections::HashSet;

fn scenario(updates: usize, seed: u64) -> GeneratedScenario {
    StreamConfig {
        n_sources: 3,
        updates,
        initial_per_source: 20,
        domain: 8,
        mean_gap: 500,
        seed,
        ..Default::default()
    }
    .generate()
    .unwrap()
}

/// Drop + duplicate + reorder on every link, plus one source crash that
/// overlaps the update stream.
fn nasty_plan() -> FaultPlan {
    FaultPlan::default()
        .uniform(LinkFaults {
            drop_rate: 0.15,
            dup_rate: 0.1,
            reorder_rate: 0.1,
            reorder_window: 3_000,
        })
        .crash(2, 3_000, 60_000) // source 1 (node 2) is down for 57 ms
}

#[test]
fn sweep_stays_complete_under_faults_with_transport() {
    let report = Experiment::new(scenario(25, 101))
        .policy(PolicyKind::Sweep(EngineOptions::FIGURE_4))
        .faults(nasty_plan())
        .transport_auto()
        .run()
        .unwrap();
    assert!(report.quiescent, "transport must drain");
    assert_eq!(
        report.views[0].consistency.as_ref().unwrap().level,
        ConsistencyLevel::Complete
    );
    assert_eq!(
        report.views[0].metrics.installs,
        report.scheduler_metrics.updates_received
    );
    let fifo = verify_fifo(&report.delivery_log());
    assert!(
        fifo.ok(),
        "channel contract breached: {:?}",
        fifo.violations
    );
}

#[test]
fn nested_sweep_stays_strong_under_faults_with_transport() {
    let report = Experiment::new(scenario(25, 102))
        .policy(PolicyKind::Sweep(EngineOptions::FIGURE_6))
        .faults(nasty_plan())
        .transport_auto()
        .run()
        .unwrap();
    assert!(report.quiescent);
    let level = report.views[0].consistency.as_ref().unwrap().level;
    assert!(level >= ConsistencyLevel::Strong, "got {level}");
}

#[test]
fn updates_are_exactly_once_under_duplication() {
    // Heavy duplication, no drops: without the transport's dedup every
    // update would hit the warehouse at least once more.
    let report = Experiment::new(scenario(30, 103))
        .policy(PolicyKind::Sweep(EngineOptions::FIGURE_4))
        .faults(FaultPlan::default().dup_rate(0.8))
        .transport_auto()
        .run()
        .unwrap();
    let ids: HashSet<_> = report.delivery_log().iter().map(|(id, _)| *id).collect();
    assert_eq!(
        ids.len(),
        report.delivery_log().len(),
        "transport must deduplicate the update stream"
    );
    assert!(verify_fifo(&report.delivery_log()).ok());
    assert_eq!(
        report.views[0].consistency.as_ref().unwrap().level,
        ConsistencyLevel::Complete
    );
}

#[test]
fn duplication_without_transport_breaches_the_channel_contract() {
    // Same duplication, no transport: the FIFO verifier must catch the
    // repeats that the warehouse is not built to tolerate.
    match Experiment::new(scenario(30, 103))
        .policy(PolicyKind::Sweep(EngineOptions::FIGURE_4))
        .faults(FaultPlan::default().dup_rate(0.8))
        .run()
    {
        Err(_) => {} // duplicate updates corrupted an install outright
        Ok(report) => {
            let fifo = verify_fifo(&report.delivery_log());
            assert!(
                fifo.duplicates() > 0,
                "80% duplication must show up in the delivery log"
            );
        }
    }
}

#[test]
fn faults_without_transport_break_sweep() {
    // The control arm: the same faulted network with the raw policy on
    // top. Dropped queries/answers either corrupt an install outright
    // (the warehouse applies a delta computed from missing answers) or
    // leave sweeps permanently in flight — either way the run must NOT
    // end quiescent-and-complete. The paper's claims really do depend on
    // the channel contract.
    match Experiment::new(scenario(25, 104))
        .policy(PolicyKind::Sweep(EngineOptions::FIGURE_4))
        .faults(FaultPlan::default().drop_rate(0.3))
        .run()
    {
        Err(_) => {} // e.g. InconsistentInstall — visibly broken
        Ok(report) => {
            let complete = report.views[0]
                .consistency
                .as_ref()
                .map(|c| c.level == ConsistencyLevel::Complete)
                .unwrap_or(false);
            assert!(
                !(report.quiescent && complete),
                "a lossy network without the transport should not look healthy"
            );
        }
    }
}

#[test]
fn transport_is_invisible_on_a_clean_network() {
    // Same scenario with and without the transport, no faults: identical
    // final view, identical logical message accounting (2(n−1) per
    // update), zero retransmissions.
    let bare = Experiment::new(scenario(20, 105))
        .policy(PolicyKind::Sweep(EngineOptions::FIGURE_4))
        .run()
        .unwrap();
    let transported = Experiment::new(scenario(20, 105))
        .policy(PolicyKind::Sweep(EngineOptions::FIGURE_4))
        .transport_auto()
        .run()
        .unwrap();
    assert_eq!(bare.views[0].view, transported.views[0].view);
    assert_eq!(
        bare.query_messages(),
        transported.logical_query_messages(),
        "logical accounting must not see the transport"
    );
    assert_eq!(transported.logical_messages_per_update(), 4.0);
    assert_eq!(transported.net.retransmitted().messages, 0);
    assert_eq!(
        transported.views[0].consistency.as_ref().unwrap().level,
        ConsistencyLevel::Complete
    );
}

#[test]
fn retransmission_overhead_is_measurable_under_loss() {
    let report = Experiment::new(scenario(25, 106))
        .policy(PolicyKind::Sweep(EngineOptions::FIGURE_4))
        .faults(FaultPlan::default().drop_rate(0.2))
        .transport_auto()
        .run()
        .unwrap();
    assert!(
        report.net.retransmitted().messages > 0,
        "a 20% loss rate must force retransmissions"
    );
    assert!(report.transport_overhead_bytes() > 0);
    assert!(report.net.inflation() > 1.0);
    // The logical cost is still the paper's: faults inflate the wire, not
    // the algorithm.
    assert_eq!(report.logical_messages_per_update(), 4.0);
    assert_eq!(
        report.views[0].consistency.as_ref().unwrap().level,
        ConsistencyLevel::Complete
    );
}

#[test]
fn deterministic_replay_under_faults_and_transport() {
    let run = || {
        Experiment::new(scenario(20, 107))
            .policy(PolicyKind::Sweep(EngineOptions::FIGURE_4))
            .faults(nasty_plan())
            .transport_auto()
            .seed(7)
            .run()
            .unwrap()
    };
    let (a, b) = (run(), run());
    assert_eq!(a.views[0].view, b.views[0].view);
    assert_eq!(a.delivery_log(), b.delivery_log());
    assert_eq!(a.events, b.events);
    assert_eq!(a.net.total(), b.net.total());
    assert_eq!(
        a.net.fault_counters().dropped,
        b.net.fault_counters().dropped
    );
}

#[test]
fn source_crash_recovery_preserves_completeness() {
    // A long crash window swallowing part of the update stream: the
    // journaled transport must replay everything after restart.
    let report = Experiment::new(scenario(30, 108))
        .policy(PolicyKind::Sweep(EngineOptions::FIGURE_4))
        .faults(FaultPlan::default().crash(1, 1_000, 100_000))
        .transport_auto()
        .run()
        .unwrap();
    assert!(report.quiescent);
    assert_eq!(
        report.views[0].consistency.as_ref().unwrap().level,
        ConsistencyLevel::Complete
    );
    assert_eq!(
        report.views[0].metrics.installs,
        report.scheduler_metrics.updates_received
    );
}
