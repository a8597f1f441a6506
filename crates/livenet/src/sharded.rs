//! Thread-per-shard live runtime: the sharded configuration of the
//! multiview live arm (`crate::multiview`).
//!
//! Delivery order across threads is nondeterministic, so the assertions
//! that make sense here are convergence against ground truth and the
//! scheduler's own invariants (quiescence, escalation accounting) — not
//! install-by-install traces. The deterministic install-order identity
//! claim lives in the simulator-backed conformance suite.

use crate::multiview::{LiveViewOutcome, LiveWarehouse};
use dw_multiview::ShardStats;
use dw_warehouse::PolicyMetrics;
use dw_workload::ShardedScenario;
use std::time::Duration;

pub use dw_engine::LiveError;

/// Result of a live sharded run.
#[derive(Debug)]
pub struct LiveShardedReport {
    /// Per-view outcomes, in registration order.
    pub views: Vec<LiveViewOutcome>,
    /// Aggregate engine counters.
    pub metrics: PolicyMetrics,
    /// Lane/escalation accounting from the scheduler.
    pub shard_stats: ShardStats,
    /// Whether the scheduler drained before shutdown.
    pub quiescent: bool,
    /// Wall-clock duration of the run.
    pub wall: Duration,
}

/// Run a sharded scenario on real threads.
///
/// `time_scale` compresses injection timestamps (2.0 = twice as fast);
/// `deadline` bounds the whole run.
pub fn run_live_sharded(
    generated: &ShardedScenario,
    time_scale: f64,
    deadline: Duration,
) -> Result<LiveShardedReport, LiveError> {
    let scenario = &generated.scenario;
    let warehouse = LiveWarehouse::new(scenario, Some(&generated.map), None, |_, _| {})?;
    let (sched, views, wall) = warehouse.run(scenario, time_scale, deadline)?;
    Ok(LiveShardedReport {
        quiescent: sched.is_quiescent(),
        metrics: sched.metrics().clone(),
        shard_stats: sched.stats().clone(),
        views,
        wall,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dw_relational::{eval_view, Bag};
    use dw_workload::ShardedConfig;

    fn ground_truth(generated: &ShardedScenario) -> Vec<Bag> {
        let s = &generated.scenario;
        let mut rels = s.initial.clone();
        for t in &s.txns {
            rels[t.source].merge(&t.delta);
        }
        s.views
            .iter()
            .map(|spec| {
                let local = spec.compile(&s.base).unwrap();
                let refs: Vec<&Bag> = rels[spec.lo..=spec.hi].iter().collect();
                eval_view(&local, &refs).unwrap()
            })
            .collect()
    }

    #[test]
    fn sharded_sweeps_converge_on_real_threads() {
        let generated = ShardedConfig {
            shards: 2,
            updates: 16,
            mean_gap: 800,
            seed: 21,
            ..Default::default()
        }
        .generate()
        .unwrap();
        let report = run_live_sharded(&generated, 20.0, Duration::from_secs(30)).unwrap();
        assert!(report.quiescent);
        assert_eq!(
            report.metrics.updates_received,
            generated.scenario.txns.len() as u64
        );
        for (outcome, truth) in report.views.iter().zip(ground_truth(&generated)) {
            assert_eq!(outcome.view, truth, "view '{}'", outcome.name);
        }
    }

    #[test]
    fn escalating_workload_converges_live() {
        let generated = ShardedConfig {
            shards: 2,
            updates: 14,
            mean_gap: 800,
            cross_shard_frac: 0.3,
            seed: 22,
            ..Default::default()
        }
        .generate()
        .unwrap();
        let report = run_live_sharded(&generated, 20.0, Duration::from_secs(30)).unwrap();
        assert!(report.quiescent);
        assert!(report.shard_stats.escalations > 0);
        for (outcome, truth) in report.views.iter().zip(ground_truth(&generated)) {
            assert_eq!(outcome.view, truth, "view '{}'", outcome.name);
        }
    }
}
