//! Thread-per-node cluster runtime — a thin adapter over the engine's
//! live transport.
//!
//! The threads, channels, injection pacing and drain detection all live
//! in [`dw_engine::run_cluster`]; this module only knows how to wrap the
//! repo's actors ([`MaintenancePolicy`] warehouses, [`DataSource`]s) as
//! engine [`NodeRunner`]s and how to fold a drained cluster into a
//! [`LiveReport`].

use dw_engine::{run_cluster, NodeRunner, ThreadNet};
use dw_protocol::{source_node, Message, WAREHOUSE_NODE};
use dw_relational::{Bag, BaseRelation, ViewDef};
use dw_simnet::{NodeId, Time};
use dw_source::DataSource;
use dw_warehouse::{InstallRecord, MaintenancePolicy, PolicyMetrics, WarehouseError};
use dw_workload::{GeneratedScenario, ScheduledTxn};
use std::time::Duration;

pub use dw_engine::LiveError;

/// Result of a live run.
#[derive(Debug)]
pub struct LiveReport {
    /// Final materialized view.
    pub view: Bag,
    /// Install history (delivery order is nondeterministic).
    pub installs: Vec<InstallRecord>,
    /// Policy counters.
    pub metrics: PolicyMetrics,
    /// Policy name.
    pub policy: &'static str,
    /// Whether the policy was quiescent at shutdown.
    pub quiescent: bool,
    /// Wall-clock duration of the run.
    pub wall: Duration,
}

/// The warehouse node: any [`MaintenancePolicy`] behind the engine's
/// runner face. The drain detector polls [`NodeRunner::is_idle`], which
/// forwards the policy's own quiescence.
struct PolicyRunner(Box<dyn MaintenancePolicy>);

impl NodeRunner for PolicyRunner {
    fn handle(
        &mut self,
        from: NodeId,
        at: Time,
        msg: Message,
        net: &mut ThreadNet,
    ) -> Result<(), String> {
        // A restart notification is an orchestration signal, not a
        // protocol message: the policies' dispatchers reject it as
        // unexpected, and live single-view policies keep no durable
        // store to replay. Tolerate it so a supervisor can broadcast
        // restarts without faulting the warehouse thread.
        if matches!(msg, Message::Restart) {
            return Ok(());
        }
        let d = dw_simnet::Delivery {
            at,
            from,
            to: WAREHOUSE_NODE,
            msg,
        };
        self.0.on_message(d, net).map_err(|e| e.to_string())
    }

    fn is_idle(&self) -> bool {
        self.0.is_quiescent()
    }
}

/// A source node: the unmodified [`DataSource`] state machine. The one
/// source runner every live arm uses.
pub(crate) struct SourceRunner(DataSource);

impl NodeRunner for SourceRunner {
    fn handle(
        &mut self,
        from: NodeId,
        _at: Time,
        msg: Message,
        net: &mut ThreadNet,
    ) -> Result<(), String> {
        self.0.handle(from, msg, net).map_err(|e| e.to_string())
    }
}

/// Shorthand for wrapping a setup failure as a node failure.
pub(crate) fn setup_failed(e: impl std::fmt::Display) -> LiveError {
    LiveError::NodeFailed {
        what: e.to_string(),
    }
}

/// One source runner per relation of `chain`, loaded with `initial`.
pub(crate) fn source_runners(
    chain: &ViewDef,
    initial: &[Bag],
) -> Result<Vec<SourceRunner>, LiveError> {
    (0..chain.num_relations())
        .map(|i| {
            let mut rel = BaseRelation::new(chain.schema(i).clone());
            rel.apply_delta(&initial[i]).map_err(setup_failed)?;
            Ok(SourceRunner(DataSource::new(i, chain.clone(), rel)))
        })
        .collect()
}

/// The scenario's transactions as timed source injections.
pub(crate) fn injections(txns: &[ScheduledTxn]) -> Vec<(Time, NodeId, Message)> {
    txns.iter()
        .map(|t| {
            let (rel, delta, global) = (t.source, t.delta.clone(), t.global);
            let msg = Message::ApplyTxn { rel, delta, global };
            (t.at, source_node(t.source), msg)
        })
        .collect()
}

/// Run a scenario on real threads.
///
/// `make_policy` builds the warehouse policy from the scenario's view and
/// the initial view contents (so callers choose SWEEP/Nested SWEEP/…).
/// `time_scale` compresses the scenario's injection timestamps (2.0 = run
/// twice as fast). `deadline` bounds the whole run.
pub fn run_live(
    scenario: &GeneratedScenario,
    make_policy: impl FnOnce(ViewDef, Bag) -> Result<Box<dyn MaintenancePolicy>, WarehouseError>,
    time_scale: f64,
    deadline: Duration,
) -> Result<LiveReport, LiveError> {
    let refs: Vec<&Bag> = scenario.initial.iter().collect();
    let initial_view = dw_relational::eval_view(&scenario.view, &refs).map_err(setup_failed)?;
    let policy = make_policy(scenario.view.clone(), initial_view).map_err(setup_failed)?;
    let sources = source_runners(&scenario.view, &scenario.initial)?;
    let injections = injections(&scenario.txns);

    let outcome = run_cluster(
        PolicyRunner(policy),
        sources,
        injections,
        time_scale,
        deadline,
    )?;
    let policy = outcome.warehouse.0;

    Ok(LiveReport {
        view: policy.view().to_bag(),
        installs: policy.installs().to_vec(),
        metrics: policy.metrics().clone(),
        policy: policy.name(),
        quiescent: policy.is_quiescent(),
        wall: outcome.wall,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dw_relational::eval_view;
    use dw_warehouse::Sweep;
    use dw_workload::StreamConfig;

    fn expected_final(s: &GeneratedScenario) -> dw_relational::Bag {
        let mut rels = s.initial.clone();
        for t in &s.txns {
            rels[t.source].merge(&t.delta);
        }
        let refs: Vec<&dw_relational::Bag> = rels.iter().collect();
        eval_view(&s.view, &refs).unwrap()
    }

    #[test]
    fn sweep_converges_on_real_threads() {
        let scenario = StreamConfig {
            n_sources: 3,
            updates: 15,
            mean_gap: 1_000,
            seed: 5,
            ..Default::default()
        }
        .generate()
        .unwrap();
        let report = run_live(
            &scenario,
            |view, initial| Ok(Box::new(Sweep::new(view, initial)?)),
            20.0,
            Duration::from_secs(30),
        )
        .unwrap();
        assert!(report.quiescent);
        assert_eq!(report.view, expected_final(&scenario));
        assert_eq!(report.metrics.updates_received, scenario.txns.len() as u64);
    }

    /// A `Restart` landing on the live warehouse mid-schedule must be
    /// swallowed, not turned into an `UnexpectedMessage` node failure —
    /// and the run must still converge on ground truth.
    #[test]
    fn restart_mid_schedule_is_tolerated_and_converges() {
        let scenario = StreamConfig {
            n_sources: 3,
            updates: 8,
            mean_gap: 1_000,
            seed: 7,
            ..Default::default()
        }
        .generate()
        .unwrap();
        let mid = scenario.txns[scenario.txns.len() / 2].at + 1;
        let report = run_live_with_extra(&scenario, vec![(mid, WAREHOUSE_NODE, Message::Restart)]);
        assert!(report.quiescent);
        assert_eq!(report.view, expected_final(&scenario));
    }

    /// Like `run_live` with SWEEP, but splicing extra injections into the
    /// schedule (kept sorted by time, as `run_cluster` expects).
    fn run_live_with_extra(
        scenario: &GeneratedScenario,
        extra: Vec<(Time, NodeId, Message)>,
    ) -> LiveReport {
        let refs: Vec<&dw_relational::Bag> = scenario.initial.iter().collect();
        let initial_view = eval_view(&scenario.view, &refs).unwrap();
        let policy: Box<dyn MaintenancePolicy> =
            Box::new(Sweep::new(scenario.view.clone(), initial_view).unwrap());
        let mut sources = Vec::new();
        for i in 0..scenario.view.num_relations() {
            let mut rel = BaseRelation::new(scenario.view.schema(i).clone());
            rel.apply_delta(&scenario.initial[i]).unwrap();
            sources.push(SourceRunner(DataSource::new(i, scenario.view.clone(), rel)));
        }
        let mut injections: Vec<(Time, NodeId, Message)> = scenario
            .txns
            .iter()
            .map(|t| {
                (
                    t.at,
                    source_node(t.source),
                    Message::ApplyTxn {
                        rel: t.source,
                        delta: t.delta.clone(),
                        global: t.global,
                    },
                )
            })
            .chain(extra)
            .collect();
        injections.sort_by_key(|(at, _, _)| *at);
        let outcome = run_cluster(
            PolicyRunner(policy),
            sources,
            injections,
            20.0,
            Duration::from_secs(30),
        )
        .unwrap();
        let policy = outcome.warehouse.0;
        LiveReport {
            view: policy.view().to_bag(),
            installs: policy.installs().to_vec(),
            metrics: policy.metrics().clone(),
            policy: policy.name(),
            quiescent: policy.is_quiescent(),
            wall: outcome.wall,
        }
    }

    #[test]
    fn installs_are_one_per_update() {
        let scenario = StreamConfig {
            n_sources: 2,
            updates: 10,
            mean_gap: 500,
            seed: 6,
            ..Default::default()
        }
        .generate()
        .unwrap();
        let report = run_live(
            &scenario,
            |view, initial| Ok(Box::new(Sweep::new(view, initial)?)),
            20.0,
            Duration::from_secs(30),
        )
        .unwrap();
        assert_eq!(report.installs.len(), scenario.txns.len());
        assert!(report.installs.iter().all(|r| r.consumed.len() == 1));
    }
}
