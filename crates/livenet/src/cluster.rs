//! Thread-per-node cluster runtime — a thin adapter over the engine's
//! live transport.
//!
//! The threads, channels, injection pacing and drain detection all live
//! in [`dw_engine::run_cluster`]; this module only knows how to wrap the
//! repo's sources as engine [`NodeRunner`]s, how to schedule a
//! scenario's transactions, and how to run a scenario's one view as a
//! one-view multi-view scenario.

use crate::multiview::{LiveViewsReport, LiveWarehouse};
use dw_engine::{EngineOptions, NodeRunner, ThreadNet};
use dw_protocol::{source_node, Message};
use dw_relational::{Bag, ViewDef};
use dw_simnet::{NodeId, Time};
use dw_source::{load_sources, DataSource};
use dw_workload::{GeneratedScenario, ScheduledTxn};
use std::time::Duration;

pub use dw_engine::LiveError;

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
    let sources = load_sources(chain, initial, false).map_err(setup_failed)?;
    Ok(sources.into_iter().map(SourceRunner).collect())
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

/// Run a scenario's one view on real threads: SWEEP under `opts`, σ
/// pushdown forced on (Nested SWEEP at any [`EngineOptions::depth`] but
/// one), on the warehouse thread over the scenario as a one-view
/// [`dw_workload::MultiViewScenario`], one thread per source.
/// `time_scale` compresses the scenario's injection timestamps (2.0 = run
/// twice as fast). `deadline` bounds the whole run.
pub fn run_live(
    scenario: &GeneratedScenario,
    opts: EngineOptions,
    time_scale: f64,
    deadline: Duration,
) -> Result<LiveViewsReport, LiveError> {
    run_spliced(scenario, opts, Vec::new(), time_scale, deadline)
}

/// [`run_live`] with `extra` injections spliced into the scenario's
/// schedule (kept sorted by time, as `run_cluster` expects).
fn run_spliced(
    scenario: &GeneratedScenario,
    mut opts: EngineOptions,
    extra: Vec<(Time, NodeId, Message)>,
    time_scale: f64,
    deadline: Duration,
) -> Result<LiveViewsReport, LiveError> {
    opts.pushdown = true;
    let scenario = scenario.clone().into_multi_view().map_err(setup_failed)?;
    let warehouse = LiveWarehouse::new(&scenario, opts, None, None)?;
    let mut schedule = injections(&scenario.txns);
    schedule.extend(extra);
    schedule.sort_by_key(|&(at, _, _)| at);
    let (base, initial) = (&scenario.base, &scenario.initial);
    let drained = warehouse.run(base, initial, schedule, time_scale, deadline)?;
    Ok(LiveViewsReport::new(drained, None))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::ground_truth;
    use dw_protocol::WAREHOUSE_NODE;
    use dw_workload::StreamConfig;

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
        let opts = EngineOptions::FIGURE_4;
        let report = run_live(&scenario, opts, 20.0, Duration::from_secs(30)).unwrap();
        assert!(report.quiescent);
        let view = [("V", scenario.view.clone(), 0)];
        assert_eq!(
            report.views[0].view,
            ground_truth(&scenario.initial, &scenario.txns, view, &[])[0]
        );
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
        let restart = vec![(mid, WAREHOUSE_NODE, Message::Restart)];
        let opts = EngineOptions::FIGURE_4;
        let report = run_spliced(&scenario, opts, restart, 20.0, Duration::from_secs(30)).unwrap();
        assert!(report.quiescent);
        let view = [("V", scenario.view.clone(), 0)];
        assert_eq!(
            report.views[0].view,
            ground_truth(&scenario.initial, &scenario.txns, view, &[])[0]
        );
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
        let opts = EngineOptions::FIGURE_4;
        let report = run_live(&scenario, opts, 20.0, Duration::from_secs(30)).unwrap();
        assert_eq!(report.views[0].installs.len(), scenario.txns.len());
        assert!(report.views[0]
            .installs
            .iter()
            .all(|r| r.consumed.len() == 1));
    }
}
