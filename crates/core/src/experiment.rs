//! Experiment construction and the dispatch loop.

use crate::multi_experiment::{MultiViewExperiment, MultiViewReport, ViewOutcome};
use crate::runner::{
    build_sources, dispatch_to_source, inject_txns, net_setters, NetProfile, SimHarness,
};
use dw_consistency::{classify, Recorder, SlotView};
use dw_multiview::EngineOptions;
use dw_protocol::{source_node, Message, WAREHOUSE_NODE};
use dw_relational::{Bag, KeySpec, RelationalError, ViewDef};
use dw_serve::ServeError;
use dw_simnet::NodeId;
use dw_source::{EcaSite, SourceError};
use dw_warehouse::InstallLog;
use dw_warehouse::{CStrobe, Eca, MaintenancePolicy, Recompute, Strobe, WarehouseError};
use dw_workload::{GeneratedScenario, ViewPolicy};
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};

/// Which maintenance algorithm to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyKind {
    /// SWEEP (§5) — complete consistency, local compensation — as a
    /// [`MultiViewExperiment`] over the scenario's one view under these
    /// options, σ pushdown forced on.
    /// [`EngineOptions::FIGURE_4`] is the paper's Figure 4;
    /// `EngineOptions::default()` is the scheduler's default: §5.3's two
    /// concurrent legs, not Figure 4's one. With [`EngineOptions::window`]
    /// ≠ 1 it is Pipelined SWEEP, §5.3's second optimization: overlapped
    /// sweeps, in-order installs. With [`EngineOptions::depth`] ≠ 1 it is
    /// Nested SWEEP (§6, [`EngineOptions::FIGURE_6`]) — strong
    /// consistency, dovetailed installs, `depth` the §6.2 bound.
    Sweep(EngineOptions),
    /// ECA — single-site source, quiescent installs.
    Eca,
    /// Strobe — unique keys, quiescent installs.
    Strobe,
    /// C-strobe — unique keys, complete consistency, query blow-up.
    CStrobe,
    /// Full recompute — convergence only.
    Recompute,
}

impl PolicyKind {
    /// Short name matching `MaintenancePolicy::name`.
    pub fn name(&self) -> &'static str {
        match self {
            PolicyKind::Sweep(opts) => opts.sweep_name(),
            PolicyKind::Eca => "eca",
            PolicyKind::Strobe => "strobe",
            PolicyKind::CStrobe => "c-strobe",
            PolicyKind::Recompute => "recompute",
        }
    }

    /// Does this policy use the single-site (ECA) topology?
    pub fn single_site(&self) -> bool {
        matches!(self, PolicyKind::Eca)
    }
}

/// Errors surfaced by a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// A relational failure while setting up.
    Relational(RelationalError),
    /// A data source failed mid-run.
    Source(SourceError),
    /// The warehouse policy failed mid-run.
    Warehouse(WarehouseError),
    /// The event cap was exhausted — a livelock/oscillation guard.
    EventCapExceeded {
        /// The configured cap.
        cap: u64,
    },
    /// A message was delivered to a node that does not exist.
    NoSuchNode {
        /// The offending destination.
        node: NodeId,
    },
    /// The read frontend of a serving run failed (unknown view slot,
    /// unpinned epoch, dead subscription, …).
    Serve(ServeError),
    /// A multi-view scheduler failure that is not a relational or
    /// warehouse error (unknown view id, busy view, …).
    Multi(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Relational(e) => write!(f, "{e}"),
            CoreError::Source(e) => write!(f, "{e}"),
            CoreError::Warehouse(e) => write!(f, "{e}"),
            CoreError::EventCapExceeded { cap } => {
                write!(f, "event cap of {cap} exceeded (livelock or oscillation)")
            }
            CoreError::NoSuchNode { node } => write!(f, "delivery to unknown node {node}"),
            CoreError::Serve(e) => write!(f, "serve: {e}"),
            CoreError::Multi(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for CoreError {}
impl From<RelationalError> for CoreError {
    fn from(e: RelationalError) -> Self {
        CoreError::Relational(e)
    }
}
impl From<SourceError> for CoreError {
    fn from(e: SourceError) -> Self {
        CoreError::Source(e)
    }
}
impl From<WarehouseError> for CoreError {
    fn from(e: WarehouseError) -> Self {
        CoreError::Warehouse(e)
    }
}
impl From<ServeError> for CoreError {
    fn from(e: ServeError) -> Self {
        CoreError::Serve(e)
    }
}

/// A configured experiment: scenario × policy × network profile.
pub struct Experiment {
    scenario: GeneratedScenario,
    policy: PolicyKind,
    net: NetProfile,
    check_consistency: bool,
    indexed_sources: bool,
}

impl Experiment {
    /// New experiment over a scenario, defaulting to SWEEP, 1 ms constant
    /// links, consistency checking on.
    pub fn new(scenario: GeneratedScenario) -> Self {
        Experiment {
            scenario,
            policy: PolicyKind::Sweep(EngineOptions::FIGURE_4),
            net: NetProfile::default(),
            check_consistency: true,
            indexed_sources: false,
        }
    }

    net_setters!();

    /// Choose the maintenance policy.
    pub fn policy(mut self, p: PolicyKind) -> Self {
        self.policy = p;
        self
    }

    /// Disable classification (for big runs). The report's
    /// [`truth`](MultiViewReport::truth) records every delivery either way.
    pub fn check_consistency(mut self, on: bool) -> Self {
        self.check_consistency = on;
        self
    }

    /// Record a full network trace in the report.
    pub fn trace(mut self, on: bool) -> Self {
        self.net.trace = on;
        self
    }

    /// Answer queries through incrementally maintained join indexes at the
    /// sources instead of per-query hashing (behaviourally identical,
    /// local selections and pushed-down predicates included).
    pub fn indexed_sources(mut self, on: bool) -> Self {
        self.indexed_sources = on;
        self
    }

    /// SWEEP over the scenario's one view: a [`MultiViewExperiment`] on
    /// the same network profile, σ pushdown forced on — over one view the
    /// pushed σ is the view's own, so the seed is filtered, an update the
    /// σ rejects short-circuits, and the sources answer over the view, as
    /// they do for every policy.
    fn sweep(self, mut opts: EngineOptions) -> Result<MultiViewReport, CoreError> {
        opts.pushdown = true;
        let mut sweep = MultiViewExperiment::new(self.scenario.into_multi_view()?)
            .options(opts)
            .check_consistency(self.check_consistency);
        sweep.net = self.net;
        sweep.indexed_sources = self.indexed_sources;
        sweep.run()
    }

    /// Run to network quiescence and report: one slot, the scenario's
    /// view. SWEEP is a [`MultiViewExperiment`] over the scenario as a
    /// one-view [`dw_workload::MultiViewScenario`]; a baseline policy sits
    /// at the warehouse node itself, its metrics in both the slot's and
    /// the scheduler's place.
    pub fn run(self) -> Result<MultiViewReport, CoreError> {
        type Build =
            fn(ViewDef, &KeySpec, Bag) -> Result<Box<dyn MaintenancePolicy>, WarehouseError>;
        let build: Build = match self.policy {
            PolicyKind::Sweep(opts) => return self.sweep(opts),
            PolicyKind::Eca => |view, _, initial| Ok(Box::new(Eca::new(view, initial)?)),
            PolicyKind::Strobe => {
                |view, keys, initial| Ok(Box::new(Strobe::new(view, keys.clone(), initial)?))
            }
            PolicyKind::CStrobe => {
                |view, keys, initial| Ok(Box::new(CStrobe::new(view, keys.clone(), initial)?))
            }
            PolicyKind::Recompute => {
                |view, _, initial| Ok(Box::new(Recompute::new(view, initial)?))
            }
        };
        let scenario = &self.scenario;
        let view_def = scenario.view.clone();
        let n = view_def.num_relations();
        let mut truth = Recorder::new(scenario.initial.clone());
        let slot = SlotView::base(view_def.clone(), 0);
        let initial_view = truth.state(&slot, &|_| false)?;
        let mut policy = build(view_def.clone(), &scenario.keys, initial_view)?;
        policy.set_observer(self.net.obs.clone());
        let log = Arc::new(Mutex::new(InstallLog::new(None)));
        policy.set_install_publisher(log.clone());

        // Topology: the single-site architecture co-locates every
        // relation at one node and takes every transaction there.
        let single_site = self.policy.single_site();
        let node_count = if single_site { 2 } else { n + 1 };
        let mut harness = SimHarness::new(&self.net, node_count);
        let mut sources = Vec::new();
        let mut eca_site: Option<EcaSite> = None;
        if single_site {
            let rels = (0..n)
                .map(|i| {
                    let mut r = dw_relational::BaseRelation::new(view_def.schema(i).clone());
                    r.apply_delta(&scenario.initial[i]).map(|_| r)
                })
                .collect::<Result<Vec<_>, _>>()?;
            eca_site = Some(EcaSite::new(source_node(0), view_def.clone(), rels));
        } else {
            sources = build_sources(
                &view_def,
                &scenario.initial,
                self.indexed_sources,
                &self.net.obs,
            )?;
        }

        inject_txns(&mut harness.net, &scenario.txns, |source| {
            source_node(if single_site { 0 } else { source })
        });

        harness.drive(|d, net| {
            if d.to == WAREHOUSE_NODE {
                if let Message::Update(u) = &d.msg {
                    truth.record_delivery(u.id, d.at, u.delta.clone());
                }
                policy.on_message(d, net)?;
            } else if let Some(site) = eca_site.as_mut() {
                if d.to != source_node(0) {
                    return Err(CoreError::NoSuchNode { node: d.to });
                }
                site.handle(d.from, d.msg, net)?;
            } else {
                dispatch_to_source(&mut sources, d, net)?;
            }
            Ok(())
        })?;

        let log = log.lock().unwrap_or_else(PoisonError::into_inner);
        let installs = log.installs(0).to_vec();
        let consistency = self
            .check_consistency
            .then(|| classify(&truth, &slot, &installs, policy.view()));

        // Quiescence means the policy has no sweep in flight AND the
        // transport has drained: no unacked frames, no reorder buffers,
        // no pending resync.
        let transport_quiescent = harness.transport_quiescent();

        let metrics = policy.metrics().clone();
        let view = ViewOutcome {
            name: "view".into(),
            slot,
            parent: None,
            policy: ViewPolicy::Sweep,
            view: policy.view().to_bag(),
            installs,
            metrics: metrics.clone(),
            consistency,
        };
        let quiescent = policy.is_quiescent() && transport_quiescent;
        Ok(MultiViewReport::one_slot(
            view, metrics, &harness, quiescent, truth,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dw_consistency::ConsistencyLevel;
    use dw_workload::{SourcePick, StreamConfig};

    fn quick(updates: usize, seed: u64) -> GeneratedScenario {
        StreamConfig {
            updates,
            seed,
            n_sources: 3,
            initial_per_source: 20,
            domain: 8,
            mean_gap: 500, // dense: heavy interference vs 1 ms links
            ..Default::default()
        }
        .generate()
        .unwrap()
    }

    #[test]
    fn sweep_is_complete_under_interference() {
        let report = Experiment::new(quick(25, 1))
            .policy(PolicyKind::Sweep(EngineOptions::FIGURE_4))
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

    #[test]
    fn nested_sweep_is_at_least_strong() {
        let report = Experiment::new(quick(25, 2))
            .policy(PolicyKind::Sweep(EngineOptions::FIGURE_6))
            .run()
            .unwrap();
        assert!(report.quiescent);
        let level = report.views[0].consistency.as_ref().unwrap().level;
        assert!(level >= ConsistencyLevel::Strong, "got {level}");
    }

    #[test]
    fn strobe_is_at_least_strong() {
        let report = Experiment::new(quick(25, 3))
            .policy(PolicyKind::Strobe)
            .run()
            .unwrap();
        assert!(report.quiescent);
        let level = report.views[0].consistency.as_ref().unwrap().level;
        assert!(level >= ConsistencyLevel::Strong, "got {level}");
    }

    #[test]
    fn cstrobe_is_complete() {
        let report = Experiment::new(quick(15, 4))
            .policy(PolicyKind::CStrobe)
            .run()
            .unwrap();
        assert!(report.quiescent);
        let level = report.views[0].consistency.as_ref().unwrap().level;
        assert!(level >= ConsistencyLevel::Complete, "got {level}");
    }

    #[test]
    fn eca_is_at_least_strong_on_single_site() {
        let report = Experiment::new(quick(25, 5))
            .policy(PolicyKind::Eca)
            .run()
            .unwrap();
        assert!(report.quiescent);
        let level = report.views[0].consistency.as_ref().unwrap().level;
        assert!(level >= ConsistencyLevel::Strong, "got {level}");
    }

    #[test]
    fn recompute_converges() {
        let report = Experiment::new(quick(25, 6))
            .policy(PolicyKind::Recompute)
            .run()
            .unwrap();
        assert!(report.quiescent);
        let level = report.views[0].consistency.as_ref().unwrap().level;
        assert!(level >= ConsistencyLevel::Convergent, "got {level}");
    }

    #[test]
    fn sweep_message_cost_is_2n_minus_2_per_update() {
        let n = 5;
        let scenario = StreamConfig {
            n_sources: n,
            updates: 20,
            mean_gap: 200,
            ..Default::default()
        }
        .generate()
        .unwrap();
        let report = Experiment::new(scenario)
            .policy(PolicyKind::Sweep(EngineOptions::FIGURE_4))
            .run()
            .unwrap();
        assert!((report.messages_per_update() - (2 * (n - 1)) as f64).abs() < 1e-9);
    }

    #[test]
    fn strobe_rejected_without_keys() {
        let scenario = StreamConfig {
            keyed: false,
            ..Default::default()
        }
        .generate()
        .unwrap();
        let err = Experiment::new(scenario)
            .policy(PolicyKind::Strobe)
            .run()
            .unwrap_err();
        assert!(matches!(err, CoreError::Warehouse(_)));
    }

    #[test]
    fn sweep_handles_unkeyed_views() {
        // The headline SWEEP property the Strobe family lacks.
        let scenario = StreamConfig {
            keyed: false,
            updates: 20,
            seed: 9,
            ..Default::default()
        }
        .generate()
        .unwrap();
        let report = Experiment::new(scenario)
            .policy(PolicyKind::Sweep(EngineOptions::FIGURE_4))
            .run()
            .unwrap();
        assert_eq!(
            report.views[0].consistency.as_ref().unwrap().level,
            ConsistencyLevel::Complete
        );
    }

    #[test]
    fn alternating_ends_oscillation_guard() {
        // Unbounded Nested SWEEP under the adversarial pattern can recurse
        // deeply; the depth bound forces termination.
        let scenario = StreamConfig {
            n_sources: 4,
            updates: 40,
            mean_gap: 100,
            source_pick: SourcePick::AlternatingEnds,
            insert_ratio: 1.0,
            seed: 10,
            ..Default::default()
        }
        .generate()
        .unwrap();
        let report = Experiment::new(scenario)
            .policy(PolicyKind::Sweep(EngineOptions {
                depth: 4,
                ..EngineOptions::FIGURE_6
            }))
            .run()
            .unwrap();
        assert!(report.quiescent);
        assert!(report.scheduler_metrics.max_recursion_depth <= 4);
        let level = report.views[0].consistency.as_ref().unwrap().level;
        assert!(level >= ConsistencyLevel::Strong, "got {level}");
    }

    #[test]
    fn indexed_sources_behave_identically() {
        let plain = Experiment::new(quick(25, 33)).run().unwrap();
        let indexed = Experiment::new(quick(25, 33))
            .indexed_sources(true)
            .run()
            .unwrap();
        assert_eq!(plain.views[0].view, indexed.views[0].view);
        assert_eq!(plain.events, indexed.events);
        assert_eq!(
            indexed.views[0].consistency.as_ref().unwrap().level,
            ConsistencyLevel::Complete
        );
    }

    #[test]
    fn deterministic_replay() {
        let r1 = Experiment::new(quick(20, 11)).seed(3).run().unwrap();
        let r2 = Experiment::new(quick(20, 11)).seed(3).run().unwrap();
        assert_eq!(r1.views[0].view, r2.views[0].view);
        assert_eq!(r1.events, r2.events);
        assert_eq!(r1.end_time, r2.end_time);
    }

    #[test]
    fn parallel_sweep_matches_sequential() {
        let seq = Experiment::new(quick(25, 12))
            .policy(PolicyKind::Sweep(EngineOptions::FIGURE_4))
            .run()
            .unwrap();
        let par = Experiment::new(quick(25, 12))
            .policy(PolicyKind::Sweep(EngineOptions::default()))
            .run()
            .unwrap();
        assert_eq!(seq.views[0].view, par.views[0].view);
        assert_eq!(
            par.views[0].consistency.as_ref().unwrap().level,
            ConsistencyLevel::Complete
        );
        // Parallel halves the per-update critical path.
        assert!(par.end_time <= seq.end_time);
    }

    fn report_run() -> MultiViewReport {
        Experiment::new(
            StreamConfig {
                n_sources: 3,
                updates: 10,
                initial_per_source: 15,
                mean_gap: 500,
                seed: 77,
                ..Default::default()
            }
            .generate()
            .unwrap(),
        )
        .policy(PolicyKind::Sweep(EngineOptions::FIGURE_4))
        .run()
        .unwrap()
    }

    #[test]
    fn message_accounting_consistent() {
        let r = report_run();
        // Updates + queries + answers == everything except injections.
        let updates = r.net.label("update").messages;
        let maintenance = r.net.total().messages - r.net.label("txn").messages;
        assert_eq!(maintenance, updates + r.query_messages());
        assert_eq!(r.messages_per_update(), 4.0); // 2(n−1)
        assert!(r.net.label("query").bytes > 0);
    }

    #[test]
    fn delivery_log_matches_metrics() {
        let r = report_run();
        let log = r.delivery_log();
        assert_eq!(log.len() as u64, r.scheduler_metrics.updates_received);
        assert!(log.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn lag_series_from_report() {
        let r = report_run();
        let lag = r.lag_series(&r.views[0]);
        assert_eq!(lag.final_lag(), 0, "quiescent run must catch up");
        assert!(lag.max_lag() >= 1);
    }

    #[test]
    fn zero_update_run_divides_safely() {
        let r = Experiment::new(
            StreamConfig {
                updates: 0,
                ..Default::default()
            }
            .generate()
            .unwrap(),
        )
        .run()
        .unwrap();
        assert_eq!(r.messages_per_update(), 0.0);
        assert_eq!(r.net.total().messages, r.net.label("txn").messages);
    }
}
