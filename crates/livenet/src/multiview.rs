//! The one live warehouse: a [`MaintenanceScheduler`] on real OS
//! threads — one view or many, with or without shard lanes, with or
//! without reader threads on a serving layer.
//!
//! The scheduler's lane concurrency is *logical* — any number of lanes
//! in flight over one shared engine — so the warehouse runs on its own
//! thread (where overlapping lanes interleave with real, OS-scheduled
//! answer arrivals) and every source on its own thread.
//! [`run_live`](crate::run_live) (one view, any [`EngineOptions`]) and
//! [`run_live_views`] (every view of a scenario, optionally sharded and
//! served) both build a [`LiveWarehouse`] over a multi-view scenario and
//! differ only in what they hang off it.
//!
//! Delivery order across threads is nondeterministic, so the assertions
//! that make sense here are convergence against ground truth and the
//! scheduler's own invariants (quiescence, escalation accounting) — not
//! install-by-install traces. The deterministic install-order identity
//! claim lives in the simulator-backed conformance suite.

use crate::cluster::{injections, setup_failed, source_runners};
use crate::serve::{with_readers, LiveServeOutcome};
use dw_engine::InstallLog;
use dw_engine::{run_cluster, InstallEvent, LiveError, NodeRunner, PolicyMetrics, ThreadNet};
use dw_multiview::{EngineOptions, MaintenanceScheduler, ShardStats};
use dw_protocol::{Message, WAREHOUSE_NODE};
use dw_relational::{Bag, ShardMap, SharedBag, ViewDef};
use dw_serve::ReadFrontend;
use dw_simnet::{NodeId, Time};
use dw_workload::MultiViewScenario;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// One view's outcome from a live multiview run.
#[derive(Debug)]
pub struct LiveViewOutcome {
    /// View name.
    pub name: String,
    /// Final materialized contents.
    pub view: Bag,
    /// Install history (delivery order is nondeterministic).
    pub installs: Vec<InstallEvent>,
}

/// A drained warehouse: its scheduler, one outcome per registry slot in
/// slot order, and the wall-clock duration of the run.
pub(crate) type Drained = (MaintenanceScheduler, Vec<LiveViewOutcome>, Duration);

/// The warehouse node: a scheduler with every scenario view — base and
/// derived — registered at its correct initial contents, behind the
/// engine's runner face, with the install log its outcomes read. The
/// drain detector polls [`NodeRunner::is_idle`], its own quiescence.
pub(crate) struct LiveWarehouse {
    sched: MaintenanceScheduler,
    log: Arc<Mutex<InstallLog>>,
}

impl NodeRunner for LiveWarehouse {
    fn handle(
        &mut self,
        from: NodeId,
        at: Time,
        msg: Message,
        net: &mut ThreadNet,
    ) -> Result<(), String> {
        // An orchestration signal, not protocol traffic: a supervisor may
        // broadcast restarts without faulting the warehouse thread.
        if matches!(msg, Message::Restart) {
            return Ok(());
        }
        let d = dw_simnet::Delivery {
            at,
            from,
            to: WAREHOUSE_NODE,
            msg,
        };
        self.sched.on_message(d, net).map_err(|e| e.to_string())
    }

    fn is_idle(&self) -> bool {
        self.sched.is_quiescent()
    }
}

impl LiveWarehouse {
    /// A shared-sweep scheduler under `opts` over `scenario` — its base
    /// views, then its derived views on top — with one lane per shard
    /// group of `map`, one group without. With a `front`, the log
    /// forwards into it and every registry slot is mirrored into it at
    /// epoch 0, in slot order.
    pub fn new(
        scenario: &MultiViewScenario,
        opts: EngineOptions,
        map: Option<&ShardMap>,
        front: Option<&ReadFrontend>,
    ) -> Result<Self, LiveError> {
        let base = &scenario.base;
        let mut sched = MaintenanceScheduler::with_shards(base.clone(), opts, map.cloned())
            .map_err(setup_failed)?;
        for bag in &scenario.initial {
            sched.seed_groups(bag);
        }
        for spec in &scenario.views {
            let local = spec.compile(base).map_err(setup_failed)?;
            let refs: Vec<&Bag> = scenario.initial[spec.lo..=spec.hi].iter().collect();
            let initial_view = dw_relational::eval_view(&local, &refs).map_err(setup_failed)?;
            sched.register(spec, initial_view).map_err(setup_failed)?;
        }
        sched
            .register_derived_many(&scenario.derived)
            .map_err(setup_failed)?;
        if let Some(front) = front {
            let reg = sched.views();
            for id in reg.ids() {
                let bag = reg.view_bag(id).map_err(setup_failed)?;
                front.register_view(reg.name(id).map_err(setup_failed)?, bag.clone(), 0);
            }
        }
        let log = Arc::new(Mutex::new(InstallLog::new(front.map(ReadFrontend::sink))));
        sched.set_install_publisher(log.clone());
        Ok(LiveWarehouse { sched, log })
    }

    /// Every registry slot's current contents, in slot order.
    pub fn bags(&self) -> Result<Vec<SharedBag>, LiveError> {
        let reg = self.sched.views();
        let bags = reg.ids().into_iter().map(|id| reg.view_bag(id).cloned());
        bags.collect::<Result<_, _>>().map_err(setup_failed)
    }

    /// Run `injections` (time-sorted) through this warehouse and one
    /// thread per relation of `chain`, each loaded with its `initial`
    /// contents. `time_scale` compresses injection timestamps (2.0 =
    /// twice as fast); `deadline` bounds the whole run.
    pub fn run(
        self,
        chain: &ViewDef,
        initial: &[Bag],
        injections: Vec<(Time, NodeId, Message)>,
        time_scale: f64,
        deadline: Duration,
    ) -> Result<Drained, LiveError> {
        let sources = source_runners(chain, initial)?;
        let outcome = run_cluster(self, sources, injections, time_scale, deadline)?;
        let LiveWarehouse { sched, log } = outcome.warehouse;
        let log = log.lock().unwrap_or_else(PoisonError::into_inner);
        let reg = sched.views();
        let views = reg
            .ids()
            .into_iter()
            .map(|id| {
                Ok(LiveViewOutcome {
                    name: reg.name(id)?.to_string(),
                    view: reg.view_bag(id)?.to_bag(),
                    installs: log.installs(id.index()).to_vec(),
                })
            })
            .collect::<Result<_, dw_multiview::MvError>>()
            .map_err(setup_failed)?;
        Ok((sched, views, outcome.wall))
    }
}

/// Result of a live multi-view run.
#[derive(Debug)]
pub struct LiveViewsReport {
    /// One outcome per registry slot: base views, then derived ones.
    pub views: Vec<LiveViewOutcome>,
    /// Aggregate engine counters.
    pub metrics: PolicyMetrics,
    /// Lane/escalation accounting from the scheduler.
    pub shard_stats: ShardStats,
    /// Whether the scheduler drained before shutdown.
    pub quiescent: bool,
    /// Wall-clock duration of the maintenance run.
    pub wall: Duration,
    /// What the reader threads observed; `None` on a run without readers.
    pub serve: Option<LiveServeOutcome>,
}

impl LiveViewsReport {
    /// The report of a drained warehouse and what its readers saw.
    pub(crate) fn new(drained: Drained, serve: Option<LiveServeOutcome>) -> Self {
        let (sched, views, wall) = drained;
        LiveViewsReport {
            quiescent: sched.is_quiescent(),
            metrics: sched.metrics().clone(),
            shard_stats: sched.stats().clone(),
            views,
            wall,
            serve,
        }
    }
}

/// Run every view of `scenario` — base views, then derived ones — on
/// real threads: one lane per shard group of `map` (one lane without),
/// and with `readers > 0` that many reader threads pinning, scanning and
/// point-reading every slot through a serving layer throughout.
///
/// `time_scale` compresses injection timestamps (2.0 = twice as fast);
/// `deadline` bounds the maintenance run (readers stop when it drains).
pub fn run_live_views(
    scenario: &MultiViewScenario,
    map: Option<&ShardMap>,
    readers: usize,
    time_scale: f64,
    deadline: Duration,
) -> Result<LiveViewsReport, LiveError> {
    let front = (readers > 0).then(ReadFrontend::new);
    let opts = EngineOptions::default();
    let warehouse = LiveWarehouse::new(scenario, opts, map, front.as_ref())?;
    let initial = warehouse.bags()?;
    let (base, chain) = (&scenario.base, &scenario.initial);
    let txns = injections(&scenario.txns);
    let maintain = || warehouse.run(base, chain, txns, time_scale, deadline);
    let (drained, serve) = match &front {
        Some(front) => {
            let (drained, served) = with_readers(front, &initial, readers, maintain)?;
            (drained, Some(served))
        }
        None => (maintain()?, None),
    };
    Ok(LiveViewsReport::new(drained, serve))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{assert_converged, derived_on_v0};
    use dw_workload::{ShardedConfig, ShardedScenario};

    fn sharded(updates: usize, cross_shard_frac: f64, seed: u64) -> ShardedScenario {
        let config = ShardedConfig {
            shards: 2,
            updates,
            mean_gap: 800,
            cross_shard_frac,
            seed,
            ..Default::default()
        };
        config.generate().unwrap()
    }

    #[test]
    fn sharded_sweeps_converge_on_real_threads() {
        let generated = sharded(16, 0.0, 21);
        let (s, map) = (&generated.scenario, Some(&generated.map));
        let report = run_live_views(s, map, 0, 20.0, Duration::from_secs(30)).unwrap();
        assert!(report.quiescent);
        assert!(report.serve.is_none());
        assert_eq!(report.metrics.updates_received, s.txns.len() as u64);
        assert_converged(&report, s);
    }

    #[test]
    fn escalating_lanes_serve_readers_on_threads() {
        // Shard lanes with cross-shard escalations, a σ and a Σ view over
        // V0, and four free-running readers, all in one live run.
        let generated = sharded(16, 0.3, 23);
        let mut s = generated.scenario.clone();
        s.derived = derived_on_v0();
        let map = Some(&generated.map);
        let report = run_live_views(&s, map, 4, 20.0, Duration::from_secs(30)).unwrap();
        assert!(report.quiescent);
        let served = report.serve.as_ref().unwrap();
        assert_eq!(served.torn_reads, 0, "torn read observed");
        assert!(served.reads_answered > 0, "readers never got a read in");
        assert!(served.subs_match_installs);
        assert_converged(&report, &s);
        assert!(report.shard_stats.escalations > 0);
    }
}
