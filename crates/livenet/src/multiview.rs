//! The multiview live arm: a [`MaintenanceScheduler`] on real OS
//! threads, with or without shard lanes, with or without a serving
//! layer attached.
//!
//! The scheduler's lane concurrency is *logical* — any number of lanes
//! in flight over one shared engine — so the warehouse runs on its own
//! thread (where overlapping lanes interleave with real, OS-scheduled
//! answer arrivals) and every source on its own thread, exactly like
//! [`run_live`](crate::run_live). [`run_live_sharded`](crate::run_live_sharded)
//! and [`run_live_serve`](crate::run_live_serve) both build a
//! [`LiveWarehouse`] and differ only in what they hang off it.

use crate::cluster::{injections, setup_failed, source_runners};
use dw_engine::{run_cluster, LiveError, NodeRunner, SharedInstallPublisher, ThreadNet};
use dw_multiview::{EngineOptions, MaintenanceScheduler, ViewId};
use dw_protocol::{Message, WAREHOUSE_NODE};
use dw_relational::{Bag, ShardMap};
use dw_simnet::{NodeId, Time};
use dw_warehouse::InstallRecord;
use dw_workload::MultiViewScenario;
use std::time::Duration;

/// One view's outcome from a live multiview run.
#[derive(Debug)]
pub struct LiveViewOutcome {
    /// View name.
    pub name: String,
    /// Final materialized contents.
    pub view: Bag,
    /// Install history (delivery order is nondeterministic).
    pub installs: Vec<InstallRecord>,
}

/// The warehouse node: a scheduler with every scenario view registered
/// at its correct initial contents, behind the engine's runner face.
pub(crate) struct LiveWarehouse {
    sched: MaintenanceScheduler,
    ids: Vec<ViewId>,
}

impl NodeRunner for LiveWarehouse {
    fn handle(
        &mut self,
        from: NodeId,
        at: Time,
        msg: Message,
        net: &mut ThreadNet,
    ) -> Result<(), String> {
        // Orchestration signal, not protocol traffic (see PolicyRunner).
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
    /// A shared-sweep scheduler over `scenario` — one lane per shard
    /// group of `map`, one group without — announcing installs through
    /// `publisher`. `on_view` sees every base view's initial contents in
    /// registration order (the serve arm mirrors them into its frontend).
    pub fn new(
        scenario: &MultiViewScenario,
        map: Option<&ShardMap>,
        publisher: Option<SharedInstallPublisher>,
        mut on_view: impl FnMut(&str, &Bag),
    ) -> Result<Self, LiveError> {
        let base = &scenario.base;
        let opts = EngineOptions::default();
        let mut sched = MaintenanceScheduler::with_shards(base.clone(), opts, map.cloned())
            .map_err(setup_failed)?;
        if let Some(p) = publisher {
            sched.set_install_publisher(p);
        }
        for bag in &scenario.initial {
            sched.seed_groups(bag);
        }
        let mut ids = Vec::with_capacity(scenario.views.len());
        for spec in &scenario.views {
            let local = spec.compile(base).map_err(setup_failed)?;
            let refs: Vec<&Bag> = scenario.initial[spec.lo..=spec.hi].iter().collect();
            let initial_view = dw_relational::eval_view(&local, &refs).map_err(setup_failed)?;
            on_view(&spec.name, &initial_view);
            ids.push(sched.register(spec, initial_view).map_err(setup_failed)?);
        }
        Ok(LiveWarehouse { sched, ids })
    }

    /// Run `scenario`'s transactions through this warehouse and one
    /// thread per source. `time_scale` compresses injection timestamps
    /// (2.0 = twice as fast); `deadline` bounds the whole run. Returns
    /// the drained scheduler, the per-view outcomes in registration
    /// order, and the wall-clock duration.
    pub fn run(
        self,
        scenario: &MultiViewScenario,
        time_scale: f64,
        deadline: Duration,
    ) -> Result<(MaintenanceScheduler, Vec<LiveViewOutcome>, Duration), LiveError> {
        let sources = source_runners(&scenario.base, &scenario.initial)?;
        let injections = injections(&scenario.txns);
        let outcome = run_cluster(self, sources, injections, time_scale, deadline)?;
        let LiveWarehouse { sched, ids } = outcome.warehouse;
        let reg = sched.views();
        let views = ids
            .into_iter()
            .map(|id| {
                Ok(LiveViewOutcome {
                    name: reg.name(id)?.to_string(),
                    view: reg.view_bag(id)?.to_bag(),
                    installs: reg.install_log(id)?.to_vec(),
                })
            })
            .collect::<Result<_, dw_multiview::MvError>>()
            .map_err(setup_failed)?;
        Ok((sched, views, outcome.wall))
    }
}
