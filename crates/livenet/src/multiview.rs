//! The one live warehouse: a [`MaintenanceScheduler`] on real OS
//! threads — one view or many, with or without shard lanes, with or
//! without a serving layer attached.
//!
//! The scheduler's lane concurrency is *logical* — any number of lanes
//! in flight over one shared engine — so the warehouse runs on its own
//! thread (where overlapping lanes interleave with real, OS-scheduled
//! answer arrivals) and every source on its own thread.
//! [`run_live`](crate::run_live), [`run_live_sharded`](crate::run_live_sharded)
//! and [`run_live_serve`](crate::run_live_serve) all build a
//! [`LiveWarehouse`] and differ only in what they hang off it.

use crate::cluster::{setup_failed, source_runners};
use dw_engine::{run_cluster, InstallRecord, LiveError, NodeRunner, ThreadNet};
use dw_multiview::{EngineOptions, MaintenanceScheduler, OneViewSweep, ViewId};
use dw_protocol::{Message, WAREHOUSE_NODE};
use dw_relational::{eval_view, Bag, ShardMap, SharedBag, ViewDef};
use dw_serve::ReadFrontend;
use dw_simnet::{NodeId, Time};
use dw_workload::{GeneratedScenario, MultiViewScenario};
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

/// The warehouse node: a scheduler with every scenario view — base and
/// derived — registered at its correct initial contents, behind the
/// engine's runner face. The drain detector polls
/// [`NodeRunner::is_idle`], the scheduler's own quiescence.
pub(crate) struct LiveWarehouse {
    sched: MaintenanceScheduler,
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
    /// A shared-sweep scheduler over `scenario` — its base views, then
    /// its derived views on top — with one lane per shard group of `map`,
    /// one group without. With a `front`, installs publish into it and
    /// every registry slot is mirrored into it at epoch 0, in slot order.
    pub fn new(
        scenario: &MultiViewScenario,
        map: Option<&ShardMap>,
        front: Option<&ReadFrontend>,
    ) -> Result<Self, LiveError> {
        let base = &scenario.base;
        let opts = EngineOptions::default();
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
            sched.set_install_publisher(front.sink());
            let reg = sched.views();
            for id in reg.ids() {
                let bag = reg.view_bag(id).map_err(setup_failed)?;
                front.register_view(reg.name(id).map_err(setup_failed)?, bag.clone(), 0);
            }
        }
        Ok(LiveWarehouse { sched })
    }

    /// Every registry slot's current contents, in slot order.
    pub fn bags(&self) -> Result<Vec<SharedBag>, LiveError> {
        let reg = self.sched.views();
        let bags = reg.ids().into_iter().map(|id| reg.view_bag(id).cloned());
        bags.collect::<Result<_, _>>().map_err(setup_failed)
    }

    /// SWEEP under `opts` — Nested SWEEP at any depth but 1 — over
    /// `scenario`'s one view (a [`OneViewSweep`]), from its correct
    /// initial contents; the view's id beside it.
    pub fn one_view(
        scenario: &GeneratedScenario,
        opts: EngineOptions,
    ) -> Result<(Self, ViewId), LiveError> {
        let refs: Vec<&Bag> = scenario.initial.iter().collect();
        let initial_view = eval_view(&scenario.view, &refs).map_err(setup_failed)?;
        let sweep = OneViewSweep::new(&scenario.view, initial_view, opts).map_err(setup_failed)?;
        let (sched, id) = sweep.into_parts();
        Ok((LiveWarehouse { sched }, id))
    }

    /// Run `injections` (time-sorted) through this warehouse and one
    /// thread per relation of `chain`, each loaded with its `initial`
    /// contents. `time_scale` compresses injection timestamps (2.0 =
    /// twice as fast); `deadline` bounds the whole run. Returns the
    /// drained scheduler, one outcome per registry slot in slot order,
    /// and the wall-clock duration.
    pub fn run(
        self,
        chain: &ViewDef,
        initial: &[Bag],
        injections: Vec<(Time, NodeId, Message)>,
        time_scale: f64,
        deadline: Duration,
    ) -> Result<(MaintenanceScheduler, Vec<LiveViewOutcome>, Duration), LiveError> {
        let sources = source_runners(chain, initial)?;
        let outcome = run_cluster(self, sources, injections, time_scale, deadline)?;
        let sched = outcome.warehouse.sched;
        let reg = sched.views();
        let views = reg
            .ids()
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
