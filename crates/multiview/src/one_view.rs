//! SWEEP and Nested SWEEP over one view, behind the single-view policy
//! face.

use crate::registry::{MvError, ViewId};
use crate::scheduler::MaintenanceScheduler;
use dw_engine::{EngineOptions, MaintenancePolicy, PolicyMetrics, WarehouseError};
use dw_protocol::Message;
use dw_relational::{Bag, SharedBag, ViewDef};
use dw_simnet::{Delivery, NetHandle};
use dw_workload::ViewSpec;
use std::cell::OnceCell;

/// SWEEP over one view: a scheduler over the view's bare chain with the
/// view itself — σ trees, residual and Π included — registered over the
/// whole of it. What `dw_core::PolicyKind::Sweep` runs, in the simulator
/// and on threads: Figure 4 at [`EngineOptions::FIGURE_4`], Nested SWEEP
/// (Figure 6) at any [`EngineOptions::depth`] but 1.
///
/// The view's σ is always pushed down: over one view the pushed σ is the
/// view's own, so the seed is filtered, an update the σ rejects
/// short-circuits, and the sources answer over the view itself, as they
/// do for every other policy.
pub struct OneViewSweep {
    pub(crate) sched: MaintenanceScheduler,
    pub(crate) id: ViewId,
    /// The view's bill, assembled on the first read after a delivery.
    metrics: OnceCell<PolicyMetrics>,
}

impl OneViewSweep {
    /// SWEEP over `view` under `opts` (with `pushdown` forced on), from
    /// its correct initial contents.
    pub fn new(view: &ViewDef, initial: Bag, mut opts: EngineOptions) -> Result<Self, MvError> {
        opts.pushdown = true;
        let mut sched = MaintenanceScheduler::with_shards(view.chain(), opts, None)?;
        let spec = ViewSpec::full("view", view.num_relations());
        let registry = &mut sched.registry;
        let id = registry.register_compiled(&spec, view.clone(), initial)?;
        let metrics = OnceCell::new();
        Ok(OneViewSweep { sched, id, metrics })
    }

    /// The scheduler and the view's id in it — for a caller that drives
    /// the scheduler itself (the live warehouse node).
    pub fn into_parts(self) -> (MaintenanceScheduler, ViewId) {
        (self.sched, self.id)
    }
}

impl MaintenancePolicy for OneViewSweep {
    fn name(&self) -> &'static str {
        self.sched.opts.sweep_name()
    }

    fn on_message(
        &mut self,
        delivery: Delivery<Message>,
        net: &mut dyn NetHandle<Message>,
    ) -> Result<(), WarehouseError> {
        self.metrics.take();
        Ok(self.sched.on_message(delivery, net)?)
    }

    fn view(&self) -> &SharedBag {
        self.sched.views().slot(self.id).sink.bag()
    }

    fn set_install_publisher(&mut self, p: dw_engine::SharedInstallPublisher) {
        self.sched.set_install_publisher(p);
    }

    /// The view's installs and staleness beside the engine's update,
    /// query, answer, compensation and nesting counts.
    fn metrics(&self) -> &PolicyMetrics {
        // `id` is the registration's own: the bill cannot miss.
        let bill = || self.sched.view_bill(self.id).unwrap_or_default();
        self.metrics.get_or_init(bill)
    }

    fn is_quiescent(&self) -> bool {
        self.sched.is_quiescent()
    }

    fn set_observer(&mut self, obs: dw_obs::Obs) {
        self.sched.set_observer(obs);
    }
}
