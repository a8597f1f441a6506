//! The common interface all maintenance policies implement.

use crate::error::WarehouseError;
use crate::install::InstallRecord;
use crate::metrics::PolicyMetrics;
use dw_protocol::Message;
use dw_relational::SharedBag;
use dw_simnet::{Delivery, NetHandle};

/// A warehouse-side view maintenance algorithm.
///
/// Policies are event-driven state machines: the orchestrator hands them
/// every message delivered to the warehouse node and they reply through the
/// network. A policy is *quiescent* when it has no in-flight queries and no
/// queued work — at network quiescence this implies the view has converged.
pub trait MaintenancePolicy: Send {
    /// Short algorithm name ("sweep", "strobe", …) for reports.
    fn name(&self) -> &'static str;

    /// Service one message delivered to the warehouse node.
    fn on_message(
        &mut self,
        delivery: Delivery<Message>,
        net: &mut dyn NetHandle<Message>,
    ) -> Result<(), WarehouseError>;

    /// Current materialized view contents.
    fn view(&self) -> &SharedBag;

    /// Every install performed so far, in order.
    fn installs(&self) -> &[InstallRecord];

    /// Algorithm-level counters.
    fn metrics(&self) -> &PolicyMetrics;

    /// No queued updates and no in-flight queries.
    fn is_quiescent(&self) -> bool;

    /// Enable/disable view snapshots in [`InstallRecord`]s (enabled by
    /// default; disable for big benchmark runs).
    fn set_record_snapshots(&mut self, record: bool);

    /// Attach an observability recorder. Policies that don't emit spans
    /// keep the no-op default; `Obs::off()` detaches.
    fn set_observer(&mut self, _obs: dw_obs::Obs) {}
}
