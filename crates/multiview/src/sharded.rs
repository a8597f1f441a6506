//! The sharded configuration of the one scheduler, *as a type*.
//!
//! [`ShardedScheduler`] is a newtype over a [`MaintenanceScheduler`]
//! built with a [`ShardMap`]. It owns no scheduling state and no sweep
//! logic; it exists because it cannot express what a partitioner
//! refuses: reads go through `Deref`, and the only mutations it forwards
//! are registration, wiring and message delivery (durability and
//! recovery compose with a partitioner, but the callers of this type —
//! the wall-clock benchmark — never arm them). Code that needs one
//! scheduler type for both configurations (the experiment harnesses, the
//! live runtime) uses [`MaintenanceScheduler`] directly.

use crate::registry::{MvError, ViewId};
use crate::scheduler::MaintenanceScheduler;
use dw_engine::{EngineOptions, SharedInstallPublisher};
use dw_obs::Obs;
use dw_protocol::Message;
use dw_relational::{Bag, ShardMap, ViewDef};
use dw_simnet::{Delivery, NetHandle};
use dw_workload::ViewSpec;

/// A [`MaintenanceScheduler`] that is sharded by construction (see the
/// module docs); every method forwards to the method of the same name.
pub struct ShardedScheduler(MaintenanceScheduler);

impl std::ops::Deref for ShardedScheduler {
    type Target = MaintenanceScheduler;

    fn deref(&self) -> &MaintenanceScheduler {
        &self.0
    }
}

impl ShardedScheduler {
    /// Default options, lanes over the bands of `map`.
    pub fn new(base: ViewDef, map: ShardMap) -> Result<Self, MvError> {
        MaintenanceScheduler::with_shards(base, EngineOptions::default(), Some(map)).map(Self)
    }

    /// See [`MaintenanceScheduler::seed_groups`].
    pub fn seed_groups(&mut self, initial: &Bag) {
        self.0.seed_groups(initial);
    }

    /// See [`MaintenanceScheduler::register`].
    pub fn register(&mut self, spec: &ViewSpec, initial: Bag) -> Result<ViewId, MvError> {
        self.0.register(spec, initial)
    }

    /// Does nothing, as [`MaintenanceScheduler::set_record_snapshots`]:
    /// kept only because the frozen benchmark calls it.
    pub fn set_record_snapshots(&mut self, _record: bool) {}

    /// See [`MaintenanceScheduler::set_install_publisher`].
    pub fn set_install_publisher(&mut self, p: SharedInstallPublisher) {
        self.0.set_install_publisher(p);
    }

    /// See [`MaintenanceScheduler::set_observer`].
    pub fn set_observer(&mut self, obs: Obs) {
        self.0.set_observer(obs);
    }

    /// See [`MaintenanceScheduler::on_message`].
    pub fn on_message(
        &mut self,
        delivery: Delivery<Message>,
        net: &mut dyn NetHandle<Message>,
    ) -> Result<(), MvError> {
        self.0.on_message(delivery, net)
    }
}
