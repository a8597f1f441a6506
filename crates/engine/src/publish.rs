//! Install events — the one value an install is, from the view's install
//! log to the serving layer's subscribers.
//!
//! The paper's install is `V ← V + ΔV`, so a view's states are its
//! initial contents plus its [`InstallEvent`] deltas, folded in order
//! ([`view_states`]): the log keeps no snapshot of the view.
//!
//! Maintenance *installs* are the only state transitions a warehouse
//! view ever makes, so a read path that wants immutable, epoch-stamped
//! snapshots only needs to hear about two things: when an update is
//! **delivered** (it exists but is not yet reflected anywhere) and when
//! an install **commits** (a batch of delivered updates became part of
//! the view, atomically). [`InstallPublisher`] is that two-event
//! contract. The engine and its adapters call it *at the install point
//! itself* — inside [`InstallSink::install`](crate::InstallSink) and the
//! multiview runtimes' apply/flush — so the published event stream is
//! exactly the install sequence, in install order. Under the sharded
//! scheduler installs drain in [`InstallSequencer`](crate::InstallSequencer)
//! ticket order, which makes subscription streams built from these
//! events byte-identical to the unsharded install sequence.
//!
//! Events carry an **epoch**: the 1-based index of the install in the
//! view's install log (epoch 0 is the registered initial contents).
//! Crash recovery replays the WAL through the same apply path, which
//! re-emits events for installs that were already published before the
//! crash — consumers deduplicate on `(view_index, epoch)`, so recovery
//! is invisible downstream exactly as it is in the install log itself.

use dw_protocol::UpdateId;
use dw_relational::{Bag, SharedBag};
use dw_simnet::Time;
use std::sync::{Arc, Mutex};

/// One committed install: an entry of the view's install log, and what
/// the serving layer is published and its subscribers are streamed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InstallEvent {
    /// Registry slot of the view this install belongs to (registration
    /// order; the same index [`SequencedInstall`](crate::SequencedInstall)
    /// keys its deltas by).
    pub view_index: usize,
    /// 1-based install ordinal within the view's install log. Epoch 0 is
    /// the initial contents; epoch `e` is the state after `e` installs.
    pub epoch: u64,
    /// Time of the install.
    pub at: Time,
    /// Updates whose effects this install newly incorporated, in
    /// consumption order.
    pub consumed: Vec<UpdateId>,
    /// The installed delta: `view(e) = view(e−1) + delta`. `Arc`-shared
    /// so the install log, the publisher and any number of subscriber
    /// queues hold one copy of it at refcount cost — nobody downstream
    /// ever deep-copies it.
    pub delta: Arc<Bag>,
}

/// The view's states along its install log: `initial` plus the deltas of
/// `log[..=k]` for each `k` — the state at epoch `k + 1`. Every reader of
/// a past view state folds it here. A state the caller drops before
/// taking the next costs no copy; one it keeps shares every chunk the
/// next delta does not touch.
pub fn view_states(
    initial: SharedBag,
    log: &[InstallEvent],
) -> impl Iterator<Item = SharedBag> + '_ {
    log.iter().scan(initial, |state, event| {
        state.merge(&event.delta);
        Some(state.clone())
    })
}

/// Receiver of delivery notices and committed installs.
///
/// Implementations must tolerate replays: the same `(view_index, epoch)`
/// may be published again after a crash recovery, and the same update id
/// may be re-noted — both are idempotent no-ops for a correct consumer.
pub trait InstallPublisher {
    /// An update for `view_index` was delivered to the warehouse at
    /// `delivered_at` (it is now *pending*: visible to staleness
    /// accounting, not yet reflected in any epoch).
    fn note_delivery(&mut self, view_index: usize, id: UpdateId, delivered_at: Time);

    /// An install committed.
    fn publish(&mut self, event: InstallEvent);
}

/// How publishers are shared between the maintenance side (scheduler,
/// possibly on its own thread in the live runtime) and the read side.
pub type SharedInstallPublisher = Arc<Mutex<dyn InstallPublisher + Send>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Tape {
        deliveries: Vec<(usize, UpdateId, Time)>,
        events: Vec<InstallEvent>,
    }

    impl InstallPublisher for Tape {
        fn note_delivery(&mut self, view_index: usize, id: UpdateId, delivered_at: Time) {
            self.deliveries.push((view_index, id, delivered_at));
        }
        fn publish(&mut self, event: InstallEvent) {
            self.events.push(event);
        }
    }

    #[test]
    fn shared_publisher_is_callable_through_the_alias() {
        let tape = Arc::new(Mutex::new(Tape::default()));
        let shared: SharedInstallPublisher = tape.clone();
        let id = UpdateId { source: 1, seq: 0 };
        shared.lock().unwrap().note_delivery(0, id, 7);
        shared.lock().unwrap().publish(InstallEvent {
            view_index: 0,
            epoch: 1,
            at: 9,
            consumed: vec![id],
            delta: Arc::new(Bag::new()),
        });
        // The concrete handle sees what went through the trait object
        // (the live runtime clones the Arc into the warehouse thread).
        let t = tape.lock().unwrap();
        assert_eq!(t.deliveries, vec![(0, id, 7)]);
        assert_eq!(t.events.len(), 1);
        assert_eq!(t.events[0].epoch, 1);
        assert_eq!(t.events[0].consumed, vec![id]);
    }
}
