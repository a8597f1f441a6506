//! Install events — the one value an install is, published to the
//! serving layer's subscribers and kept only by an [`InstallLog`].
//!
//! The paper's install is `V ← V + ΔV`, so a view's states are its
//! initial contents plus its [`InstallEvent`] deltas, folded in order
//! ([`view_states`]). The warehouse keeps the view, not the deltas.
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
//! Events carry an **epoch**: the view's 1-based install ordinal (epoch
//! 0 is the registered initial contents), restored with the view from a
//! checkpoint image. Crash recovery replays the WAL through the same
//! apply path, which re-emits events already published before the crash
//! under the same epochs — the serve store keeps the first of each
//! `(view_index, epoch)`, an [`InstallLog`] the replay.

use dw_protocol::UpdateId;
use dw_relational::{Bag, SharedBag};
use dw_simnet::Time;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// One committed install: what the serving layer is published, its
/// subscribers are streamed and an [`InstallLog`] keeps.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InstallEvent {
    /// Registry slot of the view this install belongs to (registration
    /// order; the same index [`SequencedInstall`](crate::SequencedInstall)
    /// keys its deltas by).
    pub view_index: usize,
    /// 1-based install ordinal within the view. Epoch 0 is the initial
    /// contents; epoch `e` is the state after `e` installs.
    pub epoch: u64,
    /// Time of the install.
    pub at: Time,
    /// Updates whose effects this install newly incorporated, in
    /// consumption order.
    pub consumed: Vec<UpdateId>,
    /// The installed delta: `view(e) = view(e−1) + delta`. `Arc`-shared
    /// so publishers and subscriber queues hold one copy of it at
    /// refcount cost — nobody downstream ever deep-copies it.
    pub delta: Arc<Bag>,
}

/// The view's states along its installs: `initial` plus the deltas of
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

    /// Whether a publisher this one forwards to is poisoned (a reader
    /// died holding it): the warehouse then fails typed, as on its own.
    fn is_poisoned(&self) -> bool {
        false
    }
}

/// How publishers are shared between the maintenance side (scheduler,
/// possibly on its own thread in the live runtime) and the read side.
pub type SharedInstallPublisher = Arc<Mutex<dyn InstallPublisher + Send>>;

/// Install history, kept by the run that reads it: each view's events in
/// install order and every `(view_index, epoch)` in publish order, every
/// call forwarded to `downstream`. A re-published epoch (a recovery replay)
/// replaces the logged event, so install comparisons see what recovery
/// produced; the order keeps the first, as the serve store does.
#[derive(Default)]
pub struct InstallLog {
    views: HashMap<usize, Vec<InstallEvent>>,
    order: Vec<(usize, u64)>,
    downstream: Option<SharedInstallPublisher>,
}

impl InstallLog {
    /// An empty log forwarding every call to `downstream`.
    pub fn new(downstream: Option<SharedInstallPublisher>) -> InstallLog {
        InstallLog {
            downstream,
            ..InstallLog::default()
        }
    }

    /// Slot `view_index`'s events, epochs 1, 2, … in order.
    pub fn installs(&self, view_index: usize) -> &[InstallEvent] {
        self.views.get(&view_index).map_or(&[], Vec::as_slice)
    }

    /// Every epoch as `(view_index, epoch)`, in first-publish order.
    pub fn order(&self) -> &[(usize, u64)] {
        &self.order
    }

    /// Forward to `downstream` unless poisoned ([`InstallPublisher::is_poisoned`]).
    fn forward(&self, call: impl FnOnce(&mut (dyn InstallPublisher + Send))) {
        if let Some(Ok(mut downstream)) = self.downstream.as_ref().map(|d| d.lock()) {
            call(&mut *downstream);
        }
    }
}

impl InstallPublisher for InstallLog {
    fn note_delivery(&mut self, view_index: usize, id: UpdateId, delivered_at: Time) {
        self.forward(|d| d.note_delivery(view_index, id, delivered_at));
    }

    fn publish(&mut self, event: InstallEvent) {
        let kept = self.views.entry(event.view_index).or_default();
        match kept.get_mut(event.epoch.wrapping_sub(1) as usize) {
            Some(replayed) => *replayed = event.clone(),
            None => {
                debug_assert_eq!(kept.len() as u64 + 1, event.epoch, "epochs are contiguous");
                self.order.push((event.view_index, event.epoch));
                kept.push(event.clone());
            }
        }
        self.forward(|d| d.publish(event));
    }

    fn is_poisoned(&self) -> bool {
        self.downstream.as_ref().is_some_and(|d| d.is_poisoned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dw_relational::tup;

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

    fn event(view_index: usize, epoch: u64, at: Time, delta: Bag) -> InstallEvent {
        let consumed = vec![UpdateId {
            source: 0,
            seq: epoch,
        }];
        let delta = Arc::new(delta);
        InstallEvent {
            view_index,
            epoch,
            at,
            consumed,
            delta,
        }
    }

    /// A log in front of a tape: what it keeps and what it forwards.
    fn logged() -> (InstallLog, Arc<Mutex<Tape>>) {
        let tape = Arc::new(Mutex::new(Tape::default()));
        (InstallLog::new(Some(tape.clone())), tape)
    }

    #[test]
    fn the_log_keeps_per_view_and_global_order_and_forwards_every_call() {
        let (mut log, tape) = logged();
        let id = UpdateId { source: 2, seq: 5 };
        log.note_delivery(1, id, 3);
        log.publish(event(1, 1, 4, Bag::from_tuples([tup![1]])));
        log.publish(event(0, 1, 5, Bag::new()));
        log.publish(event(1, 2, 6, Bag::from_tuples([tup![2]])));
        let epochs = |v| log.installs(v).iter().map(|e| e.epoch).collect::<Vec<_>>();
        assert_eq!(
            (epochs(0), epochs(1), epochs(7)),
            (vec![1], vec![1, 2], vec![])
        );
        assert_eq!(log.order(), &[(1, 1), (0, 1), (1, 2)]);
        let tape = tape.lock().unwrap();
        assert_eq!(tape.deliveries, vec![(1, id, 3)]);
        assert_eq!(tape.events.len(), 3);
    }

    #[test]
    fn an_identical_republication_leaves_the_log_as_it_was() {
        let (mut log, tape) = logged();
        let events = [
            event(0, 1, 4, Bag::from_tuples([tup![1]])),
            event(0, 2, 5, Bag::new()),
        ];
        for e in events.iter().chain(&events) {
            log.publish(e.clone());
        }
        assert_eq!(log.installs(0), &events);
        assert_eq!(log.order(), &[(0, 1), (0, 2)]);
        // The replay still reaches the downstream publisher, which keeps
        // its own first event.
        assert_eq!(tape.lock().unwrap().events.len(), 4);
    }

    /// A replay unlike the original replaces it in the log, so the
    /// history is what the recovered warehouse produced; the publish
    /// order keeps each epoch's first publication.
    #[test]
    fn a_republication_with_another_delta_time_or_consumed_set_replaces_its_epoch() {
        let first = event(0, 1, 4, Bag::from_tuples([tup![1]]));
        let second = event(0, 2, 6, Bag::from_tuples([tup![2]]));
        let mut later = first.clone();
        later.at += 1;
        let mut emptied = first.clone();
        emptied.delta = Arc::new(Bag::new());
        let mut moved = first.clone();
        moved.consumed.clear();
        for replay in [later, emptied, moved] {
            let (mut log, tape) = logged();
            log.publish(first.clone());
            log.publish(second.clone());
            log.publish(replay.clone());
            assert_eq!(log.installs(0), &[replay, second.clone()]);
            assert_eq!(log.order(), &[(0, 1), (0, 2)]);
            assert_eq!(tape.lock().unwrap().events.len(), 3);
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "contiguous")]
    fn an_epoch_gap_is_refused() {
        let (mut log, _) = logged();
        log.publish(event(0, 1, 4, Bag::new()));
        log.publish(event(0, 3, 5, Bag::new()));
    }
}
