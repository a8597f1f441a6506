//! Reactive subscriptions: install deltas pushed to registered readers
//! in install order, with bounded-queue backpressure.
//!
//! A subscription is a per-view cursor plus a queue. When the store
//! accepts epoch `e` of view `v`, every subscription on `v` whose cursor
//! is behind `e` gets the delta appended and its cursor advanced —
//! installs reach every subscriber exactly once, in the order they
//! committed. Under the sharded scheduler that order is the
//! [`dw_engine::InstallSequencer`] ticket order, so the concatenated
//! consumed-sets of a subscription stream equal the view's install
//! fingerprint exactly (asserted by `tests/serve_equivalence.rs`).
//!
//! **Backpressure.** A subscription registered with a `max_lag` bound
//! never queues more than `max_lag` undrained deltas. The install that
//! would overflow the queue instead *lags* the subscription: the queue
//! is dropped on the spot (no memory held for a reader that stopped
//! reading) and the subscription remembers only a `resume_epoch` — the
//! latest epoch published to its view, kept current while lagged.
//! Polling a lagged subscription reports the lag as a typed condition;
//! the reader recovers by pinning the snapshot at `resume_epoch` and
//! streaming deltas from there — the stale-snapshot + delta-stream
//! recovery of the Stale View Cleaning line of work, so a bounded
//! subscriber's view history is provably equivalent to the unbounded
//! stream it missed.
//!
//! **Lifecycle.** Ids are allocated monotonically and never reused, so
//! an unsubscribed id stays distinguishable from one never issued:
//! `poll` reports `Unsubscribed` for the former, `Unknown` for the
//! latter. `publish` is O(subscribers-on-that-view); `poll` and
//! `unsubscribe` are O(1) hash lookups.

use dw_engine::InstallEvent;
use std::collections::{BTreeSet, HashMap, VecDeque};

/// Whether `stream` — a subscription that started after `from_epoch` —
/// replays `installs`, its view's installs, exactly from there: the
/// same events (view, epochs, install times, consumed sets and deltas).
/// The one subscription-replay check of every run, simulated or on
/// threads.
pub fn replays_installs(
    stream: &[InstallEvent],
    from_epoch: u64,
    installs: &[InstallEvent],
) -> bool {
    let from = usize::try_from(from_epoch).ok();
    from.and_then(|e| installs.get(e..)) == Some(stream)
}

/// Delivery state of one subscription.
enum SubState {
    /// Keeping up: deltas queue until polled.
    Live {
        /// Last epoch appended to the queue; new installs append only
        /// when strictly newer (replayed installs after a crash recovery
        /// are filtered by the store, this cursor guards the hub
        /// independently).
        delivered_through: u64,
        queue: VecDeque<InstallEvent>,
    },
    /// Fell more than `max_lag` installs behind; queue dropped. Tracks
    /// the latest epoch published to the view so recovery can pin it.
    Lagged { resume_epoch: u64 },
}

struct Subscription {
    view: usize,
    /// Queue bound; `None` = unbounded (never lags).
    max_lag: Option<usize>,
    state: SubState,
}

/// What polling a subscription yields.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HubPoll {
    /// The pending deltas, oldest first (possibly empty).
    Deltas(Vec<InstallEvent>),
    /// The subscription overflowed its `max_lag` bound; its queue was
    /// dropped. Recover by reading the snapshot at `resume_epoch` and
    /// resuming the stream from there.
    Lagged {
        /// Latest epoch published to the subscribed view.
        resume_epoch: u64,
    },
    /// The id was valid once but has been unsubscribed.
    Unsubscribed,
    /// The id was never issued.
    Unknown,
}

/// The fan-out registry (see module docs). Owned by the snapshot store;
/// reached through [`crate::ReadFrontend::subscribe`] / `poll`.
#[derive(Default)]
pub struct SubscriptionHub {
    next_id: u64,
    subs: HashMap<u64, Subscription>,
    /// Per-view subscriber ids, ordered — publish fan-out must be
    /// deterministic across runs.
    by_view: HashMap<usize, BTreeSet<u64>>,
}

/// Counters returned by one [`SubscriptionHub::publish`] call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PublishOutcome {
    /// Queues the delta was appended to.
    pub reached: u64,
    /// Subscriptions this install tipped over their `max_lag` bound.
    pub newly_lagged: u64,
}

impl SubscriptionHub {
    /// A hub with no subscribers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a subscriber on `view`, receiving every install *after*
    /// `from_epoch` (pass the view's current latest epoch to stream only
    /// the future; pass 0 to replay nothing and still see everything
    /// published after registration). `max_lag` bounds the undrained
    /// queue; `None` never lags.
    pub fn subscribe(&mut self, view: usize, from_epoch: u64, max_lag: Option<usize>) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.subs.insert(
            id,
            Subscription {
                view,
                max_lag,
                state: SubState::Live {
                    delivered_through: from_epoch,
                    queue: VecDeque::new(),
                },
            },
        );
        self.by_view.entry(view).or_default().insert(id);
        id
    }

    /// Remove a subscription, freeing its queue. `HubPoll::Unsubscribed`
    /// if already removed, `HubPoll::Unknown` if never issued (returned
    /// as the error side so callers type their responses).
    pub fn unsubscribe(&mut self, id: u64) -> Result<(), HubPoll> {
        match self.subs.remove(&id) {
            Some(sub) => {
                if let Some(set) = self.by_view.get_mut(&sub.view) {
                    set.remove(&id);
                }
                Ok(())
            }
            None if id < self.next_id => Err(HubPoll::Unsubscribed),
            None => Err(HubPoll::Unknown),
        }
    }

    /// Fan one accepted install out to its view's subscribers — live
    /// ones queue it (or tip into lagged), already-lagged ones just
    /// advance their `resume_epoch`. Unsubscribed ids are long gone from
    /// the per-view set, so they cost nothing here.
    pub fn publish(&mut self, delta: &InstallEvent) -> PublishOutcome {
        let mut out = PublishOutcome::default();
        let Some(ids) = self.by_view.get(&delta.view_index) else {
            return out;
        };
        for id in ids {
            let sub = self.subs.get_mut(id).expect("by_view/subs drift");
            match &mut sub.state {
                SubState::Live {
                    delivered_through,
                    queue,
                } => {
                    if delta.epoch <= *delivered_through {
                        continue; // replayed install (crash recovery)
                    }
                    if sub.max_lag.is_some_and(|m| queue.len() >= m) {
                        // Overflow: drop the queue, remember only where
                        // to resume from.
                        sub.state = SubState::Lagged {
                            resume_epoch: delta.epoch,
                        };
                        out.newly_lagged += 1;
                        continue;
                    }
                    *delivered_through = delta.epoch;
                    queue.push_back(delta.clone());
                    out.reached += 1;
                }
                SubState::Lagged { resume_epoch } => {
                    // Keep the resume point at the view's latest epoch:
                    // the latest snapshot is the one retention guarantees
                    // to still exist when the reader comes back.
                    *resume_epoch = (*resume_epoch).max(delta.epoch);
                }
            }
        }
        out
    }

    /// Drain a subscriber's pending deltas (oldest first), or report its
    /// lag / lifecycle state. O(1).
    pub fn poll(&mut self, id: u64) -> HubPoll {
        match self.subs.get_mut(&id) {
            Some(sub) => match &mut sub.state {
                SubState::Live { queue, .. } => HubPoll::Deltas(queue.drain(..).collect()),
                SubState::Lagged { resume_epoch } => HubPoll::Lagged {
                    resume_epoch: *resume_epoch,
                },
            },
            None if id < self.next_id => HubPoll::Unsubscribed,
            None => HubPoll::Unknown,
        }
    }

    /// Flip a lagged subscription back to live, streaming from
    /// `resume_epoch`. Returns `(view, resume_epoch)` so the caller can
    /// pin the snapshot it must read to catch up; errors with the
    /// subscription's poll state when it is not lagged.
    pub fn resume(&mut self, id: u64) -> Result<(usize, u64), HubPoll> {
        match self.subs.get_mut(&id) {
            Some(sub) => match sub.state {
                SubState::Lagged { resume_epoch } => {
                    sub.state = SubState::Live {
                        delivered_through: resume_epoch,
                        queue: VecDeque::new(),
                    };
                    Ok((sub.view, resume_epoch))
                }
                SubState::Live { .. } => Err(HubPoll::Deltas(Vec::new())),
            },
            None if id < self.next_id => Err(HubPoll::Unsubscribed),
            None => Err(HubPoll::Unknown),
        }
    }

    /// Number of registered subscribers.
    pub fn len(&self) -> usize {
        self.subs.len()
    }

    /// True when nobody subscribed.
    pub fn is_empty(&self) -> bool {
        self.subs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dw_protocol::UpdateId;
    use dw_relational::Bag;
    use std::sync::Arc;

    fn delta(view: usize, epoch: u64) -> InstallEvent {
        InstallEvent {
            view_index: view,
            epoch,
            at: epoch * 10,
            consumed: vec![UpdateId {
                source: view,
                seq: epoch,
            }],
            delta: Arc::new(Bag::new()),
        }
    }

    #[test]
    fn replay_check_matches_the_log_and_rejects_any_drift() {
        let installs: Vec<InstallEvent> = (1..=4).map(|e| delta(2, e)).collect();
        let stream = installs.clone();
        assert!(replays_installs(&stream, 0, &installs));
        // A subscription opened at epoch 2 replays the log's tail.
        assert!(replays_installs(&stream[2..], 2, &installs));
        assert!(replays_installs(&[], 4, &installs));
        // A stream with a shifted install time is not the log.
        let mut shifted = stream.clone();
        shifted[1].at += 1;
        assert!(!replays_installs(&shifted, 0, &installs));
        // Neither is one that drops, repeats or mislabels an install, nor
        // one that starts past the log's end.
        assert!(!replays_installs(&stream[..3], 0, &installs));
        assert!(!replays_installs(&stream[1..], 0, &installs));
        let other_view: Vec<InstallEvent> = (1..=4).map(|e| delta(1, e)).collect();
        assert!(!replays_installs(&other_view, 0, &installs));
        let mut wrong_set = stream.clone();
        wrong_set[3].consumed.clear();
        assert!(!replays_installs(&wrong_set, 0, &installs));
        // Nor one whose delta differs from the one installed.
        let mut wrong_delta = stream.clone();
        wrong_delta[0].delta = Arc::new(Bag::from_tuples([dw_relational::tup![1]]));
        assert!(!replays_installs(&wrong_delta, 0, &installs));
        assert!(!replays_installs(&[], 5, &installs));
    }

    fn drained(hub: &mut SubscriptionHub, id: u64) -> Vec<InstallEvent> {
        match hub.poll(id) {
            HubPoll::Deltas(v) => v,
            other => panic!("expected deltas, got {other:?}"),
        }
    }

    #[test]
    fn installs_reach_only_matching_views_in_order() {
        let mut hub = SubscriptionHub::new();
        let a = hub.subscribe(0, 0, None);
        let b = hub.subscribe(1, 0, None);
        hub.publish(&delta(0, 1));
        hub.publish(&delta(1, 1));
        hub.publish(&delta(0, 2));
        assert_eq!(
            drained(&mut hub, a),
            vec![delta(0, 1), delta(0, 2)],
            "view-0 stream"
        );
        assert_eq!(drained(&mut hub, b), vec![delta(1, 1)]);
        // Drained; nothing left.
        assert!(drained(&mut hub, a).is_empty());
    }

    #[test]
    fn from_epoch_skips_already_seen_installs() {
        let mut hub = SubscriptionHub::new();
        let late = hub.subscribe(0, 2, None);
        hub.publish(&delta(0, 2)); // replay of something pre-subscription
        hub.publish(&delta(0, 3));
        assert_eq!(drained(&mut hub, late), vec![delta(0, 3)]);
    }

    #[test]
    fn duplicate_epochs_are_not_redelivered() {
        let mut hub = SubscriptionHub::new();
        let s = hub.subscribe(0, 0, None);
        assert_eq!(hub.publish(&delta(0, 1)).reached, 1);
        assert_eq!(
            hub.publish(&delta(0, 1)).reached,
            0,
            "replayed install refused"
        );
        assert_eq!(drained(&mut hub, s), vec![delta(0, 1)]);
    }

    #[test]
    fn unknown_unsubscribed_and_live_ids_are_distinguishable() {
        let mut hub = SubscriptionHub::new();
        assert_eq!(hub.poll(99), HubPoll::Unknown);
        assert!(hub.is_empty());
        let s = hub.subscribe(0, 0, None);
        assert_eq!(hub.len(), 1);
        hub.unsubscribe(s).unwrap();
        assert!(hub.is_empty());
        assert_eq!(hub.poll(s), HubPoll::Unsubscribed, "dropped ≠ never issued");
        assert_eq!(hub.unsubscribe(s), Err(HubPoll::Unsubscribed));
        assert_eq!(hub.unsubscribe(77), Err(HubPoll::Unknown));
    }

    #[test]
    fn publish_skips_unsubscribed_slots_without_leaking() {
        let mut hub = SubscriptionHub::new();
        let gone = hub.subscribe(0, 0, None);
        let kept = hub.subscribe(0, 0, None);
        hub.publish(&delta(0, 1));
        hub.unsubscribe(gone).unwrap();
        // Fan-out reaches only the survivor; the dropped queue is freed.
        assert_eq!(hub.publish(&delta(0, 2)).reached, 1);
        assert_eq!(drained(&mut hub, kept), vec![delta(0, 1), delta(0, 2)]);
        assert_eq!(hub.poll(gone), HubPoll::Unsubscribed);
    }

    #[test]
    fn overflow_lags_drops_the_queue_and_tracks_resume_epoch() {
        let mut hub = SubscriptionHub::new();
        let s = hub.subscribe(0, 0, Some(2));
        assert_eq!(hub.publish(&delta(0, 1)).reached, 1);
        assert_eq!(hub.publish(&delta(0, 2)).reached, 1);
        // Third undrained install overflows max_lag = 2.
        let out = hub.publish(&delta(0, 3));
        assert_eq!((out.reached, out.newly_lagged), (0, 1));
        assert_eq!(hub.poll(s), HubPoll::Lagged { resume_epoch: 3 });
        // While lagged, later installs only advance the resume point.
        let out = hub.publish(&delta(0, 4));
        assert_eq!((out.reached, out.newly_lagged), (0, 0));
        assert_eq!(hub.poll(s), HubPoll::Lagged { resume_epoch: 4 });
        // Resume: live again, streaming strictly after resume_epoch.
        assert_eq!(hub.resume(s), Ok((0, 4)));
        hub.publish(&delta(0, 5));
        assert_eq!(drained(&mut hub, s), vec![delta(0, 5)]);
        // Resuming a live subscription is a typed error.
        assert_eq!(hub.resume(s), Err(HubPoll::Deltas(Vec::new())));
    }

    #[test]
    fn polling_keeps_a_bounded_subscription_live() {
        let mut hub = SubscriptionHub::new();
        let s = hub.subscribe(0, 0, Some(1));
        for e in 1..=6 {
            hub.publish(&delta(0, e));
            assert_eq!(drained(&mut hub, s), vec![delta(0, e)], "epoch {e}");
        }
    }
}
