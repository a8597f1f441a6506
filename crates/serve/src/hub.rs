//! Reactive subscriptions: install deltas pushed to registered readers
//! in install order, with bounded-queue backpressure.
//!
//! Subscriptions are snapshot-store internals: the store owns the one
//! registry and feeds it every accepted install, and readers reach it
//! only through [`crate::ReadFrontend`]'s `subscribe` / `poll` /
//! `resume` / `unsubscribe`. Every refusal is a [`crate::ServeError`],
//! the serve layer's one error type, made here and handed up unchanged.
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
//! Polling a lagged subscription refuses with [`crate::ServeError::Lagged`];
//! the reader recovers by pinning the snapshot at `resume_epoch` and
//! streaming deltas from there — the stale-snapshot + delta-stream
//! recovery of the Stale View Cleaning line of work, so a bounded
//! subscriber's view history is provably equivalent to the unbounded
//! stream it missed.
//!
//! **Lifecycle.** Ids are allocated monotonically and never reused, so
//! an unsubscribed id stays distinguishable from one never issued:
//! `poll`, `resume` and `unsubscribe` refuse the former with
//! `Unsubscribed`, the latter with `NoSuchSubscription`. `publish` is
//! O(subscribers-on-that-view); `poll` and `unsubscribe` are O(1) hash
//! lookups.

use crate::{ServeError, ServeStats};
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

/// The fan-out registry (see module docs). Owned by the snapshot store;
/// reached only through [`crate::ReadFrontend`]'s subscription calls.
#[derive(Default)]
pub(crate) struct SubscriptionHub {
    next_id: u64,
    subs: HashMap<u64, Subscription>,
    /// Per-view subscriber ids, ordered — publish fan-out must be
    /// deterministic across runs.
    by_view: HashMap<usize, BTreeSet<u64>>,
}

impl SubscriptionHub {
    /// Register a subscriber on `view`, receiving every install *after*
    /// `from_epoch` (the view's latest epoch at registration). `max_lag`
    /// bounds the undrained queue; `None` never lags.
    pub(crate) fn subscribe(
        &mut self,
        view: usize,
        from_epoch: u64,
        max_lag: Option<usize>,
    ) -> u64 {
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

    /// Why `sub` names no subscription: ids are never reused, so one
    /// below the next id was issued and since removed.
    fn missing(&self, sub: u64) -> ServeError {
        if sub < self.next_id {
            ServeError::Unsubscribed { sub }
        } else {
            ServeError::NoSuchSubscription { sub }
        }
    }

    /// Remove a subscription, freeing its queue.
    pub(crate) fn unsubscribe(&mut self, sub: u64) -> Result<(), ServeError> {
        let Some(gone) = self.subs.remove(&sub) else {
            return Err(self.missing(sub));
        };
        if let Some(set) = self.by_view.get_mut(&gone.view) {
            set.remove(&sub);
        }
        Ok(())
    }

    /// Fan one accepted install out to its view's subscribers — live
    /// ones queue it (or tip into lagged), already-lagged ones just
    /// advance their `resume_epoch` — counting both in `stats`.
    /// Unsubscribed ids are long gone from the per-view set, so they
    /// cost nothing here.
    pub(crate) fn publish(&mut self, delta: &InstallEvent, stats: &mut ServeStats) {
        let Some(ids) = self.by_view.get(&delta.view_index) else {
            return;
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
                        stats.subs_lagged += 1;
                        continue;
                    }
                    *delivered_through = delta.epoch;
                    queue.push_back(delta.clone());
                    stats.sub_events += 1;
                }
                SubState::Lagged { resume_epoch } => {
                    // Keep the resume point at the view's latest epoch:
                    // the latest snapshot is the one retention guarantees
                    // to still exist when the reader comes back.
                    *resume_epoch = (*resume_epoch).max(delta.epoch);
                }
            }
        }
    }

    /// Drain a subscriber's pending deltas (oldest first), or report its
    /// lag. O(1).
    pub(crate) fn poll(&mut self, sub: u64) -> Result<Vec<InstallEvent>, ServeError> {
        let Some(s) = self.subs.get_mut(&sub) else {
            return Err(self.missing(sub));
        };
        match &mut s.state {
            SubState::Live { queue, .. } => Ok(queue.drain(..).collect()),
            SubState::Lagged { resume_epoch } => Err(ServeError::Lagged {
                sub,
                resume_epoch: *resume_epoch,
            }),
        }
    }

    /// Flip a lagged subscription back to live, streaming from
    /// `resume_epoch`. Returns `(view, resume_epoch)`: the snapshot the
    /// caller must pin to catch up.
    pub(crate) fn resume(&mut self, sub: u64) -> Result<(usize, u64), ServeError> {
        let Some(s) = self.subs.get_mut(&sub) else {
            return Err(self.missing(sub));
        };
        let SubState::Lagged { resume_epoch } = s.state else {
            return Err(ServeError::NotLagged { sub });
        };
        s.state = SubState::Live {
            delivered_through: resume_epoch,
            queue: VecDeque::new(),
        };
        Ok((s.view, resume_epoch))
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
            Ok(v) => v,
            other => panic!("expected deltas, got {other:?}"),
        }
    }

    /// Publish `delta` and return what it added to the store's
    /// `(sub_events, subs_lagged)`.
    fn publish(hub: &mut SubscriptionHub, delta: &InstallEvent) -> (u64, u64) {
        let mut stats = ServeStats::default();
        hub.publish(delta, &mut stats);
        (stats.sub_events, stats.subs_lagged)
    }

    #[test]
    fn installs_reach_only_matching_views_in_order() {
        let mut hub = SubscriptionHub::default();
        let a = hub.subscribe(0, 0, None);
        let b = hub.subscribe(1, 0, None);
        publish(&mut hub, &delta(0, 1));
        publish(&mut hub, &delta(1, 1));
        publish(&mut hub, &delta(0, 2));
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
        let mut hub = SubscriptionHub::default();
        let late = hub.subscribe(0, 2, None);
        publish(&mut hub, &delta(0, 2)); // replay of something pre-subscription
        publish(&mut hub, &delta(0, 3));
        assert_eq!(drained(&mut hub, late), vec![delta(0, 3)]);
    }

    #[test]
    fn duplicate_epochs_are_not_redelivered() {
        let mut hub = SubscriptionHub::default();
        let s = hub.subscribe(0, 0, None);
        assert_eq!(publish(&mut hub, &delta(0, 1)).0, 1);
        assert_eq!(
            publish(&mut hub, &delta(0, 1)).0,
            0,
            "replayed install refused"
        );
        assert_eq!(drained(&mut hub, s), vec![delta(0, 1)]);
    }

    #[test]
    fn unknown_unsubscribed_and_live_ids_are_distinguishable() {
        let mut hub = SubscriptionHub::default();
        assert_eq!(
            hub.poll(99),
            Err(ServeError::NoSuchSubscription { sub: 99 })
        );
        assert!(hub.subs.is_empty());
        let s = hub.subscribe(0, 0, None);
        assert_eq!(hub.subs.len(), 1);
        hub.unsubscribe(s).unwrap();
        assert!(hub.subs.is_empty());
        assert_eq!(
            hub.poll(s),
            Err(ServeError::Unsubscribed { sub: s }),
            "dropped ≠ never issued"
        );
        assert_eq!(hub.unsubscribe(s), Err(ServeError::Unsubscribed { sub: s }));
        assert_eq!(
            hub.unsubscribe(77),
            Err(ServeError::NoSuchSubscription { sub: 77 })
        );
    }

    #[test]
    fn publish_skips_unsubscribed_slots_without_leaking() {
        let mut hub = SubscriptionHub::default();
        let gone = hub.subscribe(0, 0, None);
        let kept = hub.subscribe(0, 0, None);
        publish(&mut hub, &delta(0, 1));
        hub.unsubscribe(gone).unwrap();
        // Fan-out reaches only the survivor; the dropped queue is freed.
        assert_eq!(publish(&mut hub, &delta(0, 2)).0, 1);
        assert_eq!(drained(&mut hub, kept), vec![delta(0, 1), delta(0, 2)]);
        assert_eq!(hub.poll(gone), Err(ServeError::Unsubscribed { sub: gone }));
    }

    #[test]
    fn overflow_lags_drops_the_queue_and_tracks_resume_epoch() {
        let mut hub = SubscriptionHub::default();
        let s = hub.subscribe(0, 0, Some(2));
        assert_eq!(publish(&mut hub, &delta(0, 1)).0, 1);
        assert_eq!(publish(&mut hub, &delta(0, 2)).0, 1);
        // Third undrained install overflows max_lag = 2.
        assert_eq!(publish(&mut hub, &delta(0, 3)), (0, 1));
        let lagged = |resume_epoch| {
            Err(ServeError::Lagged {
                sub: s,
                resume_epoch,
            })
        };
        assert_eq!(hub.poll(s), lagged(3));
        // While lagged, later installs only advance the resume point.
        assert_eq!(publish(&mut hub, &delta(0, 4)), (0, 0));
        assert_eq!(hub.poll(s), lagged(4));
        // Resume: live again, streaming strictly after resume_epoch.
        assert_eq!(hub.resume(s), Ok((0, 4)));
        publish(&mut hub, &delta(0, 5));
        assert_eq!(drained(&mut hub, s), vec![delta(0, 5)]);
        // Resuming a live subscription is a typed error.
        assert_eq!(hub.resume(s), Err(ServeError::NotLagged { sub: s }));
    }

    #[test]
    fn polling_keeps_a_bounded_subscription_live() {
        let mut hub = SubscriptionHub::default();
        let s = hub.subscribe(0, 0, Some(1));
        for e in 1..=6 {
            publish(&mut hub, &delta(0, e));
            assert_eq!(drained(&mut hub, s), vec![delta(0, e)], "epoch {e}");
        }
    }
}
