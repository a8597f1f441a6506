//! The reader-facing API: pinned epochs, point/scan reads with optional
//! staleness bounds, and subscription handles with lag recovery.
//!
//! A [`ReadFrontend`] is a cheap `Clone` handle — every clone shares one
//! [`SnapshotStore`] behind a mutex, so a
//! thread-per-reader deployment hands each reader its own clone. The
//! mutex guards only the store's *index* (epoch maps, pin counts);
//! snapshot bags come out as shared handles, so readers evaluate queries against
//! frozen data entirely outside the lock and an install can never block
//! on a long-running read.
//!
//! The maintenance side connects through [`ReadFrontend::sink`], which
//! hands the engine a [`dw_engine::SharedInstallPublisher`] onto the
//! same store.

use crate::store::SnapshotStore;
use dw_engine::SharedInstallPublisher;
use dw_relational::{SharedBag, Tuple, Value};
use dw_simnet::Time;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

/// A per-query freshness requirement: the answering epoch must reflect
/// every source update delivered to the warehouse before `reflect_before`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StalenessBound {
    /// Exclusive delivery-time horizon the answer must cover.
    pub reflect_before: Time,
}

/// Everything the serve layer can refuse to do, typed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// No view registered at this slot.
    NoSuchView {
        /// The offending slot index.
        view: usize,
    },
    /// The epoch was never published or has been garbage-collected.
    NoSuchEpoch {
        /// View slot.
        view: usize,
        /// The missing epoch.
        epoch: u64,
    },
    /// Unpin of an epoch that holds no pin.
    NotPinned {
        /// View slot.
        view: usize,
        /// The epoch without a pin.
        epoch: u64,
    },
    /// A subscription call (`poll`, `resume`, `unsubscribe`) naming an
    /// id never issued.
    NoSuchSubscription {
        /// The unknown subscription id.
        sub: u64,
    },
    /// A subscription call naming an id that was explicitly unsubscribed
    /// — distinguishable from
    /// [`NoSuchSubscription`](Self::NoSuchSubscription) because ids are
    /// never reused.
    Unsubscribed {
        /// The dropped subscription id.
        sub: u64,
    },
    /// The subscription fell more than its `max_lag` bound behind; its
    /// queue was dropped. Recover through [`ReadFrontend::resume`]: pin
    /// and read the snapshot at `resume_epoch`, then keep polling — the
    /// combined history equals the stream an unbounded subscriber saw.
    Lagged {
        /// The lagged subscription id.
        sub: u64,
        /// Latest epoch published to the subscribed view — the snapshot
        /// to catch up from.
        resume_epoch: u64,
    },
    /// [`ReadFrontend::resume`] on a subscription that is not lagged.
    NotLagged {
        /// The live subscription id.
        sub: u64,
    },
    /// The chosen epoch does not satisfy the query's [`StalenessBound`]:
    /// some update delivered before `required` is not yet reflected.
    TooStale {
        /// View slot.
        view: usize,
        /// The epoch that was asked to answer.
        epoch: u64,
        /// The bound it failed (`reflect_before`).
        required: Time,
        /// Freshest retained epoch that *does* satisfy the bound, if any
        /// exists yet — callers can re-pin it or wait.
        freshest_admissible: Option<u64>,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoSuchView { view } => write!(f, "no view registered at slot {view}"),
            Self::NoSuchEpoch { view, epoch } => {
                write!(f, "view {view} has no retained epoch {epoch}")
            }
            Self::NotPinned { view, epoch } => {
                write!(f, "view {view} epoch {epoch} holds no pin")
            }
            Self::NoSuchSubscription { sub } => write!(f, "unknown subscription {sub}"),
            Self::Unsubscribed { sub } => write!(f, "subscription {sub} was unsubscribed"),
            Self::Lagged { sub, resume_epoch } => write!(
                f,
                "subscription {sub} lagged past its bound; resume from epoch {resume_epoch}"
            ),
            Self::NotLagged { sub } => {
                write!(f, "subscription {sub} is live, nothing to resume")
            }
            Self::TooStale {
                view,
                epoch,
                required,
                freshest_admissible,
            } => write!(
                f,
                "view {view} epoch {epoch} is too stale for bound {required} \
                 (freshest admissible epoch: {})",
                match freshest_admissible {
                    Some(e) => e.to_string(),
                    None => "none yet".to_string(),
                }
            ),
        }
    }
}

impl std::error::Error for ServeError {}

/// A held pin on one epoch of one view. The snapshot it names cannot be
/// garbage-collected until released through [`ReadFrontend::unpin`].
#[derive(Debug, PartialEq, Eq)]
#[must_use = "a pin retains a snapshot until released with unpin()"]
pub struct PinnedEpoch {
    view: usize,
    epoch: u64,
}

impl PinnedEpoch {
    /// The pinned view slot.
    pub fn view(&self) -> usize {
        self.view
    }

    /// The pinned epoch number.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

/// Answer to a point read: the tuples of the pinned snapshot whose
/// `column` equals the queried key. The match group is `Arc`-shared with
/// the epoch's point index — a point read never copies the snapshot, and
/// a hot key's answers all alias one group.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PointAnswer {
    /// View slot answered from.
    pub view: usize,
    /// Epoch answered from.
    pub epoch: u64,
    /// Total multiplicity over all matching tuples (stored beside the
    /// group in the index, not re-summed per read).
    pub multiplicity: i64,
    /// The matching tuples with their multiplicities, sorted (shared,
    /// never copied).
    pub matches: Arc<Vec<(Tuple, i64)>>,
}

/// Answer to a scan: the whole pinned snapshot, zero-copy.
#[derive(Clone, Debug)]
pub struct ScanAnswer {
    /// View slot answered from.
    pub view: usize,
    /// Epoch answered from.
    pub epoch: u64,
    /// Install time of the answering epoch.
    pub at: Time,
    /// The frozen snapshot itself: a handle onto the epoch's shared
    /// structure (one refcount, no tuple copied).
    pub bag: SharedBag,
}

/// The serve layer's public face (see module docs).
#[derive(Clone, Default)]
pub struct ReadFrontend {
    state: Arc<Mutex<SnapshotStore>>,
}

impl ReadFrontend {
    /// A frontend over a fresh, empty snapshot store.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, SnapshotStore> {
        self.state.lock().expect("snapshot store poisoned")
    }

    /// The publisher handle to hand the maintenance side (e.g.
    /// `MaintenanceScheduler::set_install_publisher`). Every install the
    /// scheduler commits lands in this frontend's store.
    pub fn sink(&self) -> SharedInstallPublisher {
        self.state.clone()
    }

    /// Register the next view slot with its initial contents as epoch 0
    /// — a [`dw_relational::Bag`] (partitioned here, once) or a [`SharedBag`]
    /// handle.
    /// Call in scheduler-registry order so slot indices line up: a view
    /// is known by its slot, and `_name` is not kept (ROADMAP A2(iii)).
    pub fn register_view(&self, _name: &str, initial: impl Into<SharedBag>, at: Time) -> usize {
        self.lock().register_view(initial.into(), at)
    }

    /// Attach an observability handle: index hit/miss/derive
    /// counters flow to it alongside [`ServeStats`](crate::ServeStats).
    pub fn set_observer(&self, obs: dw_obs::Obs) {
        self.lock().obs = obs;
    }

    /// Number of registered views.
    pub fn view_count(&self) -> usize {
        self.lock().views.len()
    }

    /// The latest published epoch of `view`.
    pub fn latest_epoch(&self, view: usize) -> Result<u64, ServeError> {
        self.lock().latest_epoch(view)
    }

    /// Pin the latest epoch of `view`.
    pub fn pin(&self, view: usize) -> Result<PinnedEpoch, ServeError> {
        let mut s = self.lock();
        let epoch = s.latest_epoch(view)?;
        s.pin(view, epoch)?;
        Ok(PinnedEpoch { view, epoch })
    }

    /// Release a pin, letting GC reclaim the epoch once unreferenced.
    pub fn unpin(&self, pin: PinnedEpoch) -> Result<(), ServeError> {
        self.lock().unpin(pin.view, pin.epoch)
    }

    /// Point read at a pinned epoch: every tuple whose `column` is
    /// `Int(key)`, with an optional staleness bound. Answered from the
    /// epoch's point index on `column` (see the store docs), which the
    /// first read to ask for it builds: the frozen bag is never cloned
    /// and only the matching group is touched.
    pub fn read_point(
        &self,
        pin: &PinnedEpoch,
        column: usize,
        key: i64,
        bound: Option<StalenessBound>,
    ) -> Result<PointAnswer, ServeError> {
        let mut s = self.lock();
        self.admit(&mut s, pin, bound)?;
        let (multiplicity, matches) =
            s.point_lookup(pin.view, pin.epoch, column, &Value::Int(key))?;
        s.stats.reads_answered += 1;
        Ok(PointAnswer {
            view: pin.view,
            epoch: pin.epoch,
            multiplicity,
            matches,
        })
    }

    /// Full scan at a pinned epoch, with an optional staleness bound.
    /// Zero-copy: the returned bag *is* the frozen snapshot, a handle
    /// onto its shared structure.
    pub fn read_scan(
        &self,
        pin: &PinnedEpoch,
        bound: Option<StalenessBound>,
    ) -> Result<ScanAnswer, ServeError> {
        let mut s = self.lock();
        self.admit(&mut s, pin, bound)?;
        let snap = s.epoch(pin.view, pin.epoch)?;
        let answer = ScanAnswer {
            view: pin.view,
            epoch: pin.epoch,
            at: snap.at,
            bag: SharedBag::clone(&snap.bag),
        };
        s.stats.reads_answered += 1;
        Ok(answer)
    }

    /// Shared admission path for reads: enforce the bound against the
    /// pinned epoch, bumping the rejected counter on refusal.
    fn admit(
        &self,
        s: &mut SnapshotStore,
        pin: &PinnedEpoch,
        bound: Option<StalenessBound>,
    ) -> Result<(), ServeError> {
        if let Some(b) = bound {
            if !s.admissible(pin.view, pin.epoch, b.reflect_before)? {
                let freshest = s.freshest_admissible(pin.view, b.reflect_before)?;
                s.stats.reads_rejected += 1;
                return Err(ServeError::TooStale {
                    view: pin.view,
                    epoch: pin.epoch,
                    required: b.reflect_before,
                    freshest_admissible: freshest,
                });
            }
        }
        Ok(())
    }

    /// Subscribe to `view`'s future installs (from its current latest
    /// epoch), with an unbounded queue. Returns the subscription id to
    /// [`poll`](Self::poll).
    pub fn subscribe(&self, view: usize) -> Result<u64, ServeError> {
        self.open(view, None)
    }

    /// Subscribe with a bounded queue: once more than `max_lag` installs
    /// pile up undrained, the subscription lags (queue dropped, typed
    /// [`ServeError::Lagged`] on poll) and must [`resume`](Self::resume).
    pub fn subscribe_bounded(&self, view: usize, max_lag: usize) -> Result<u64, ServeError> {
        self.open(view, Some(max_lag))
    }

    /// Register a subscription streaming `view`'s installs after its
    /// current latest epoch.
    fn open(&self, view: usize, max_lag: Option<usize>) -> Result<u64, ServeError> {
        let mut s = self.lock();
        let from = s.latest_epoch(view)?;
        Ok(s.hub.subscribe(view, from, max_lag))
    }

    /// Remove a subscription, freeing its queue immediately. Polling the
    /// id afterwards reports [`ServeError::Unsubscribed`] — never
    /// confusable with an id that was never issued.
    pub fn unsubscribe(&self, sub: u64) -> Result<(), ServeError> {
        let mut s = self.lock();
        s.hub.unsubscribe(sub)?;
        s.stats.subs_unsubscribed += 1;
        Ok(())
    }

    /// Drain a subscription's pending install deltas, oldest first. A
    /// lagged subscription returns [`ServeError::Lagged`] with the epoch
    /// to resume from.
    pub fn poll(&self, sub: u64) -> Result<Vec<crate::InstallEvent>, ServeError> {
        self.lock().hub.poll(sub)
    }

    /// Recover a lagged subscription: atomically flip it live (streaming
    /// strictly after its `resume_epoch`) and pin that epoch, returning
    /// the pin. Read the pinned snapshot, then keep polling — snapshot +
    /// resumed stream is equivalent to the stream an unbounded
    /// subscriber received. The flip and the pin share one store lock,
    /// so the resume snapshot can never be collected in between.
    pub fn resume(&self, sub: u64) -> Result<PinnedEpoch, ServeError> {
        let mut s = self.lock();
        let (view, epoch) = s.hub.resume(sub)?;
        // The resume epoch tracks the view's latest, which retention
        // always keeps — the pin cannot fail.
        s.pin(view, epoch)?;
        s.stats.subs_resumed += 1;
        Ok(PinnedEpoch { view, epoch })
    }

    /// Snapshot of the store's counters.
    pub fn stats(&self) -> crate::ServeStats {
        self.lock().stats.clone()
    }

    /// Retained epoch numbers of `view` (diagnostics / GC inspection).
    pub fn retained_epochs(&self, view: usize) -> Result<Vec<u64>, ServeError> {
        Ok(self.lock().view(view)?.epochs.keys().copied().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dw_engine::InstallEvent;
    use dw_protocol::UpdateId;
    use dw_relational::{tup, Bag};

    fn id(seq: u64) -> UpdateId {
        UpdateId { source: 0, seq }
    }

    /// Drive one install through the engine-facing sink, exactly as a
    /// scheduler hook would.
    fn install(front: &ReadFrontend, view: usize, epoch: u64, at: Time, key: i64) {
        front.sink().lock().unwrap().publish(InstallEvent {
            view_index: view,
            epoch,
            at,
            consumed: vec![id(epoch)],
            delta: Arc::new(Bag::singleton(tup![key, epoch as i64], 1)),
        });
    }

    #[test]
    fn installs_through_the_sink_become_readable_epochs() {
        let front = ReadFrontend::new();
        let v = front.register_view("V", Bag::singleton(tup![1, 0], 1), 0);
        install(&front, v, 1, 10, 2);
        install(&front, v, 2, 20, 1);
        assert_eq!(front.latest_epoch(v).unwrap(), 2);

        let pin = front.pin(v).unwrap();
        let scan = front.read_scan(&pin, None).unwrap();
        assert_eq!(scan.epoch, 2);
        assert_eq!(scan.at, 20);
        assert_eq!(
            scan.bag.to_sorted_vec(),
            vec![(tup![1, 0], 1), (tup![1, 2], 1), (tup![2, 1], 1)]
        );

        let point = front.read_point(&pin, 0, 1, None).unwrap();
        assert_eq!(point.multiplicity, 2);
        assert_eq!(*point.matches, vec![(tup![1, 0], 1), (tup![1, 2], 1)]);
        front.unpin(pin).unwrap();
        assert_eq!(front.stats().reads_answered, 2);
    }

    #[test]
    fn reads_never_deep_copy_the_snapshot() {
        let front = ReadFrontend::new();
        let v = front.register_view("V", Bag::singleton(tup![1, 0], 1), 0);
        install(&front, v, 1, 10, 1);
        install(&front, v, 2, 20, 2);
        let pin = front.pin(v).unwrap();
        for _ in 0..50 {
            let scan = front.read_scan(&pin, None).unwrap();
            assert!(!scan.bag.is_empty());
            let point = front.read_point(&pin, 0, 1, None).unwrap();
            assert!(point.multiplicity > 0);
        }
        front.unpin(pin).unwrap();
        let stats = front.stats();
        // Neither the two publishes nor the 100 reads deep-copied a bag,
        // and no publish copied a tuple: nobody pinned the latest epoch
        // across one, so each was retired into its successor in place.
        // This is the "zero-copy promise" the docs make, held as counters
        // rather than a comment.
        assert_eq!(stats.bags_deep_cloned, 0);
        assert_eq!(stats.publish_copied_tuples, 0);
        assert_eq!(stats.snapshots_gced, 2);
        assert_eq!(stats.reads_answered, 100);
    }

    /// The twin of [`reads_never_deep_copy_the_snapshot`] with a reader
    /// pinning the latest epoch across each publish: the successor then
    /// starts as a second handle, and the merge copies the one chunk the
    /// delta touches — the whole (single-chunk) view, 1 then 2 tuples.
    #[test]
    fn a_pinned_latest_epoch_makes_publish_copy_the_touched_chunks() {
        let front = ReadFrontend::new();
        let v = front.register_view("V", Bag::singleton(tup![1, 0], 1), 0);
        let first = front.pin(v).unwrap();
        install(&front, v, 1, 10, 1);
        let second = front.pin(v).unwrap();
        install(&front, v, 2, 20, 2);
        let stats = front.stats();
        assert_eq!(stats.publish_copied_tuples, 1 + 2);
        assert_eq!(stats.snapshots_gced, 0);
        assert_eq!(front.retained_epochs(v).unwrap(), vec![0, 1, 2]);
        let scan = front.read_scan(&first, None).unwrap();
        assert_eq!(scan.bag, Bag::singleton(tup![1, 0], 1));
        let scan = front.read_scan(&second, None).unwrap();
        assert_eq!(scan.bag.distinct_len(), 2);
        front.unpin(first).unwrap();
        front.unpin(second).unwrap();
        assert_eq!(front.stats().snapshots_gced, 2);
        assert_eq!(front.retained_epochs(v).unwrap(), vec![2]);
    }

    #[test]
    fn point_reads_build_then_ride_the_epoch_index() {
        let front = ReadFrontend::new();
        let v = front.register_view("V", Bag::singleton(tup![1, 0], 1), 0);
        install(&front, v, 1, 10, 1);
        let pin = front.pin(v).unwrap();
        let a = front.read_point(&pin, 0, 1, None).unwrap();
        let b = front.read_point(&pin, 0, 1, None).unwrap();
        assert_eq!(a, b);
        let stats = front.stats();
        assert_eq!(stats.point_index_misses, 1, "first read builds");
        assert_eq!(stats.point_index_hits, 1, "second read rides it");
        // The two answers alias one index group — shared, not re-collected.
        assert!(Arc::ptr_eq(&a.matches, &b.matches));

        // A new install derives the successor index incrementally.
        install(&front, v, 2, 20, 1);
        let pin2 = front.pin(v).unwrap();
        let c = front.read_point(&pin2, 0, 1, None).unwrap();
        assert_eq!(c.multiplicity, 3);
        let stats = front.stats();
        assert_eq!(stats.point_index_derived, 1, "publish derived the index");
        assert_eq!(stats.point_index_misses, 1, "no second full build");
        front.unpin(pin).unwrap();
        front.unpin(pin2).unwrap();
    }

    #[test]
    fn index_on_and_off_agree_exactly() {
        let front = ReadFrontend::new();
        let v = front.register_view("V", Bag::singleton(tup![3, 9], 2), 0);
        for e in 1..=5 {
            install(&front, v, e, e * 10, (e % 3) as i64);
        }
        let pin = front.pin(v).unwrap();
        let bag = front.read_scan(&pin, None).unwrap().bag;
        for k in 0..4 {
            // The linear referee: one pass over the scanned bag.
            let mut want: Vec<(Tuple, i64)> = bag
                .iter()
                .filter(|(t, _)| t.at(0) == &Value::Int(k))
                .map(|(t, m)| (t.clone(), m))
                .collect();
            want.sort();
            let got = front.read_point(&pin, 0, k, None).unwrap();
            assert_eq!(
                *got.matches, want,
                "key {k}: index must be answer-invisible"
            );
            assert_eq!(got.multiplicity, want.iter().map(|&(_, m)| m).sum::<i64>());
        }
        front.unpin(pin).unwrap();
        let stats = front.stats();
        assert_eq!(stats.point_index_misses, 1);
        // One build over the six-tuple bag plus the four answered groups
        // — less than the four scans the referee just made.
        assert_eq!(stats.read_work_tuples, 6 + 6);
    }

    #[test]
    fn pinned_epoch_survives_later_installs_and_gc_reclaims_on_unpin() {
        let front = ReadFrontend::new();
        let v = front.register_view("V", Bag::new(), 0);
        install(&front, v, 1, 10, 7);
        let pin = front.pin(v).unwrap();
        assert_eq!(pin.epoch(), 1);

        // Two more installs; the pinned epoch must stay retained and
        // byte-identical, the unpinned intermediate must be collected.
        install(&front, v, 2, 20, 8);
        install(&front, v, 3, 30, 9);
        assert_eq!(front.retained_epochs(v).unwrap(), vec![1, 3]);
        let scan = front.read_scan(&pin, None).unwrap();
        assert_eq!(scan.bag.to_sorted_vec(), vec![(tup![7, 1], 1)]);

        front.unpin(pin).unwrap();
        assert_eq!(front.retained_epochs(v).unwrap(), vec![3]);
        let stats = front.stats();
        assert_eq!(stats.snapshots_published, 3);
        // Dropped: epoch 0 at the first install, epoch 2 once epoch 3
        // superseded it, epoch 1 at unpin.
        assert_eq!(stats.snapshots_gced, 3);
        assert!(
            front.lock().pin(v, 1).is_err(),
            "collected epoch unpinnable"
        );
    }

    /// Publish epochs `epochs` of `v` over a 2 000-tuple view: 40 fresh
    /// tuples each, plus a delete and a re-insert of old ones — some go
    /// to count 0, and the view grows past a re-split of its chunks.
    fn churn(front: &ReadFrontend, v: usize, epochs: std::ops::RangeInclusive<u64>) {
        for e in epochs {
            let i = e as i64;
            let fresh = (0..40).map(|k| (tup![k, 10_000 + i * 40 + k], 1));
            let churn = [(tup![i % 50, i], -1), (tup![(i - 1) % 50, i - 1], 1)];
            front.sink().lock().unwrap().publish(InstallEvent {
                view_index: v,
                epoch: e,
                at: e * 10,
                consumed: vec![id(e)],
                delta: Arc::new(fresh.chain(churn).collect()),
            });
        }
    }

    /// A pinned epoch is never retired: the publishes after it share its
    /// structure by handle and copy what they touch, so it stays
    /// readable, answer for answer, and GC drops it only at the unpin.
    #[test]
    fn a_pinned_epoch_reads_identically_across_later_publishes() {
        let front = ReadFrontend::new();
        let initial = Bag::from_tuples((0..2_000).map(|i| tup![i % 50, i]));
        let v = front.register_view("V", initial, 0);
        install(&front, v, 1, 10, 7);
        let pin = front.pin(v).unwrap();
        let read = || {
            let scan = front.read_scan(&pin, None).unwrap().bag.to_sorted_vec();
            let points: Vec<PointAnswer> = (0..50)
                .map(|k| front.read_point(&pin, 0, k, None).unwrap())
                .collect();
            (scan, points)
        };
        let before = read();
        churn(&front, v, 2..=81);
        assert_eq!(read(), before);
        // Epoch 0 went at the first publish, epochs 2..=80 each at the
        // next one; the pinned epoch 1 is retained beside the latest.
        assert_eq!(front.stats().snapshots_gced, 80);
        assert_eq!(front.retained_epochs(v).unwrap(), vec![1, 81]);
        let latest = front.pin(v).unwrap();
        let scan = front.read_scan(&latest, None).unwrap();
        assert_eq!(scan.bag.distinct_len(), 2_000 + 80 * 40);
        assert_eq!(front.stats().bags_deep_cloned, 0);
        front.unpin(latest).unwrap();
        front.unpin(pin).unwrap();
    }

    /// What a reader was handed is its own: once it unpins, the next
    /// publish retires that epoch into its successor in place, yet the
    /// scan's bag and the point groups the reader still holds never
    /// change — the in-place merge copies exactly the chunks they share.
    #[test]
    fn held_answers_survive_the_retirement_of_their_epoch() {
        let front = ReadFrontend::new();
        let initial = Bag::from_tuples((0..2_000).map(|i| tup![i % 50, i]));
        let v = front.register_view("V", initial.clone(), 0);
        let pin = front.pin(v).unwrap();
        let scan = front.read_scan(&pin, None).unwrap();
        let points: Vec<PointAnswer> = (0..50)
            .map(|k| front.read_point(&pin, 0, k, None).unwrap())
            .collect();
        let groups: Vec<Vec<(Tuple, i64)>> = points.iter().map(|p| p.matches.to_vec()).collect();
        front.unpin(pin).unwrap();
        churn(&front, v, 1..=40);
        assert_eq!(scan.bag, initial);
        for (point, group) in points.iter().zip(&groups) {
            assert_eq!(*point.matches, *group);
            assert_eq!(
                point.multiplicity,
                group.iter().map(|&(_, m)| m).sum::<i64>()
            );
        }
        // Every publish retired its predecessor: GC counted each, and only
        // the latest epoch is left.
        let stats = front.stats();
        assert_eq!(stats.snapshots_gced, 40);
        assert!(
            stats.publish_copied_tuples > 0,
            "the held scan shared chunks"
        );
        assert_eq!(front.retained_epochs(v).unwrap(), vec![40]);
        let latest = front.pin(v).unwrap();
        let now = front.read_scan(&latest, None).unwrap();
        // 40 × 40 fresh tuples; the last publish's delete is not re-inserted.
        assert_eq!(now.bag.distinct_len(), 2_000 + 40 * 40 - 1);
        front.unpin(latest).unwrap();
    }

    #[test]
    fn delivery_ledger_stays_bounded_and_admission_is_unchanged() {
        const INSTALLS: u64 = 10_000;
        const AHEAD: u64 = 3; // delivered-but-unconsumed updates at any time
        let front = ReadFrontend::new();
        let v = front.register_view("V", Bag::new(), 0);
        let note = |seq: u64| {
            front
                .sink()
                .lock()
                .unwrap()
                .note_delivery(v, id(seq), seq * 10)
        };
        // The unpruned reference: update `seq` is delivered at `seq * 10`
        // (once noted) and consumed by epoch `seq`.
        let admits = |epoch: u64, bound: Time, noted: u64| {
            !(1..=noted).any(|seq| seq * 10 < bound && seq > epoch)
        };
        (1..=AHEAD).for_each(note);
        let mut pins: Vec<PinnedEpoch> = Vec::new();
        for e in 1..=INSTALLS {
            note(e + AHEAD);
            install(&front, v, e, e * 10 + 5, e as i64);
            if e % 100 == 0 {
                pins.push(front.pin(v).unwrap());
                if pins.len() > 2 {
                    front.unpin(pins.remove(0)).unwrap();
                }
            }
            let oldest = pins.first().map_or(e, PinnedEpoch::epoch);
            let ledger = front.lock().ledger_len(v) as u64;
            assert!(ledger <= AHEAD + (e - oldest), "epoch {e}: {ledger}");
            if e % 37 == 0 {
                let latest = front.pin(v).unwrap();
                for pin in pins.iter().chain([&latest]) {
                    for back in [0, 1, 2, 5, 150, 400] {
                        let reflect_before = (e + AHEAD).saturating_sub(back) * 10 + 1;
                        let bound = Some(StalenessBound { reflect_before });
                        assert_eq!(
                            front.read_scan(pin, bound).is_ok(),
                            admits(pin.epoch(), reflect_before, e + AHEAD),
                            "epoch {} bound {reflect_before} at install {e}",
                            pin.epoch()
                        );
                    }
                }
                front.unpin(latest).unwrap();
            }
        }
        // A late re-notice of a pruned (long consumed) update stays out.
        let ledger = front.lock().ledger_len(v);
        note(1);
        assert_eq!(front.lock().ledger_len(v), ledger);
        let latest = front.pin(v).unwrap();
        let bound = Some(StalenessBound { reflect_before: 20 });
        assert!(front.read_scan(&latest, bound).is_ok());
    }

    #[test]
    fn staleness_bound_rejects_with_freshest_admissible() {
        let front = ReadFrontend::new();
        let v = front.register_view("V", Bag::new(), 0);
        {
            let sink = front.sink();
            let mut s = sink.lock().unwrap();
            s.note_delivery(v, id(1), 5);
            s.note_delivery(v, id(2), 15);
        }
        install(&front, v, 1, 10, 1); // consumes id(1)

        let pin = front.pin(v).unwrap();
        // Bound 12: everything delivered before t=12 (just id(1)) is in
        // epoch 1 — admissible.
        assert!(front
            .read_scan(&pin, Some(StalenessBound { reflect_before: 12 }))
            .is_ok());
        // Bound 20: id(2) (delivered at 15) is unconsumed — too stale,
        // and no retained epoch admits the bound yet.
        let err = front
            .read_scan(&pin, Some(StalenessBound { reflect_before: 20 }))
            .unwrap_err();
        assert_eq!(
            err,
            ServeError::TooStale {
                view: v,
                epoch: 1,
                required: 20,
                freshest_admissible: None,
            }
        );

        // Epoch 2 consumes id(2): the same bound is now satisfied, and a
        // stale pin's error names epoch 2 as the freshest admissible.
        front.sink().lock().unwrap().publish(InstallEvent {
            view_index: v,
            epoch: 2,
            at: 30,
            consumed: vec![id(2)],
            delta: Arc::new(Bag::new()),
        });
        let err = front
            .read_scan(&pin, Some(StalenessBound { reflect_before: 20 }))
            .unwrap_err();
        assert_eq!(
            err,
            ServeError::TooStale {
                view: v,
                epoch: 1,
                required: 20,
                freshest_admissible: Some(2),
            }
        );
        front.lock().pin(v, 2).unwrap();
        let fresh = PinnedEpoch { view: v, epoch: 2 };
        assert!(front
            .read_scan(&fresh, Some(StalenessBound { reflect_before: 20 }))
            .is_ok());
        assert_eq!(front.stats().reads_rejected, 2);
        front.unpin(pin).unwrap();
        front.unpin(fresh).unwrap();
    }

    #[test]
    fn recovery_replays_are_invisible_to_readers_and_subscribers() {
        let front = ReadFrontend::new();
        let v = front.register_view("V", Bag::new(), 0);
        let sub = front.subscribe(v).unwrap();
        install(&front, v, 1, 10, 1);
        install(&front, v, 2, 20, 2);
        // Crash recovery replays both installs through the same hook.
        install(&front, v, 1, 10, 1);
        install(&front, v, 2, 20, 2);

        assert_eq!(front.latest_epoch(v).unwrap(), 2);
        let stats = front.stats();
        assert_eq!(stats.snapshots_published, 2);
        assert_eq!(stats.republished_ignored, 2);
        let stream = front.poll(sub).unwrap();
        assert_eq!(
            stream.iter().map(|d| d.epoch).collect::<Vec<_>>(),
            vec![1, 2],
            "subscriber saw each install exactly once"
        );
        let pin = front.pin(v).unwrap();
        assert_eq!(
            front.read_scan(&pin, None).unwrap().bag.to_sorted_vec(),
            vec![(tup![1, 1], 1), (tup![2, 2], 1)]
        );
        front.unpin(pin).unwrap();
    }

    #[test]
    fn lagged_subscriber_resumes_equivalently() {
        let front = ReadFrontend::new();
        let v = front.register_view("V", Bag::new(), 0);
        let unbounded = front.subscribe(v).unwrap();
        let bounded = front.subscribe_bounded(v, 2).unwrap();
        for e in 1..=5 {
            install(&front, v, e, e * 10, e as i64);
        }
        // Epochs 1–2 queued; 3 overflowed (queue dropped); 4–5 only
        // advanced the resume point.
        let err = front.poll(bounded).unwrap_err();
        assert_eq!(
            err,
            ServeError::Lagged {
                sub: bounded,
                resume_epoch: 5
            }
        );
        let pin = front.resume(bounded).unwrap();
        assert_eq!(pin.epoch(), 5);
        let snap = front.read_scan(&pin, None).unwrap();

        // Equivalence: the resume snapshot plus the post-resume stream
        // equals folding the unbounded subscriber's full stream.
        install(&front, v, 6, 60, 6);
        let mut from_snapshot = snap.bag.to_bag();
        for d in front.poll(bounded).unwrap() {
            from_snapshot.merge(&d.delta);
        }
        let mut from_stream = Bag::new();
        for d in front.poll(unbounded).unwrap() {
            from_stream.merge(&d.delta);
        }
        assert_eq!(from_snapshot, from_stream);
        let stats = front.stats();
        assert_eq!(stats.subs_lagged, 1);
        assert_eq!(stats.subs_resumed, 1);
        front.unpin(pin).unwrap();
    }

    #[test]
    fn unsubscribe_frees_the_slot_with_typed_errors() {
        let front = ReadFrontend::new();
        let v = front.register_view("V", Bag::new(), 0);
        let sub = front.subscribe(v).unwrap();
        install(&front, v, 1, 10, 1);
        front.unsubscribe(sub).unwrap();
        assert_eq!(
            front.poll(sub).unwrap_err(),
            ServeError::Unsubscribed { sub }
        );
        assert_eq!(
            front.unsubscribe(sub).unwrap_err(),
            ServeError::Unsubscribed { sub }
        );
        // Installs after the unsubscribe fan out to nobody.
        install(&front, v, 2, 20, 2);
        let stats = front.stats();
        assert_eq!(stats.sub_events, 1);
        assert_eq!(stats.subs_unsubscribed, 1);
    }

    /// Every refusal of a subscription call, one row per cell: each is
    /// the `ServeError` naming the id (or view) it refused.
    #[test]
    fn subscription_refusals_are_typed_per_cell() {
        let front = ReadFrontend::new();
        let v = front.register_view("V", Bag::new(), 0);
        let gone = front.subscribe(v).unwrap();
        front.unsubscribe(gone).unwrap();
        let lagged = front.subscribe_bounded(v, 1).unwrap();
        install(&front, v, 1, 10, 1);
        install(&front, v, 2, 20, 2);
        assert!(matches!(front.poll(lagged), Err(ServeError::Lagged { .. })));
        front.unsubscribe(lagged).unwrap();
        let never = 99;
        let cells: [(&str, Result<(), ServeError>, ServeError); 6] = [
            (
                "unsubscribe a never-issued id",
                front.unsubscribe(never),
                ServeError::NoSuchSubscription { sub: never },
            ),
            (
                "resume a never-issued id",
                front.resume(never).map(drop),
                ServeError::NoSuchSubscription { sub: never },
            ),
            (
                "resume an unsubscribed id",
                front.resume(gone).map(drop),
                ServeError::Unsubscribed { sub: gone },
            ),
            (
                "poll a lagged id after unsubscribing it",
                front.poll(lagged).map(drop),
                ServeError::Unsubscribed { sub: lagged },
            ),
            (
                "subscribe to an unknown view",
                front.subscribe(v + 1).map(drop),
                ServeError::NoSuchView { view: v + 1 },
            ),
            (
                "subscribe bounded to an unknown view",
                front.subscribe_bounded(v + 1, 1).map(drop),
                ServeError::NoSuchView { view: v + 1 },
            ),
        ];
        for (cell, got, want) in cells {
            assert_eq!(got, Err(want), "{cell}");
        }
    }

    #[test]
    fn errors_are_typed_and_printable() {
        let front = ReadFrontend::new();
        assert_eq!(
            front.latest_epoch(3).unwrap_err(),
            ServeError::NoSuchView { view: 3 }
        );
        let v = front.register_view("V", Bag::new(), 0);
        assert_eq!(
            front.lock().pin(v, 9).unwrap_err(),
            ServeError::NoSuchEpoch { view: v, epoch: 9 }
        );
        assert_eq!(
            front.unpin(PinnedEpoch { view: v, epoch: 0 }).unwrap_err(),
            ServeError::NotPinned { view: v, epoch: 0 }
        );
        assert_eq!(
            front.poll(42).unwrap_err(),
            ServeError::NoSuchSubscription { sub: 42 }
        );
        let sub = front.subscribe(v).unwrap();
        assert_eq!(
            front.resume(sub).unwrap_err(),
            ServeError::NotLagged { sub }
        );
        let msg = ServeError::TooStale {
            view: 0,
            epoch: 1,
            required: 20,
            freshest_admissible: Some(2),
        }
        .to_string();
        assert!(msg.contains("too stale"), "{msg}");
        assert!(msg.contains("freshest admissible epoch: 2"), "{msg}");
        let msg = ServeError::Lagged {
            sub: 7,
            resume_epoch: 9,
        }
        .to_string();
        assert!(msg.contains("resume from epoch 9"), "{msg}");
        assert!(ServeError::Unsubscribed { sub: 7 }
            .to_string()
            .contains("unsubscribed"));
    }
}
