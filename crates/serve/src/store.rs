//! The epoch-stamped snapshot store behind the read frontend.
//!
//! One [`SnapshotStore`] holds every registered view's retained epochs.
//! Epoch `e` of view `v` is the immutable contents of `v` after exactly
//! `e` installs (epoch 0 is the registered initial contents). The store
//! is fed through [`dw_engine::InstallPublisher`]: the schedulers call
//! `note_delivery` when an update reaches the warehouse and `publish`
//! at every committed install, so the store's epoch sequence *is* the
//! install log — same consumed sets, same order, one bag per record.
//!
//! **Retention.** Readers hold epochs through pins; the store keeps the
//! latest epoch plus every pinned one and garbage-collects the rest at
//! publish and unpin. Epochs are [`SharedBag`] handles: pinning and
//! scanning cost a refcount, never a copy, and an install can never
//! mutate what a reader is looking at. A new epoch is a clone of the
//! latest *handle* plus the delta merged into it, which copies only the
//! chunks the delta touches — `O(|Δ|)` tuples however large the view
//! (`publish_copied_tuples` counts them exactly). The serve side takes
//! no bag deep copy at all: `bags_deep_cloned` stays 0 and CI greps for
//! one.
//!
//! **Point reads.** A point read has one route: the pinned epoch's
//! secondary hash index on the read column, mapping a key value to the
//! sorted matching `(tuple, multiplicity)` group *and the group's total
//! multiplicity*, summed once where the group is built. The first point
//! read on a `(view, epoch, column)` builds the index with one full
//! scan; every later epoch *derives* its index incrementally from the
//! predecessor's (a handle clone of the same structurally shared map
//! the bags use, then only the keys the install delta touched are
//! rebuilt), so a steady-state point read is a hash lookup and two
//! refcounts — it examines `O(|group|)` tuples instead of `O(|bag|)` —
//! and publish is `O(|Δ|)` end to end. `read_work_tuples` /
//! `index_maintenance_tuples` count exactly how many tuples each side
//! examined — the deterministic work proxy E21 gates against scanning
//! the pinned epoch. Nothing sits in front of the index and nothing
//! behind it: the linear referee lives in the tests and in
//! `dw_core::audit_reads`, which recomputes every answer from scratch.
//!
//! **Staleness.** The store tracks, per view, the delivered updates a
//! retained epoch can still be missing and which epoch (if any) consumed
//! each. An epoch `e` *admits* a bound `T` iff no update delivered before
//! `T` is still unconsumed at `e` — checked exactly, against the same
//! delivery times `dw-obs`' staleness histograms are built from. Entries
//! consumed at or before the oldest retained epoch can never make a
//! retained epoch inadmissible and are pruned at GC, so the ledger is
//! bounded by (unconsumed + consumed inside the retained window), not by
//! the run's length.
//!
//! **Replays.** Crash recovery re-publishes installs that predate the
//! crash; the store ignores any epoch at or below its high-water mark
//! (`republished_ignored` counts them), so recovery never disturbs
//! readers or subscribers.

use crate::frontend::ServeError;
use crate::hub::{HubPoll, InstallDelta, SubscriptionHub};
use dw_engine::{InstallEvent, InstallPublisher};
use dw_obs::Obs;
use dw_protocol::UpdateId;
use dw_relational::{Bag, SharedBag, SharedMap, Tuple, Value};
use dw_simnet::Time;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// A point answer: the matching group's total multiplicity plus the
/// sorted `Arc`-shared `(tuple, multiplicity)` group itself — cloning
/// one is a refcount bump.
type PointHit = (i64, Arc<Vec<(Tuple, i64)>>);

/// Sort a freshly collected group and sum its multiplicities — the one
/// place a stored [`PointHit`] is made, so the total can never drift
/// from its matches.
fn point_hit(mut group: Vec<(Tuple, i64)>) -> PointHit {
    group.sort();
    (group.iter().map(|&(_, m)| m).sum(), Arc::new(group))
}

/// A secondary hash index of one frozen epoch on one column: key value →
/// the matching group with its total multiplicity, handed out without
/// copying or re-summing it.
pub(crate) struct PointIndex {
    groups: SharedMap<Value, PointHit>,
}

impl PointIndex {
    /// Build from a full scan of `bag`. Returns the index and the number
    /// of tuples examined (= `bag.len()`).
    fn build(bag: &SharedBag, column: usize) -> (Self, u64) {
        let mut raw: HashMap<Value, Vec<(Tuple, i64)>> = HashMap::new();
        let mut work = 0u64;
        for (t, m) in bag.iter() {
            raw.entry(t.at(column).clone())
                .or_default()
                .push((t.clone(), m));
            work += 1;
        }
        let groups = raw.into_iter().map(|(k, v)| (k, point_hit(v)));
        let groups = SharedMap::from_distinct(groups);
        (PointIndex { groups }, work)
    }

    /// Derive the successor epoch's index from this one plus the install
    /// delta: clone the group map's handle (untouched groups stay
    /// shared), rebuild only the keys the delta mentions (summing
    /// multiplicities, dropping zeros — exactly [`Bag::merge`]
    /// semantics). Returns the new index and the tuples examined.
    fn derive(&self, delta: &Bag, column: usize) -> (Self, u64) {
        let mut groups = self.groups.clone();
        let mut touched: HashMap<Value, Vec<(Tuple, i64)>> = HashMap::new();
        let mut work = 0u64;
        for (t, m) in delta.iter() {
            touched
                .entry(t.at(column).clone())
                .or_default()
                .push((t.clone(), m));
            work += 1;
        }
        for (key, delta_entries) in touched {
            groups.update(key, |old| {
                let mut counts: HashMap<Tuple, i64> = HashMap::new();
                for (t, m) in old.into_iter().flat_map(|(_, group)| group.iter()) {
                    work += 1;
                    counts.insert(t.clone(), *m);
                }
                for (t, m) in delta_entries {
                    *counts.entry(t).or_insert(0) += m;
                }
                let merged: Vec<(Tuple, i64)> =
                    counts.into_iter().filter(|&(_, m)| m != 0).collect();
                (!merged.is_empty()).then(|| point_hit(merged))
            });
        }
        (PointIndex { groups }, work)
    }

    /// The answer for `key` (multiplicity 0 over an empty group when
    /// absent).
    fn hit(&self, key: &Value) -> PointHit {
        self.groups.get(key).cloned().unwrap_or_default()
    }
}

/// One frozen epoch of one view.
pub(crate) struct EpochSnapshot {
    pub(crate) at: Time,
    pub(crate) bag: SharedBag,
    /// Lazily built / incrementally derived point indexes, per column.
    indexes: HashMap<usize, PointIndex>,
}

struct DeliveredUpdate {
    delivered_at: Time,
    /// Epoch that consumed this update; `None` while still pending.
    consumed_in: Option<u64>,
}

struct ViewState {
    name: String,
    /// Retained epochs, keyed by epoch number. Always contains `latest`;
    /// older entries only while pinned.
    epochs: BTreeMap<u64, EpochSnapshot>,
    latest: u64,
    /// The delivery ledger (see the module docs' *Staleness*).
    delivered: HashMap<UpdateId, DeliveredUpdate>,
    /// Per source, the highest update sequence number pruned from
    /// `delivered`. Sources are consumed in delivery order, so every id
    /// at or below it is long consumed: a late re-notice of one must not
    /// re-enter the ledger as pending.
    pruned_through: HashMap<usize, u64>,
    pins: HashMap<u64, usize>,
}

/// Counters the store keeps about its own traffic. All exact.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Update deliveries noted (per affected view).
    pub deliveries_noted: u64,
    /// Installs accepted as new epochs.
    pub snapshots_published: u64,
    /// Replayed installs ignored at the high-water mark (crash recovery).
    pub republished_ignored: u64,
    /// Unpinned non-latest epochs dropped by GC.
    pub snapshots_gced: u64,
    /// Reads answered (point + scan).
    pub reads_answered: u64,
    /// Reads rejected with `TooStale`.
    pub reads_rejected: u64,
    /// Pins taken.
    pub pins_taken: u64,
    /// Pins released.
    pub pins_released: u64,
    /// Install deltas enqueued across all subscribers.
    pub sub_events: u64,
    /// Subscriptions that overflowed their `max_lag` bound.
    pub subs_lagged: u64,
    /// Lagged subscriptions resumed from their resume epoch.
    pub subs_resumed: u64,
    /// Subscriptions removed through `unsubscribe`.
    pub subs_unsubscribed: u64,
    /// Point reads answered through an already-present index.
    pub point_index_hits: u64,
    /// Point reads that found no index for their `(epoch, column)`.
    pub point_index_misses: u64,
    /// Full index builds (first point read on a column).
    pub point_index_builds: u64,
    /// Incremental index derivations at publish.
    pub point_index_derived: u64,
    /// Always 0: nothing sits in front of the epoch index. Kept only
    /// because the frozen `benchmark/` crate reads it (ROADMAP A(v)).
    pub cache_hits: u64,
    /// Always 0, kept for the same reader as `cache_hits`.
    pub cache_misses: u64,
    /// Tuples examined answering point reads (index builds plus the
    /// length of each answered group).
    pub read_work_tuples: u64,
    /// Tuples examined deriving successor indexes at publish.
    pub index_maintenance_tuples: u64,
    /// Bag deep copies taken on the serve side. Always 0: epochs are
    /// structurally shared handles, neither publishing nor reading
    /// copies a bag (nothing in dw-serve increments this).
    pub bags_deep_cloned: u64,
    /// Tuples copied publishing new epochs: per install, the sizes of
    /// the view's chunks its delta touched (copy-on-write against the
    /// predecessor epoch). Proportional to `|Δ|`, not to the view.
    pub publish_copied_tuples: u64,
}

/// The store itself (see module docs). Consumers never construct or
/// hold one directly — [`crate::ReadFrontend`] owns it behind a mutex
/// and hands the engine a publisher handle onto it.
pub struct SnapshotStore {
    views: Vec<ViewState>,
    hub: SubscriptionHub,
    stats: ServeStats,
    obs: Obs,
    /// Every accepted install as `(view slot, epoch)`, in publication
    /// order — the documented global ticket order. Under the flat engine
    /// that is apply order; under the sharded engine it is
    /// [`dw_engine::InstallSequencer`] ticket order. A cascaded derived
    /// child's install is published immediately after its parent's,
    /// children in ascending slot order, depth-first — so a base install
    /// and its derived descendants always form one contiguous block.
    /// Replays (crash recovery) are ignored and never re-enter the log.
    publication_log: Vec<(usize, u64)>,
}

impl Default for SnapshotStore {
    fn default() -> Self {
        SnapshotStore {
            views: Vec::new(),
            hub: SubscriptionHub::new(),
            stats: ServeStats::default(),
            obs: Obs::off(),
            publication_log: Vec::new(),
        }
    }
}

impl SnapshotStore {
    /// Register view slot `views.len()` with its initial contents as
    /// epoch 0. Must be called in registry order: slot indices here must
    /// equal the scheduler registry's, or published events land on the
    /// wrong view.
    pub(crate) fn register_view(&mut self, name: &str, initial: SharedBag, at: Time) -> usize {
        let mut epochs = BTreeMap::new();
        epochs.insert(
            0,
            EpochSnapshot {
                at,
                bag: initial,
                indexes: HashMap::new(),
            },
        );
        self.views.push(ViewState {
            name: name.to_string(),
            epochs,
            latest: 0,
            delivered: HashMap::new(),
            pruned_through: HashMap::new(),
            pins: HashMap::new(),
        });
        self.views.len() - 1
    }

    pub(crate) fn set_observer(&mut self, obs: Obs) {
        self.obs = obs;
    }

    pub(crate) fn view_count(&self) -> usize {
        self.views.len()
    }

    pub(crate) fn view_name(&self, view: usize) -> Result<&str, ServeError> {
        Ok(&self.view(view)?.name)
    }

    fn view(&self, view: usize) -> Result<&ViewState, ServeError> {
        self.views.get(view).ok_or(ServeError::NoSuchView { view })
    }

    fn view_mut(&mut self, view: usize) -> Result<&mut ViewState, ServeError> {
        self.views
            .get_mut(view)
            .ok_or(ServeError::NoSuchView { view })
    }

    pub(crate) fn latest_epoch(&self, view: usize) -> Result<u64, ServeError> {
        Ok(self.view(view)?.latest)
    }

    pub(crate) fn epoch(&self, view: usize, epoch: u64) -> Result<&EpochSnapshot, ServeError> {
        self.view(view)?
            .epochs
            .get(&epoch)
            .ok_or(ServeError::NoSuchEpoch { view, epoch })
    }

    /// Answer a point read: the sorted matching group for `key` on
    /// `column` at the pinned epoch, plus its total multiplicity. One
    /// route: the epoch's index on `column` — built by a full scan if
    /// this is the first read to ask for it — then a lookup. Never
    /// copies the bag and never walks the group: both halves of the
    /// answer are stored in the index.
    pub(crate) fn point_lookup(
        &mut self,
        view: usize,
        epoch: u64,
        column: usize,
        key: &Value,
    ) -> Result<PointHit, ServeError> {
        let snap = self
            .views
            .get_mut(view)
            .ok_or(ServeError::NoSuchView { view })?
            .epochs
            .get_mut(&epoch)
            .ok_or(ServeError::NoSuchEpoch { view, epoch })?;
        let index = match snap.indexes.entry(column) {
            Entry::Occupied(built) => {
                self.stats.point_index_hits += 1;
                self.obs.add("serve.index.hit", 1);
                built.into_mut()
            }
            Entry::Vacant(slot) => {
                let (index, work) = PointIndex::build(&snap.bag, column);
                self.stats.point_index_misses += 1;
                self.stats.point_index_builds += 1;
                self.stats.read_work_tuples += work;
                self.obs.add("serve.index.miss", 1);
                self.obs.add("serve.index.build", 1);
                slot.insert(index)
            }
        };
        let hit = index.hit(key);
        self.stats.read_work_tuples += hit.1.len() as u64;
        Ok(hit)
    }

    /// Does `epoch` of `view` reflect every update delivered before
    /// `bound`? Exact: scans the per-view delivery ledger for an update
    /// with `delivered_at < bound` not consumed by any epoch ≤ `epoch`.
    pub(crate) fn admissible(
        &self,
        view: usize,
        epoch: u64,
        bound: Time,
    ) -> Result<bool, ServeError> {
        let v = self.view(view)?;
        Ok(!v
            .delivered
            .values()
            .any(|d| d.delivered_at < bound && d.consumed_in.is_none_or(|e| e > epoch)))
    }

    /// The freshest epoch admitting `bound`, if any. Admissibility is
    /// monotone in the epoch number (later epochs consume supersets), so
    /// this is the latest epoch or nothing.
    pub(crate) fn freshest_admissible(
        &self,
        view: usize,
        bound: Time,
    ) -> Result<Option<u64>, ServeError> {
        let latest = self.latest_epoch(view)?;
        Ok(self.admissible(view, latest, bound)?.then_some(latest))
    }

    pub(crate) fn pin(&mut self, view: usize, epoch: u64) -> Result<(), ServeError> {
        // Existence check first: pinning a GC'd epoch is an error, not a
        // resurrection.
        self.epoch(view, epoch)?;
        *self.view_mut(view)?.pins.entry(epoch).or_insert(0) += 1;
        self.stats.pins_taken += 1;
        Ok(())
    }

    pub(crate) fn unpin(&mut self, view: usize, epoch: u64) -> Result<(), ServeError> {
        let v = self.view_mut(view)?;
        match v.pins.get_mut(&epoch) {
            Some(n) if *n > 1 => *n -= 1,
            Some(_) => {
                v.pins.remove(&epoch);
            }
            None => return Err(ServeError::NotPinned { view, epoch }),
        }
        self.stats.pins_released += 1;
        self.gc(view);
        Ok(())
    }

    /// Drop unpinned non-latest epochs of `view` (their indexes die with
    /// them) and the ledger entries no retained epoch can be missing
    /// any more.
    fn gc(&mut self, view: usize) {
        let Some(v) = self.views.get_mut(view) else {
            return;
        };
        let latest = v.latest;
        let pins = &v.pins;
        let before = v.epochs.len();
        v.epochs
            .retain(|&e, _| e == latest || pins.get(&e).is_some_and(|&n| n > 0));
        let dropped = before - v.epochs.len();
        // The oldest retained epoch only moves when an epoch is dropped:
        // reads unpinning a still-retained epoch skip the ledger walk.
        if dropped > 0 {
            let oldest = v.epochs.keys().next().copied().unwrap_or(latest);
            let pruned = &mut v.pruned_through;
            v.delivered.retain(|id, d| {
                let settled = d.consumed_in.is_some_and(|e| e <= oldest);
                if settled {
                    let through = pruned.entry(id.source).or_insert(id.seq);
                    *through = (*through).max(id.seq);
                }
                !settled
            });
        }
        self.stats.snapshots_gced += dropped as u64;
    }

    /// Entries in `view`'s delivery ledger (boundedness tests).
    #[cfg(test)]
    pub(crate) fn ledger_len(&self, view: usize) -> usize {
        self.views[view].delivered.len()
    }

    pub(crate) fn subscribe(
        &mut self,
        view: usize,
        max_lag: Option<usize>,
    ) -> Result<u64, ServeError> {
        let from = self.latest_epoch(view)?;
        Ok(self.hub.subscribe(view, from, max_lag))
    }

    pub(crate) fn unsubscribe(&mut self, sub: u64) -> Result<(), ServeError> {
        match self.hub.unsubscribe(sub) {
            Ok(()) => {
                self.stats.subs_unsubscribed += 1;
                Ok(())
            }
            Err(state) => Err(Self::sub_error(sub, state)),
        }
    }

    pub(crate) fn poll(&mut self, sub: u64) -> Result<Vec<InstallDelta>, ServeError> {
        match self.hub.poll(sub) {
            HubPoll::Deltas(v) => Ok(v),
            state => Err(Self::sub_error(sub, state)),
        }
    }

    /// Flip a lagged subscription live again and pin the snapshot it
    /// must read to catch up — one atomic step, so the resume epoch can
    /// never be garbage-collected between the flip and the read.
    pub(crate) fn resume(&mut self, sub: u64) -> Result<(usize, u64), ServeError> {
        match self.hub.resume(sub) {
            Ok((view, epoch)) => {
                // The resume epoch tracks the view's latest, which
                // retention always keeps — the pin cannot fail.
                self.pin(view, epoch)?;
                self.stats.subs_resumed += 1;
                Ok((view, epoch))
            }
            Err(HubPoll::Deltas(_)) => Err(ServeError::NotLagged { sub }),
            Err(state) => Err(Self::sub_error(sub, state)),
        }
    }

    fn sub_error(sub: u64, state: HubPoll) -> ServeError {
        match state {
            HubPoll::Lagged { resume_epoch } => ServeError::Lagged { sub, resume_epoch },
            HubPoll::Unsubscribed => ServeError::Unsubscribed { sub },
            _ => ServeError::NoSuchSubscription { sub },
        }
    }

    pub(crate) fn stats(&self) -> &ServeStats {
        &self.stats
    }

    pub(crate) fn stats_mut(&mut self) -> &mut ServeStats {
        &mut self.stats
    }

    /// Retained epoch numbers of `view` (diagnostics, GC tests).
    pub(crate) fn retained_epochs(&self, view: usize) -> Result<Vec<u64>, ServeError> {
        Ok(self.view(view)?.epochs.keys().copied().collect())
    }

    /// The global publication ledger (see the field docs).
    pub(crate) fn publication_log(&self) -> &[(usize, u64)] {
        &self.publication_log
    }
}

impl InstallPublisher for SnapshotStore {
    fn note_delivery(&mut self, view_index: usize, id: UpdateId, delivered_at: Time) {
        let Some(v) = self.views.get_mut(view_index) else {
            return;
        };
        // Idempotent: a transport may redeliver after a crash; the first
        // noted time stands (it is the time staleness accounts against),
        // and an id already pruned as consumed stays out.
        let pruned = v.pruned_through.get(&id.source);
        if pruned.is_none_or(|&through| id.seq > through) {
            v.delivered.entry(id).or_insert(DeliveredUpdate {
                delivered_at,
                consumed_in: None,
            });
        }
        self.stats.deliveries_noted += 1;
    }

    fn publish(&mut self, event: InstallEvent) {
        let Some(v) = self.views.get_mut(event.view_index) else {
            return;
        };
        if event.epoch <= v.latest {
            // WAL replay after a crash re-runs the apply path; readers
            // already have these epochs.
            self.stats.republished_ignored += 1;
            return;
        }
        debug_assert_eq!(
            event.epoch,
            v.latest + 1,
            "install events must arrive contiguously per view"
        );
        let epoch = v.latest + 1;
        for id in &event.consumed {
            // `or_insert` covers adapters that publish without delivery
            // notices (single-view warehouse policies): the install time
            // then stands in for the delivery time.
            v.delivered
                .entry(*id)
                .or_insert(DeliveredUpdate {
                    delivered_at: event.at,
                    consumed_in: None,
                })
                .consumed_in = Some(epoch);
        }
        let prev = &v.epochs[&v.latest];
        // Successor indexes derive incrementally from the predecessor's:
        // only delta-touched groups are rebuilt, everything else rides
        // the shared map. (A column nobody has read yet has no index.)
        let mut indexes = HashMap::new();
        let mut derive_work = 0u64;
        for (&column, idx) in &prev.indexes {
            let (next, work) = idx.derive(&event.delta, column);
            indexes.insert(column, next);
            derive_work += work;
        }
        let derived = indexes.len() as u64;
        // The successor epoch: the predecessor's handle plus the delta —
        // only the chunks the delta touches are copied.
        let mut bag = SharedBag::clone(&prev.bag);
        self.stats.publish_copied_tuples += bag.merge(&event.delta) as u64;
        self.stats.index_maintenance_tuples += derive_work;
        self.stats.point_index_derived += derived;
        if derived > 0 {
            self.obs.add("serve.index.derive", derived);
        }
        v.epochs.insert(
            epoch,
            EpochSnapshot {
                at: event.at,
                bag,
                indexes,
            },
        );
        v.latest = epoch;
        self.publication_log.push((event.view_index, epoch));
        self.stats.snapshots_published += 1;
        self.gc(event.view_index);
        let out = self.hub.publish(&InstallDelta {
            view: event.view_index,
            epoch,
            at: event.at,
            consumed: event.consumed,
            delta: event.delta,
        });
        self.stats.sub_events += out.reached;
        self.stats.subs_lagged += out.newly_lagged;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dw_relational::tup;

    /// Every key of `bag`'s column 0 (plus one absent key) answers with
    /// exactly the bag's matching tuples, sorted, and their summed
    /// multiplicity.
    fn assert_index_matches(index: &PointIndex, bag: &SharedBag) {
        for k in -1..6 {
            let mut want: Vec<(Tuple, i64)> = bag
                .iter()
                .filter(|(t, _)| t.at(0) == &Value::Int(k))
                .map(|(t, m)| (t.clone(), m))
                .collect();
            want.sort();
            let (mult, group) = index.hit(&Value::Int(k));
            assert_eq!(*group, want, "key {k}");
            assert_eq!(mult, want.iter().map(|&(_, m)| m).sum::<i64>(), "key {k}");
        }
    }

    #[test]
    fn stored_multiplicity_is_the_sum_over_the_group_after_build_and_derive() {
        let mut bag: SharedBag = Bag::from_iter([
            (tup![1, 10], 2),
            (tup![1, 11], 3),
            (tup![2, 20], 1),
            (tup![3, 30], 4),
            (tup![3, 31], 1),
        ])
        .into();
        let (built, work) = PointIndex::build(&bag, 0);
        assert_eq!(work, 5);
        assert_eq!(built.hit(&Value::Int(1)).0, 5);
        assert_index_matches(&built, &bag);

        // Inserts into an old and a new group, a partial and a full
        // delete inside a group, and group 2 cancelling to empty.
        let delta = Bag::from_iter([
            (tup![1, 12], 1),
            (tup![1, 10], -1),
            (tup![3, 31], -1),
            (tup![2, 20], -1),
            (tup![5, 50], 7),
        ]);
        bag.merge(&delta);
        let (derived, _) = built.derive(&delta, 0);
        assert_eq!(derived.hit(&Value::Int(1)).0, 5);
        assert_eq!(derived.hit(&Value::Int(3)).0, 4);
        assert_eq!(derived.hit(&Value::Int(5)).0, 7);
        assert_eq!(derived.hit(&Value::Int(2)), PointHit::default());
        assert_index_matches(&derived, &bag);
        // The predecessor epoch's index is untouched by the derive.
        assert_eq!(built.hit(&Value::Int(2)).0, 1);
    }
}
