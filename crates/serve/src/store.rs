//! The epoch-stamped snapshot store behind the read frontend.
//!
//! One [`SnapshotStore`] holds every registered view's retained epochs.
//! Epoch `e` of view `v` is the immutable contents of `v` after exactly
//! `e` installs (epoch 0 is the registered initial contents). The store
//! is fed through [`dw_engine::InstallPublisher`]: the schedulers call
//! `note_delivery` when an update reaches the warehouse and `publish`
//! at every committed install, so the store's epoch sequence *is* the
//! install sequence — same consumed sets, same order, one bag per epoch.
//!
//! **Retention.** Readers hold epochs through pins; the store keeps the
//! latest epoch plus every pinned one and garbage-collects the rest at
//! publish and unpin. Epochs are [`SharedBag`] handles: pinning and
//! scanning cost a refcount, never a copy, and an install can never
//! mutate what a reader is looking at. A new epoch is the latest one
//! plus the delta. When no reader pins the latest epoch nobody can read
//! it once its successor exists, so publish *retires* it: its bag and
//! point indexes move into the successor and the delta is merged in
//! place, copying nothing — counted in `snapshots_gced` and pruning the
//! ledger exactly as GC would. When a reader pins it, the successor is a
//! second handle plus the delta, which copies only the chunks the delta
//! touches — `O(|Δ|)` tuples however large the view (a scan answer a
//! reader still holds is protected the same way).
//! `publish_copied_tuples` counts those copies exactly. The serve side
//! takes no bag deep copy at all: `bags_deep_cloned` stays 0 and CI
//! greps for one.
//!
//! **Point reads.** A point read has one route: the pinned epoch's
//! secondary hash index on the read column, mapping a key value to the
//! sorted matching `(tuple, multiplicity)` group *and the group's total
//! multiplicity*, summed where the group is built. The first point read
//! on a `(view, epoch, column)` builds the index with one full scan;
//! every later epoch *derives* its index incrementally from the
//! predecessor's (the same structurally shared map the bags use, taken
//! over or handle-cloned as the bag is). Each group the install delta
//! touches is edited in place — a binary-search insert, count change or
//! removal per delta entry, the total adjusted by the delta — and a group
//! a pinned epoch or a held answer shares is copied first; nothing is
//! rebuilt or re-sorted. A steady-state point read is a hash lookup and
//! two refcounts — it examines `O(|group|)` tuples instead of `O(|bag|)`
//! — and publish is `O(|Δ|)` end to end. `read_work_tuples` /
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
//! **Subscriptions.** Subscriptions are store internals: the store owns
//! the one registry (`hub.rs`) and, once a new epoch is in place, fans
//! the install out to it, which counts `sub_events` and `subs_lagged`
//! itself. The registry refuses in [`ServeError`], the store's one error
//! type, and [`crate::ReadFrontend`] calls it under the store's lock —
//! so a lagged subscriber's resume flips it live and pins its resume
//! epoch in one step.
//!
//! **Replays.** Crash recovery re-publishes installs that predate the
//! crash; the store ignores any epoch at or below its high-water mark
//! (`republished_ignored` counts them), so recovery never disturbs
//! readers or subscribers.

use crate::frontend::ServeError;
use crate::hub::SubscriptionHub;
use dw_engine::{InstallEvent, InstallPublisher};
use dw_obs::Obs;
use dw_protocol::UpdateId;
use dw_relational::{merge_sorted_group, Bag, Edit, SharedBag, SharedMap, Tuple, Value};
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
/// from its matches. The group keeps no room beyond its entries: a
/// publish that inserts into it grows it by the chunks' slack rule.
fn point_hit(mut group: Vec<(Tuple, i64)>) -> PointHit {
    group.sort();
    group.shrink_to_fit();
    (group.iter().map(|&(_, m)| m).sum(), Arc::new(group))
}

/// A secondary hash index of one frozen epoch on one column: key value →
/// the matching group with its total multiplicity, handed out without
/// copying or re-summing it. Cloning one is a handle copy: no group is
/// copied until one side is updated.
#[derive(Clone)]
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
    /// delta: each group the delta mentions is edited in place — per
    /// delta entry a binary-search insert, count change or removal, the
    /// total adjusted by the entry's count, an emptied group dropped, a
    /// new key's group made from its delta entries. A group or chunk a
    /// pinned epoch or a held answer shares is copied first (copy on
    /// write). Returns the new index and the tuples examined: the delta
    /// entries plus each touched group's old length.
    fn derive(self, delta: &Bag, column: usize) -> (Self, u64) {
        let mut groups = self.groups;
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
            groups.edit(key, |old| match old {
                Some((total, group)) => {
                    work += group.len() as u64;
                    *total += merge_sorted_group(group, delta_entries);
                    if group.is_empty() {
                        Edit::Remove
                    } else {
                        Edit::Keep
                    }
                }
                None => Edit::Insert(point_hit(delta_entries)),
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

/// One frozen epoch of one view. Cloning one is a second handle onto its
/// bag and indexes: no tuple and no group is copied until one side is
/// updated.
#[derive(Clone)]
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

pub(crate) struct ViewState {
    /// Retained epochs, keyed by epoch number. Always contains `latest`;
    /// older entries only while pinned.
    pub(crate) epochs: BTreeMap<u64, EpochSnapshot>,
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
    /// Installs accepted as new epochs.
    pub snapshots_published: u64,
    /// Replayed installs ignored at the high-water mark (crash recovery).
    pub republished_ignored: u64,
    /// Unpinned non-latest epochs dropped by GC, or retired into their
    /// successor at publish.
    pub snapshots_gced: u64,
    /// Reads answered (point + scan).
    pub reads_answered: u64,
    /// Reads rejected with `TooStale`.
    pub reads_rejected: u64,
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
    /// Point reads that found no index for their `(epoch, column)` and
    /// built it with one full scan.
    pub point_index_misses: u64,
    /// Incremental index derivations at publish.
    pub point_index_derived: u64,
    /// Always 0: nothing sits in front of the epoch index. Kept only
    /// because the frozen `benchmark/` crate reads it (ROADMAP A2(iii)).
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
    /// the view's chunks its delta touched that a pinned predecessor
    /// epoch or a held scan answer still shares (copy-on-write) — 0 when
    /// nobody holds the predecessor. Proportional to `|Δ|`, not to the
    /// view.
    pub publish_copied_tuples: u64,
}

/// The store itself (see module docs). Consumers never construct or
/// hold one directly — [`crate::ReadFrontend`] owns it behind a mutex
/// and hands the engine a publisher handle onto it.
#[derive(Default)]
pub struct SnapshotStore {
    pub(crate) views: Vec<ViewState>,
    /// The subscription registry, fed every accepted install.
    pub(crate) hub: SubscriptionHub,
    pub(crate) stats: ServeStats,
    pub(crate) obs: Obs,
}

impl SnapshotStore {
    /// Register view slot `views.len()` with its initial contents as
    /// epoch 0. Must be called in registry order: slot indices here must
    /// equal the scheduler registry's, or published events land on the
    /// wrong view.
    pub(crate) fn register_view(&mut self, initial: SharedBag, at: Time) -> usize {
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
            epochs,
            latest: 0,
            delivered: HashMap::new(),
            pruned_through: HashMap::new(),
            pins: HashMap::new(),
        });
        self.views.len() - 1
    }

    pub(crate) fn view(&self, view: usize) -> Result<&ViewState, ServeError> {
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
                self.stats.read_work_tuples += work;
                self.obs.add("serve.index.miss", 1);
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
        self.gc(view, 0);
        Ok(())
    }

    /// Drop unpinned non-latest epochs of `view` (their indexes die with
    /// them) and the ledger entries no retained epoch can be missing
    /// any more. `retired` epochs were already dropped by the caller —
    /// moved into their successor at publish — and count the same.
    fn gc(&mut self, view: usize, retired: usize) {
        let Some(v) = self.views.get_mut(view) else {
            return;
        };
        let latest = v.latest;
        let pins = &v.pins;
        let before = v.epochs.len();
        v.epochs.retain(|&e, _| e == latest || pinned(pins, e));
        let dropped = before - v.epochs.len() + retired;
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
}

/// Does a reader hold `epoch`?
fn pinned(pins: &HashMap<u64, usize>, epoch: u64) -> bool {
    pins.get(&epoch).is_some_and(|&n| n > 0)
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
        // The successor epoch is the predecessor plus the delta. Nobody
        // pins the predecessor: it is retired into its successor and the
        // delta merged in place. A reader pins it: the successor starts
        // as a second handle, and the merge copies only the chunks the
        // delta touches (as it does for a chunk a scan answer holds).
        let retired = !pinned(&v.pins, v.latest);
        let prev = if retired {
            v.epochs.remove(&v.latest)
        } else {
            v.epochs.get(&v.latest).cloned()
        };
        let Some(EpochSnapshot {
            mut bag, indexes, ..
        }) = prev
        else {
            return;
        };
        // Successor indexes derive incrementally from the predecessor's:
        // only delta-touched groups are edited. (A column nobody has
        // read yet has no index.)
        let mut derive_work = 0u64;
        let indexes: HashMap<usize, PointIndex> = indexes
            .into_iter()
            .map(|(column, idx)| {
                let (next, work) = idx.derive(&event.delta, column);
                derive_work += work;
                (column, next)
            })
            .collect();
        let derived = indexes.len() as u64;
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
        self.stats.snapshots_published += 1;
        self.gc(event.view_index, usize::from(retired));
        self.hub.publish(&event, &mut self.stats);
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

    /// Retiring an unpinned epoch into its successor is GC by another
    /// route. After every publish — readers pinning the latest epoch and
    /// releasing older pins in between — each epoch ever published is
    /// either retained or counted in `snapshots_gced` exactly once, the
    /// retained set is the latest plus the pinned ones, a pinned epoch
    /// still reads as it did, and the ledger holds exactly the updates a
    /// retained epoch can still be missing.
    #[test]
    fn retiring_an_epoch_keeps_the_gc_counters_and_the_ledger() {
        const AHEAD: u64 = 2;
        let initial = Bag::from_tuples((0..300).map(|i| tup![i % 7, i]));
        let mut store = SnapshotStore::default();
        let v = store.register_view(initial.clone().into(), 0);
        let id = |seq| UpdateId { source: 0, seq };
        for seq in 1..=AHEAD {
            store.note_delivery(v, id(seq), seq * 10);
        }
        let mut model = initial;
        let mut pins: Vec<(u64, Bag)> = Vec::new();
        for e in 1..=60u64 {
            if e % 5 == 0 {
                store.pin(v, e - 1).unwrap();
                pins.push((e - 1, model.clone()));
            }
            if e % 7 == 0 {
                let (epoch, _) = pins.remove(0);
                store.unpin(v, epoch).unwrap();
            }
            let delta = Bag::singleton(tup![e as i64 % 7, 1_000 + e as i64], 1);
            model.merge(&delta);
            store.note_delivery(v, id(e + AHEAD), (e + AHEAD) * 10);
            store.publish(InstallEvent {
                view_index: v,
                epoch: e,
                at: e * 10 + 5,
                consumed: vec![id(e)],
                delta: Arc::new(delta),
            });
            let retained: Vec<u64> = store.views[v].epochs.keys().copied().collect();
            let mut want: Vec<u64> = pins.iter().map(|(p, _)| *p).collect();
            want.push(e);
            assert_eq!(retained, want, "epoch {e}");
            for (p, contents) in &pins {
                assert_eq!(&store.epoch(v, *p).unwrap().bag, contents, "pinned {p}");
            }
            assert_eq!(store.epoch(v, e).unwrap().bag, model, "latest {e}");
            let gced = store.stats.snapshots_gced;
            assert_eq!(gced, e + 1 - retained.len() as u64, "epoch {e}");
            let ledger = store.ledger_len(v) as u64;
            assert_eq!(ledger, e + AHEAD - retained[0], "epoch {e}");
        }
    }

    /// A copy of the index's groups, totals and group order, keyed by
    /// value (the groups' contents, not their shared handles).
    fn index_groups(index: &PointIndex) -> HashMap<Value, (i64, Vec<(Tuple, i64)>)> {
        let groups = index.groups.iter();
        groups
            .map(|(k, (total, group))| (k.clone(), (*total, group.to_vec())))
            .collect()
    }

    /// Seeded runs of publishes whose deltas insert into groups, change
    /// counts, delete, cancel whole groups to empty and open new keys.
    /// On some steps a reader pins the predecessor epoch (so its chunks
    /// and groups are shared with the successor); across others it holds
    /// a point answer (so the group is). After every publish the derived
    /// column-0 index equals a fresh `PointIndex::build` of the new bag —
    /// groups, their order and totals — `index_maintenance_tuples` grew by
    /// the delta entries plus the touched groups' old lengths, and every
    /// pinned epoch and held answer still reads as it did.
    #[test]
    fn a_derived_index_equals_a_fresh_build_under_pins_and_held_answers() {
        use dw_rng::Rng64;
        for case in 0..16u64 {
            let mut r = Rng64::new(case);
            let initial = Bag::from_iter((0..60).map(|i| (tup![i % 6, i], 1 + i % 3)));
            let mut store = SnapshotStore::default();
            let v = store.register_view(initial.clone().into(), 0);
            store.point_lookup(v, 0, 0, &Value::Int(0)).unwrap();
            let mut model = initial;
            let mut pins = Vec::new();
            let mut held: Vec<(PointHit, Vec<(Tuple, i64)>)> = Vec::new();
            for e in 1..=80u64 {
                let ctx = format!("case {case} epoch {e}");
                if r.chance(0.3) {
                    let prev = store.epoch(v, e - 1).unwrap();
                    let answers = index_groups(&prev.indexes[&0]);
                    store.pin(v, e - 1).unwrap();
                    pins.push((e - 1, model.clone(), answers));
                }
                if !pins.is_empty() && r.chance(0.25) {
                    let (p, _, _) = pins.remove(r.usize_below(pins.len()));
                    store.unpin(v, p).unwrap();
                }
                if r.chance(0.4) {
                    let key = Value::Int(r.i64_in(0, 9));
                    let hit = store.point_lookup(v, e - 1, 0, &key).unwrap();
                    let contents = hit.1.to_vec();
                    held.push((hit, contents));
                }
                if held.len() > 3 {
                    held.remove(0);
                }
                let mut delta = Bag::new();
                for (t, m) in model.iter() {
                    match r.usize_below(12) {
                        0 => delta.add(t.clone(), -m),
                        1 => delta.add(t.clone(), if m > 1 { -1 } else { 2 }),
                        _ => {}
                    }
                }
                if r.chance(0.2) {
                    let gone = Value::Int(r.i64_in(0, 9));
                    for (t, m) in model.iter().filter(|(t, _)| t.at(0) == &gone) {
                        let rest = -m - delta.count(t);
                        if rest != 0 {
                            delta.add(t.clone(), rest);
                        }
                    }
                }
                for _ in 0..r.usize_below(4) {
                    let t = tup![r.i64_in(0, 9), 100 + r.i64_in(0, 200)];
                    if model.count(&t) == 0 {
                        delta.add(t, 1 + r.i64_in(0, 2));
                    }
                }
                let mut want_work = delta.distinct_len() as u64;
                let touched: std::collections::HashSet<&Value> =
                    delta.iter().map(|(t, _)| t.at(0)).collect();
                for key in touched {
                    want_work += model.iter().filter(|(t, _)| t.at(0) == key).count() as u64;
                }
                let work_before = store.stats.index_maintenance_tuples;
                model.merge(&delta);
                store.publish(InstallEvent {
                    view_index: v,
                    epoch: e,
                    at: e * 10,
                    consumed: vec![],
                    delta: Arc::new(delta),
                });
                let snap = store.epoch(v, e).unwrap();
                assert_eq!(snap.bag, model, "{ctx}");
                let (built, _) = PointIndex::build(&snap.bag, 0);
                let derived = &snap.indexes[&0];
                assert_eq!(index_groups(derived), index_groups(&built), "{ctx}");
                assert_index_matches(derived, &snap.bag);
                let work = store.stats.index_maintenance_tuples - work_before;
                assert_eq!(work, want_work, "{ctx}: index maintenance tuples");
                for (p, contents, answers) in &pins {
                    let pinned = store.epoch(v, *p).unwrap();
                    assert_eq!(&pinned.bag, contents, "{ctx}: pinned {p}");
                    assert_eq!(
                        &index_groups(&pinned.indexes[&0]),
                        answers,
                        "{ctx}: pinned {p}"
                    );
                }
                for (hit, contents) in &held {
                    assert_eq!(&*hit.1, contents, "{ctx}: a held answer");
                }
            }
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
        let (derived, _) = built.clone().derive(&delta, 0);
        assert_eq!(derived.hit(&Value::Int(1)).0, 5);
        assert_eq!(derived.hit(&Value::Int(3)).0, 4);
        assert_eq!(derived.hit(&Value::Int(5)).0, 7);
        assert_eq!(derived.hit(&Value::Int(2)), PointHit::default());
        assert_index_matches(&derived, &bag);
        // The predecessor epoch's index is untouched by the derive.
        assert_eq!(built.hit(&Value::Int(2)).0, 1);
    }
}
