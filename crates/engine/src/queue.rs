//! The `UpdateMessageQueue` of the paper's Figures 4 and 6.

use dw_protocol::{SourceIndex, SourceUpdate, UpdateId};
use dw_relational::Bag;
use dw_simnet::Time;
use std::collections::VecDeque;

/// A queued update with its warehouse delivery time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PendingUpdate {
    /// The update.
    pub update: SourceUpdate,
    /// When `LogUpdates` appended it.
    pub arrived_at: Time,
}

/// FIFO queue of updates awaiting view-change processing. Every hop
/// checks `∃ ΔR_j ∈ UpdateMessageQueue` and **merges without removing**
/// ([`UpdateQueue::merged_from_source`]) — SWEEP's compensation. What
/// leaves the queue leaves by id ([`UpdateQueue::take_id`]) or as a
/// same-source run ([`UpdateQueue::take_from_source_bounded`]): a sweep's
/// own update, the successors batching folds into it, and the queued
/// `ΔR_j` a Figure 6 hop nests.
#[derive(Clone, Debug, Default)]
pub struct UpdateQueue {
    q: VecDeque<PendingUpdate>,
}

impl UpdateQueue {
    /// Empty queue.
    pub fn new() -> Self {
        UpdateQueue::default()
    }

    /// Append a freshly delivered update (process `LogUpdates`).
    pub fn push(&mut self, update: SourceUpdate, arrived_at: Time) {
        self.q.push_back(PendingUpdate { update, arrived_at });
    }

    /// Remove and return the oldest update (process `UpdateView`).
    pub fn pop(&mut self) -> Option<PendingUpdate> {
        self.q.pop_front()
    }

    /// Number of queued updates.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// Is the queue empty?
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// Merge the deltas of every queued update from source `j` **without
    /// removing them** (SWEEP's compensation; the paper notes multiple
    /// interfering `ΔR_j` "can be merged into a single `ΔR_j`").
    /// Returns an empty bag when none are queued.
    pub fn merged_from_source(&self, j: SourceIndex) -> Bag {
        let mut out = Bag::new();
        for p in &self.q {
            if p.update.id.source == j {
                out.merge(&p.update.delta);
            }
        }
        out
    }

    /// Remove up to `max` queued updates that directly succeed update
    /// `after` at its source — `after.seq + 1`, `after.seq + 2`, … —
    /// returning their merged delta and `(id, arrival time)` pairs in
    /// queue order. Cross-update batching uses it to fold a capped number of queued
    /// same-source updates into the sweep for `after`. Stops at the
    /// bound, at the first successor that is no longer queued, and at the
    /// first one `admit` refuses — a successor is never skipped over;
    /// every unmatched update keeps its queue position.
    pub fn take_from_source_bounded(
        &mut self,
        after: UpdateId,
        max: usize,
        mut admit: impl FnMut(&PendingUpdate) -> bool,
    ) -> (Bag, Vec<(UpdateId, Time)>) {
        let mut merged = Bag::new();
        let mut ids = Vec::new();
        let mut taken = Vec::new();
        let mut next_seq = after.seq + 1;
        for (pos, p) in self.q.iter().enumerate() {
            if ids.len() >= max {
                break;
            }
            let id = p.update.id;
            if id.source != after.source || id.seq <= after.seq {
                continue;
            }
            if id.seq != next_seq || !admit(p) {
                break;
            }
            next_seq += 1;
            merged.merge(&p.update.delta);
            ids.push((id, p.arrived_at));
            taken.push(pos);
        }
        // Remove back-to-front so earlier indices stay valid; relative
        // order of everything left is untouched.
        for pos in taken.into_iter().rev() {
            self.q.remove(pos);
        }
        (merged, ids)
    }

    /// Remove the updates with the given ids, wherever they sit; every
    /// other update keeps its queue position. Crash-recovery replay uses
    /// this to re-apply a journaled task formation: the task's consumed
    /// updates leave the rebuilt queue exactly as they did the first
    /// time, regardless of which lookup originally took them.
    pub fn remove_ids(&mut self, ids: &[UpdateId]) {
        self.q.retain(|p| !ids.contains(&p.update.id));
    }

    /// Remove and return the update with the given id, wherever it sits;
    /// every other update keeps its queue position. The search runs from
    /// the head, so taking the queue head costs O(1) — the lane scheduler
    /// launches from the head whenever only one group exists.
    pub fn take_id(&mut self, id: UpdateId) -> Option<PendingUpdate> {
        let pos = self.q.iter().position(|p| p.update.id == id)?;
        self.q.remove(pos)
    }

    /// Put `pu` back ahead of the first queued update `before` picks (at
    /// the tail when none does); every other update keeps its order. A
    /// checkpoint image returns the updates a lane nested this way, so
    /// they stand where they arrived.
    pub fn insert_before(&mut self, pu: PendingUpdate, before: impl Fn(&PendingUpdate) -> bool) {
        let pos = self.q.iter().position(before).unwrap_or(self.q.len());
        self.q.insert(pos, pu);
    }

    /// Iterate pending updates in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = &PendingUpdate> {
        self.q.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dw_relational::tup;

    fn upd(source: SourceIndex, seq: u64, v: i64) -> SourceUpdate {
        SourceUpdate {
            id: UpdateId { source, seq },
            delta: Bag::from_pairs([(tup![v], 1)]),
            global: None,
        }
    }

    #[test]
    fn take_id_removes_one_and_keeps_the_rest_in_place() {
        let mut q = UpdateQueue::new();
        q.push(upd(0, 0, 1), 10);
        q.push(upd(1, 0, 2), 20);
        q.push(upd(0, 1, 3), 30);
        let taken = q.take_id(UpdateId { source: 1, seq: 0 }).unwrap();
        assert_eq!(taken.arrived_at, 20);
        assert!(q.take_id(UpdateId { source: 1, seq: 0 }).is_none());
        let left: Vec<u64> = q.iter().map(|p| p.update.id.seq).collect();
        assert_eq!(left, vec![0, 1]);
    }

    #[test]
    fn fifo_order() {
        let mut q = UpdateQueue::new();
        q.push(upd(0, 0, 1), 10);
        q.push(upd(1, 0, 2), 20);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap().update.id.source, 0);
        assert_eq!(q.pop().unwrap().update.id.source, 1);
        assert!(q.pop().is_none());
    }

    #[test]
    fn merged_from_source_keeps_entries() {
        let mut q = UpdateQueue::new();
        q.push(upd(2, 0, 5), 1);
        q.push(upd(1, 0, 6), 2);
        q.push(upd(2, 1, 7), 3);
        let m = q.merged_from_source(2);
        assert_eq!(m.count(&tup![5]), 1);
        assert_eq!(m.count(&tup![7]), 1);
        assert_eq!(q.len(), 3, "merge must not remove");
    }

    #[test]
    fn merged_deltas_can_cancel() {
        let mut q = UpdateQueue::new();
        q.push(
            SourceUpdate {
                id: UpdateId { source: 0, seq: 0 },
                delta: Bag::from_pairs([(tup![1], 1)]),
                global: None,
            },
            0,
        );
        q.push(
            SourceUpdate {
                id: UpdateId { source: 0, seq: 1 },
                delta: Bag::from_pairs([(tup![1], -1)]),
                global: None,
            },
            1,
        );
        assert!(q.merged_from_source(0).is_empty());
    }

    #[test]
    fn insert_before_restores_a_taken_update_to_its_place() {
        let mut q = UpdateQueue::new();
        q.push(upd(2, 0, 5), 1);
        q.push(upd(1, 0, 6), 2);
        q.push(upd(2, 1, 7), 3);
        let taken = q.take_id(UpdateId { source: 1, seq: 0 }).unwrap();
        q.insert_before(taken.clone(), |p| p.arrived_at > taken.arrived_at);
        let order: Vec<Time> = q.iter().map(|p| p.arrived_at).collect();
        assert_eq!(order, vec![1, 2, 3]);
        // Nothing picked: the tail.
        let head = q.pop().unwrap();
        q.insert_before(head, |_| false);
        let order: Vec<Time> = q.iter().map(|p| p.arrived_at).collect();
        assert_eq!(order, vec![2, 3, 1]);
    }

    #[test]
    fn bounded_take_stops_at_bound_and_preserves_positions() {
        let mut q = UpdateQueue::new();
        q.push(upd(2, 1, 5), 1);
        q.push(upd(1, 0, 6), 2);
        q.push(upd(2, 2, 7), 3);
        q.push(upd(2, 3, 8), 4);
        q.push(upd(1, 1, 9), 5);
        let head = UpdateId { source: 2, seq: 0 };
        let (m, ids) = q.take_from_source_bounded(head, 2, |_| true);
        assert_eq!(m.count(&tup![5]), 1);
        assert_eq!(m.count(&tup![7]), 1);
        assert_eq!(m.count(&tup![8]), 0, "third match is beyond the bound");
        assert_eq!(
            ids,
            vec![
                (UpdateId { source: 2, seq: 1 }, 1),
                (UpdateId { source: 2, seq: 2 }, 3)
            ]
        );
        // Updates past the bound keep their exact queue positions.
        let left: Vec<UpdateId> = q.iter().map(|p| p.update.id).collect();
        assert_eq!(
            left,
            vec![
                UpdateId { source: 1, seq: 0 },
                UpdateId { source: 2, seq: 3 },
                UpdateId { source: 1, seq: 1 },
            ]
        );
    }

    #[test]
    fn bounded_take_never_skips_a_successor() {
        let burst = || {
            let mut q = UpdateQueue::new();
            for (seq, at) in [(0, 1), (2, 2), (3, 3), (4, 4), (6, 5)] {
                q.push(upd(2, seq, seq as i64), at);
            }
            q
        };
        let seqs =
            |ids: Vec<(UpdateId, Time)>| -> Vec<u64> { ids.iter().map(|(id, _)| id.seq).collect() };
        let after = |seq| UpdateId { source: 2, seq };
        // #1 left for another sweep: #0's fold may not reach over it.
        let (m, ids) = burst().take_from_source_bounded(after(0), 8, |_| true);
        assert!(m.is_empty() && ids.is_empty());
        // #0 still waits ahead of #1 and is not #1's to take; #2…#4
        // follow on, #6 does not.
        let mut q = burst();
        let (_, ids) = q.take_from_source_bounded(after(1), 8, |_| true);
        assert_eq!(seqs(ids), vec![2, 3, 4]);
        assert_eq!(q.len(), 2);
        // A refused successor ends the fold though later ones would pass.
        let (m, ids) = burst().take_from_source_bounded(after(1), 8, |p| p.update.id.seq != 3);
        assert_eq!(seqs(ids), vec![2]);
        assert_eq!(m, Bag::from_pairs([(tup![2], 1)]));
    }

    #[test]
    fn bounded_take_cancelling_pair_prunes_zeros() {
        let mut q = UpdateQueue::new();
        q.push(
            SourceUpdate {
                id: UpdateId { source: 3, seq: 1 },
                delta: Bag::from_pairs([(tup![4], 2)]),
                global: None,
            },
            0,
        );
        q.push(
            SourceUpdate {
                id: UpdateId { source: 3, seq: 2 },
                delta: Bag::from_pairs([(tup![4], -2)]),
                global: None,
            },
            1,
        );
        let (m, ids) = q.take_from_source_bounded(UpdateId { source: 3, seq: 0 }, 8, |_| true);
        assert!(m.is_empty());
        assert_eq!(ids.len(), 2);
    }

    #[test]
    fn remove_ids_targets_exactly_the_named_updates() {
        let mut q = UpdateQueue::new();
        q.push(upd(2, 0, 5), 1);
        q.push(upd(1, 0, 6), 2);
        q.push(upd(2, 1, 7), 3);
        q.remove_ids(&[
            UpdateId { source: 2, seq: 0 },
            UpdateId { source: 2, seq: 1 },
            UpdateId { source: 9, seq: 9 }, // absent: ignored
        ]);
        let left: Vec<UpdateId> = q.iter().map(|p| p.update.id).collect();
        assert_eq!(left, vec![UpdateId { source: 1, seq: 0 }]);
    }

    #[test]
    fn empty_lookups() {
        let q = UpdateQueue::new();
        assert!(q.merged_from_source(0).is_empty());
        assert!(q.is_empty());
    }
}
