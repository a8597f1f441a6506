//! Incremental join indexes.
//!
//! A data source answers a stream of `ComputeJoin(ΔV, R)` requests against
//! the *same* base relation; streaming all of `R` past a table of the few
//! `ΔV` rows on every request (as [`crate::eval::extend_partial`] does)
//! still costs `O(|R|)` per query. A [`JoinIndex`] maintains the hash
//! table incrementally as transactions apply, so query service drops to
//! `O(|ΔV| + |matches|)` — the classic maintained-index trade-off,
//! recorded as the `extend_partial` vs `extend_partial_indexed` rows of
//! the benchmark's `kernels` table.

use crate::bag::Bag;
use crate::error::RelationalError;
use crate::eval::{extend_hop, HopGeometry, JoinSide, Neighbor, PartialDelta};
use crate::tuple::Tuple;
use crate::value::Value;
use crate::view::ViewDef;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

fn key_of(t: &Tuple, cols: &[usize]) -> Vec<Value> {
    cols.iter().map(|&k| t.at(k).clone()).collect()
}

/// An incrementally maintained hash index of a relation on a fixed set of
/// key attribute positions, mapping key values to the bag of tuples
/// carrying them.
#[derive(Clone, Debug, Default)]
pub struct JoinIndex {
    key_attrs: Vec<usize>,
    buckets: HashMap<Vec<Value>, Bag>,
}

impl JoinIndex {
    /// Empty index on the given key attribute positions.
    pub fn new(key_attrs: Vec<usize>) -> Self {
        JoinIndex {
            key_attrs,
            buckets: HashMap::new(),
        }
    }

    /// The empty index that serves hops *into* chain relation `rel` as the
    /// neighbor on `side` — keyed on `rel`'s columns of that hop's join
    /// condition; `None` when the chain has no relation to come from.
    pub fn for_neighbor(view: &ViewDef, rel: usize, side: JoinSide) -> Option<JoinIndex> {
        let from = match side {
            JoinSide::Left => rel + 1,
            JoinSide::Right => rel.checked_sub(1)?,
        };
        let geo = HopGeometry::of(view, from, from, side).ok()?;
        Some(JoinIndex::new(geo.nbr_keys))
    }

    /// Key attribute positions this index is built on.
    pub fn key_attrs(&self) -> &[usize] {
        &self.key_attrs
    }

    /// Number of distinct indexed tuples.
    pub fn len(&self) -> usize {
        self.buckets.values().map(Bag::distinct_len).sum()
    }

    /// Is the index empty?
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Fold a signed delta into the index (tuples reaching count zero are
    /// evicted; empty buckets are pruned).
    pub fn apply_delta(&mut self, delta: &Bag) {
        for (t, c) in delta.iter() {
            match self.buckets.entry(key_of(t, &self.key_attrs)) {
                Entry::Occupied(mut bucket) => {
                    bucket.get_mut().add(t.clone(), c);
                    if bucket.get().is_empty() {
                        bucket.remove();
                    }
                }
                Entry::Vacant(slot) => {
                    slot.insert(Bag::singleton(t.clone(), c));
                }
            }
        }
    }

    /// Tuples matching a key, as `(tuple, count)` pairs.
    pub fn probe(&self, key: &[Value]) -> impl Iterator<Item = (&Tuple, i64)> {
        self.buckets.get(key).into_iter().flat_map(Bag::iter)
    }

    /// The index arm of the hop join: every `(pt, pc)` of `partial` looks
    /// its `keys` columns up, and each match `(nt, nc)` that is `kept`
    /// emits `glue(pt, nt)` at `pc · nc`. A key with a NULL column has no
    /// hits, as in the scan.
    pub(crate) fn join(
        &self,
        partial: &Bag,
        keys: &[usize],
        kept: impl Fn(&Tuple) -> bool,
        glue: impl Fn(&Tuple, &Tuple) -> Tuple,
    ) -> Bag {
        let mut out = Bag::new();
        for (pt, pc) in partial.iter() {
            let key = key_of(pt, keys);
            if key.contains(&Value::Null) {
                continue;
            }
            for (nt, nc) in self.probe(&key).filter(|&(t, _)| kept(t)) {
                out.add(glue(pt, nt), pc * nc);
            }
        }
        out
    }

    /// Reconstruct the indexed bag (test/verification hook).
    pub fn to_bag(&self) -> Bag {
        let rows = self.buckets.values().flat_map(Bag::iter);
        Bag::from_pairs(rows.map(|(t, c)| (t.clone(), c)))
    }
}

/// [`crate::eval::extend_partial`] with the neighbor's hash table replaced
/// by a pre-maintained [`JoinIndex`] — the same hop join, probing instead
/// of re-hashing; the view's local selection on the neighbor filters the
/// matches. The index keys must equal the join condition's neighbor-side
/// attributes in order (checked).
pub fn extend_partial_indexed(
    view: &ViewDef,
    partial: &PartialDelta,
    index: &JoinIndex,
    side: JoinSide,
) -> Result<PartialDelta, RelationalError> {
    let obs = dw_obs::Obs::off();
    extend_hop(view, partial, Neighbor::Index(index), side, None, &obs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::extend_partial;
    use crate::schema::Schema;
    use crate::tup;
    use crate::view::ViewDefBuilder;

    fn view() -> ViewDef {
        ViewDefBuilder::new()
            .relation(Schema::new("R1", ["A", "B"]).unwrap())
            .relation(Schema::new("R2", ["C", "D"]).unwrap())
            .join("R1.B", "R2.C")
            .build()
            .unwrap()
    }

    #[test]
    fn index_tracks_deltas() {
        let mut idx = JoinIndex::new(vec![0]);
        idx.apply_delta(&Bag::from_pairs([(tup![3, 7], 1), (tup![3, 9], 2)]));
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.probe(&[Value::Int(3)]).count(), 2);
        idx.apply_delta(&Bag::from_pairs([(tup![3, 7], -1)]));
        assert_eq!(idx.len(), 1);
        assert!(idx.probe(&[Value::Int(4)]).next().is_none());
        idx.apply_delta(&Bag::from_pairs([(tup![3, 9], -2)]));
        assert!(idx.is_empty());
        assert!(idx.to_bag().is_empty());
    }

    #[test]
    fn indexed_extension_matches_unindexed() {
        let v = view();
        let r2 = Bag::from_pairs([(tup![3, 7], 1), (tup![3, 9], 1), (tup![5, 1], 2)]);
        let mut idx = JoinIndex::new(vec![0]); // R2.C
        idx.apply_delta(&r2);
        let pd = PartialDelta::seed(&v, 0, &Bag::from_tuples([tup![1, 3], tup![2, 5]])).unwrap();
        let plain = extend_partial(&v, &pd, &r2, JoinSide::Right).unwrap();
        let fast = extend_partial_indexed(&v, &pd, &idx, JoinSide::Right).unwrap();
        assert_eq!(plain, fast);
    }

    #[test]
    fn indexed_extension_after_updates_matches() {
        let v = view();
        let mut r2 = Bag::from_pairs([(tup![3, 7], 1)]);
        let mut idx = JoinIndex::new(vec![0]);
        idx.apply_delta(&r2);
        // Apply a stream of deltas to both representations.
        for d in [
            Bag::from_pairs([(tup![3, 8], 1)]),
            Bag::from_pairs([(tup![3, 7], -1), (tup![5, 5], 1)]),
        ] {
            r2.merge(&d);
            idx.apply_delta(&d);
        }
        let pd = PartialDelta::seed(&v, 0, &Bag::from_tuples([tup![9, 3]])).unwrap();
        let plain = extend_partial(&v, &pd, &r2, JoinSide::Right).unwrap();
        let fast = extend_partial_indexed(&v, &pd, &idx, JoinSide::Right).unwrap();
        assert_eq!(plain, fast);
    }

    #[test]
    fn wrong_key_rejected() {
        let v = view();
        let idx = JoinIndex::new(vec![1]); // indexed on D, join needs C
        let pd = PartialDelta::seed(&v, 0, &Bag::from_tuples([tup![1, 3]])).unwrap();
        assert!(extend_partial_indexed(&v, &pd, &idx, JoinSide::Right).is_err());
    }

    #[test]
    fn local_selection_filters_the_probed_matches() {
        let v = ViewDefBuilder::new()
            .relation(Schema::new("R1", ["A", "B"]).unwrap())
            .relation(Schema::new("R2", ["C", "D"]).unwrap())
            .join("R1.B", "R2.C")
            .select("R2.D", crate::predicate::CmpOp::Gt, 0)
            .build()
            .unwrap();
        let r2 = Bag::from_pairs([(tup![3, 7], 1), (tup![3, 0], 2), (tup![3, -4], 1)]);
        let mut idx = JoinIndex::for_neighbor(&v, 1, JoinSide::Right).unwrap();
        idx.apply_delta(&r2);
        let pd = PartialDelta::seed(&v, 0, &Bag::from_tuples([tup![1, 3]])).unwrap();
        let fast = extend_partial_indexed(&v, &pd, &idx, JoinSide::Right).unwrap();
        assert_eq!(fast.bag, Bag::from_tuples([tup![1, 3, 3, 7]]));
        assert_eq!(fast, extend_partial(&v, &pd, &r2, JoinSide::Right).unwrap());
    }

    #[test]
    fn for_neighbor_keys_follow_the_join_condition() {
        let v = view();
        // R2 entered from R1 is keyed on C; R1 entered from R2 on B.
        let ix = JoinIndex::for_neighbor(&v, 1, JoinSide::Right).unwrap();
        assert_eq!(ix.key_attrs(), [0]);
        let ix = JoinIndex::for_neighbor(&v, 0, JoinSide::Left).unwrap();
        assert_eq!(ix.key_attrs(), [1]);
        // The chain ends: nothing left of R1, nothing right of R2.
        assert!(JoinIndex::for_neighbor(&v, 0, JoinSide::Right).is_none());
        assert!(JoinIndex::for_neighbor(&v, 1, JoinSide::Left).is_none());
    }

    #[test]
    fn left_side_indexed_extension() {
        let v = view();
        let r1 = Bag::from_tuples([tup![1, 3], tup![2, 3], tup![9, 9]]);
        let mut idx = JoinIndex::new(vec![1]); // R1.B
        idx.apply_delta(&r1);
        let pd = PartialDelta::seed(&v, 1, &Bag::from_tuples([tup![3, 5]])).unwrap();
        let plain = extend_partial(&v, &pd, &r1, JoinSide::Left).unwrap();
        let fast = extend_partial_indexed(&v, &pd, &idx, JoinSide::Left).unwrap();
        assert_eq!(plain, fast);
    }
}
