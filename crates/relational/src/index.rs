//! Incremental join indexes.
//!
//! A data source answers a stream of `ComputeJoin(ΔV, R)` requests against
//! the *same* base relation; hashing `R` from scratch on every request (as
//! [`crate::eval::extend_partial`] does) costs `O(|R|)` per query. A
//! [`JoinIndex`] maintains the hash table incrementally as transactions
//! apply, so query service drops to `O(|ΔV| + |matches|)` — the classic
//! maintained-index trade-off, recorded as the `extend_partial` vs
//! `extend_partial_indexed` rows of the benchmark's `kernels` table.

use crate::bag::Bag;
use crate::error::RelationalError;
use crate::eval::{JoinSide, PartialDelta};
use crate::tuple::Tuple;
use crate::value::Value;
use crate::view::ViewDef;
use std::collections::HashMap;

/// An incrementally maintained hash index of a relation on a fixed set of
/// key attribute positions, mapping key values to the tuples (and counts)
/// carrying them.
#[derive(Clone, Debug, Default)]
pub struct JoinIndex {
    key_attrs: Vec<usize>,
    buckets: HashMap<Vec<Value>, HashMap<Tuple, i64>>,
    len: usize,
}

impl JoinIndex {
    /// Empty index on the given key attribute positions.
    pub fn new(key_attrs: Vec<usize>) -> Self {
        JoinIndex {
            key_attrs,
            buckets: HashMap::new(),
            len: 0,
        }
    }

    /// Key attribute positions this index is built on.
    pub fn key_attrs(&self) -> &[usize] {
        &self.key_attrs
    }

    /// Number of distinct indexed tuples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the index empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn key_of(&self, t: &Tuple) -> Vec<Value> {
        self.key_attrs.iter().map(|&k| t.at(k).clone()).collect()
    }

    /// Fold a signed delta into the index (tuples reaching count zero are
    /// evicted; empty buckets are pruned).
    pub fn apply_delta(&mut self, delta: &Bag) {
        for (t, c) in delta.iter() {
            let key = self.key_of(t);
            let bucket = self.buckets.entry(key.clone()).or_default();
            let entry = bucket.entry(t.clone()).or_insert(0);
            let was_present = *entry != 0;
            *entry += c;
            let now_present = *entry != 0;
            match (was_present, now_present) {
                (false, true) => self.len += 1,
                (true, false) => {
                    bucket.remove(t);
                    self.len -= 1;
                }
                _ => {}
            }
            if bucket.is_empty() {
                self.buckets.remove(&key);
            }
        }
    }

    /// Tuples matching a key, as `(tuple, count)` pairs.
    pub fn probe(&self, key: &[Value]) -> impl Iterator<Item = (&Tuple, i64)> {
        self.buckets
            .get(key)
            .into_iter()
            .flat_map(|b| b.iter().map(|(t, &c)| (t, c)))
    }

    /// Reconstruct the indexed bag (test/verification hook).
    pub fn to_bag(&self) -> Bag {
        Bag::from_pairs(
            self.buckets
                .values()
                .flat_map(|b| b.iter().map(|(t, &c)| (t.clone(), c))),
        )
    }
}

/// [`crate::eval::extend_partial`] with the neighbor's hash table replaced
/// by a pre-maintained [`JoinIndex`].
///
/// Semantics restrictions versus the general path (checked):
/// * the index keys must equal the join condition's neighbor-side
///   attributes in order;
/// * the neighbor relation must have no pushed-down local selection (the
///   index stores unfiltered tuples) — such views should use the
///   unindexed path.
pub fn extend_partial_indexed(
    view: &ViewDef,
    partial: &PartialDelta,
    index: &JoinIndex,
    side: JoinSide,
) -> Result<PartialDelta, RelationalError> {
    let (nbr_idx, cond_idx) = match side {
        JoinSide::Left => {
            if partial.lo == 0 {
                return Err(RelationalError::BadRange {
                    reason: "no relation to the left of the range".into(),
                });
            }
            (partial.lo - 1, partial.lo - 1)
        }
        JoinSide::Right => {
            if partial.hi + 1 >= view.num_relations() {
                return Err(RelationalError::BadRange {
                    reason: "no relation to the right of the range".into(),
                });
            }
            (partial.hi + 1, partial.hi)
        }
    };
    if view.local_select(nbr_idx) != &crate::predicate::Predicate::True {
        return Err(RelationalError::BadRange {
            reason: format!(
                "indexed extension unsupported: relation {} has a local selection",
                view.schema(nbr_idx).name()
            ),
        });
    }
    let cond = view.join_cond(cond_idx);
    let (nbr_keys, part_keys): (Vec<usize>, Vec<usize>) = match side {
        JoinSide::Left => cond.pairs.iter().map(|&(l, r)| (l, r)).unzip(),
        JoinSide::Right => {
            let last_off = partial.width(view) - view.schema(partial.hi).arity();
            cond.pairs.iter().map(|&(l, r)| (r, last_off + l)).unzip()
        }
    };
    if index.key_attrs() != nbr_keys.as_slice() {
        return Err(RelationalError::BadRange {
            reason: format!(
                "index keyed on {:?} cannot serve a join on {:?}",
                index.key_attrs(),
                nbr_keys
            ),
        });
    }

    let mut out = Bag::new();
    for (pt, pc) in partial.bag.iter() {
        let key: Vec<Value> = part_keys.iter().map(|&k| pt.at(k).clone()).collect();
        for (nt, nc) in index.probe(&key) {
            let joined = match side {
                JoinSide::Left => nt.concat(pt),
                JoinSide::Right => pt.concat(nt),
            };
            out.add(joined, pc * nc);
        }
    }
    Ok(PartialDelta {
        lo: match side {
            JoinSide::Left => nbr_idx,
            JoinSide::Right => partial.lo,
        },
        hi: match side {
            JoinSide::Left => partial.hi,
            JoinSide::Right => nbr_idx,
        },
        bag: out,
    })
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
    fn local_selection_rejected() {
        let v = ViewDefBuilder::new()
            .relation(Schema::new("R1", ["A", "B"]).unwrap())
            .relation(Schema::new("R2", ["C", "D"]).unwrap())
            .join("R1.B", "R2.C")
            .select("R2.D", crate::predicate::CmpOp::Gt, 0)
            .build()
            .unwrap();
        let idx = JoinIndex::new(vec![0]);
        let pd = PartialDelta::seed(&v, 0, &Bag::from_tuples([tup![1, 3]])).unwrap();
        assert!(extend_partial_indexed(&v, &pd, &idx, JoinSide::Right).is_err());
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
