//! Counted bags (multisets) with *signed* multiplicities.
//!
//! `Bag` is the single representation for both base-relation contents
//! (all counts positive, enforced by [`crate::relation::BaseRelation`]) and
//! **delta relations** — the `ΔR` / `ΔV` objects of the SWEEP paper, whose
//! counts are signed: `+k` means "insert `k` copies", `−k` means "delete `k`
//! copies". The bag keeps the invariant that no stored count is zero, so
//! `a + (−a) = ∅` and emptiness tests are exact.

use crate::error::RelationalError;
use crate::tuple::Tuple;
use std::collections::HashMap;
use std::fmt;

/// A multiset of tuples with signed integer multiplicities.
///
/// This is the `RELATION` type of the paper's pseudocode (Figures 3, 4, 6):
/// updates, partial view changes, query answers and compensation terms are
/// all `Bag`s. Zero-count entries are never stored.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Bag {
    counts: HashMap<Tuple, i64>,
}

impl Bag {
    /// The empty bag.
    pub fn new() -> Self {
        Bag::default()
    }

    /// Bag with a single tuple at multiplicity `count`.
    pub fn singleton(tuple: Tuple, count: i64) -> Self {
        let mut b = Bag::new();
        b.add(tuple, count);
        b
    }

    /// Build from `(tuple, count)` pairs, summing duplicates.
    pub fn from_pairs<I: IntoIterator<Item = (Tuple, i64)>>(pairs: I) -> Self {
        let mut b = Bag::new();
        for (t, c) in pairs {
            b.add(t, c);
        }
        b
    }

    /// Build a bag of distinct tuples each at multiplicity `+1`.
    pub fn from_tuples<I: IntoIterator<Item = Tuple>>(tuples: I) -> Self {
        Bag::from_pairs(tuples.into_iter().map(|t| (t, 1)))
    }

    /// Add `count` copies of `tuple` (negative to delete). Entries that
    /// reach zero are removed, preserving the no-zero invariant.
    pub fn add(&mut self, tuple: Tuple, count: i64) {
        if count == 0 {
            return;
        }
        use std::collections::hash_map::Entry;
        match self.counts.entry(tuple) {
            Entry::Occupied(mut e) => {
                let next = *e.get() + count;
                if next == 0 {
                    e.remove();
                } else {
                    e.insert(next);
                }
            }
            Entry::Vacant(e) => {
                e.insert(count);
            }
        }
    }

    /// Multiplicity of `tuple` (zero when absent).
    pub fn count(&self, tuple: &Tuple) -> i64 {
        self.counts.get(tuple).copied().unwrap_or(0)
    }

    /// Number of *distinct* tuples.
    pub fn distinct_len(&self) -> usize {
        self.counts.len()
    }

    /// Sum of absolute multiplicities (total tuple occurrences carried).
    pub fn total_multiplicity(&self) -> u64 {
        self.counts.values().map(|c| c.unsigned_abs()).sum()
    }

    /// True when no tuple has a non-zero count.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// True when every count is strictly positive (a legal base-relation /
    /// materialized-view state).
    pub fn all_positive(&self) -> bool {
        self.counts.values().all(|&c| c > 0)
    }

    /// Iterate `(tuple, count)` in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, i64)> {
        self.counts.iter().map(|(t, &c)| (t, c))
    }

    /// Merge another bag into this one: `self += other` (bag union with
    /// signed counts). This is the `+` of the paper's `V = V + ΔV`.
    pub fn merge(&mut self, other: &Bag) {
        for (t, c) in other.iter() {
            self.add(t.clone(), c);
        }
    }

    /// Consuming merge that avoids cloning tuples.
    pub fn merge_owned(&mut self, other: Bag) {
        for (t, c) in other.counts {
            self.add(t, c);
        }
    }

    /// Subtract another bag: `self -= other`. This is the paper's local
    /// compensation `ΔV = ΔV − ΔR_j ⋈ TempView`.
    pub fn subtract(&mut self, other: &Bag) {
        for (t, c) in other.iter() {
            self.add(t.clone(), -c);
        }
    }

    /// Checked application `self ← self + delta` onto a non-negative
    /// state. Every resulting multiplicity is validated *before* anything
    /// mutates, so the application is atomic: on error `self` is
    /// untouched. The reported offender is the smallest violating tuple in
    /// canonical tuple order — deterministic regardless of hash layout.
    pub fn apply_delta(&mut self, delta: &Bag) -> Result<(), RelationalError> {
        check_non_negative(delta, |t| self.count(t))?;
        self.merge(delta);
        Ok(())
    }

    /// The bag with all multiplicities negated.
    pub fn negated(&self) -> Bag {
        Bag {
            counts: self.counts.iter().map(|(t, &c)| (t.clone(), -c)).collect(),
        }
    }

    /// `self + other` without mutating either.
    pub fn plus(&self, other: &Bag) -> Bag {
        let mut out = self.clone();
        out.merge(other);
        out
    }

    /// `self − other` without mutating either.
    pub fn minus(&self, other: &Bag) -> Bag {
        let mut out = self.clone();
        out.subtract(other);
        out
    }

    /// Keep only tuples satisfying `pred` (counts unchanged).
    pub fn filter(&self, mut pred: impl FnMut(&Tuple) -> bool) -> Bag {
        Bag {
            counts: self
                .counts
                .iter()
                .filter(|(t, _)| pred(t))
                .map(|(t, &c)| (t.clone(), c))
                .collect(),
        }
    }

    /// Map every tuple through `f`, summing counts of collided images.
    /// (Projection uses this.)
    pub fn map_tuples(&self, mut f: impl FnMut(&Tuple) -> Tuple) -> Bag {
        let mut out = Bag::new();
        for (t, c) in self.iter() {
            out.add(f(t), c);
        }
        out
    }

    /// Canonical sorted `(tuple, count)` listing — deterministic regardless
    /// of hash order; use for display, golden tests and digests.
    pub fn to_sorted_vec(&self) -> Vec<(Tuple, i64)> {
        let mut v: Vec<(Tuple, i64)> = self.counts.iter().map(|(t, &c)| (t.clone(), c)).collect();
        v.sort();
        v
    }

    /// Approximate serialized size in bytes for message accounting: each
    /// entry ships its tuple plus an 8-byte count.
    pub fn size_bytes(&self) -> usize {
        8 + self
            .counts
            .keys()
            .map(|t| t.size_bytes() + 8)
            .sum::<usize>()
    }

    /// The owned `tuple → count` map (distinct tuples, no zero counts).
    pub(crate) fn into_counts(self) -> HashMap<Tuple, i64> {
        self.counts
    }
}

/// Would `state + changes` keep every multiplicity non-negative, `state`
/// given by its count function? The one validation behind every checked
/// application (plain and structurally shared state alike).
pub(crate) fn check_non_negative(
    changes: &Bag,
    state_count: impl Fn(&Tuple) -> i64,
) -> Result<(), RelationalError> {
    let mut offender: Option<(&Tuple, i64)> = None;
    for (t, c) in changes.iter() {
        let resulting = state_count(t) + c;
        if resulting < 0 && offender.is_none_or(|(best, _)| t < best) {
            offender = Some((t, resulting));
        }
    }
    match offender {
        Some((t, resulting)) => Err(RelationalError::NegativeMultiplicity {
            tuple: format!("{t}"),
            resulting,
        }),
        None => Ok(()),
    }
}

/// The one display form of a counted bag, over its canonical listing:
/// `{+(3,5), (7,8)[2], -(9)}`.
pub(crate) fn fmt_counted(sorted: Vec<(Tuple, i64)>, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(f, "{{")?;
    for (i, (t, c)) in sorted.into_iter().enumerate() {
        if i > 0 {
            write!(f, ", ")?;
        }
        if c == 1 {
            write!(f, "+{t}")?;
        } else if c == -1 {
            write!(f, "-{t}")?;
        } else {
            write!(f, "{t}[{c}]")?;
        }
    }
    write!(f, "}}")
}

impl fmt::Debug for Bag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_counted(self.to_sorted_vec(), f)
    }
}

impl FromIterator<(Tuple, i64)> for Bag {
    fn from_iter<I: IntoIterator<Item = (Tuple, i64)>>(iter: I) -> Self {
        Bag::from_pairs(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tup;

    #[test]
    fn add_and_cancel() {
        let mut b = Bag::new();
        b.add(tup![1], 2);
        b.add(tup![1], -2);
        assert!(b.is_empty());
        assert_eq!(b.count(&tup![1]), 0);
    }

    #[test]
    fn zero_add_is_noop() {
        let mut b = Bag::new();
        b.add(tup![1], 0);
        assert!(b.is_empty());
        assert_eq!(b.distinct_len(), 0);
    }

    #[test]
    fn merge_sums_counts() {
        let a = Bag::from_pairs([(tup![1], 1), (tup![2], -1)]);
        let b = Bag::from_pairs([(tup![1], 2), (tup![2], 1)]);
        let c = a.plus(&b);
        assert_eq!(c.count(&tup![1]), 3);
        assert_eq!(c.count(&tup![2]), 0);
        assert_eq!(c.distinct_len(), 1);
    }

    #[test]
    fn subtract_is_inverse_of_merge() {
        let a = Bag::from_pairs([(tup![1, 2], 3), (tup![3, 4], -2)]);
        let b = Bag::from_pairs([(tup![1, 2], 1), (tup![5, 6], 4)]);
        let mut c = a.plus(&b);
        c.subtract(&b);
        assert_eq!(c, a);
    }

    #[test]
    fn negation_involution() {
        let a = Bag::from_pairs([(tup![1], 5), (tup![2], -7)]);
        assert_eq!(a.negated().negated(), a);
        assert!(a.plus(&a.negated()).is_empty());
    }

    #[test]
    fn all_positive_detects_signs() {
        assert!(Bag::from_pairs([(tup![1], 1)]).all_positive());
        assert!(!Bag::from_pairs([(tup![1], -1)]).all_positive());
        assert!(Bag::new().all_positive());
    }

    #[test]
    fn map_tuples_collides_counts() {
        let a = Bag::from_pairs([(tup![1, 10], 1), (tup![2, 10], 1)]);
        // Project onto second attribute: both map to (10).
        let p = a.map_tuples(|t| t.project(&[1]));
        assert_eq!(p.count(&tup![10]), 2);
        assert_eq!(p.distinct_len(), 1);
    }

    #[test]
    fn sorted_vec_is_canonical() {
        let a = Bag::from_pairs([(tup![2], 1), (tup![1], 1)]);
        let v = a.to_sorted_vec();
        assert_eq!(v[0].0, tup![1]);
        assert_eq!(v[1].0, tup![2]);
    }

    #[test]
    fn debug_format() {
        let a = Bag::from_pairs([(tup![7, 8], 2), (tup![3, 5], 1), (tup![9], -1)]);
        assert_eq!(format!("{a:?}"), "{+(3,5), (7,8)[2], -(9)}");
    }

    #[test]
    fn total_multiplicity_absolute() {
        let a = Bag::from_pairs([(tup![1], 3), (tup![2], -2)]);
        assert_eq!(a.total_multiplicity(), 5);
    }

    #[test]
    fn filter_keeps_counts() {
        let a = Bag::from_pairs([(tup![1], 4), (tup![2], 2)]);
        let f = a.filter(|t| *t.at(0) == crate::value::Value::Int(1));
        assert_eq!(f.count(&tup![1]), 4);
        assert_eq!(f.distinct_len(), 1);
    }

    #[test]
    fn apply_delta_is_atomic_on_negative_result() {
        let mut state = Bag::from_pairs([(tup![1], 1), (tup![2], 1)]);
        let d = Bag::from_pairs([(tup![1], 1), (tup![2], -2)]);
        let err = state.apply_delta(&d).unwrap_err();
        assert!(matches!(err, RelationalError::NegativeMultiplicity { .. }));
        // untouched — including the half that would have succeeded
        assert_eq!(state.count(&tup![1]), 1);
        assert_eq!(state.count(&tup![2]), 1);
    }

    #[test]
    fn apply_delta_reports_smallest_offender_deterministically() {
        let mut state = Bag::new();
        let d = Bag::from_pairs([(tup![9], -1), (tup![3], -1)]);
        match state.apply_delta(&d).unwrap_err() {
            RelationalError::NegativeMultiplicity { tuple, resulting } => {
                assert_eq!(tuple, "(3)");
                assert_eq!(resulting, -1);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn apply_delta_reaches_zero_cleanly() {
        let mut state = Bag::from_pairs([(tup![7], 2)]);
        state.apply_delta(&Bag::singleton(tup![7], -2)).unwrap();
        assert!(state.is_empty());
    }
}
