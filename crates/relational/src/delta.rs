//! Signed-multiplicity delta relations.
//!
//! A [`DeltaRelation`] is the *typed* form of the paper's `ΔR` / `ΔV`
//! objects: a multiset of tuples where `+k` means "insert `k` copies" and
//! `−k` means "delete `k` copies" (the DBSP Z-set view of change streams).
//! [`crate::Bag`] already carries signed counts; what the wrapper adds is
//! the delta **calculus** in one place instead of sign conventions spread
//! across call sites:
//!
//! * [`DeltaRelation::compose`] — sequential composition `Δ₁ ; Δ₂`
//!   (signed addition; a later delete cancels an earlier insert);
//! * [`DeltaRelation::compensate`] — the paper's per-hop correction
//!   `ΔV ← ΔV − (ΔR_j ⋈ TempView)`;
//! * [`DeltaRelation::apply_to`] — checked application `S ← S + Δ` onto a
//!   non-negative state, rejecting any tuple whose multiplicity would go
//!   below zero **atomically** and **deterministically** (the smallest
//!   offending tuple in canonical order is reported, independent of hash
//!   iteration order).
//!
//! Base relations, materialized views and the engine's compensation loop
//! all route through this type, so insert- and delete-handling are the
//! same code path with opposite signs — there is no delete special case
//! anywhere downstream.

use crate::bag::Bag;
use crate::error::RelationalError;
use crate::tuple::Tuple;
use std::fmt;

/// A signed-multiplicity change set over one relation (or a join span).
///
/// Thin, zero-cost wrapper over [`Bag`] that names the sign convention:
/// insert = `+k`, delete = `−k`. Zero-count entries are never stored, so
/// `insert(t) ; delete(t)` is exactly the empty delta.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct DeltaRelation {
    changes: Bag,
}

impl DeltaRelation {
    /// The empty delta (no change).
    pub fn new() -> Self {
        DeltaRelation::default()
    }

    /// Wrap an already-signed bag of changes.
    pub fn from_bag(changes: Bag) -> Self {
        DeltaRelation { changes }
    }

    /// A pure insertion of `count` copies (`count ≥ 0`).
    pub fn insert(tuple: Tuple, count: i64) -> Self {
        DeltaRelation {
            changes: Bag::singleton(tuple, count.abs()),
        }
    }

    /// A pure deletion of `count` copies (`count ≥ 0`).
    pub fn delete(tuple: Tuple, count: i64) -> Self {
        DeltaRelation {
            changes: Bag::singleton(tuple, -count.abs()),
        }
    }

    /// The signed change bag, borrowed.
    pub fn as_bag(&self) -> &Bag {
        &self.changes
    }

    /// The signed change bag, owned.
    pub fn into_bag(self) -> Bag {
        self.changes
    }

    /// True when the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }

    /// Signed multiplicity this delta assigns to `tuple`.
    pub fn count(&self, tuple: &Tuple) -> i64 {
        self.changes.count(tuple)
    }

    /// Sequential composition `self ; later`: apply `self`, then `later`.
    /// Signed counts add, so an insert followed by its delete vanishes.
    pub fn compose(&mut self, later: &DeltaRelation) {
        self.changes.merge(&later.changes);
    }

    /// The paper's local compensation step: subtract an error term that
    /// was double-counted by a concurrent source update,
    /// `Δ ← Δ − err` (Figure 4's `ΔV = ΔV − ΔR_j ⋈ TempView`).
    pub fn compensate(&mut self, err: &DeltaRelation) {
        self.changes.subtract(&err.changes);
    }

    /// The inverse delta (every insert becomes a delete and vice versa).
    pub fn inverse(&self) -> DeltaRelation {
        DeltaRelation {
            changes: self.changes.negated(),
        }
    }

    /// The insertion half: tuples with positive multiplicity.
    pub fn inserts(&self) -> Bag {
        Bag::from_pairs(
            self.changes
                .iter()
                .filter(|(_, c)| *c > 0)
                .map(|(t, c)| (t.clone(), c)),
        )
    }

    /// The deletion half: tuples with negative multiplicity, reported as
    /// positive counts of deleted copies.
    pub fn deletes(&self) -> Bag {
        Bag::from_pairs(
            self.changes
                .iter()
                .filter(|(_, c)| *c < 0)
                .map(|(t, c)| (t.clone(), -c)),
        )
    }

    /// Checked application `state ← state + Δ`.
    ///
    /// Validates that no resulting multiplicity is negative *before*
    /// mutating, so the application is atomic: on error `state` is
    /// untouched. The reported offender is the smallest violating tuple in
    /// canonical tuple order — deterministic regardless of hash layout.
    pub fn apply_to(&self, state: &mut Bag) -> Result<(), RelationalError> {
        check_non_negative(&self.changes, |t| state.count(t))?;
        state.merge(&self.changes);
        Ok(())
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

impl From<Bag> for DeltaRelation {
    fn from(changes: Bag) -> Self {
        DeltaRelation::from_bag(changes)
    }
}

impl fmt::Debug for DeltaRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Δ{:?}", self.changes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tup;

    #[test]
    fn insert_then_delete_cancels() {
        let mut d = DeltaRelation::insert(tup![1, 2], 3);
        d.compose(&DeltaRelation::delete(tup![1, 2], 3));
        assert!(d.is_empty());
    }

    #[test]
    fn compensation_subtracts_error_term() {
        let mut d = DeltaRelation::from_bag(Bag::from_pairs([(tup![1], 2), (tup![2], 1)]));
        d.compensate(&DeltaRelation::insert(tup![1], 1));
        assert_eq!(d.count(&tup![1]), 1);
        assert_eq!(d.count(&tup![2]), 1);
    }

    #[test]
    fn inverse_roundtrip() {
        let d = DeltaRelation::from_bag(Bag::from_pairs([(tup![1], 2), (tup![2], -5)]));
        assert_eq!(d.inverse().inverse(), d);
        let mut cancelled = d.clone();
        cancelled.compose(&d.inverse());
        assert!(cancelled.is_empty());
    }

    #[test]
    fn split_halves_partition_the_delta() {
        let d = DeltaRelation::from_bag(Bag::from_pairs([(tup![1], 2), (tup![2], -3)]));
        assert_eq!(d.inserts().count(&tup![1]), 2);
        assert!(d.inserts().count(&tup![2]) == 0);
        assert_eq!(d.deletes().count(&tup![2]), 3);
    }

    #[test]
    fn apply_to_is_atomic_on_negative_result() {
        let mut state = Bag::from_pairs([(tup![1], 1), (tup![2], 1)]);
        let d = DeltaRelation::from_bag(Bag::from_pairs([(tup![1], 1), (tup![2], -2)]));
        let err = d.apply_to(&mut state).unwrap_err();
        assert!(matches!(err, RelationalError::NegativeMultiplicity { .. }));
        // untouched — including the half that would have succeeded
        assert_eq!(state.count(&tup![1]), 1);
        assert_eq!(state.count(&tup![2]), 1);
    }

    #[test]
    fn apply_to_reports_smallest_offender_deterministically() {
        let mut state = Bag::new();
        let d = DeltaRelation::from_bag(Bag::from_pairs([(tup![9], -1), (tup![3], -1)]));
        match d.apply_to(&mut state).unwrap_err() {
            RelationalError::NegativeMultiplicity { tuple, resulting } => {
                assert_eq!(tuple, "(3)");
                assert_eq!(resulting, -1);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn apply_to_reaches_zero_cleanly() {
        let mut state = Bag::from_pairs([(tup![7], 2)]);
        DeltaRelation::delete(tup![7], 2)
            .apply_to(&mut state)
            .unwrap();
        assert!(state.is_empty());
    }
}
