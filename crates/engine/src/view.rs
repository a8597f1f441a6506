//! The materialized view store.

use crate::error::WarehouseError;
use dw_relational::{Bag, RelationalError, SharedBag};
use std::fmt;

/// The warehouse's materialized view: a counted bag of projected tuples
/// (the control-field multiplicity of \[GMS93] — the paper's `(7,8)[2]`
/// notation).
///
/// The invariant "every count is non-negative" is checked on every install;
/// a violation means the maintenance policy produced a view change that
/// deletes tuples the view does not contain, i.e. an inconsistency. The
/// check makes a whole class of algorithm bugs loud instead of silent.
///
/// The contents are a [`SharedBag`]: cloning the view or its bag (a
/// reader's handle) copies no tuple, and the next install copies only
/// the chunks its delta touches that such a clone shares. A checkpoint
/// image is a view of its own instead, seeded by
/// [`SharedBag::deep_copy`], so it never makes an install copy.
#[derive(Clone, PartialEq, Eq)]
pub struct MaterializedView {
    bag: SharedBag,
    installs: u64,
}

impl MaterializedView {
    /// Initialize with the correct current view contents (the paper assumes
    /// `V` starts correct).
    pub fn new(initial: Bag) -> Result<Self, WarehouseError> {
        if !initial.all_positive() {
            let bad = initial
                .iter()
                .find(|(_, c)| *c <= 0)
                .map(|(t, _)| format!("{t}"))
                .unwrap_or_default();
            return Err(WarehouseError::InconsistentInstall { tuple: bad });
        }
        Ok(MaterializedView {
            bag: initial.into(),
            installs: 0,
        })
    }

    /// Current contents.
    pub fn bag(&self) -> &SharedBag {
        &self.bag
    }

    /// How many installs have been applied: the epoch of the last one.
    pub fn installs(&self) -> u64 {
        self.installs
    }

    /// `V ← V + ΔV`, validating that no count goes negative. Atomic:
    /// either the whole change applies or none of it. Routed through the
    /// signed-delta calculus, so inserts and deletes are one code path.
    /// Returns the tuples copied because a clone of the bag still shares
    /// the chunks the delta touches (0 when nothing else holds them).
    pub fn install(&mut self, delta: &Bag) -> Result<usize, WarehouseError> {
        let copied = self.bag.apply_delta(delta).map_err(|e| match e {
            RelationalError::NegativeMultiplicity { tuple, .. } => {
                WarehouseError::InconsistentInstall { tuple }
            }
            other => WarehouseError::Relational(other),
        })?;
        self.installs += 1;
        Ok(copied)
    }

    /// The same view in chunks no other handle shares
    /// ([`SharedBag::deep_copy`]): what seeds a checkpoint image, and the
    /// live view recovery rebuilds from one.
    pub(crate) fn deep_copy(&self) -> MaterializedView {
        MaterializedView {
            bag: self.bag.deep_copy(),
            installs: self.installs,
        }
    }

    /// Bring a copy of this view up to `installs` installs by `sum`, the
    /// signed sum of the deltas those installs made — already validated
    /// on the live view, so merged unchecked. Returns the tuples copied.
    pub(crate) fn catch_up(&mut self, sum: &Bag, installs: u64) -> usize {
        self.installs = installs;
        self.bag.merge(sum)
    }
}

impl fmt::Debug for MaterializedView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "V{:?}", self.bag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dw_relational::tup;

    #[test]
    fn install_merges_counts() {
        let mut v = MaterializedView::new(Bag::from_pairs([(tup![7, 8], 2)])).unwrap();
        v.install(&Bag::from_pairs([(tup![5, 6], 2)])).unwrap();
        assert_eq!(v.bag().count(&tup![5, 6]), 2);
        assert_eq!(v.installs(), 1);
    }

    #[test]
    fn negative_count_detected_and_rolled_back() {
        let mut v = MaterializedView::new(Bag::from_pairs([(tup![1], 1)])).unwrap();
        let bad = Bag::from_pairs([(tup![1], -1), (tup![2], -1)]);
        assert!(matches!(
            v.install(&bad),
            Err(WarehouseError::InconsistentInstall { .. })
        ));
        // untouched
        assert_eq!(v.bag().count(&tup![1]), 1);
        assert_eq!(v.installs(), 0);
    }

    #[test]
    fn delete_to_zero_is_fine() {
        let mut v = MaterializedView::new(Bag::from_pairs([(tup![1], 2)])).unwrap();
        v.install(&Bag::from_pairs([(tup![1], -2)])).unwrap();
        assert!(v.bag().is_empty());
    }

    #[test]
    fn initial_must_be_positive() {
        assert!(MaterializedView::new(Bag::from_pairs([(tup![1], -1)])).is_err());
    }
}
