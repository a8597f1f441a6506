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
/// The contents are a [`SharedBag`]: cloning the view (a checkpoint) or
/// its bag (an install record's snapshot) copies no tuple, and the next
/// install copies only the chunks its delta touches.
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

    /// How many installs have been applied.
    pub fn installs(&self) -> u64 {
        self.installs
    }

    /// `V ← V + ΔV`, validating that no count goes negative. Atomic:
    /// either the whole change applies or none of it. Routed through the
    /// signed-delta calculus, so inserts and deletes are one code path.
    pub fn install(&mut self, delta: &Bag) -> Result<(), WarehouseError> {
        self.bag.apply_delta(delta).map_err(|e| match e {
            RelationalError::NegativeMultiplicity { tuple, .. } => {
                WarehouseError::InconsistentInstall { tuple }
            }
            other => WarehouseError::Relational(other),
        })?;
        self.installs += 1;
        Ok(())
    }

    /// Replace the contents wholesale (full-recompute baseline).
    pub fn replace(&mut self, contents: Bag) -> Result<(), WarehouseError> {
        if !contents.all_positive() {
            let bad = contents
                .iter()
                .find(|(_, c)| *c <= 0)
                .map(|(t, _)| format!("{t}"))
                .unwrap_or_default();
            return Err(WarehouseError::InconsistentInstall { tuple: bad });
        }
        self.bag = contents.into();
        self.installs += 1;
        Ok(())
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

    #[test]
    fn replace_swaps_contents() {
        let mut v = MaterializedView::new(Bag::new()).unwrap();
        v.replace(Bag::from_pairs([(tup![9], 3)])).unwrap();
        assert_eq!(v.bag().count(&tup![9]), 3);
        assert!(v.replace(Bag::from_pairs([(tup![9], -3)])).is_err());
    }
}
