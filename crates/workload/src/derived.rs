//! Derived views: views defined over *other views* instead of base
//! relations — the stacked half of the maintenance DAG.
//!
//! A [`DerivedSpec`] names a parent (a registered [`crate::ViewSpec`] or
//! an earlier derived view — stacks compose) and one [`DerivedOp`] to
//! apply to the parent's output rows. The two operators cover the DAG
//! experiment space:
//!
//! * [`DerivedOp::Select`] — positional σ/Π over the parent's rows.
//!   σ and Π are **linear** in the signed-delta algebra, so a child's
//!   install delta is literally the operator applied to the parent's
//!   install delta — no state, no recompute.
//! * [`DerivedOp::Aggregate`] — Σ/group-by via
//!   [`dw_relational::AggregateState`], which folds the parent's signed
//!   delta into per-group accumulators (support multisets make MIN/MAX
//!   retractions local).
//!
//! Either way the maintenance bill of a derived view is **zero source
//! messages**: the parent's committed install delta is fed to the child
//! locally at the warehouse; only the base layer ever pays the paper's
//! `2(n−1)`.

use dw_relational::{AggregateSpec, Bag, CmpOp, Predicate, RelationalError, Value};

/// The operator a derived view applies to its parent's output rows.
#[derive(Clone, Debug, PartialEq)]
pub enum DerivedOp {
    /// Positional σ/Π over the parent's rows (Kleene three-valued σ:
    /// comparisons against NULL never select, matching PR 5's predicate
    /// semantics end to end).
    Select {
        /// Conjunctive comparisons `(column, op, constant)` against the
        /// parent's output positions.
        selects: Vec<(usize, CmpOp, Value)>,
        /// Output column positions; `None` keeps the parent's full width.
        projection: Option<Vec<usize>>,
    },
    /// Σ/group-by over the parent's rows.
    Aggregate(AggregateSpec),
}

impl DerivedOp {
    /// Is the operator linear in the signed-delta algebra? (Linear ⇒ a
    /// parent delta maps to a child delta by plain re-evaluation;
    /// non-linear ⇒ the child keeps incremental state.)
    #[cfg(test)]
    pub(crate) fn is_linear(&self) -> bool {
        matches!(self, DerivedOp::Select { .. })
    }

    /// Output row width given the parent's width.
    pub fn output_width(&self, parent_width: usize) -> usize {
        match self {
            DerivedOp::Select { projection, .. } => {
                projection.as_ref().map_or(parent_width, Vec::len)
            }
            DerivedOp::Aggregate(spec) => spec.output_width(),
        }
    }

    /// Validate every referenced column against the parent's width.
    pub fn validate(&self, parent_width: usize) -> Result<(), RelationalError> {
        match self {
            DerivedOp::Select {
                selects,
                projection,
            } => {
                for c in selects
                    .iter()
                    .map(|(c, _, _)| *c)
                    .chain(projection.iter().flatten().copied())
                {
                    if c >= parent_width {
                        return Err(RelationalError::InvalidViewDef {
                            reason: format!(
                                "derived column {c} out of range for width-{parent_width} parent"
                            ),
                        });
                    }
                }
                Ok(())
            }
            DerivedOp::Aggregate(spec) => spec.validate(parent_width),
        }
    }

    /// Evaluate over a whole parent bag — the fresh-recompute oracle.
    ///
    /// For [`DerivedOp::Select`] this doubles as the delta propagator
    /// (σ/Π are linear, so `eval(Δparent)` *is* the child's delta); for
    /// aggregates the incremental path lives in the registry's
    /// [`dw_relational::AggregateState`] and this recompute is what it is
    /// checked against.
    pub fn eval(&self, parent: &Bag) -> Result<Bag, RelationalError> {
        match self {
            DerivedOp::Select {
                selects,
                projection,
            } => {
                let preds: Vec<Predicate> = selects
                    .iter()
                    .map(|&(attr, op, ref value)| Predicate::Cmp {
                        attr,
                        op,
                        value: value.clone(),
                    })
                    .collect();
                let filtered = parent.filter(|t| preds.iter().all(|p| p.eval(t)));
                Ok(match projection {
                    Some(cols) => filtered.map_tuples(|t| t.project(cols)),
                    None => filtered,
                })
            }
            DerivedOp::Aggregate(spec) => spec.eval(parent),
        }
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            DerivedOp::Select { .. } => "select",
            DerivedOp::Aggregate(_) => "aggregate",
        }
    }
}

/// One derived view: a name, a parent reference (by registered name) and
/// the operator to apply. Parents must be registered first — the
/// registry's topological ordering rejects forward references and cycles.
#[derive(Clone, Debug, PartialEq)]
pub struct DerivedSpec {
    /// Display name (unique per scenario by convention).
    pub name: String,
    /// Name of the parent view (a base [`crate::ViewSpec`] or an earlier
    /// derived view).
    pub parent: String,
    /// The operator over the parent's rows.
    pub op: DerivedOp,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dw_relational::{tup, AggFn};

    #[test]
    fn select_eval_is_linear_in_deltas() {
        let op = DerivedOp::Select {
            selects: vec![(1, CmpOp::Ge, Value::Int(5))],
            projection: Some(vec![0]),
        };
        let before = Bag::from_pairs([(tup![1, 9], 1), (tup![2, 3], 1)]);
        let delta = Bag::from_pairs([(tup![1, 9], -1), (tup![3, 7], 2)]);
        // eval(before + Δ) == eval(before) + eval(Δ)
        let whole = op.eval(&before.plus(&delta)).unwrap();
        let parts = op.eval(&before).unwrap().plus(&op.eval(&delta).unwrap());
        assert_eq!(whole, parts);
        assert!(op.is_linear());
    }

    #[test]
    fn select_null_never_selected() {
        let op = DerivedOp::Select {
            selects: vec![(0, CmpOp::Ge, Value::Int(0))],
            projection: None,
        };
        let rows = Bag::from_pairs([(tup![Value::Null], 1), (tup![1], 1)]);
        assert_eq!(op.eval(&rows).unwrap(), Bag::from_tuples([tup![1]]));
    }

    #[test]
    fn aggregate_eval_delegates_to_spec() {
        let op = DerivedOp::Aggregate(AggregateSpec {
            group_by: vec![0],
            aggs: vec![AggFn::CountRows],
        });
        let rows = Bag::from_pairs([(tup![1, 5], 2), (tup![2, 9], 1)]);
        let out = op.eval(&rows).unwrap();
        assert_eq!(out, Bag::from_tuples([tup![1, 2], tup![2, 1]]));
        assert!(!op.is_linear());
        assert_eq!(op.output_width(2), 2);
    }

    #[test]
    fn validate_rejects_out_of_range_columns() {
        let op = DerivedOp::Select {
            selects: vec![(5, CmpOp::Eq, Value::Int(1))],
            projection: None,
        };
        assert!(op.validate(2).is_err());
        let op = DerivedOp::Select {
            selects: vec![],
            projection: Some(vec![0, 3]),
        };
        assert!(op.validate(2).is_err());
        assert!(op.validate(4).is_ok());
    }
}
