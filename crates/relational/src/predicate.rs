//! Selection predicates over tuples.
//!
//! Predicates reference attributes *by position* within the tuple they are
//! evaluated against (a base-relation tuple for local selections, the
//! concatenated chain tuple for residual selections). Name resolution
//! happens once, in [`crate::view::ViewDefBuilder`].

use crate::tuple::Tuple;
use crate::value::Value;
use std::cmp::Ordering;
use std::fmt;

/// Comparison operator.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    fn test(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// A boolean selection predicate (the `σ_SelectCond` of the view function).
///
/// Evaluation follows SQL three-valued logic: a comparison involving NULL
/// or mismatched types is UNKNOWN, UNKNOWN propagates through `Not`
/// (`NOT UNKNOWN = UNKNOWN`), and `And`/`Or` use Kleene semantics. A
/// tuple is *selected* only when the predicate is definitely true
/// ([`Predicate::eval`] is `eval3() == Some(true)`), so UNKNOWN never
/// selects — even under negation. This matters for query pushdown:
/// warehouse-side and source-side evaluation of the same σ must agree
/// tuple-for-tuple, NULLs included.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Predicate {
    /// Always true (the default when a view has no selection).
    True,
    /// Always false.
    False,
    /// Compare attribute at `attr` with a constant.
    Cmp {
        /// Attribute position.
        attr: usize,
        /// Operator.
        op: CmpOp,
        /// Constant operand.
        value: Value,
    },
    /// Compare two attributes.
    AttrCmp {
        /// Left attribute position.
        left: usize,
        /// Operator.
        op: CmpOp,
        /// Right attribute position.
        right: usize,
    },
    /// Conjunction.
    And(Vec<Predicate>),
    /// Disjunction.
    Or(Vec<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// Evaluate against a tuple: true iff the predicate is *definitely*
    /// true under three-valued logic (UNKNOWN never selects).
    ///
    /// # Panics
    /// Panics if an attribute position is out of bounds; positions are
    /// validated at view-build time.
    pub fn eval(&self, tuple: &Tuple) -> bool {
        self.eval3(tuple) == Some(true)
    }

    /// [`Predicate::eval`] over the attributes `at` reads by position:
    /// a chain of rows before one tuple is built of them.
    pub(crate) fn eval_at<'v>(&self, at: &impl Fn(usize) -> &'v Value) -> bool {
        self.eval3_at(at) == Some(true)
    }

    /// Three-valued evaluation: `Some(true)` / `Some(false)` /
    /// `None` (UNKNOWN — a comparison touched NULL or mismatched types).
    ///
    /// Kleene semantics: `And` is false if any conjunct is false, else
    /// UNKNOWN if any is UNKNOWN; `Or` is true if any disjunct is true,
    /// else UNKNOWN if any is UNKNOWN; `Not` maps UNKNOWN to UNKNOWN.
    ///
    /// # Panics
    /// Panics if an attribute position is out of bounds; positions are
    /// validated at view-build time.
    pub fn eval3(&self, tuple: &Tuple) -> Option<bool> {
        self.eval3_at(&|k| tuple.at(k))
    }

    fn eval3_at<'v>(&self, at: &impl Fn(usize) -> &'v Value) -> Option<bool> {
        match self {
            Predicate::True => Some(true),
            Predicate::False => Some(false),
            Predicate::Cmp { attr, op, value } => at(*attr).sql_cmp(value).map(|ord| op.test(ord)),
            Predicate::AttrCmp { left, op, right } => {
                at(*left).sql_cmp(at(*right)).map(|ord| op.test(ord))
            }
            Predicate::And(ps) => {
                let mut unknown = false;
                for p in ps {
                    match p.eval3_at(at) {
                        Some(false) => return Some(false),
                        None => unknown = true,
                        Some(true) => {}
                    }
                }
                if unknown {
                    None
                } else {
                    Some(true)
                }
            }
            Predicate::Or(ps) => {
                let mut unknown = false;
                for p in ps {
                    match p.eval3_at(at) {
                        Some(true) => return Some(true),
                        None => unknown = true,
                        Some(false) => {}
                    }
                }
                if unknown {
                    None
                } else {
                    Some(false)
                }
            }
            Predicate::Not(p) => p.eval3_at(at).map(|b| !b),
        }
    }

    /// Largest attribute position referenced, if any — used for validation.
    pub fn max_attr(&self) -> Option<usize> {
        match self {
            Predicate::True | Predicate::False => None,
            Predicate::Cmp { attr, .. } => Some(*attr),
            Predicate::AttrCmp { left, right, .. } => Some((*left).max(*right)),
            Predicate::And(ps) | Predicate::Or(ps) => {
                ps.iter().filter_map(Predicate::max_attr).max()
            }
            Predicate::Not(p) => p.max_attr(),
        }
    }

    /// Rough serialized size in bytes, for network-cost accounting when
    /// a predicate rides on a query message: one tag byte per node plus
    /// the operand widths (attribute positions as u32, constants per
    /// [`Value::size_bytes`]).
    pub fn size_bytes(&self) -> usize {
        match self {
            Predicate::True | Predicate::False => 1,
            Predicate::Cmp { value, .. } => 1 + 4 + 1 + value.size_bytes(),
            Predicate::AttrCmp { .. } => 1 + 4 + 1 + 4,
            Predicate::And(ps) | Predicate::Or(ps) => {
                1 + ps.iter().map(Predicate::size_bytes).sum::<usize>()
            }
            Predicate::Not(p) => 1 + p.size_bytes(),
        }
    }

    /// Shift every attribute reference by `offset` — used when a
    /// per-relation predicate is embedded into a composite-width context.
    pub fn shifted(&self, offset: usize) -> Predicate {
        match self {
            Predicate::True => Predicate::True,
            Predicate::False => Predicate::False,
            Predicate::Cmp { attr, op, value } => Predicate::Cmp {
                attr: attr + offset,
                op: *op,
                value: value.clone(),
            },
            Predicate::AttrCmp { left, op, right } => Predicate::AttrCmp {
                left: left + offset,
                op: *op,
                right: right + offset,
            },
            Predicate::And(ps) => Predicate::And(ps.iter().map(|p| p.shifted(offset)).collect()),
            Predicate::Or(ps) => Predicate::Or(ps.iter().map(|p| p.shifted(offset)).collect()),
            Predicate::Not(p) => Predicate::Not(Box::new(p.shifted(offset))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tup;

    #[test]
    fn constant_comparison() {
        let p = Predicate::Cmp {
            attr: 0,
            op: CmpOp::Gt,
            value: Value::Int(5),
        };
        assert!(p.eval(&tup![6, 0]));
        assert!(!p.eval(&tup![5, 0]));
    }

    #[test]
    fn attr_comparison() {
        let p = Predicate::AttrCmp {
            left: 0,
            op: CmpOp::Eq,
            right: 1,
        };
        assert!(p.eval(&tup![3, 3]));
        assert!(!p.eval(&tup![3, 4]));
    }

    #[test]
    fn mismatched_types_are_unknown_and_never_select() {
        let p = Predicate::Cmp {
            attr: 0,
            op: CmpOp::Eq,
            value: Value::str("3"),
        };
        assert_eq!(p.eval3(&tup![3]), None);
        assert!(!p.eval(&tup![3]));
        // NOT UNKNOWN is still UNKNOWN — negation must not select either.
        let not = Predicate::Not(Box::new(p));
        assert_eq!(not.eval3(&tup![3]), None);
        assert!(!not.eval(&tup![3]));
    }

    #[test]
    fn null_comparisons_are_unknown_under_not() {
        // σ_¬(A < NULL): the comparison is UNKNOWN, so neither the
        // predicate nor its negation selects the tuple.
        let lt_null = Predicate::Cmp {
            attr: 0,
            op: CmpOp::Lt,
            value: Value::Null,
        };
        let t = tup![3];
        assert_eq!(lt_null.eval3(&t), None);
        assert!(!lt_null.eval(&t));
        let neg = Predicate::Not(Box::new(lt_null));
        assert_eq!(neg.eval3(&t), None);
        assert!(!neg.eval(&t));

        // NULL attribute against a constant behaves the same.
        let a_eq_3 = Predicate::Cmp {
            attr: 0,
            op: CmpOp::Eq,
            value: Value::Int(3),
        };
        let null_tup = Tuple::new(vec![Value::Null]);
        assert_eq!(a_eq_3.eval3(&null_tup), None);
        assert!(!Predicate::Not(Box::new(a_eq_3)).eval(&null_tup));
    }

    #[test]
    fn null_under_and_or_follows_kleene() {
        let unknown = Predicate::Cmp {
            attr: 0,
            op: CmpOp::Eq,
            value: Value::Null,
        };
        let yes = Predicate::True;
        let no = Predicate::False;
        let t = tup![1];

        // AND: false dominates UNKNOWN; true AND UNKNOWN = UNKNOWN.
        assert_eq!(
            Predicate::And(vec![no.clone(), unknown.clone()]).eval3(&t),
            Some(false)
        );
        assert_eq!(
            Predicate::And(vec![yes.clone(), unknown.clone()]).eval3(&t),
            None
        );
        assert!(!Predicate::And(vec![yes.clone(), unknown.clone()]).eval(&t));

        // OR: true dominates UNKNOWN; false OR UNKNOWN = UNKNOWN (does
        // not select).
        assert_eq!(
            Predicate::Or(vec![yes, unknown.clone()]).eval3(&t),
            Some(true)
        );
        assert_eq!(Predicate::Or(vec![no, unknown.clone()]).eval3(&t), None);
        assert!(!Predicate::Or(vec![Predicate::False, unknown.clone()]).eval(&t));

        // De-Morgan-ish sanity: ¬(UNKNOWN OR false) is UNKNOWN too.
        let neg = Predicate::Not(Box::new(Predicate::Or(vec![unknown, Predicate::False])));
        assert_eq!(neg.eval3(&t), None);
        assert!(!neg.eval(&t));
    }

    #[test]
    fn attr_cmp_with_null_attr_is_unknown() {
        let p = Predicate::AttrCmp {
            left: 0,
            op: CmpOp::Ne,
            right: 1,
        };
        let t = Tuple::new(vec![Value::Int(1), Value::Null]);
        assert_eq!(p.eval3(&t), None);
        assert!(!p.eval(&t));
        assert!(!Predicate::Not(Box::new(p)).eval(&t));
    }

    #[test]
    fn boolean_connectives() {
        let gt1 = Predicate::Cmp {
            attr: 0,
            op: CmpOp::Gt,
            value: Value::Int(1),
        };
        let lt9 = Predicate::Cmp {
            attr: 0,
            op: CmpOp::Lt,
            value: Value::Int(9),
        };
        let band = Predicate::And(vec![gt1.clone(), lt9.clone()]);
        let bor = Predicate::Or(vec![gt1, lt9]);
        assert!(band.eval(&tup![5]));
        assert!(!band.eval(&tup![0]));
        assert!(bor.eval(&tup![0]));
        assert!(Predicate::And(vec![]).eval(&tup![0])); // vacuous truth
        assert!(!Predicate::Or(vec![]).eval(&tup![0]));
    }

    #[test]
    fn all_operators() {
        use CmpOp::*;
        let t = tup![5];
        let mk = |op| Predicate::Cmp {
            attr: 0,
            op,
            value: Value::Int(5),
        };
        assert!(mk(Eq).eval(&t));
        assert!(!mk(Ne).eval(&t));
        assert!(!mk(Lt).eval(&t));
        assert!(mk(Le).eval(&t));
        assert!(!mk(Gt).eval(&t));
        assert!(mk(Ge).eval(&t));
    }

    #[test]
    fn shifted_moves_references() {
        let p = Predicate::AttrCmp {
            left: 0,
            op: CmpOp::Lt,
            right: 1,
        };
        let q = p.shifted(2);
        assert_eq!(q.max_attr(), Some(3));
        assert!(q.eval(&tup![9, 9, 1, 2]));
    }

    #[test]
    fn max_attr_traverses() {
        let p = Predicate::And(vec![
            Predicate::Cmp {
                attr: 4,
                op: CmpOp::Eq,
                value: Value::Int(0),
            },
            Predicate::Not(Box::new(Predicate::AttrCmp {
                left: 7,
                op: CmpOp::Ne,
                right: 2,
            })),
        ]);
        assert_eq!(p.max_attr(), Some(7));
        assert_eq!(Predicate::True.max_attr(), None);
    }
}
