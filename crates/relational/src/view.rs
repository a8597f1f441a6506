//! SPJ chain view definitions.
//!
//! The paper's view function is
//! `V = Π_ProjAttr σ_SelectCond (R_1 ⋈ … ⋈ R_n)` with one base relation per
//! data source. The sweep algorithms evaluate the join *as a chain*, left
//! then right from the updated relation, so the view definition here is a
//! **join chain**: equi-join conditions connect adjacent relations only.
//! Selections are split into per-relation local parts (pushed to the
//! sources) and an optional residual over the full joined width; the final
//! projection may drop keys (SWEEP does not need them).

use crate::error::RelationalError;
use crate::predicate::{CmpOp, Predicate};
use crate::schema::Schema;
use crate::value::Value;
use std::fmt;

/// Equi-join condition between adjacent chain relations `R_k` and `R_{k+1}`:
/// a conjunction of attribute-equality pairs, positions local to each side.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JoinCond {
    /// `(attr position in R_k, attr position in R_{k+1})` pairs.
    pub pairs: Vec<(usize, usize)>,
}

impl JoinCond {
    /// A single-pair equi-join.
    pub fn on(left_attr: usize, right_attr: usize) -> Self {
        JoinCond {
            pairs: vec![(left_attr, right_attr)],
        }
    }

    /// Cross product (no condition) — legal but usually a modelling error.
    pub fn cross() -> Self {
        JoinCond { pairs: Vec::new() }
    }
}

/// A validated SPJ chain view over `n` base relations.
#[derive(Clone, Debug)]
pub struct ViewDef {
    schemas: Vec<Schema>,
    joins: Vec<JoinCond>,
    local_selects: Vec<Predicate>,
    residual: Predicate,
    projection: Vec<usize>,
    offsets: Vec<usize>,
    total_arity: usize,
}

impl ViewDef {
    /// Number of base relations (= number of data sources), `n ≥ 1`.
    pub fn num_relations(&self) -> usize {
        self.schemas.len()
    }

    /// Schema of relation `i` (0-based chain position).
    pub fn schema(&self, i: usize) -> &Schema {
        &self.schemas[i]
    }

    /// All schemas in chain order.
    pub fn schemas(&self) -> &[Schema] {
        &self.schemas
    }

    /// Join condition between relations `k` and `k+1`.
    pub fn join_cond(&self, k: usize) -> &JoinCond {
        &self.joins[k]
    }

    /// Local selection for relation `i`.
    pub fn local_select(&self, i: usize) -> &Predicate {
        &self.local_selects[i]
    }

    /// Residual selection over the full concatenated width.
    pub fn residual(&self) -> &Predicate {
        &self.residual
    }

    /// Projection positions into the full concatenated tuple.
    pub fn projection(&self) -> &[usize] {
        &self.projection
    }

    /// Offset of relation `i`'s first attribute within the full tuple.
    pub fn offset(&self, i: usize) -> usize {
        self.offsets[i]
    }

    /// Width of the full (pre-projection) joined tuple.
    pub fn total_arity(&self) -> usize {
        self.total_arity
    }

    /// The bare join chain under this view: the same relations and join
    /// conditions, no selection and the identity projection.
    pub fn chain(&self) -> ViewDef {
        ViewDef {
            local_selects: vec![Predicate::True; self.num_relations()],
            residual: Predicate::True,
            projection: (0..self.total_arity).collect(),
            ..self.clone()
        }
    }

    /// Resolve a chain position by relation name.
    pub fn relation_index(&self, name: &str) -> Result<usize, RelationalError> {
        self.schemas
            .iter()
            .position(|s| s.name() == name)
            .ok_or_else(|| RelationalError::UnknownRelation {
                relation: name.to_string(),
            })
    }

    /// Resolve a qualified `"Rel.Attr"` reference to a global position.
    #[cfg(test)]
    pub(crate) fn resolve_qualified(&self, qualified: &str) -> Result<usize, RelationalError> {
        let (rel, attr) =
            qualified
                .split_once('.')
                .ok_or_else(|| RelationalError::InvalidViewDef {
                    reason: format!("expected Rel.Attr, got {qualified:?}"),
                })?;
        let i = self.relation_index(rel)?;
        let a = self.schemas[i].attr_index(attr)?;
        Ok(self.offsets[i] + a)
    }

    /// Human-readable name of a global attribute position.
    pub fn attr_name(&self, global: usize) -> String {
        for (i, s) in self.schemas.iter().enumerate() {
            let off = self.offsets[i];
            if global >= off && global < off + s.arity() {
                return format!("{}.{}", s.name(), s.attrs()[global - off]);
            }
        }
        format!("?{global}")
    }
}

impl fmt::Display for ViewDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Π[")?;
        for (i, &p) in self.projection.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", self.attr_name(p))?;
        }
        write!(f, "](")?;
        for (i, s) in self.schemas.iter().enumerate() {
            if i > 0 {
                write!(f, " ⋈ ")?;
            }
            write!(f, "{s}")?;
        }
        write!(f, ")")
    }
}

/// Builder for [`ViewDef`], resolving all names to positions and validating
/// the chain structure.
///
/// ```
/// use dw_relational::{Schema, ViewDefBuilder};
/// let view = ViewDefBuilder::new()
///     .relation(Schema::new("R1", ["A", "B"]).unwrap())
///     .relation(Schema::new("R2", ["C", "D"]).unwrap())
///     .relation(Schema::new("R3", ["E", "F"]).unwrap())
///     .join("R1.B", "R2.C")
///     .join("R2.D", "R3.E")
///     .project(["R2.D", "R3.F"])
///     .build()
///     .unwrap();
/// assert_eq!(view.num_relations(), 3);
/// ```
#[derive(Default)]
pub struct ViewDefBuilder {
    schemas: Vec<Schema>,
    join_specs: Vec<(String, String)>,
    local_selects: Vec<(String, String, CmpOp, Value)>,
    residual_specs: Vec<(String, CmpOp, String)>,
    projection_specs: Vec<String>,
}

impl ViewDefBuilder {
    /// Fresh builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append the next relation in the chain (chain order = source order).
    pub fn relation(mut self, schema: Schema) -> Self {
        self.schemas.push(schema);
        self
    }

    /// Add an equi-join pair, written with qualified names
    /// (`"R1.B", "R2.C"`). The two relations must be adjacent in the chain;
    /// multiple pairs between the same pair of relations form a conjunction.
    pub fn join(mut self, left: impl Into<String>, right: impl Into<String>) -> Self {
        self.join_specs.push((left.into(), right.into()));
        self
    }

    /// Add a local selection `Rel.Attr <op> constant`, pushed down to the
    /// source holding `Rel`.
    pub fn select(
        mut self,
        qualified: impl Into<String>,
        op: CmpOp,
        value: impl Into<Value>,
    ) -> Self {
        let q = qualified.into();
        let (rel, attr) = match q.split_once('.') {
            Some((r, a)) => (r.to_string(), a.to_string()),
            None => (q.clone(), String::new()), // caught in build()
        };
        self.local_selects.push((rel, attr, op, value.into()));
        self
    }

    /// Add a residual comparison between two qualified attributes, applied
    /// after the full join (can span non-adjacent relations).
    pub fn select_across(
        mut self,
        left: impl Into<String>,
        op: CmpOp,
        right: impl Into<String>,
    ) -> Self {
        self.residual_specs.push((left.into(), op, right.into()));
        self
    }

    /// Set the projection list (qualified names, in output order).
    pub fn project<I, S>(mut self, attrs: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.projection_specs = attrs.into_iter().map(Into::into).collect();
        self
    }

    /// Validate and produce the view definition.
    pub fn build(self) -> Result<ViewDef, RelationalError> {
        if self.schemas.is_empty() {
            return Err(RelationalError::InvalidViewDef {
                reason: "a view needs at least one relation".into(),
            });
        }
        for (i, s) in self.schemas.iter().enumerate() {
            if self.schemas[..i].iter().any(|t| t.name() == s.name()) {
                return Err(RelationalError::InvalidViewDef {
                    reason: format!("relation {} appears twice in the chain", s.name()),
                });
            }
        }
        let n = self.schemas.len();
        let mut offsets = Vec::with_capacity(n);
        let mut total = 0usize;
        for s in &self.schemas {
            offsets.push(total);
            total += s.arity();
        }

        let find_rel = |name: &str| -> Result<usize, RelationalError> {
            self.schemas
                .iter()
                .position(|s| s.name() == name)
                .ok_or_else(|| RelationalError::UnknownRelation {
                    relation: name.to_string(),
                })
        };
        let split = |q: &str| -> Result<(String, String), RelationalError> {
            q.split_once('.')
                .map(|(r, a)| (r.to_string(), a.to_string()))
                .ok_or_else(|| RelationalError::InvalidViewDef {
                    reason: format!("expected Rel.Attr, got {q:?}"),
                })
        };

        // Join conditions: each spec must connect adjacent relations.
        let mut joins: Vec<JoinCond> = (0..n.saturating_sub(1))
            .map(|_| JoinCond::cross())
            .collect();
        for (lq, rq) in &self.join_specs {
            let (lrel, lattr) = split(lq)?;
            let (rrel, rattr) = split(rq)?;
            let li = find_rel(&lrel)?;
            let ri = find_rel(&rrel)?;
            let (li, ri, lattr, rattr) = if li + 1 == ri {
                (li, ri, lattr, rattr)
            } else if ri + 1 == li {
                (ri, li, rattr, lattr)
            } else {
                return Err(RelationalError::InvalidViewDef {
                    reason: format!(
                        "join {lq} = {rq} does not connect adjacent chain relations \
                         (positions {li} and {ri}); reorder the chain"
                    ),
                });
            };
            let la = self.schemas[li].attr_index(&lattr)?;
            let ra = self.schemas[ri].attr_index(&rattr)?;
            joins[li].pairs.push((la, ra));
        }

        // Local selections.
        let mut local_selects: Vec<Vec<Predicate>> = vec![Vec::new(); n];
        for (rel, attr, op, value) in &self.local_selects {
            if attr.is_empty() {
                return Err(RelationalError::InvalidViewDef {
                    reason: format!("selection on {rel:?} is not a qualified Rel.Attr"),
                });
            }
            let i = find_rel(rel)?;
            let a = self.schemas[i].attr_index(attr)?;
            local_selects[i].push(Predicate::Cmp {
                attr: a,
                op: *op,
                value: value.clone(),
            });
        }
        let local_selects: Vec<Predicate> = local_selects
            .into_iter()
            .map(|ps| {
                if ps.is_empty() {
                    Predicate::True
                } else {
                    Predicate::And(ps)
                }
            })
            .collect();

        // Residual predicates over the full width.
        let resolve_global = |q: &str| -> Result<usize, RelationalError> {
            let (rel, attr) = split(q)?;
            let i = find_rel(&rel)?;
            let a = self.schemas[i].attr_index(&attr)?;
            Ok(offsets[i] + a)
        };
        let mut residuals = Vec::new();
        for (lq, op, rq) in &self.residual_specs {
            residuals.push(Predicate::AttrCmp {
                left: resolve_global(lq)?,
                op: *op,
                right: resolve_global(rq)?,
            });
        }
        let residual = if residuals.is_empty() {
            Predicate::True
        } else {
            Predicate::And(residuals)
        };

        // Projection (defaults to the full width when unspecified).
        let projection: Vec<usize> = if self.projection_specs.is_empty() {
            (0..total).collect()
        } else {
            self.projection_specs
                .iter()
                .map(|q| resolve_global(q))
                .collect::<Result<_, _>>()?
        };

        Ok(ViewDef {
            schemas: self.schemas,
            joins,
            local_selects,
            residual,
            projection,
            offsets,
            total_arity: total,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_chain() -> ViewDef {
        ViewDefBuilder::new()
            .relation(Schema::new("R1", ["A", "B"]).unwrap())
            .relation(Schema::new("R2", ["C", "D"]).unwrap())
            .relation(Schema::new("R3", ["E", "F"]).unwrap())
            .join("R1.B", "R2.C")
            .join("R2.D", "R3.E")
            .project(["R2.D", "R3.F"])
            .build()
            .unwrap()
    }

    #[test]
    fn paper_example_view_builds() {
        let v = three_chain();
        assert_eq!(v.num_relations(), 3);
        assert_eq!(v.total_arity(), 6);
        assert_eq!(v.offset(1), 2);
        assert_eq!(v.join_cond(0).pairs, vec![(1, 0)]); // R1.B = R2.C
        assert_eq!(v.join_cond(1).pairs, vec![(1, 0)]); // R2.D = R3.E
        assert_eq!(v.projection(), &[3, 5]); // R2.D, R3.F
    }

    #[test]
    fn join_order_can_be_written_backwards() {
        let v = ViewDefBuilder::new()
            .relation(Schema::new("R1", ["A"]).unwrap())
            .relation(Schema::new("R2", ["B"]).unwrap())
            .join("R2.B", "R1.A") // reversed
            .build()
            .unwrap();
        assert_eq!(v.join_cond(0).pairs, vec![(0, 0)]);
    }

    #[test]
    fn non_adjacent_join_rejected() {
        let err = ViewDefBuilder::new()
            .relation(Schema::new("R1", ["A"]).unwrap())
            .relation(Schema::new("R2", ["B"]).unwrap())
            .relation(Schema::new("R3", ["C"]).unwrap())
            .join("R1.A", "R3.C")
            .build()
            .unwrap_err();
        assert!(matches!(err, RelationalError::InvalidViewDef { .. }));
    }

    #[test]
    fn duplicate_relation_rejected() {
        let err = ViewDefBuilder::new()
            .relation(Schema::new("R", ["A"]).unwrap())
            .relation(Schema::new("R", ["B"]).unwrap())
            .build()
            .unwrap_err();
        assert!(matches!(err, RelationalError::InvalidViewDef { .. }));
    }

    #[test]
    fn empty_view_rejected() {
        assert!(ViewDefBuilder::new().build().is_err());
    }

    #[test]
    fn default_projection_is_identity() {
        let v = ViewDefBuilder::new()
            .relation(Schema::new("R1", ["A", "B"]).unwrap())
            .build()
            .unwrap();
        assert_eq!(v.projection(), &[0, 1]);
    }

    #[test]
    fn local_select_resolved_per_relation() {
        let v = ViewDefBuilder::new()
            .relation(Schema::new("R1", ["A", "B"]).unwrap())
            .relation(Schema::new("R2", ["C"]).unwrap())
            .join("R1.B", "R2.C")
            .select("R1.A", CmpOp::Gt, 10)
            .build()
            .unwrap();
        assert!(matches!(v.local_select(0), Predicate::And(_)));
        assert_eq!(v.local_select(1), &Predicate::True);
    }

    #[test]
    fn select_across_builds_residual() {
        let v = ViewDefBuilder::new()
            .relation(Schema::new("R1", ["A"]).unwrap())
            .relation(Schema::new("R2", ["B"]).unwrap())
            .relation(Schema::new("R3", ["C"]).unwrap())
            .join("R1.A", "R2.B")
            .join("R2.B", "R3.C")
            .select_across("R1.A", CmpOp::Lt, "R3.C")
            .build()
            .unwrap();
        assert_ne!(v.residual(), &Predicate::True);
    }

    #[test]
    fn resolve_qualified_and_names() {
        let v = three_chain();
        assert_eq!(v.resolve_qualified("R3.F").unwrap(), 5);
        assert_eq!(v.attr_name(5), "R3.F");
        assert!(v.resolve_qualified("R9.X").is_err());
        assert!(v.resolve_qualified("nodot").is_err());
    }

    #[test]
    fn display_is_readable() {
        let v = three_chain();
        let s = format!("{v}");
        assert!(s.contains("R2.D"));
        assert!(s.contains("⋈"));
    }
}
