//! Multi-view scenario generation: one shared base chain, many
//! registered views over contiguous spans of it.
//!
//! A multi-view warehouse hosts `V` SPJ views `Π σ (R_lo ⋈ … ⋈ R_hi)`
//! over one global chain `R_0 ⋈ … ⋈ R_{n−1}`. Each [`ViewSpec`] names a
//! contiguous span of the chain, its own per-relation selections, its
//! own projection, and its own maintenance cadence ([`ViewPolicy`]).
//! [`MultiViewConfig::generate`] reuses the single-view stream machinery
//! ([`crate::StreamConfig`]) for the base relations and the update
//! stream, then seeds a random (but always valid) set of view specs on
//! top.

use crate::derived::{DerivedOp, DerivedSpec};
use crate::scenario::ScheduledTxn;
use crate::stream::StreamConfig;
use dw_relational::{
    AggFn, AggregateSpec, Bag, CmpOp, KeySpec, Predicate, RelationalError, Value, ViewDef,
    ViewDefBuilder,
};
use dw_rng::Rng64;

/// How a registered view wants its maintenance installed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ViewPolicy {
    /// SWEEP cadence: one install per update, complete consistency.
    Sweep,
    /// Deferred refresh: install every `batch` relevant updates (and at
    /// drain; `0` = only at drain) — strong consistency, maximal
    /// staleness.
    Deferred {
        /// Install after this many relevant updates accumulate.
        batch: usize,
    },
}

impl ViewPolicy {
    /// How many consumed updates a view batches per install: `1` for
    /// SWEEP, `batch` when deferred, `0` for no bound (only at drain).
    pub fn every(self) -> usize {
        match self {
            ViewPolicy::Sweep => 1,
            ViewPolicy::Deferred { batch } => batch,
        }
    }
}

/// One registered view: a contiguous span `[lo, hi]` of the base chain
/// with per-relation selections, a projection, and a maintenance policy.
#[derive(Clone, Debug)]
pub struct ViewSpec {
    /// Display name (unique per scenario by convention, not enforced).
    pub name: String,
    /// First base relation in the span (inclusive, 0-based chain index).
    pub lo: usize,
    /// Last base relation in the span (inclusive).
    pub hi: usize,
    /// Extra local selections: `(chain index, attr index within that
    /// relation, op, value)`. Applied on top of the base chain's
    /// (selection-free) relations.
    pub selects: Vec<(usize, usize, CmpOp, Value)>,
    /// Residual comparisons between two attributes: `(chain index, attr
    /// index, op, chain index, attr index)`, applied after the span's join
    /// (the two may sit in any relations of the span).
    pub residual: Vec<(usize, usize, CmpOp, usize, usize)>,
    /// Qualified projection attributes (`"R2.B"`); `None` keeps every
    /// column of the span.
    pub projection: Option<Vec<String>>,
    /// Maintenance cadence.
    pub policy: ViewPolicy,
}

impl ViewSpec {
    /// A full-width, selection-free, identity-projection view of the
    /// whole chain under SWEEP — the paper's single-view setup.
    pub fn full(name: impl Into<String>, n: usize) -> ViewSpec {
        ViewSpec {
            name: name.into(),
            lo: 0,
            hi: n.saturating_sub(1),
            selects: Vec::new(),
            residual: Vec::new(),
            projection: None,
            policy: ViewPolicy::Sweep,
        }
    }

    /// The spec of `view` over the whole of its own chain
    /// ([`ViewDef::chain`]) under SWEEP: `ViewSpec::of(name, &v)?
    /// .compile(&v.chain())` evaluates as `v` does. A view holds the
    /// conjunctions [`ViewDefBuilder`] builds — per-relation
    /// `attr op constant`, residual `attr op attr` — and any other
    /// predicate shape is refused.
    pub fn of(name: impl Into<String>, view: &ViewDef) -> Result<ViewSpec, RelationalError> {
        let n = view.num_relations();
        let shape = |what: &str, p: &Predicate| RelationalError::InvalidViewDef {
            reason: format!("{what} {p:?} is not a conjunction of comparisons"),
        };
        fn conjuncts(p: &Predicate) -> Option<&[Predicate]> {
            match p {
                Predicate::True => Some(&[]),
                Predicate::And(ps) => Some(ps),
                _ => None,
            }
        }
        // A global attribute position as `(chain index, attr index)`.
        let locate = |global: usize| {
            let k = (0..n)
                .rev()
                .find(|&k| view.offset(k) <= global)
                .unwrap_or(0);
            (k, global - view.offset(k))
        };
        let mut spec = ViewSpec::full(name, n);
        for k in 0..n {
            let local = view.local_select(k);
            for p in conjuncts(local).ok_or_else(|| shape("selection", local))? {
                let Predicate::Cmp { attr, op, value } = p else {
                    return Err(shape("selection", local));
                };
                spec.selects.push((k, *attr, *op, value.clone()));
            }
        }
        let residual = view.residual();
        for p in conjuncts(residual).ok_or_else(|| shape("residual", residual))? {
            let Predicate::AttrCmp { left, op, right } = p else {
                return Err(shape("residual", residual));
            };
            let ((lr, la), (rr, ra)) = (locate(*left), locate(*right));
            spec.residual.push((lr, la, *op, rr, ra));
        }
        let identity = view.projection().iter().copied().eq(0..view.total_arity());
        if !identity {
            let names = view.projection().iter().map(|&p| view.attr_name(p));
            spec.projection = Some(names.collect());
        }
        Ok(spec)
    }

    /// Compile this spec into a self-contained [`ViewDef`] over the span
    /// `[lo, hi]` of `base`: relation `k` of the result is base relation
    /// `lo + k`, with the base's join conditions, this spec's selections
    /// and projection. The base must itself be selection-free with an
    /// identity projection (the shared-sweep contract).
    pub fn compile(&self, base: &ViewDef) -> Result<ViewDef, RelationalError> {
        if self.lo > self.hi || self.hi >= base.num_relations() {
            return Err(RelationalError::BadRange {
                reason: format!(
                    "view '{}' span [{}, {}] outside base chain of {} relations",
                    self.name,
                    self.lo,
                    self.hi,
                    base.num_relations()
                ),
            });
        }
        let mut b = ViewDefBuilder::new();
        for k in self.lo..=self.hi {
            b = b.relation(base.schema(k).clone());
        }
        for k in self.lo..self.hi {
            let left = base.schema(k);
            let right = base.schema(k + 1);
            for &(la, ra) in &base.join_cond(k).pairs {
                b = b.join(
                    format!("{}.{}", left.name(), left.attrs()[la]),
                    format!("{}.{}", right.name(), right.attrs()[ra]),
                );
            }
        }
        let qualified = |rel: usize, attr: usize| {
            if rel < self.lo || rel > self.hi {
                return Err(RelationalError::BadRange {
                    reason: format!(
                        "view '{}' compares relation {} outside its span [{}, {}]",
                        self.name, rel, self.lo, self.hi
                    ),
                });
            }
            let schema = base.schema(rel);
            let name =
                schema
                    .attrs()
                    .get(attr)
                    .ok_or_else(|| RelationalError::UnknownAttribute {
                        relation: schema.name().to_string(),
                        attribute: format!("#{attr}"),
                    })?;
            Ok(format!("{}.{name}", schema.name()))
        };
        for &(rel, attr, op, ref value) in &self.selects {
            b = b.select(qualified(rel, attr)?, op, value.clone());
        }
        for &(lr, la, op, rr, ra) in &self.residual {
            b = b.select_across(qualified(lr, la)?, op, qualified(rr, ra)?);
        }
        if let Some(proj) = &self.projection {
            b = b.project(proj.iter().cloned());
        }
        b.build()
    }

    /// Does this view reference base relation `j`?
    pub fn references(&self, j: usize) -> bool {
        self.lo <= j && j <= self.hi
    }
}

/// A generated multi-view scenario: the shared base chain (selection-free,
/// identity projection), initial relation contents, the scheduled update
/// stream, and the view specs registered on top.
#[derive(Clone, Debug)]
pub struct MultiViewScenario {
    /// The base chain all views are spans of. No selections, identity
    /// projection — per-view σ/Π happen at the warehouse.
    pub base: ViewDef,
    /// Declared keys per base relation.
    pub keys: KeySpec,
    /// Initial contents per base relation.
    pub initial: Vec<Bag>,
    /// The scheduled source transactions, in time order.
    pub txns: Vec<ScheduledTxn>,
    /// Registered views.
    pub views: Vec<ViewSpec>,
    /// Derived views stacked on top (registered after `views`, in order —
    /// each parent precedes its children, so registration order is a
    /// valid topological order).
    pub derived: Vec<DerivedSpec>,
}

impl MultiViewScenario {
    /// Number of scheduled transactions.
    pub fn txn_count(&self) -> usize {
        self.txns.len()
    }
}

/// Configuration for random multi-view scenarios.
#[derive(Clone, Debug)]
pub struct MultiViewConfig {
    /// Base-chain / update-stream shape (its `seed` drives the stream).
    pub stream: StreamConfig,
    /// How many views to register.
    pub n_views: usize,
    /// Seed for the view-set draw (independent of the stream seed).
    pub view_seed: u64,
    /// When true every view spans the full chain (the E14 message-cost
    /// setup); otherwise spans are random contiguous sub-chains.
    pub full_span: bool,
    /// How many derived (view-over-view) specs to stack on top of the
    /// base views. Zero keeps the flat PR 3 scenario shape.
    pub n_derived: usize,
    /// Seed for the derived-view draw (independent of `view_seed`).
    pub derived_seed: u64,
}

impl Default for MultiViewConfig {
    fn default() -> Self {
        MultiViewConfig {
            stream: StreamConfig::default(),
            n_views: 3,
            view_seed: 7,
            full_span: false,
            n_derived: 0,
            derived_seed: 7,
        }
    }
}

impl MultiViewConfig {
    /// Generate the base chain, the update stream, and a random view set.
    pub fn generate(&self) -> Result<MultiViewScenario, RelationalError> {
        let single = self.stream.generate()?;
        let base = single.view.chain();

        let mut r = Rng64::new(self.view_seed ^ 0x5EED_B00C);
        let views: Vec<ViewSpec> = (0..self.n_views)
            .map(|v| self.arb_view(&mut r, &base, v))
            .collect();

        // Candidate parents for derived views: every base view's output
        // width, then each derived view as it is drawn (stacks compose).
        let mut parents: Vec<(String, usize)> = Vec::new();
        for spec in &views {
            let width = spec.compile(&base)?.projection().len();
            parents.push((spec.name.clone(), width));
        }
        let mut rd = Rng64::new(self.derived_seed ^ 0x0DA6_0DA6);
        let mut derived = Vec::new();
        for d in 0..self.n_derived {
            if parents.is_empty() {
                break;
            }
            let spec = self.arb_derived(&mut rd, &parents, d);
            let parent_width = parents
                .iter()
                .find(|(n, _)| *n == spec.parent)
                .map(|(_, w)| *w)
                .expect("parent drawn from the candidate list");
            parents.push((spec.name.clone(), spec.op.output_width(parent_width)));
            derived.push(spec);
        }

        Ok(MultiViewScenario {
            base,
            keys: single.keys,
            initial: single.initial,
            txns: single.txns,
            views,
            derived,
        })
    }

    /// Draw one derived spec over a random already-known parent: half σ/Π
    /// (linear — the child's delta is the operator on the parent's
    /// delta), half Σ/group-by (stateful — COUNT plus one of
    /// SUM/MIN/MAX over a random column).
    fn arb_derived(&self, r: &mut Rng64, parents: &[(String, usize)], d: usize) -> DerivedSpec {
        let (parent, width) = parents[r.usize_below(parents.len())].clone();
        let op = if r.usize_below(2) == 0 {
            let mut selects = Vec::new();
            if r.usize_below(2) == 0 {
                let col = r.usize_below(width);
                let threshold = r.i64_in(0, (self.stream.domain / 3).max(1) as i64);
                selects.push((col, CmpOp::Ge, Value::Int(threshold)));
            }
            let projection = if r.usize_below(2) == 0 {
                None
            } else {
                let mut cols: Vec<usize> = (0..width).filter(|_| r.usize_below(2) == 0).collect();
                if cols.is_empty() {
                    cols.push(0);
                }
                Some(cols)
            };
            DerivedOp::Select {
                selects,
                projection,
            }
        } else {
            let group_by = vec![r.usize_below(width)];
            let mut aggs = vec![AggFn::CountRows];
            let col = r.usize_below(width);
            match r.usize_below(3) {
                0 => aggs.push(AggFn::Sum(col)),
                1 => aggs.push(AggFn::Min(col)),
                _ => aggs.push(AggFn::Max(col)),
            }
            DerivedOp::Aggregate(AggregateSpec { group_by, aggs })
        };
        DerivedSpec {
            name: format!("D{d}"),
            parent,
            op,
        }
    }

    fn arb_view(&self, r: &mut Rng64, base: &ViewDef, v: usize) -> ViewSpec {
        let n = base.num_relations();
        let (lo, hi) = if self.full_span || n == 1 {
            (0, n - 1)
        } else {
            let lo = r.usize_below(n);
            let hi = lo + r.usize_below(n - lo);
            (lo, hi)
        };
        // Mild selections: each relation in the span gets one with
        // probability 1/4, keyed on the join-bearing B column so bags
        // stay non-trivial (`B >= threshold` keeps most of the domain).
        let mut selects = Vec::new();
        for k in lo..=hi {
            if r.usize_below(4) == 0 {
                let arity = base.schema(k).arity();
                let attr = arity - 1;
                let threshold = r.i64_in(0, (self.stream.domain / 3).max(1) as i64);
                selects.push((k, attr, CmpOp::Ge, Value::Int(threshold)));
            }
        }
        // Projection: half the views keep everything, the rest project
        // to each span relation's first (key) column plus the last B.
        let projection = if r.usize_below(2) == 0 {
            None
        } else {
            let mut cols: Vec<String> = (lo..=hi)
                .map(|k| {
                    let s = base.schema(k);
                    format!("{}.{}", s.name(), s.attrs()[0])
                })
                .collect();
            let last = base.schema(hi);
            cols.push(format!(
                "{}.{}",
                last.name(),
                last.attrs()[last.arity() - 1]
            ));
            projection_dedup(cols)
        };
        let policy = match r.usize_below(3) {
            0 => ViewPolicy::Sweep,
            1 => ViewPolicy::Deferred { batch: 0 },
            _ => ViewPolicy::Deferred {
                batch: 1 + r.usize_below(4),
            },
        };
        ViewSpec {
            name: format!("V{v}"),
            lo,
            hi,
            selects,
            residual: Vec::new(),
            projection,
            policy,
        }
    }
}

/// Deduplicate while preserving order (qualified names must be unique in
/// a projection list only in the sense of resolving; duplicates are
/// legal but noisy).
fn projection_dedup(cols: Vec<String>) -> Option<Vec<String>> {
    let mut seen = std::collections::HashSet::new();
    let out: Vec<String> = cols
        .into_iter()
        .filter(|c| seen.insert(c.clone()))
        .collect();
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dw_relational::eval_view;

    #[test]
    fn generated_views_compile_against_base() {
        let scenario = MultiViewConfig {
            stream: StreamConfig {
                n_sources: 4,
                updates: 5,
                seed: 3,
                ..Default::default()
            },
            n_views: 6,
            view_seed: 11,
            ..Default::default()
        }
        .generate()
        .unwrap();
        assert_eq!(scenario.views.len(), 6);
        for spec in &scenario.views {
            let local = spec.compile(&scenario.base).unwrap();
            assert_eq!(local.num_relations(), spec.hi - spec.lo + 1);
            // Evaluable over the span's initial bags.
            let refs: Vec<&Bag> = scenario.initial[spec.lo..=spec.hi].iter().collect();
            eval_view(&local, &refs).unwrap();
        }
    }

    #[test]
    fn base_chain_is_selection_free_and_unprojected() {
        let scenario = MultiViewConfig::default().generate().unwrap();
        let base = &scenario.base;
        for k in 0..base.num_relations() {
            assert_eq!(base.local_select(k), &Predicate::True);
        }
        assert_eq!(base.projection().len(), base.total_arity());
    }

    #[test]
    fn full_span_mode_pins_every_view_to_the_whole_chain() {
        let scenario = MultiViewConfig {
            stream: StreamConfig {
                n_sources: 5,
                ..Default::default()
            },
            n_views: 4,
            full_span: true,
            ..Default::default()
        }
        .generate()
        .unwrap();
        for spec in &scenario.views {
            assert_eq!((spec.lo, spec.hi), (0, 4));
        }
    }

    #[test]
    fn out_of_range_span_rejected() {
        let scenario = MultiViewConfig::default().generate().unwrap();
        let bad = ViewSpec {
            lo: 1,
            hi: 99,
            ..ViewSpec::full("bad", 3)
        };
        assert!(bad.compile(&scenario.base).is_err());
        let bad_attr = ViewSpec {
            residual: vec![(0, 0, CmpOp::Lt, 1, 99)],
            ..ViewSpec::full("bad", 3)
        };
        assert!(bad_attr.compile(&scenario.base).is_err());
    }
}
