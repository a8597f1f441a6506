//! Incremental chain-join evaluation: partial deltas, extension joins, and
//! full view evaluation.
//!
//! During a sweep (paper Figure 2), the in-flight view change `ΔV` always
//! covers a *contiguous* range of chain relations
//! `R_lo ⋈ … ⋈ ΔR_i ⋈ … ⋈ R_hi`. Three operations drive everything:
//!
//! * [`PartialDelta::seed`] — start a sweep at the updated relation with
//!   `ΔV = σ_i(ΔR_i)`;
//! * [`extend_partial`] — the `ComputeJoin(ΔV, R)` of Figure 3, performed at
//!   a data source against its base relation, **and** the local
//!   compensation term `ΔR_j ⋈ TempView` of Figure 4, performed at the
//!   warehouse against a concurrent delta (the two are the same join, with a
//!   base bag vs. a delta bag as the neighbor);
//! * [`PartialDelta::finalize`] — apply the residual selection and
//!   projection once the range covers the whole chain.
//!
//! The join itself is written once: [`extend_hop`] computes the hop's
//! geometry and joins the neighbor rows, whether they come from a bag
//! joined for the call (a flat table built without a per-row allocation
//! on the smaller of the partial and the bag, hashed only above a few
//! rows) or from a maintained [`JoinIndex`]; [`merge_pivot`] (§5.3's
//! merge of two legs) joins with the same kernel. A NULL join key matches
//! nothing, as under the residual selection's three-valued logic.
//!
//! Signed multiplicities flow through multiplication, so a delete joined
//! with a delete produces a positive term — exactly the arithmetic the
//! paper's §5.2 example exercises.

use crate::bag::Bag;
use crate::error::RelationalError;
use crate::index::JoinIndex;
use crate::predicate::Predicate;
use crate::tuple::Tuple;
use crate::value::Value;
use crate::view::ViewDef;
use std::borrow::Cow;
use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hash, Hasher};

/// Which side of the current range a neighbor relation is joined on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JoinSide {
    /// Neighbor is `R_{lo-1}`: output tuples are `neighbor ++ partial`.
    Left,
    /// Neighbor is `R_{hi+1}`: output tuples are `partial ++ neighbor`.
    Right,
}

/// A partially evaluated view change: a signed bag whose tuples span the
/// concatenated attributes of chain relations `lo..=hi` (0-based,
/// inclusive).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartialDelta {
    /// First chain position covered.
    pub lo: usize,
    /// Last chain position covered.
    pub hi: usize,
    /// The signed tuples, width = Σ arity(lo..=hi).
    pub bag: Bag,
}

impl PartialDelta {
    /// Start a sweep: apply relation `i`'s local selection to the raw
    /// update `ΔR_i` and wrap it as the range `[i, i]`.
    pub fn seed(view: &ViewDef, i: usize, delta: &Bag) -> Result<PartialDelta, RelationalError> {
        check_rel_index(view, i)?;
        let expected = view.schema(i).arity();
        for (t, _) in delta.iter() {
            if t.arity() != expected {
                return Err(RelationalError::ArityMismatch {
                    context: "PartialDelta::seed",
                    expected,
                    found: t.arity(),
                });
            }
        }
        let sel = view.local_select(i);
        Ok(PartialDelta {
            lo: i,
            hi: i,
            bag: delta.filter(|t| sel.eval(t)),
        })
    }

    /// Width of the composite tuples in this partial delta.
    pub fn width(&self, view: &ViewDef) -> usize {
        (self.lo..=self.hi).map(|k| view.schema(k).arity()).sum()
    }

    /// Does the range cover the entire chain?
    pub fn is_complete(&self, view: &ViewDef) -> bool {
        self.lo == 0 && self.hi + 1 == view.num_relations()
    }

    /// Apply the residual selection and projection, producing the final
    /// view-change bag. Errors unless the range covers the whole chain.
    pub fn finalize(&self, view: &ViewDef) -> Result<Bag, RelationalError> {
        self.check_complete(view)?;
        Ok(select_project(view, Cow::Borrowed(&self.bag)))
    }

    fn check_complete(&self, view: &ViewDef) -> Result<(), RelationalError> {
        if !self.is_complete(view) {
            return Err(RelationalError::BadRange {
                reason: format!(
                    "finalize on range [{},{}] of a {}-relation chain",
                    self.lo,
                    self.hi,
                    view.num_relations()
                ),
            });
        }
        Ok(())
    }

    /// The per-hop on-line correction: subtract an error term computed
    /// from a concurrent source update, `ΔV ← ΔV − err` (Figure 4's
    /// `ΔV − ΔR_j ⋈ TempView`). Both sides are signed bags over the same
    /// range, so the subtraction is one signed sum — there is no
    /// insert/delete case split.
    pub fn compensate(&mut self, err: &PartialDelta) {
        debug_assert_eq!(
            (self.lo, self.hi),
            (err.lo, err.hi),
            "compensation term must cover the partial's range"
        );
        self.bag.subtract(&err.bag);
    }
}

/// `Π(σ(bag))` with the view's residual σ and projection Π, each skipped
/// where it is the identity: a `True` residual keeps every tuple, and the
/// projection `0..total_arity` (exactly that, not merely as wide) maps
/// every tuple to itself.
fn select_project(view: &ViewDef, bag: Cow<'_, Bag>) -> Bag {
    let residual = view.residual();
    let mut out = bag;
    if residual != &Predicate::True {
        out = Cow::Owned(out.filter(|t| residual.eval(t)));
    }
    let projection = view.projection();
    if !projection.iter().copied().eq(0..view.total_arity()) {
        out = Cow::Owned(out.map_tuples(|t| t.project(projection)));
    }
    out.into_owned()
}

fn check_rel_index(view: &ViewDef, i: usize) -> Result<(), RelationalError> {
    if i >= view.num_relations() {
        return Err(RelationalError::BadRange {
            reason: format!(
                "relation index {i} out of range for a {}-relation chain",
                view.num_relations()
            ),
        });
    }
    Ok(())
}

/// Where a hop's neighbor rows come from.
#[derive(Clone, Copy, Debug)]
pub enum Neighbor<'a> {
    /// A bag joined for this one hop, through a table built on the
    /// smaller of it and the partial (one unhashed bucket when that is a
    /// few rows, as a source's `ΔV` is) while the larger streams past it:
    /// a base relation at a source that keeps no index, or a concurrent
    /// `ΔR_j` at the warehouse.
    Bag(&'a Bag),
    /// A [`JoinIndex`] maintained over the (unfiltered) base relation.
    Index(&'a JoinIndex),
}

/// The geometry of one hop of the chain join — which relation is the
/// neighbor, where the join key sits on either side, what range the
/// widened partial covers. The only place `JoinCond` pairs are read.
pub(crate) struct HopGeometry {
    /// Chain position of the neighbor relation.
    pub(crate) nbr: usize,
    /// Join-key columns inside a neighbor tuple.
    pub(crate) nbr_keys: Vec<usize>,
    /// The same key's columns inside the composite partial tuple.
    part_keys: Vec<usize>,
    /// Range of the widened partial.
    lo: usize,
    hi: usize,
}

impl HopGeometry {
    /// The hop that widens a partial over `[lo, hi]` by its neighbor on
    /// `side`; `BadRange` when the range or the neighbor falls off the
    /// chain.
    pub(crate) fn of(
        view: &ViewDef,
        lo: usize,
        hi: usize,
        side: JoinSide,
    ) -> Result<HopGeometry, RelationalError> {
        if lo > hi {
            return Err(RelationalError::BadRange {
                reason: format!("empty partial range [{lo},{hi}]"),
            });
        }
        check_rel_index(view, hi)?;
        // `JoinCond` pairs are (attr in R_k, attr in R_{k+1}). Leftward the
        // neighbor is R_k and the partial starts with R_{k+1} (offset 0);
        // rightward the partial ends with R_k and the neighbor is R_{k+1}.
        match side {
            JoinSide::Left => {
                let nbr = lo.checked_sub(1).ok_or_else(|| RelationalError::BadRange {
                    reason: "no relation to the left of the range".into(),
                })?;
                let (nbr_keys, part_keys) = view.join_cond(nbr).pairs.iter().copied().unzip();
                Ok(HopGeometry {
                    nbr,
                    nbr_keys,
                    part_keys,
                    lo: nbr,
                    hi,
                })
            }
            JoinSide::Right => {
                let nbr = hi + 1;
                if nbr >= view.num_relations() {
                    return Err(RelationalError::BadRange {
                        reason: "no relation to the right of the range".into(),
                    });
                }
                let last_off: usize = (lo..hi).map(|k| view.schema(k).arity()).sum();
                let pairs = view.join_cond(hi).pairs.iter();
                let (nbr_keys, part_keys) = pairs.map(|&(l, r)| (r, last_off + l)).unzip();
                Ok(HopGeometry {
                    nbr,
                    nbr_keys,
                    part_keys,
                    lo,
                    hi: nbr,
                })
            }
        }
    }
}

/// The link that ends a bucket's chain in [`build_and_probe`]'s table.
const END: usize = usize::MAX;

/// The most build rows [`build_and_probe`] keeps in one unhashed bucket:
/// up to this many, comparing a probe row's key columns with every row
/// is cheaper than SipHashing it to pick a bucket (the crossover table in
/// DESIGN.md, "One hop join").
const ONE_BUCKET: usize = 4;

/// What [`hash_join`] produced, and how many rows it put in its table and
/// streamed past it.
struct Joined {
    bag: Bag,
    build_rows: u64,
    probe_rows: u64,
}

/// Join `partial` with the `rows` that are `kept`: every pair whose key
/// columns (`part_keys`, `row_keys`) are equal emits `glue(pt, nt)` at
/// `pc · nc`, so signs multiply.
///
/// The per-call table is built on the input with fewer distinct tuples —
/// `rows` counted before `kept` filters them, a tie going to `partial` —
/// and the other input streams through it. So a source's query (a few
/// `ΔV` rows against all of `R_i`) tables its few rows and streams the
/// relation past them, comparing keys without hashing them while the
/// table is [`ONE_BUCKET`] rows or fewer; every row of `rows` is still
/// visited exactly once, through `kept`, even when `partial` is empty.
/// The two shapes share one build-and-probe loop; when `rows` is the
/// table, a glue adapter swaps the pair back, so the output is
/// `glue(pt, nt)` at `pc · nc` either way.
///
/// A row with a NULL key column joins nothing (SQL's `NULL = NULL` is not
/// true) unless `nulls_join`: the pivot merge matches a tuple to itself.
fn hash_join(
    partial: &Bag,
    part_keys: &[usize],
    rows: &Bag,
    row_keys: &[usize],
    mut kept: impl FnMut(&Tuple) -> bool,
    nulls_join: bool,
    glue: impl Fn(&Tuple, &Tuple) -> Tuple,
) -> Joined {
    let nbr = rows.iter().filter(|&(t, _)| kept(t));
    if partial.distinct_len() <= rows.distinct_len() {
        build_and_probe(partial.iter(), part_keys, nbr, row_keys, nulls_join, glue)
    } else {
        let glue = |nt: &Tuple, pt: &Tuple| glue(pt, nt);
        build_and_probe(nbr, row_keys, partial.iter(), part_keys, nulls_join, glue)
    }
}

/// Table `build` on its `build_keys` columns, then stream `probe` through
/// the table: each pair whose keys are equal emits `glue(bt, pt)` at
/// `bc · pc`.
///
/// The table is flat and borrows its rows: one vector of the build rows
/// chained through power-of-two `heads` and `next` links. A table of at
/// most [`ONE_BUCKET`] rows is one bucket and hashes nothing: no key is
/// drawn, every row's hash is 0, and a probe row compares its key columns
/// with each of those few rows. A larger table hashes each build row's key
/// columns **once** (SipHash under a key drawn for this call, so crafted
/// rows cannot flood one bucket — at worst they lengthen chains in a table
/// of the smaller input); a probe row hashes its key columns the same way
/// and compares columns only when the full 64-bit hashes agree — no key
/// vector, no bucket vector, no rehash. The NULL rule is the probe's: a
/// build row keyed on NULL sits in the table, but no probe row carrying a
/// NULL key reaches it, and a NULL-free key never equals one that holds a
/// NULL.
fn build_and_probe<'b, 'p>(
    build: impl Iterator<Item = (&'b Tuple, i64)>,
    build_keys: &[usize],
    probe: impl Iterator<Item = (&'p Tuple, i64)>,
    probe_keys: &[usize],
    nulls_join: bool,
    glue: impl Fn(&Tuple, &Tuple) -> Tuple,
) -> Joined {
    let (lower, upper) = build.size_hint();
    let mut built = Vec::with_capacity(upper.unwrap_or(lower));
    built.extend(build.map(|(t, c)| (t, c, 0)));
    let n = built.len();
    let (seed, mask) = if n > ONE_BUCKET {
        (Some(RandomState::new()), n.next_power_of_two() - 1)
    } else {
        (None, 0)
    };
    let hash = |t: &Tuple, cols: &[usize]| match &seed {
        None => 0,
        Some(seed) => {
            let mut h = seed.build_hasher();
            for &k in cols {
                t.at(k).hash(&mut h);
            }
            h.finish()
        }
    };
    let mut heads = vec![END; mask + 1];
    let mut next = vec![END; n];
    for (i, (t, _, h)) in built.iter_mut().enumerate() {
        *h = hash(t, build_keys);
        let head = &mut heads[*h as usize & mask];
        next[i] = *head;
        *head = i;
    }
    let (mut bag, mut probe_rows) = (Bag::new(), 0u64);
    for (pt, pc) in probe {
        probe_rows += 1;
        let null = !nulls_join && probe_keys.iter().any(|&k| matches!(pt.at(k), Value::Null));
        if built.is_empty() || null {
            continue;
        }
        let h = hash(pt, probe_keys);
        let mut i = heads[h as usize & mask];
        while let Some(&(bt, bc, bh)) = built.get(i) {
            if bh == h
                && probe_keys
                    .iter()
                    .zip(build_keys)
                    .all(|(&p, &b)| pt.at(p) == bt.at(b))
            {
                bag.add(glue(bt, pt), bc * pc);
            }
            i = next[i];
        }
    }
    Joined {
        bag,
        build_rows: built.len() as u64,
        probe_rows,
    }
}

/// Join a partial delta with the *neighbor* relation's bag on the given
/// side, producing the widened partial delta.
///
/// `neighbor` is either a base relation's contents (`ComputeJoin` at a data
/// source) or a concurrent update's delta (local compensation at the
/// warehouse) — the algebra is identical; counts multiply with sign. The
/// neighbor's **local selection from the view definition is applied here**,
/// so sources and warehouse agree on pushed-down predicates.
pub fn extend_partial(
    view: &ViewDef,
    partial: &PartialDelta,
    neighbor: &Bag,
    side: JoinSide,
) -> Result<PartialDelta, RelationalError> {
    let obs = dw_obs::Obs::off();
    extend_hop(view, partial, Neighbor::Bag(neighbor), side, None, &obs)
}

/// The one hop join behind [`extend_partial`] and
/// [`crate::extend_partial_indexed`]: widen `partial` by its neighbor on
/// `side`, keeping the neighbor rows that pass the view's local selection
/// **and** the query's pushed-down `pushed` σ. A [`Neighbor::Bag`] row is
/// filtered as the hash join visits it — whether it is tabled or streamed
/// past the tabled partial — a [`Neighbor::Index`] match after the probe
/// (it stores the unfiltered relation); the answers are equal as bags.
///
/// The hop records into the recorder behind `obs` the rows it streamed
/// past a table (`join.probe_rows`: the scan's larger input, or every
/// partial row an index probe looks up) and its output (`join.out_rows`);
/// the scan also records the rows it tabled for the call
/// (`join.build_rows`, the smaller input, hashed or not) and, under a
/// pushed σ, how many rows it turned away (`source.pushdown_filtered`).
pub fn extend_hop(
    view: &ViewDef,
    partial: &PartialDelta,
    neighbor: Neighbor<'_>,
    side: JoinSide,
    pushed: Option<&Predicate>,
    obs: &dw_obs::Obs,
) -> Result<PartialDelta, RelationalError> {
    let geo = HopGeometry::of(view, partial.lo, partial.hi, side)?;
    let local = view.local_select(geo.nbr);
    let glue = |pt: &Tuple, nt: &Tuple| match side {
        JoinSide::Left => nt.concat(pt),
        JoinSide::Right => pt.concat(nt),
    };
    let bag = match neighbor {
        Neighbor::Bag(rows) => {
            let arity = view.schema(geo.nbr).arity();
            let (mut turned_away, mut bad_arity) = (0u64, None);
            let kept = |t: &Tuple| {
                if t.arity() != arity {
                    bad_arity = Some(t.arity());
                    return false;
                }
                if pushed.is_some_and(|p| !p.eval(t)) {
                    turned_away += 1;
                    return false;
                }
                local.eval(t)
            };
            let joined = hash_join(
                &partial.bag,
                &geo.part_keys,
                rows,
                &geo.nbr_keys,
                kept,
                false,
                glue,
            );
            if let Some(found) = bad_arity {
                return Err(RelationalError::ArityMismatch {
                    context: "extend_partial neighbor",
                    expected: arity,
                    found,
                });
            }
            if pushed.is_some() {
                obs.add("source.pushdown_filtered", turned_away);
            }
            obs.observe("join.build_rows", joined.build_rows);
            obs.observe("join.probe_rows", joined.probe_rows);
            joined.bag
        }
        Neighbor::Index(index) => {
            if index.key_attrs() != geo.nbr_keys {
                return Err(RelationalError::BadRange {
                    reason: format!(
                        "index keyed on {:?} cannot serve a join on {:?}",
                        index.key_attrs(),
                        geo.nbr_keys
                    ),
                });
            }
            let kept = |t: &Tuple| local.eval(t) && pushed.is_none_or(|p| p.eval(t));
            obs.observe("join.probe_rows", partial.bag.distinct_len() as u64);
            index.join(&partial.bag, &geo.part_keys, kept, glue)
        }
    };
    obs.observe("join.out_rows", bag.distinct_len() as u64);
    Ok(PartialDelta {
        lo: geo.lo,
        hi: geo.hi,
        bag,
    })
}

/// Glue two partials that overlap in exactly one relation, the pivot
/// `R_j` (`left.hi == j == right.lo`): equate the left partial's trailing
/// `R_j` columns with the right partial's leading ones (the smaller leg is
/// the table, the left on a tie), emit `left ++ right-tail` at the product of
/// the counts (§5.3's parallel-sweep merge, span-generalized).
pub fn merge_pivot(view: &ViewDef, left: &PartialDelta, right: &PartialDelta) -> PartialDelta {
    debug_assert_eq!(left.hi, right.lo, "the legs must share their pivot");
    let w = view.schema(left.hi).arity();
    let shared_off = left.width(view) - w;
    let lead: Vec<usize> = (0..w).collect();
    let trail: Vec<usize> = (shared_off..shared_off + w).collect();
    let glue = |lt: &Tuple, rt: &Tuple| Tuple::new([lt.values(), &rt.values()[w..]].concat());
    PartialDelta {
        lo: left.lo,
        hi: right.hi,
        bag: hash_join(&left.bag, &trail, &right.bag, &lead, |_| true, true, glue).bag,
    }
}

/// Fully evaluate the view over a snapshot of all base-relation bags
/// (`relations[i]` is the contents of chain relation `i`).
///
/// Used for initializing the warehouse, for the `Recompute` baseline, and
/// as the ground truth of the consistency checker.
pub fn eval_view(view: &ViewDef, relations: &[&Bag]) -> Result<Bag, RelationalError> {
    if relations.len() != view.num_relations() {
        return Err(RelationalError::InvalidViewDef {
            reason: format!(
                "eval_view got {} relations for a {}-relation view",
                relations.len(),
                view.num_relations()
            ),
        });
    }
    let mut pd = PartialDelta::seed(view, 0, relations[0])?;
    for neighbor in &relations[1..] {
        pd = extend_partial(view, &pd, neighbor, JoinSide::Right)?;
    }
    pd.check_complete(view)?;
    Ok(select_project(view, Cow::Owned(pd.bag)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::CmpOp;
    use crate::schema::Schema;
    use crate::tup;
    use crate::view::ViewDefBuilder;

    /// The paper's §5.2 example view:
    /// `Π[R2.D, R3.F](R1[A,B] ⋈_{B=C} R2[C,D] ⋈_{D=E} R3[E,F])`.
    fn paper_view() -> ViewDef {
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

    fn paper_initial() -> (Bag, Bag, Bag) {
        (
            Bag::from_tuples([tup![1, 3], tup![2, 3]]), // R1
            Bag::from_tuples([tup![3, 7]]),             // R2
            Bag::from_tuples([tup![5, 6], tup![7, 8]]), // R3
        )
    }

    #[test]
    fn eval_paper_initial_state() {
        let v = paper_view();
        let (r1, r2, r3) = paper_initial();
        let out = eval_view(&v, &[&r1, &r2, &r3]).unwrap();
        // Initial warehouse state: {(7,8)[2]}.
        assert_eq!(out, Bag::from_pairs([(tup![7, 8], 2)]));
    }

    #[test]
    fn seed_applies_local_selection() {
        let v = ViewDefBuilder::new()
            .relation(Schema::new("R1", ["A", "B"]).unwrap())
            .select("R1.A", CmpOp::Gt, 1)
            .build()
            .unwrap();
        let d = Bag::from_pairs([(tup![1, 10], 1), (tup![2, 20], 1)]);
        let pd = PartialDelta::seed(&v, 0, &d).unwrap();
        assert_eq!(pd.bag, Bag::from_pairs([(tup![2, 20], 1)]));
    }

    #[test]
    fn seed_checks_arity() {
        let v = paper_view();
        let err = PartialDelta::seed(&v, 0, &Bag::from_tuples([tup![1]])).unwrap_err();
        assert!(matches!(err, RelationalError::ArityMismatch { .. }));
    }

    #[test]
    fn extend_right_from_update() {
        let v = paper_view();
        let (_, _, r3) = paper_initial();
        // ΔR2 = +(3,5): the paper's first update.
        let d2 = Bag::from_tuples([tup![3, 5]]);
        let pd = PartialDelta::seed(&v, 1, &d2).unwrap();
        let pd = extend_partial(&v, &pd, &r3, JoinSide::Right).unwrap();
        // (3,5) ⋈_{D=E} R3: D=5 matches (5,6).
        assert_eq!(pd.bag, Bag::from_tuples([tup![3, 5, 5, 6]]));
        assert_eq!((pd.lo, pd.hi), (1, 2));
    }

    #[test]
    fn extend_left_from_update() {
        let v = paper_view();
        let (r1, _, _) = paper_initial();
        let d2 = Bag::from_tuples([tup![3, 5]]);
        let pd = PartialDelta::seed(&v, 1, &d2).unwrap();
        let pd = extend_partial(&v, &pd, &r1, JoinSide::Left).unwrap();
        // R1 ⋈_{B=C} (3,5): B=3 matches (1,3) and (2,3).
        assert_eq!(
            pd.bag,
            Bag::from_tuples([tup![1, 3, 3, 5], tup![2, 3, 3, 5]])
        );
        assert_eq!((pd.lo, pd.hi), (0, 1));
    }

    #[test]
    fn signs_multiply_delete_times_delete_is_positive() {
        let v = paper_view();
        // TempView = {-(3,7,8)} over range [1,2]; neighbor ΔR1 = {-(2,3)}.
        let temp = PartialDelta {
            lo: 1,
            hi: 2,
            bag: Bag::from_pairs([(tup![3, 7, 7, 8], -1)]),
        };
        let dr1 = Bag::from_pairs([(tup![2, 3], -1)]);
        let err = extend_partial(&v, &temp, &dr1, JoinSide::Left).unwrap();
        // (-1) × (-1) = +1 — the §5.2 arithmetic.
        assert_eq!(err.bag, Bag::from_pairs([(tup![2, 3, 3, 7, 7, 8], 1)]));
    }

    #[test]
    fn merge_pivot_glues_on_shared_columns() {
        let v = paper_view();
        // Left covers [0,1] with true counts, right covers [1,2] with
        // support counts; pivot at j=1 (R2's two columns are shared).
        let left = PartialDelta {
            lo: 0,
            hi: 1,
            bag: Bag::from_pairs([(tup![1, 3, 3, 5], 2), (tup![1, 4, 4, 9], 1)]),
        };
        let right = PartialDelta {
            lo: 1,
            hi: 2,
            bag: Bag::from_pairs([(tup![3, 5, 5, 6], 1), (tup![3, 5, 5, 7], 1)]),
        };
        let merged = merge_pivot(&v, &left, &right);
        assert_eq!((merged.lo, merged.hi), (0, 2));
        assert_eq!(
            merged.bag,
            Bag::from_pairs([(tup![1, 3, 3, 5, 5, 6], 2), (tup![1, 3, 3, 5, 5, 7], 2)])
        );
    }

    #[test]
    fn finalize_projects_and_counts() {
        let v = paper_view();
        let full = PartialDelta {
            lo: 0,
            hi: 2,
            bag: Bag::from_tuples([tup![1, 3, 3, 5, 5, 6], tup![2, 3, 3, 5, 5, 6]]),
        };
        let out = full.finalize(&v).unwrap();
        assert_eq!(out, Bag::from_pairs([(tup![5, 6], 2)]));
    }

    #[test]
    fn finalize_requires_complete_range() {
        let v = paper_view();
        let part = PartialDelta {
            lo: 1,
            hi: 2,
            bag: Bag::new(),
        };
        assert!(matches!(
            part.finalize(&v),
            Err(RelationalError::BadRange { .. })
        ));
    }

    #[test]
    fn extend_past_ends_rejected() {
        let v = paper_view();
        let pd = PartialDelta::seed(&v, 0, &Bag::from_tuples([tup![1, 3]])).unwrap();
        assert!(extend_partial(&v, &pd, &Bag::new(), JoinSide::Left).is_err());
        let pd = PartialDelta::seed(&v, 2, &Bag::from_tuples([tup![5, 6]])).unwrap();
        assert!(extend_partial(&v, &pd, &Bag::new(), JoinSide::Right).is_err());
    }

    #[test]
    fn neighbor_arity_checked() {
        let v = paper_view();
        let pd = PartialDelta::seed(&v, 1, &Bag::from_tuples([tup![3, 5]])).unwrap();
        let bad = Bag::from_tuples([tup![1]]);
        assert!(matches!(
            extend_partial(&v, &pd, &bad, JoinSide::Right),
            Err(RelationalError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn scan_counts_build_probe_out_and_pushdown_rows() {
        // R3.F < 9 is R3's local σ; the query pushes R3.F >= 6.
        let v = ViewDefBuilder::new()
            .relation(Schema::new("R1", ["A", "B"]).unwrap())
            .relation(Schema::new("R2", ["C", "D"]).unwrap())
            .relation(Schema::new("R3", ["E", "F"]).unwrap())
            .join("R1.B", "R2.C")
            .join("R2.D", "R3.E")
            .select("R3.F", CmpOp::Lt, 9)
            .build()
            .unwrap();
        let r3 = Bag::from_pairs([
            (tup![5, 1], 1), // turned away by the pushed σ
            (tup![5, 6], 2),
            (tup![5, 9], 1), // fails the local σ
            (tup![7, 8], 1),
        ]);
        let pd = PartialDelta::seed(&v, 1, &Bag::from_tuples([tup![3, 5], tup![4, 4]])).unwrap();
        let pushed = Predicate::Cmp {
            attr: 1,
            op: CmpOp::Ge,
            value: Value::Int(6),
        };
        let (obs, rec) = dw_obs::Obs::trace();
        let out = extend_hop(
            &v,
            &pd,
            Neighbor::Bag(&r3),
            JoinSide::Right,
            Some(&pushed),
            &obs,
        );
        assert_eq!(out.unwrap().bag, Bag::from_pairs([(tup![3, 5, 5, 6], 2)]));
        let rec = rec.lock().unwrap();
        assert_eq!(rec.counter("source.pushdown_filtered"), 1);
        for (hist, rows) in [
            ("join.build_rows", 2),
            ("join.probe_rows", 2),
            ("join.out_rows", 1),
        ] {
            let h = rec.histogram(hist).unwrap();
            assert_eq!((h.count(), h.sum()), (1, rows), "{hist}");
        }
    }

    /// The (count, sum) of each join histogram one traced hop recorded.
    fn traced_hop(
        v: &ViewDef,
        pd: &PartialDelta,
        neighbor: Neighbor<'_>,
    ) -> (Bag, [Option<(u64, u128)>; 3]) {
        let (obs, rec) = dw_obs::Obs::trace();
        let out = extend_hop(v, pd, neighbor, JoinSide::Right, None, &obs).unwrap();
        let rec = rec.lock().unwrap();
        let hist = |name| rec.histogram(name).map(|h| (h.count(), h.sum()));
        let sizes = ["join.build_rows", "join.probe_rows", "join.out_rows"].map(hist);
        (out.bag, sizes)
    }

    #[test]
    fn scan_hashes_the_smaller_input_and_the_index_counts_its_probes() {
        // R3.F < 9 is R3's local σ: of R3's four rows, two are kept.
        let v = ViewDefBuilder::new()
            .relation(Schema::new("R1", ["A", "B"]).unwrap())
            .relation(Schema::new("R2", ["C", "D"]).unwrap())
            .relation(Schema::new("R3", ["E", "F"]).unwrap())
            .join("R1.B", "R2.C")
            .join("R2.D", "R3.E")
            .select("R3.F", CmpOp::Lt, 9)
            .build()
            .unwrap();
        let r3 = Bag::from_pairs([
            (tup![5, 6], 2),
            (tup![5, 9], 1), // fails the local σ
            (tup![7, 8], 1),
            (tup![8, 10], 1), // fails the local σ
        ]);
        // One partial row: it is the table, and the two kept rows of R3
        // stream past it.
        let one = PartialDelta::seed(&v, 1, &Bag::from_tuples([tup![3, 5]])).unwrap();
        let (out, sizes) = traced_hop(&v, &one, Neighbor::Bag(&r3));
        assert_eq!(out, Bag::from_pairs([(tup![3, 5, 5, 6], 2)]));
        assert_eq!(sizes, [Some((1, 1)), Some((1, 2)), Some((1, 1))]);
        // Four against four is a tie, so the partial is still the table;
        // five partial rows against four make R3's kept rows the table.
        let rows = |n| Bag::from_tuples((0..n).map(|k| tup![k, 7]));
        let four = PartialDelta::seed(&v, 1, &rows(4)).unwrap();
        let (out, sizes) = traced_hop(&v, &four, Neighbor::Bag(&r3));
        assert_eq!(out.distinct_len(), 4);
        assert_eq!(sizes, [Some((1, 4)), Some((1, 2)), Some((1, 4))]);
        let five = PartialDelta::seed(&v, 1, &rows(5)).unwrap();
        let (out, sizes) = traced_hop(&v, &five, Neighbor::Bag(&r3));
        assert_eq!(out.distinct_len(), 5);
        assert_eq!(sizes, [Some((1, 2)), Some((1, 5)), Some((1, 5))]);
        // Four rows are one unhashed bucket, five a hashed table: either
        // way, on either build side, `join.build_rows` counts the table's
        // rows and `join.probe_rows` the rows streamed past it.
        let r2_rows =
            |n: i64| PartialDelta::seed(&v, 1, &Bag::from_tuples((0..n).map(|k| tup![k, k])));
        let r3_kept =
            |kept: i64| Bag::from_tuples((0..kept).map(|e| tup![e, 1]).chain([tup![0, 9]]));
        for k in [4i64, 5] {
            let rows = Some((1, k as u128));
            let (_, sizes) = traced_hop(&v, &r2_rows(k).unwrap(), Neighbor::Bag(&r3_kept(6)));
            assert_eq!(sizes, [rows, Some((1, 6)), rows], "{k}-row partial");
            let (_, sizes) = traced_hop(&v, &r2_rows(8).unwrap(), Neighbor::Bag(&r3_kept(k)));
            assert_eq!(sizes, [rows, Some((1, 8)), rows], "{k} kept rows of R3");
        }
        // The index hashes nothing per call; its probes and output count
        // as the scan's do.
        let mut index = JoinIndex::for_neighbor(&v, 2, JoinSide::Right).unwrap();
        index.apply_delta(&r3);
        let (out, sizes) = traced_hop(&v, &one, Neighbor::Index(&index));
        assert_eq!(out, Bag::from_pairs([(tup![3, 5, 5, 6], 2)]));
        assert_eq!(sizes, [None, Some((1, 1)), Some((1, 1))]);
    }

    #[test]
    fn an_empty_partial_still_checks_every_neighbor_row() {
        // The empty partial is the (empty) table; the neighbor still
        // streams through the arity check.
        let v = paper_view();
        let empty = PartialDelta::seed(&v, 1, &Bag::new()).unwrap();
        let bad = Bag::from_tuples([tup![5, 6], tup![1]]);
        assert!(matches!(
            extend_partial(&v, &empty, &bad, JoinSide::Right),
            Err(RelationalError::ArityMismatch { found: 1, .. })
        ));
    }

    #[test]
    fn residual_selection_applies_at_finalize() {
        let v = ViewDefBuilder::new()
            .relation(Schema::new("R1", ["A"]).unwrap())
            .relation(Schema::new("R2", ["B"]).unwrap())
            .join("R1.A", "R2.B")
            .select_across("R1.A", CmpOp::Lt, "R2.B")
            .build()
            .unwrap();
        // A = B always here, so the residual A < B filters everything out.
        let r1 = Bag::from_tuples([tup![1]]);
        let r2 = Bag::from_tuples([tup![1]]);
        let out = eval_view(&v, &[&r1, &r2]).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn single_relation_view() {
        let v = ViewDefBuilder::new()
            .relation(Schema::new("R1", ["A", "B"]).unwrap())
            .project(["R1.B"])
            .build()
            .unwrap();
        let r1 = Bag::from_tuples([tup![1, 7], tup![2, 7]]);
        let out = eval_view(&v, &[&r1]).unwrap();
        assert_eq!(out, Bag::from_pairs([(tup![7], 2)]));
    }

    #[test]
    fn multi_pair_join_condition() {
        let v = ViewDefBuilder::new()
            .relation(Schema::new("R1", ["A", "B"]).unwrap())
            .relation(Schema::new("R2", ["C", "D"]).unwrap())
            .join("R1.A", "R2.C")
            .join("R1.B", "R2.D")
            .build()
            .unwrap();
        let r1 = Bag::from_tuples([tup![1, 2], tup![1, 3]]);
        let r2 = Bag::from_tuples([tup![1, 2]]);
        let out = eval_view(&v, &[&r1, &r2]).unwrap();
        assert_eq!(out, Bag::from_pairs([(tup![1, 2, 1, 2], 1)]));
    }

    #[test]
    fn incremental_equals_recompute_distributivity() {
        // (R1 + ΔR1) ⋈ R2 == R1 ⋈ R2 + ΔR1 ⋈ R2 (the §3 identity).
        let v = ViewDefBuilder::new()
            .relation(Schema::new("R1", ["A", "B"]).unwrap())
            .relation(Schema::new("R2", ["C", "D"]).unwrap())
            .join("R1.B", "R2.C")
            .build()
            .unwrap();
        let r1 = Bag::from_tuples([tup![1, 3], tup![2, 3]]);
        let d1 = Bag::from_pairs([(tup![2, 3], -1), (tup![4, 5], 1)]);
        let r2 = Bag::from_tuples([tup![3, 7], tup![5, 9]]);

        let old = eval_view(&v, &[&r1, &r2]).unwrap();
        let incr = {
            let pd = PartialDelta::seed(&v, 0, &d1).unwrap();
            extend_partial(&v, &pd, &r2, JoinSide::Right)
                .unwrap()
                .finalize(&v)
                .unwrap()
        };
        let new_direct = eval_view(&v, &[&r1.plus(&d1), &r2]).unwrap();
        assert_eq!(old.plus(&incr), new_direct);
    }

    #[test]
    fn cross_join_when_no_condition() {
        let v = ViewDefBuilder::new()
            .relation(Schema::new("R1", ["A"]).unwrap())
            .relation(Schema::new("R2", ["B"]).unwrap())
            .build()
            .unwrap();
        let r1 = Bag::from_tuples([tup![1], tup![2]]);
        let r2 = Bag::from_tuples([tup![10], tup![20]]);
        let out = eval_view(&v, &[&r1, &r2]).unwrap();
        assert_eq!(out.distinct_len(), 4);
    }
}
