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
//! geometry and joins the neighbor rows, probing the neighbor bag's chain
//! on the hop's key when it carries one ([`Bag::chain_on`]) and otherwise
//! through a flat table built for the call without a per-row allocation
//! on the smaller of the partial and the bag, hashed only above a few
//! rows; [`merge_pivot`] (§5.3's
//! merge of two legs) joins with the same kernel. A NULL join key matches
//! nothing, as under the residual selection's three-valued logic.
//!
//! Full evaluation is the third shape: [`eval_view`] builds no partial.
//! It tables every neighbour `R_1..R_n` once (the per-call table type the
//! hop join uses) and walks each `R_0` row depth first through them,
//! allocating only the view's tuples — the paper's initial `V` and the
//! recomputation it is measured against pay for their result and one
//! table entry per neighbour row, never for an intermediate join.
//!
//! Signed multiplicities flow through multiplication, so a delete joined
//! with a delete produces a positive term — exactly the arithmetic the
//! paper's §5.2 example exercises.

use crate::bag::{key_hash, Bag};
use crate::error::RelationalError;
use crate::predicate::Predicate;
use crate::tuple::Tuple;
use crate::value::Value;
use crate::view::ViewDef;
use std::collections::hash_map::RandomState;

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
    /// view-change bag; an identity σ and Π hand the partial's bag back
    /// unchanged, copying nothing. Errors unless the range covers the
    /// whole chain.
    pub fn finalize(self, view: &ViewDef) -> Result<Bag, RelationalError> {
        self.check_complete(view)?;
        Ok(select_project(view, self.bag))
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
fn select_project(view: &ViewDef, mut bag: Bag) -> Bag {
    let residual = view.residual();
    if residual != &Predicate::True {
        bag = bag.filter(|t| residual.eval(t));
    }
    let projection = view.projection();
    if !projection.iter().copied().eq(0..view.total_arity()) {
        bag = bag.map_tuples(|t| t.project(projection));
    }
    bag
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

/// The geometry of one hop of the chain join — which relation is the
/// neighbor, where the join key sits on either side, what range the
/// widened partial covers. The only place `JoinCond` pairs are read.
struct HopGeometry {
    /// Chain position of the neighbor relation.
    nbr: usize,
    /// Join-key columns inside a neighbor tuple.
    nbr_keys: Vec<usize>,
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
    fn of(
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

/// The key columns of chain relation `rel` as the neighbor a hop on `side`
/// widens into — the columns a source chains its relation on to answer
/// that hop by probing; `None` when no relation lies beyond `rel` for such
/// a hop to come from.
pub fn neighbor_keys(view: &ViewDef, rel: usize, side: JoinSide) -> Option<Vec<usize>> {
    let from = match side {
        JoinSide::Left => rel + 1,
        JoinSide::Right => rel.checked_sub(1)?,
    };
    Some(HopGeometry::of(view, from, from, side).ok()?.nbr_keys)
}

/// The link that ends a bucket's chain in a [`Table`].
const END: u32 = u32::MAX;

/// The most rows a [`Table`] keeps in one unhashed bucket: up to this
/// many, comparing a probe row's key columns with every row is cheaper
/// than SipHashing it to pick a bucket (the crossover table in DESIGN.md,
/// "One hop join").
const ONE_BUCKET: usize = 4;

/// A flat hash table over borrowed rows, built for one call: one vector
/// of `(row, count, key hash)` chained through power-of-two `heads` and
/// `u32` `next` links, so a row is hashed once and no key is copied. A
/// table of at most [`ONE_BUCKET`] rows is one bucket and hashes nothing:
/// no key is drawn, every row's hash is 0, and a probe row compares its
/// key columns with each of those few rows. A larger table hashes each
/// row's key columns with [`key_hash`] under a key drawn for this table,
/// so crafted rows cannot flood one bucket — at worst they lengthen
/// chains in a table of the smaller input; a probe row hashes its key
/// columns the same way and compares columns only when the full 64-bit
/// hashes agree. A row with a NULL key column is counted but linked
/// nowhere, and a probe row with one finds nothing (SQL's `NULL = NULL`
/// is not true), unless `nulls_join`: then a NULL-keyed row hashes to 0
/// and is compared column by column like any other (the pivot merge
/// matches a tuple to itself).
struct Table<'r> {
    rows: Vec<(&'r Tuple, i64, u64)>,
    keys: &'r [usize],
    heads: Vec<u32>,
    next: Vec<u32>,
    seed: Option<RandomState>,
    nulls_join: bool,
}

impl<'r> Table<'r> {
    /// Table `rows` on their `keys` columns.
    fn build(
        rows: impl Iterator<Item = (&'r Tuple, i64)>,
        keys: &'r [usize],
        nulls_join: bool,
    ) -> Table<'r> {
        let (lower, upper) = rows.size_hint();
        let mut built = Vec::with_capacity(upper.unwrap_or(lower));
        built.extend(rows.map(|(t, c)| (t, c, 0)));
        let n = built.len();
        let (seed, slots) = if n > ONE_BUCKET {
            (Some(RandomState::new()), n.next_power_of_two())
        } else {
            (None, 1)
        };
        let mut table = Table {
            rows: Vec::new(),
            keys,
            heads: vec![END; slots],
            next: vec![END; n],
            seed,
            nulls_join,
        };
        for (i, (t, _, h)) in built.iter_mut().enumerate() {
            if let Some(hash) = table.hash(t, keys) {
                *h = hash;
                let head = &mut table.heads[hash as usize & (slots - 1)];
                table.next[i] = std::mem::replace(head, i as u32);
            }
        }
        table.rows = built;
        table
    }

    /// The hash of the key in `t`'s `cols`: [`key_hash`] under the
    /// table's key, 0 in one bucket; `None` when a key column is NULL,
    /// unless NULLs join.
    #[inline]
    fn hash(&self, t: &Tuple, cols: &[usize]) -> Option<u64> {
        let hash = match &self.seed {
            Some(seed) => key_hash(seed, t, cols),
            None => (!cols.iter().any(|&k| matches!(t.at(k), Value::Null))).then_some(0),
        };
        hash.or(self.nulls_join.then_some(0))
    }

    /// Call `f` on each row whose key columns equal `row`'s `cols`, pair
    /// by pair.
    #[inline]
    fn probe(&self, row: &Tuple, cols: &[usize], mut f: impl FnMut(&'r Tuple, i64)) {
        if self.rows.is_empty() {
            return;
        }
        let Some(hash) = self.hash(row, cols) else {
            return;
        };
        let mut i = self.heads[hash as usize & (self.heads.len() - 1)];
        while let Some(&(t, c, h)) = self.rows.get(i as usize) {
            if h == hash
                && cols
                    .iter()
                    .zip(self.keys)
                    .all(|(&p, &k)| row.at(p) == t.at(k))
            {
                f(t, c);
            }
            i = self.next[i as usize];
        }
    }
}

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

/// [`Table`] `build` on its `build_keys` columns, then stream `probe`
/// through the table: each pair whose keys are equal emits `glue(bt, pt)`
/// at `bc · pc`. Every probe row is visited, even past an empty table.
fn build_and_probe<'b, 'p>(
    build: impl Iterator<Item = (&'b Tuple, i64)>,
    build_keys: &'b [usize],
    probe: impl Iterator<Item = (&'p Tuple, i64)>,
    probe_keys: &[usize],
    nulls_join: bool,
    glue: impl Fn(&Tuple, &Tuple) -> Tuple,
) -> Joined {
    let table = Table::build(build, build_keys, nulls_join);
    let (mut bag, mut probe_rows) = (Bag::new(), 0u64);
    for (pt, pc) in probe {
        probe_rows += 1;
        table.probe(pt, probe_keys, |bt, bc| bag.add(glue(bt, pt), bc * pc));
    }
    Joined {
        bag,
        build_rows: table.rows.len() as u64,
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
    extend_hop(view, partial, neighbor, side, None, &obs)
}

/// A maintained join index: a bag chained on one set of key attribute
/// positions ([`Bag::chain_on`]). Streaming all of a relation `R` past the
/// few `ΔV` rows of each `ComputeJoin(ΔV, R)` ([`extend_partial`]) costs
/// `O(|R|)` per query; probing a chain that every transaction keeps up to
/// date costs `O(|ΔV| + |matches|)` — the `extend_partial` vs
/// `extend_partial_indexed` rows of the benchmark's `kernels` table. An
/// indexed source chains its own relation the same way, holding no second
/// copy of it.
#[derive(Clone)]
pub struct JoinIndex(Bag);

impl JoinIndex {
    /// Empty index on the given key attribute positions.
    pub fn new(key_attrs: Vec<usize>) -> Self {
        let mut bag = Bag::new();
        bag.chain_on(key_attrs);
        JoinIndex(bag)
    }

    /// Fold a signed delta into the index (tuples reaching count zero are
    /// evicted).
    pub fn apply_delta(&mut self, delta: &Bag) {
        self.0.merge(delta);
    }
}

/// [`extend_partial`] probing the [`JoinIndex`]'s chain instead of
/// tabling the partial for the call — the same hop join; the view's local
/// selection on the neighbor filters the matches. The index keys must
/// equal the join condition's neighbor-side attributes in order (checked).
pub fn extend_partial_indexed(
    view: &ViewDef,
    partial: &PartialDelta,
    index: &JoinIndex,
    side: JoinSide,
) -> Result<PartialDelta, RelationalError> {
    let geo = HopGeometry::of(view, partial.lo, partial.hi, side)?;
    if !index.0.chained_on(&geo.nbr_keys) {
        return Err(RelationalError::BadRange {
            reason: format!("index has no chain on the join's {:?}", geo.nbr_keys),
        });
    }
    let obs = dw_obs::Obs::off();
    join_hop(view, partial, &geo, &index.0, side, None, &obs)
}

/// The one hop join behind [`extend_partial`] and
/// [`extend_partial_indexed`]: widen `partial` by its `neighbor`
/// rows on `side`, keeping those that pass the view's local selection
/// **and** the query's pushed-down `pushed` σ. When `neighbor` is chained
/// on the hop's key columns ([`Bag::chain_on`]) every partial row probes
/// its chain; otherwise `hash_join` tables the smaller input for the
/// call. Either way a neighbor row is filtered where the join meets it,
/// and the answers are equal as bags.
///
/// The hop records into the recorder behind `obs` the rows it streamed
/// past a table (`join.probe_rows`: the scan's larger input, or every
/// partial row a chain probe looks up) and its output (`join.out_rows`);
/// the scan also records the rows it tabled for the call
/// (`join.build_rows`, the smaller input, hashed or not). Under a pushed
/// σ, `source.pushdown_filtered` counts what σ turned away: the scan
/// counts neighbor rows (each once), the probe counts matches (a row
/// once per partial row whose key it matches).
pub fn extend_hop(
    view: &ViewDef,
    partial: &PartialDelta,
    neighbor: &Bag,
    side: JoinSide,
    pushed: Option<&Predicate>,
    obs: &dw_obs::Obs,
) -> Result<PartialDelta, RelationalError> {
    let geo = HopGeometry::of(view, partial.lo, partial.hi, side)?;
    join_hop(view, partial, &geo, neighbor, side, pushed, obs)
}

/// [`extend_hop`] over the hop's geometry, once computed — which
/// [`extend_partial_indexed`] checks its index against first.
fn join_hop(
    view: &ViewDef,
    partial: &PartialDelta,
    geo: &HopGeometry,
    neighbor: &Bag,
    side: JoinSide,
    pushed: Option<&Predicate>,
    obs: &dw_obs::Obs,
) -> Result<PartialDelta, RelationalError> {
    let local = view.local_select(geo.nbr);
    let glue = |pt: &Tuple, nt: &Tuple| match side {
        JoinSide::Left => nt.concat(pt),
        JoinSide::Right => pt.concat(nt),
    };
    let arity = view.schema(geo.nbr).arity();
    let (mut turned_away, mut bad_arity) = (0u64, None);
    let mut kept = |t: &Tuple| {
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
    let bag = if neighbor.chained_on(&geo.nbr_keys) {
        let mut out = Bag::new();
        for (pt, pc) in partial.bag.iter() {
            let matches = neighbor.probe(&geo.nbr_keys, pt, &geo.part_keys);
            for (nt, nc) in matches.into_iter().flatten() {
                if kept(nt) {
                    out.add(glue(pt, nt), pc * nc);
                }
            }
        }
        obs.observe("join.probe_rows", partial.bag.distinct_len() as u64);
        out
    } else {
        let (part_keys, nbr_keys) = (&geo.part_keys, &geo.nbr_keys);
        let joined = hash_join(
            &partial.bag,
            part_keys,
            neighbor,
            nbr_keys,
            kept,
            false,
            glue,
        );
        obs.observe("join.build_rows", joined.build_rows);
        obs.observe("join.probe_rows", joined.probe_rows);
        joined.bag
    };
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
///
/// A pipelined left-deep hash join: each neighbour `R_1..R_n` is one
/// table of its rows that pass its local σ, keyed on its join with the
/// relation before it (NULL keys match nothing), and each `R_0` row that
/// passes its σ walks the tables depth first, the rows of its chain held
/// in one reusable buffer. At the leaf the residual σ is read off those
/// rows and Π copies each kept value once into exactly one output tuple,
/// one allocation: no copy of `R_0`, no intermediate bag or tuple. The
/// tables borrow the relations' rows, so what the call holds beyond its
/// result is one table entry per kept neighbour row. Errors are the
/// left-deep fold's: `R_0`'s first row of the wrong width, else the last
/// one of the first neighbour that has one.
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
    let expected = view.schema(0).arity();
    if let Some((t, _)) = relations[0].iter().find(|(t, _)| t.arity() != expected) {
        return Err(RelationalError::ArityMismatch {
            context: "PartialDelta::seed",
            expected,
            found: t.arity(),
        });
    }
    // `JoinCond` pairs are (attr in R_{k-1}, attr in R_k): a walk at
    // R_{k-1} probes R_k's table with its row's left columns.
    let keys: Vec<(Vec<usize>, Vec<usize>)> = (1..relations.len())
        .map(|k| view.join_cond(k - 1).pairs.iter().copied().unzip())
        .collect();
    let mut tables = Vec::with_capacity(keys.len());
    for ((_, nbr_keys), (k, rel)) in keys.iter().zip(relations.iter().enumerate().skip(1)) {
        let (arity, local) = (view.schema(k).arity(), view.local_select(k));
        let mut bad_arity = None;
        let kept = rel.iter().filter(|&(t, _)| {
            if t.arity() != arity {
                bad_arity = Some(t.arity());
                return false;
            }
            local.eval(t)
        });
        tables.push(Table::build(kept, nbr_keys, false));
        if let Some(found) = bad_arity {
            return Err(RelationalError::ArityMismatch {
                context: "extend_partial neighbor",
                expected: arity,
                found,
            });
        }
    }
    let mut out = Bag::new();
    if tables.iter().any(|t| t.rows.is_empty()) {
        return Ok(out);
    }
    // Each chain column's (relation, column); the output's are Π's.
    let columns: Vec<(usize, usize)> = (0..relations.len())
        .flat_map(|k| (0..view.schema(k).arity()).map(move |c| (k, c)))
        .collect();
    let walk = Walk {
        output: view.projection().iter().map(|&i| columns[i]).collect(),
        columns,
        tables,
        probe_keys: keys.iter().map(|(cols, _)| cols.as_slice()).collect(),
        residual: view.residual(),
    };
    let local = view.local_select(0);
    let mut chain = Vec::with_capacity(relations.len());
    for (t, c) in relations[0].iter().filter(|&(t, _)| local.eval(t)) {
        walk.descend(t, c, &mut chain, &mut out);
    }
    Ok(out)
}

/// The depth-first walk of [`eval_view`]: `tables[k]` holds the kept rows
/// of `R_{k+1}`, probed with the columns `probe_keys[k]` of an `R_k` row.
struct Walk<'r> {
    tables: Vec<Table<'r>>,
    probe_keys: Vec<&'r [usize]>,
    residual: &'r Predicate,
    /// Where each column of the chain's concatenated tuple lives:
    /// `(relation, column)`.
    columns: Vec<(usize, usize)>,
    /// The columns Π keeps, located the same way.
    output: Vec<(usize, usize)>,
}

impl<'r> Walk<'r> {
    /// Put `row`, reached at `count`, on the `chain` of rows walked so
    /// far, then walk each of its matches in the next table — or, once
    /// the chain is whole, test the residual σ on it and emit Π of it as
    /// one new tuple.
    fn descend(&self, row: &'r Tuple, count: i64, chain: &mut Vec<&'r Tuple>, out: &mut Bag) {
        chain.push(row);
        if let Some(table) = self.tables.get(chain.len() - 1) {
            let keys = self.probe_keys[chain.len() - 1];
            table.probe(row, keys, |t, c| self.descend(t, count * c, chain, out));
        } else {
            let at = |i: usize| {
                let (k, c) = self.columns[i];
                chain[k].at(c)
            };
            if self.residual.eval_at(&at) {
                let values = self.output.iter().map(|&(k, c)| chain[k].at(c).clone());
                out.add(Tuple::collect(values), count);
            }
        }
        chain.pop();
    }
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

    /// The left-deep fold `eval_view` replaced: seed `R_0`, extend by each
    /// neighbour in turn, finalize — the referee of the pipeline.
    fn eval_left_deep(view: &ViewDef, relations: &[&Bag]) -> Result<Bag, RelationalError> {
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
        pd.finalize(view)
    }

    /// A small key: NULL one time in eight, so NULL keys meet both sides.
    fn small_value(r: &mut dw_rng::Rng64) -> Value {
        if r.chance(0.125) {
            Value::Null
        } else {
            Value::Int(r.i64_in(0, 4))
        }
    }

    /// The pipelined `eval_view` equals the left-deep fold, as bags and as
    /// errors, over chains of 1–4 relations of 1–3 columns: joins on zero
    /// (a cross product), one or two column pairs; a local σ on some
    /// relations, a residual σ across two of them, a projection; NULL
    /// keys; signed counts with duplicates that sum and cancel; tables on
    /// both sides of the one-bucket threshold; a row of the wrong width
    /// in one relation or two, and a wrong relation count.
    #[test]
    fn pipelined_eval_view_equals_the_left_deep_fold() {
        let (mut seen, mut wide) = ([0; 5], 0);
        for case in 0..600u64 {
            let mut r = dw_rng::Rng64::new(45_000 + case);
            let n = 1 + r.usize_below(4);
            let arity: Vec<usize> = (0..n).map(|_| 1 + r.usize_below(3)).collect();
            let name = |k: usize, c: usize| format!("R{k}.{}", (b'A' + c as u8) as char);
            let mut b = ViewDefBuilder::new();
            for (k, &a) in arity.iter().enumerate() {
                let cols: Vec<String> = (0..a)
                    .map(|c| ((b'A' + c as u8) as char).to_string())
                    .collect();
                b = b.relation(Schema::new(format!("R{k}"), cols).unwrap());
            }
            for k in 1..n {
                for _ in 0..r.usize_below(3) {
                    let (lc, rc) = (r.usize_below(arity[k - 1]), r.usize_below(arity[k]));
                    b = b.join(name(k - 1, lc), name(k, rc));
                }
            }
            for (k, &a) in arity.iter().enumerate() {
                if r.chance(0.3) {
                    let op = [CmpOp::Lt, CmpOp::Ge, CmpOp::Ne][r.usize_below(3)];
                    b = b.select(name(k, r.usize_below(a)), op, r.i64_in(0, 4));
                }
            }
            if n > 1 && r.chance(0.4) {
                let (k1, k2) = (r.usize_below(n), r.usize_below(n));
                let (c1, c2) = (r.usize_below(arity[k1]), r.usize_below(arity[k2]));
                b = b.select_across(name(k1, c1), CmpOp::Le, name(k2, c2));
            }
            if r.chance(0.5) {
                let cols: Vec<String> = (0..1 + r.usize_below(3))
                    .map(|_| {
                        let k = r.usize_below(n);
                        name(k, r.usize_below(arity[k]))
                    })
                    .collect();
                b = b.project(cols);
            }
            let view = b.build().unwrap();
            let mut rels: Vec<Bag> = (arity.iter())
                .map(|&a| {
                    let rows = r.usize_below(12);
                    Bag::from_pairs((0..rows).map(|_| {
                        let t = Tuple::new((0..a).map(|_| small_value(&mut r)).collect());
                        (t, [-2, -1, 1, 1, 2][r.usize_below(5)])
                    }))
                })
                .collect();
            if r.chance(0.1) {
                for _ in 0..1 + r.usize_below(2) {
                    let k = r.usize_below(n);
                    let a = arity[k] + 1 + r.usize_below(2);
                    rels[k].add(Tuple::new((0..a).map(|_| small_value(&mut r)).collect()), 1);
                }
            }
            let mut refs: Vec<&Bag> = rels.iter().collect();
            if r.chance(0.03) {
                refs.pop();
            }
            let (got, want) = (eval_view(&view, &refs), eval_left_deep(&view, &refs));
            assert_eq!(got, want, "case {case}");
            let kind = match want {
                Ok(bag) => usize::from(!bag.is_empty()),
                Err(RelationalError::ArityMismatch { context, .. }) => {
                    2 + usize::from(context == "extend_partial neighbor")
                }
                Err(_) => 4,
            };
            seen[kind] += 1;
            wide += usize::from(rels.iter().any(|b| b.distinct_len() > ONE_BUCKET) && n > 1);
        }
        // Empty and non-empty views, both arity errors, a wrong count.
        assert!(seen.iter().all(|&k| k >= 5) && seen[1] >= 150, "{seen:?}");
        assert!(wide >= 150, "{wide} cases with a hashed table");
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
        let out = extend_hop(&v, &pd, &r3, JoinSide::Right, Some(&pushed), &obs);
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
        // Chained on E, R3 is probed on key 5 instead: the pushed σ turns
        // away one of its three matches, (5,1).
        let mut chained = r3.clone();
        chained.chain_on(vec![0]);
        let (obs, rec) = dw_obs::Obs::trace();
        let out = extend_hop(&v, &pd, &chained, JoinSide::Right, Some(&pushed), &obs);
        assert_eq!(out.unwrap().bag, Bag::from_pairs([(tup![3, 5, 5, 6], 2)]));
        assert_eq!(rec.lock().unwrap().counter("source.pushdown_filtered"), 1);
    }

    /// The (count, sum) of each join histogram one traced hop recorded.
    fn traced_hop(
        v: &ViewDef,
        pd: &PartialDelta,
        neighbor: &Bag,
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
        let (out, sizes) = traced_hop(&v, &one, &r3);
        assert_eq!(out, Bag::from_pairs([(tup![3, 5, 5, 6], 2)]));
        assert_eq!(sizes, [Some((1, 1)), Some((1, 2)), Some((1, 1))]);
        // Four against four is a tie, so the partial is still the table;
        // five partial rows against four make R3's kept rows the table.
        let rows = |n| Bag::from_tuples((0..n).map(|k| tup![k, 7]));
        let four = PartialDelta::seed(&v, 1, &rows(4)).unwrap();
        let (out, sizes) = traced_hop(&v, &four, &r3);
        assert_eq!(out.distinct_len(), 4);
        assert_eq!(sizes, [Some((1, 4)), Some((1, 2)), Some((1, 4))]);
        let five = PartialDelta::seed(&v, 1, &rows(5)).unwrap();
        let (out, sizes) = traced_hop(&v, &five, &r3);
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
            let (_, sizes) = traced_hop(&v, &r2_rows(k).unwrap(), &r3_kept(6));
            assert_eq!(sizes, [rows, Some((1, 6)), rows], "{k}-row partial");
            let (_, sizes) = traced_hop(&v, &r2_rows(8).unwrap(), &r3_kept(k));
            assert_eq!(sizes, [rows, Some((1, 8)), rows], "{k} kept rows of R3");
        }
        // A chained neighbor hashes nothing per call; its probes and
        // output count as the scan's do.
        let mut chained = r3.clone();
        chained.chain_on(neighbor_keys(&v, 2, JoinSide::Right).unwrap());
        let (out, sizes) = traced_hop(&v, &one, &chained);
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
        let hits = |idx: &JoinIndex, key: i64| idx.0.probe(&[0], &tup![key], &[0]).unwrap().count();
        idx.apply_delta(&Bag::from_pairs([(tup![3, 7], 1), (tup![3, 9], 2)]));
        assert_eq!(idx.0.distinct_len(), 2);
        assert_eq!(hits(&idx, 3), 2);
        idx.apply_delta(&Bag::from_pairs([(tup![3, 7], -1)]));
        assert_eq!(idx.0.distinct_len(), 1);
        assert_eq!(hits(&idx, 4), 0);
        idx.apply_delta(&Bag::from_pairs([(tup![3, 9], -2)]));
        assert!(idx.0.is_empty());
        assert_eq!(hits(&idx, 3), 0);
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
    fn local_selection_filters_the_probed_matches() {
        let v = ViewDefBuilder::new()
            .relation(Schema::new("R1", ["A", "B"]).unwrap())
            .relation(Schema::new("R2", ["C", "D"]).unwrap())
            .join("R1.B", "R2.C")
            .select("R2.D", crate::predicate::CmpOp::Gt, 0)
            .build()
            .unwrap();
        let r2 = Bag::from_pairs([(tup![3, 7], 1), (tup![3, 0], 2), (tup![3, -4], 1)]);
        let mut idx = JoinIndex::new(neighbor_keys(&v, 1, JoinSide::Right).unwrap());
        idx.apply_delta(&r2);
        let pd = PartialDelta::seed(&v, 0, &Bag::from_tuples([tup![1, 3]])).unwrap();
        let fast = extend_partial_indexed(&v, &pd, &idx, JoinSide::Right).unwrap();
        assert_eq!(fast.bag, Bag::from_tuples([tup![1, 3, 3, 7]]));
        assert_eq!(fast, extend_partial(&v, &pd, &r2, JoinSide::Right).unwrap());
    }

    #[test]
    fn neighbor_keys_follow_the_join_condition() {
        let v = view();
        // R2 entered from R1 is keyed on C; R1 entered from R2 on B.
        assert_eq!(neighbor_keys(&v, 1, JoinSide::Right), Some(vec![0]));
        assert_eq!(neighbor_keys(&v, 0, JoinSide::Left), Some(vec![1]));
        // The chain ends: nothing left of R1, nothing right of R2.
        assert!(neighbor_keys(&v, 0, JoinSide::Right).is_none());
        assert!(neighbor_keys(&v, 1, JoinSide::Left).is_none());
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
