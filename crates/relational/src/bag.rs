//! Counted bags (multisets) with *signed* multiplicities.
//!
//! `Bag` is the single representation for both base-relation contents
//! (all counts positive, enforced by [`crate::relation::BaseRelation`]) and
//! **delta relations** — the `ΔR` / `ΔV` objects of the SWEEP paper, whose
//! counts are signed: `+k` means "insert `k` copies", `−k` means "delete `k`
//! copies". The bag keeps the invariant that no stored count is zero, so
//! `a + (−a) = ∅` and emptiness tests are exact.
//!
//! A bag is one dense vector of `(tuple, count)` entries in insertion order
//! plus a table of `u32` positions into it, probed by the keyed hash every
//! [`Tuple`] carries: scanning a bag (a source's `R_i`, a compensation
//! term, a view) walks one slice, in the order its rows were allocated.
//! A bag may also be **chained** on key columns ([`Bag::chain_on`]), so a
//! join probes it on its key instead of scanning it.

use crate::error::RelationalError;
use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher};

/// A table slot, chain head or chain link that names no entry.
const EMPTY: u32 = u32::MAX;

/// Slots in the smallest non-empty table.
const MIN_SLOTS: usize = 4;

/// Slots of the smallest table that holds `distinct` entries: a power of
/// two at load ≤ 3/4.
fn slots_for(distinct: usize) -> usize {
    (distinct * 4)
        .div_ceil(3)
        .next_power_of_two()
        .max(MIN_SLOTS)
}

/// A multiset of tuples with signed integer multiplicities.
///
/// This is the `RELATION` type of the paper's pseudocode (Figures 3, 4, 6):
/// updates, partial view changes, query answers and compensation terms are
/// all `Bag`s. Zero-count entries are never stored.
///
/// **Layout.** The entries are one dense `Vec<(Tuple, i64)>`; beside it an
/// open-addressed table of `u32` positions into that vector (a power of
/// two, load ≤ 3/4, linear probing) is indexed by the keyed hash each
/// tuple carries, so no bag operation hashes a value, and walking the bag
/// is a walk over one slice. Slots are placed by that per-process random
/// SipHash, which is what keeps crafted rows from flooding one run of the
/// table; tuples whose hashes collide stay distinct entries.
///
/// **Order.** Entries are kept in insertion order, except that an entry
/// whose count reaches zero leaves by `swap_remove`: the last entry takes
/// its place. [`Bag::iter`] walks that order; no caller may depend on it.
///
/// **Chains.** A bag chained on key columns ([`Bag::chain_on`]) links its
/// entry positions into one doubly linked list per key bucket, kept exact
/// in O(1) by every add, cancel and move. A clone keeps the chains; a
/// derived bag (negated, filtered, projected) has none.
///
/// **Cap.** Positions are `u32` (with `u32::MAX` marking an empty slot), so
/// a bag holds at most 2³² − 1 distinct tuples — 128 GiB of entries.
#[derive(Clone, Default)]
pub struct Bag {
    entries: Vec<(Tuple, i64)>,
    /// Positions into `entries`, or [`EMPTY`]; empty until the first entry.
    slots: Box<[u32]>,
    /// The chains the bag is kept on, one per key-column set.
    chains: Vec<Chain>,
}

/// One chain of a bag's entries on the key columns `cols`: `heads` (a
/// power of two, at least one per entry) holds each bucket's first entry
/// and `links[pos]` entry `pos`'s `[prev, next]` in its bucket. A bucket is
/// picked by SipHash of the key under `seed`, drawn for this chain, so
/// crafted rows cannot pile onto one; an entry with a NULL key column is
/// on no chain, as a NULL key joins nothing.
#[derive(Clone, Default)]
struct Chain {
    cols: Vec<usize>,
    seed: RandomState,
    heads: Box<[u32]>,
    links: Vec<[u32; 2]>,
}

impl Chain {
    /// The bucket of the key in `t`'s `cols`; `None` when one is NULL.
    fn bucket(&self, t: &Tuple, cols: &[usize]) -> Option<usize> {
        Some(key_hash(&self.seed, t, cols)? as usize & (self.heads.len() - 1))
    }

    /// Link every entry afresh, under heads sized for them.
    fn rehash(&mut self, entries: &[(Tuple, i64)]) {
        let mut heads = vec![EMPTY; entries.len().next_power_of_two().max(MIN_SLOTS)];
        let mut links = vec![[EMPTY; 2]; entries.len()];
        let mask = heads.len() - 1;
        for (pos, (t, _)) in entries.iter().enumerate() {
            if let Some(h) = key_hash(&self.seed, t, &self.cols) {
                link(&mut heads, &mut links, pos, h as usize & mask);
            }
        }
        self.heads = heads.into();
        self.links = links;
    }

    /// Point what points at entry `pos`, holding `t` — its neighbors, or
    /// its bucket's head when it is first — at position `to` instead;
    /// `None` unlinks `pos`, pointing its neighbors at each other.
    fn repoint(&mut self, pos: usize, t: &Tuple, to: Option<u32>) {
        let [prev, next] = self.links[pos];
        if next != EMPTY {
            self.links[next as usize][0] = to.unwrap_or(prev);
        }
        if prev != EMPTY {
            self.links[prev as usize][1] = to.unwrap_or(next);
        } else if let Some(b) = self.bucket(t, &self.cols) {
            self.heads[b] = to.unwrap_or(next);
        }
    }
}

/// SipHash of the key in `t`'s `cols` under `seed`, a table's own key;
/// `None` when a key column is NULL, as a NULL key joins nothing. The one
/// key hash of a bag's chains and of `eval`'s per-call tables. Always
/// inlined: as a call from [`Chain::rehash`]'s loop it made loading a
/// chain ≈ 20 % slower.
#[inline(always)]
pub(crate) fn key_hash(seed: &RandomState, t: &Tuple, cols: &[usize]) -> Option<u64> {
    let mut h = seed.build_hasher();
    for &k in cols {
        let v = t.at(k);
        if matches!(v, Value::Null) {
            return None;
        }
        v.hash(&mut h);
    }
    Some(h.finish())
}

/// Put entry `pos`, linked nowhere, first in bucket `b` of a chain's
/// `heads` and `links`.
fn link(heads: &mut [u32], links: &mut [[u32; 2]], pos: usize, b: usize) {
    let next = std::mem::replace(&mut heads[b], pos as u32);
    links[pos][1] = next;
    if next != EMPTY {
        links[next as usize][0] = pos as u32;
    }
}

impl Bag {
    /// The empty bag.
    pub fn new() -> Self {
        Bag::default()
    }

    fn with_capacity(distinct: usize) -> Self {
        Bag {
            entries: Vec::with_capacity(distinct),
            slots: if distinct == 0 {
                Box::default()
            } else {
                vec![EMPTY; slots_for(distinct)].into()
            },
            chains: Vec::new(),
        }
    }

    /// Keep the bag chained on the key columns `cols` from now on (a no-op
    /// when it already is), for [`Bag::probe`].
    pub fn chain_on(&mut self, cols: Vec<usize>) {
        if !self.chained_on(&cols) {
            let mut chain = Chain {
                cols,
                ..Chain::default()
            };
            chain.rehash(&self.entries);
            self.chains.push(chain);
        }
    }

    /// Is the bag chained on exactly the key columns `cols`, in order?
    pub fn chained_on(&self, cols: &[usize]) -> bool {
        self.chains.iter().any(|c| c.cols == cols)
    }

    /// The entries whose key columns `cols` equal `row`'s `row_cols`, pair
    /// by pair — none when one of those is NULL — walked along the bag's
    /// chain on `cols`; `None` when it carries no such chain.
    pub fn probe<'a>(
        &'a self,
        cols: &[usize],
        row: &'a Tuple,
        row_cols: &'a [usize],
    ) -> Option<impl Iterator<Item = (&'a Tuple, i64)> + 'a> {
        let chain = self.chains.iter().find(|c| c.cols == cols)?;
        let mut at = chain
            .bucket(row, row_cols)
            .map_or(EMPTY, |b| chain.heads[b]);
        Some(std::iter::from_fn(move || {
            while let Some((t, c)) = self.entries.get(at as usize) {
                at = chain.links[at as usize][1];
                let mut pairs = chain.cols.iter().zip(row_cols);
                if pairs.all(|(&k, &r)| t.at(k) == row.at(r)) {
                    return Some((t, *c));
                }
            }
            None
        }))
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

    /// The table slot `hash` starts its probe run at.
    fn home(&self, hash: u64) -> usize {
        hash as usize & (self.slots.len() - 1)
    }

    fn next(&self, slot: usize) -> usize {
        (slot + 1) & (self.slots.len() - 1)
    }

    /// The slot holding `tuple`'s position (`Ok`), or the empty slot that
    /// ends its probe run (`Err`; `0` when the table is empty).
    fn find(&self, tuple: &Tuple) -> Result<usize, usize> {
        if self.slots.is_empty() {
            return Err(0);
        }
        let mut slot = self.home(tuple.keyed_hash());
        loop {
            match self.slots[slot] {
                EMPTY => return Err(slot),
                pos if self.entries[pos as usize].0 == *tuple => return Ok(slot),
                _ => slot = self.next(slot),
            }
        }
    }

    /// The first empty slot of `hash`'s probe run.
    fn vacant(&self, hash: u64) -> usize {
        let mut slot = self.home(hash);
        while self.slots[slot] != EMPTY {
            slot = self.next(slot);
        }
        slot
    }

    /// Append an entry whose tuple is not in the bag; `slot` is the empty
    /// slot [`Bag::find`] ended on, unless the table has to grow first.
    fn push(&mut self, slot: usize, tuple: Tuple, count: i64) {
        let pos = self.entries.len();
        debug_assert!(pos < EMPTY as usize, "a bag holds at most 2^32 - 1 tuples");
        let slot = if pos < self.slots.len() / 4 * 3 {
            slot
        } else {
            self.rebuild(slots_for(pos + 1));
            self.vacant(tuple.keyed_hash())
        };
        self.slots[slot] = pos as u32;
        self.entries.push((tuple, count));
        for chain in &mut self.chains {
            if pos == chain.heads.len() {
                chain.rehash(&self.entries);
                continue;
            }
            chain.links.push([EMPTY; 2]);
            if let Some(b) = chain.bucket(&self.entries[pos].0, &chain.cols) {
                link(&mut chain.heads, &mut chain.links, pos, b);
            }
        }
    }

    /// Re-index every entry into a fresh table of `len` slots.
    fn rebuild(&mut self, len: usize) {
        self.slots = vec![EMPTY; len].into();
        for pos in 0..self.entries.len() {
            let slot = self.vacant(self.entries[pos].0.keyed_hash());
            self.slots[slot] = pos as u32;
        }
    }

    /// Drop the entry `slot` points at. The slot is emptied by backward
    /// shift — every later entry of the probe run that may move closer to
    /// its home moves into the hole — so lookups never meet a tombstone;
    /// the entry leaves by `swap_remove`, and the slot and chain links of
    /// the entry moved into its place are re-pointed.
    fn remove(&mut self, slot: usize) {
        let pos = self.slots[slot] as usize;
        let mask = self.slots.len() - 1;
        let (mut hole, mut at) = (slot, self.next(slot));
        while self.slots[at] != EMPTY {
            let home = self.home(self.entries[self.slots[at] as usize].0.keyed_hash());
            // The entry at `at` may fill the hole when the hole lies on
            // its probe run, i.e. in [home, at) cyclically.
            if at.wrapping_sub(home) & mask >= at.wrapping_sub(hole) & mask {
                self.slots[hole] = self.slots[at];
                hole = at;
            }
            at = self.next(at);
        }
        self.slots[hole] = EMPTY;
        let last = self.entries.len() - 1;
        if pos != last {
            let mut moved = self.home(self.entries[last].0.keyed_hash());
            while self.slots[moved] as usize != last {
                moved = self.next(moved);
            }
            self.slots[moved] = pos as u32;
        }
        for chain in &mut self.chains {
            chain.repoint(pos, &self.entries[pos].0, None);
            if pos != last {
                chain.repoint(last, &self.entries[last].0, Some(pos as u32));
            }
            chain.links.swap_remove(pos);
        }
        self.entries.swap_remove(pos);
    }

    /// Add `count` copies of `tuple` (negative to delete). Entries that
    /// reach zero are removed, preserving the no-zero invariant.
    pub fn add(&mut self, tuple: Tuple, count: i64) {
        if count == 0 {
            return;
        }
        match self.find(&tuple) {
            Ok(slot) => {
                let entry = &mut self.entries[self.slots[slot] as usize];
                entry.1 += count;
                if entry.1 == 0 {
                    self.remove(slot);
                }
            }
            Err(slot) => self.push(slot, tuple, count),
        }
    }

    /// Multiplicity of `tuple` (zero when absent).
    pub fn count(&self, tuple: &Tuple) -> i64 {
        self.find(tuple)
            .map_or(0, |slot| self.entries[self.slots[slot] as usize].1)
    }

    /// Number of *distinct* tuples.
    pub fn distinct_len(&self) -> usize {
        self.entries.len()
    }

    /// Sum of absolute multiplicities (total tuple occurrences carried).
    pub fn total_multiplicity(&self) -> u64 {
        self.entries.iter().map(|(_, c)| c.unsigned_abs()).sum()
    }

    /// True when no tuple has a non-zero count.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when every count is strictly positive (a legal base-relation /
    /// materialized-view state).
    pub fn all_positive(&self) -> bool {
        self.entries.iter().all(|&(_, c)| c > 0)
    }

    /// Iterate `(tuple, count)` in the bag's order: insertion order, where
    /// a cancelled entry's place is taken by the last entry (see [`Bag`]).
    /// Callers must not depend on it — results are order-insensitive or
    /// canonicalised ([`Bag::to_sorted_vec`]).
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, i64)> {
        self.entries.iter().map(|(t, c)| (t, *c))
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
        for (t, c) in other.entries {
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

    /// The bag with all multiplicities negated. Same tuples at the same
    /// positions, so the table is copied unchanged.
    pub fn negated(&self) -> Bag {
        Bag {
            entries: self.entries.iter().map(|(t, c)| (t.clone(), -c)).collect(),
            slots: self.slots.clone(),
            chains: Vec::new(),
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
        let mut out = Bag {
            entries: Vec::with_capacity(self.distinct_len()),
            slots: Box::default(),
            chains: Vec::new(),
        };
        out.entries.extend(
            self.entries
                .iter()
                .filter(|(t, _)| pred(t))
                .map(|(t, c)| (t.clone(), *c)),
        );
        if !out.entries.is_empty() {
            out.rebuild(slots_for(out.entries.len()));
        }
        out
    }

    /// Map every tuple through `f`, summing counts of collided images.
    /// (Projection uses this.)
    pub fn map_tuples(&self, mut f: impl FnMut(&Tuple) -> Tuple) -> Bag {
        let mut out = Bag::with_capacity(self.distinct_len());
        for (t, c) in self.iter() {
            out.add(f(t), c);
        }
        out
    }

    /// Canonical sorted `(tuple, count)` listing — deterministic regardless
    /// of the bag's order; use for display, golden tests and digests.
    pub fn to_sorted_vec(&self) -> Vec<(Tuple, i64)> {
        let mut v = self.entries.clone();
        v.sort();
        v
    }

    /// Approximate serialized size in bytes for message accounting: each
    /// entry ships its tuple plus an 8-byte count.
    pub fn size_bytes(&self) -> usize {
        8 + self
            .entries
            .iter()
            .map(|(t, _)| t.size_bytes() + 8)
            .sum::<usize>()
    }

    /// The owned `(tuple, count)` entries (distinct tuples, no zero
    /// counts).
    pub(crate) fn into_counts(self) -> impl ExactSizeIterator<Item = (Tuple, i64)> {
        self.entries.into_iter()
    }
}

/// Order-independent: the same distinct tuples at the same counts.
impl PartialEq for Bag {
    fn eq(&self, other: &Bag) -> bool {
        self.distinct_len() == other.distinct_len()
            && self.entries.iter().all(|(t, c)| other.count(t) == *c)
    }
}

impl Eq for Bag {}

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
    use crate::value::Value;

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
        let f = a.filter(|t| *t.at(0) == Value::Int(1));
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

    /// Every tuple is hashed under one key per process: a tuple built on
    /// another thread (a source's) finds the entry of an equal tuple built
    /// on this one (the warehouse's).
    #[test]
    fn a_tuple_built_on_another_thread_finds_its_entry() {
        let mut bag = Bag::from_pairs([(tup![1, "a", 2.5], 3)]);
        let there = std::thread::spawn(|| tup![1, "a", 2.5]).join().unwrap();
        assert_eq!(bag.count(&there), 3);
        bag.add(there, -3);
        assert!(bag.is_empty());
    }

    #[test]
    fn distinct_tuples_with_equal_hashes_stay_distinct_entries() {
        let a = Tuple::with_hash(vec![Value::Int(1)], 7);
        let b = Tuple::with_hash(vec![Value::Int(2)], 7);
        let mut bag = Bag::from_pairs([(a.clone(), 1), (b.clone(), 2)]);
        assert_eq!(bag.distinct_len(), 2);
        assert_eq!((bag.count(&a), bag.count(&b)), (1, 2));
        bag.add(a.clone(), -1);
        assert_eq!((bag.count(&a), bag.count(&b)), (0, 2));
        assert_eq!(bag.distinct_len(), 1);
    }

    /// The table's invariants: every entry's position sits in exactly one
    /// slot of its probe run (no empty slot between its home and it), no
    /// other slot is occupied, and the load stays ≤ 3/4.
    fn assert_table(bag: &Bag, ctx: &str) {
        let n = bag.entries.len();
        assert!(n <= bag.slots.len() / 4 * 3, "{ctx}: load");
        let mut seen = vec![false; n];
        for &pos in bag.slots.iter().filter(|&&p| p != EMPTY) {
            assert!(
                !std::mem::replace(&mut seen[pos as usize], true),
                "{ctx}: {pos} twice"
            );
        }
        assert!(seen.iter().all(|&s| s), "{ctx}: an entry has no slot");
        for (pos, (t, _)) in bag.entries.iter().enumerate() {
            let slot = bag
                .find(t)
                .unwrap_or_else(|_| panic!("{ctx}: {t} unreachable"));
            assert_eq!(
                bag.slots[slot] as usize, pos,
                "{ctx}: {t} finds another entry"
            );
        }
    }

    /// Every chain's invariants: walking each bucket from its head, every
    /// `prev` link names the entry walked before and every entry belongs
    /// to the bucket; the walks visit each entry with a NULL-free key
    /// exactly once and no NULL-keyed one; and probing with any entry's
    /// key yields exactly the bag filtered on that key.
    fn assert_chains(bag: &Bag, ctx: &str) {
        for chain in &bag.chains {
            let ctx = format!("{ctx}: chain on {:?}", chain.cols);
            assert_eq!(chain.links.len(), bag.entries.len(), "{ctx}: links");
            assert!(chain.heads.len() >= bag.entries.len(), "{ctx}: heads");
            let mut seen = vec![false; bag.entries.len()];
            for (b, &head) in chain.heads.iter().enumerate() {
                let (mut prev, mut at) = (EMPTY, head);
                while at != EMPTY {
                    let pos = at as usize;
                    assert_eq!(chain.links[pos][0], prev, "{ctx}: prev of {pos}");
                    assert!(
                        !std::mem::replace(&mut seen[pos], true),
                        "{ctx}: {pos} twice"
                    );
                    let t = &bag.entries[pos].0;
                    assert_eq!(
                        chain.bucket(t, &chain.cols),
                        Some(b),
                        "{ctx}: {t} misplaced"
                    );
                    (prev, at) = (at, chain.links[pos][1]);
                }
            }
            for (pos, (t, _)) in bag.entries.iter().enumerate() {
                let null = chain.cols.iter().any(|&k| *t.at(k) == Value::Null);
                assert_eq!(seen[pos], !null, "{ctx}: {t} on a chain: {}", seen[pos]);
                let key = |u: &Tuple| {
                    chain
                        .cols
                        .iter()
                        .map(|&k| u.at(k).clone())
                        .collect::<Vec<_>>()
                };
                let mut got: Vec<_> = bag
                    .probe(&chain.cols, t, &chain.cols)
                    .unwrap()
                    .map(|(u, c)| (u.clone(), c))
                    .collect();
                let mut want: Vec<_> = bag
                    .entries
                    .iter()
                    .filter(|(u, _)| !null && key(u) == key(t))
                    .cloned()
                    .collect();
                got.sort();
                want.sort();
                assert_eq!(got, want, "{ctx}: probe by {t}");
            }
        }
    }

    /// Random add/cancel sequences over tuples with forced hashes — many
    /// sharing one hash, many homed on a table's last slots (a hash of
    /// `u64::MAX − j` is home to slot `mask − j` at every size), so probe
    /// runs collide and wrap around the end — against a `BTreeMap` model,
    /// checking the table after every operation. A second bag takes the
    /// same operations chained on its key column (a NULL in one tuple of
    /// seven, so few keys share a chain) and on both columns, from the
    /// start or from a loaded bag half-way, and its chains are checked
    /// after every operation too.
    #[test]
    fn forced_hashes_match_a_model_and_keep_the_table_sound() {
        use dw_rng::Rng64;
        use std::collections::BTreeMap;
        for case in 0..64 {
            let mut r = Rng64::new(case);
            let domain = 1 + r.usize_below(40) as i64;
            let hash_of = |k: i64| match k % 3 {
                0 => 7,
                1 => u64::MAX - (k as u64 % 4),
                _ => (k as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            };
            let key = |k: i64| {
                if k % 7 == 6 {
                    Value::Null
                } else {
                    Value::Int(k % 4)
                }
            };
            let tuple = |k: i64| Tuple::with_hash(vec![Value::Int(k), key(k)], hash_of(k));
            let (mut bag, mut model) = (Bag::new(), BTreeMap::new());
            let (mut chained, chain_from) = (Bag::new(), (case % 2) * 100);
            for step in 0..200 {
                let ctx = format!("case {case} step {step}");
                if step == chain_from {
                    chained.chain_on(vec![1]);
                    chained.chain_on(vec![1, 0]);
                }
                let k = r.i64_in(0, domain);
                let held = model.get(&k).copied().unwrap_or(0);
                let c = if held != 0 && r.chance(0.4) {
                    -held
                } else {
                    [-2, -1, 1, 2, 3][r.usize_below(5)]
                };
                bag.add(tuple(k), c);
                chained.add(tuple(k), c);
                *model.entry(k).or_insert(0) += c;
                model.retain(|_, c| *c != 0);
                assert_table(&bag, &ctx);
                assert_table(&chained, &ctx);
                assert_chains(&chained, &ctx);
                assert_eq!(bag.distinct_len(), model.len(), "{ctx}");
                for k in 0..domain {
                    let want = model.get(&k).copied().unwrap_or(0);
                    assert_eq!(bag.count(&tuple(k)), want, "{ctx}: count of {k}");
                    assert_eq!(chained.count(&tuple(k)), want, "{ctx}: count of {k}");
                }
            }
            let ctx = format!("case {case}");
            assert_eq!(chained.chains.len(), 2, "{ctx}");
            assert_table(&bag.negated(), &ctx);
            assert_table(&bag.filter(|t| *t.at(0) != Value::Int(0)), &ctx);
            assert_table(&bag.clone(), &ctx);
            assert_chains(&chained.clone(), &ctx);
            let owned: BTreeMap<Tuple, i64> = bag.clone().into_counts().collect();
            let want: BTreeMap<Tuple, i64> = model.iter().map(|(&k, &c)| (tuple(k), c)).collect();
            assert_eq!(owned, want, "{ctx}: into_counts");
        }
    }

    /// A 10 000-entry bag chained on two keys, through some churn, holds
    /// at most 16 bytes of chain storage (heads and links, by capacity)
    /// per entry per key.
    #[test]
    fn chains_cost_at_most_16_bytes_per_entry_per_key() {
        let n = 10_000;
        let mut bag = Bag::from_tuples((0..n).map(|i| tup![i, i % 97]));
        bag.chain_on(vec![0]);
        bag.chain_on(vec![1]);
        for i in 0..1_000 {
            bag.add(tup![i, i % 97], -1);
            bag.add(tup![n + i, i % 5], 1);
        }
        assert_eq!(bag.distinct_len(), n as usize);
        for chain in &bag.chains {
            let bytes = chain.heads.len() * 4 + chain.links.capacity() * 8;
            let per_entry = bytes as f64 / n as f64;
            assert!(
                per_entry <= 16.0,
                "{:?}: {per_entry} B per entry",
                chain.cols
            );
        }
    }

    #[test]
    fn apply_delta_reaches_zero_cleanly() {
        let mut state = Bag::from_pairs([(tup![7], 2)]);
        state.apply_delta(&Bag::singleton(tup![7], -2)).unwrap();
        assert!(state.is_empty());
    }
}
