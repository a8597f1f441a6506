//! Structurally shared maps and bags: O(1) handle copies, O(|Δ|) updates.
//!
//! A materialized view is read by three parties that each need *their
//! own moment* of it — the maintenance engine (the live contents), the
//! serving layer (one frozen epoch per install) and the durable store
//! (the last checkpoint). Giving each a private `Bag` makes every install
//! pay `O(|V|)` per party for a `ΔV` of a handful of tuples. This module
//! is the one representation all three hold instead.
//!
//! [`SharedMap`] is a hash map cut into **chunks**: entry `(k, v)` lives
//! in chunk `⌊hash(k) · n / 2⁶⁴⌋` of `n`, a small vector that keeps each
//! entry's hash beside it (a key is hashed once: the hash picks the
//! chunk, screens the scan inside it, and re-splits without re-hashing).
//! Chunks sit behind `Arc`s under an `Arc`'d spine, so
//!
//! * **cloning a handle** is one refcount bump — no entry is copied;
//! * **updating** a handle copies the spine (`n` pointers) if a sibling
//!   handle still shares it, and then only the chunks that are both
//!   *touched* and *shared* (`Arc::make_mut`). Every mutator returns how
//!   many entries it copied that way — `0` on a uniquely held handle — so
//!   callers can gate "publish copies `O(|Δ|)` tuples" on an exact count.
//!
//! The chunk count follows the map: chunks hold `CHUNK_TARGET` (64) entries
//! when (re)built, and the map re-splits itself when the average load
//! doubles or falls to a quarter, which keeps the entries copied per
//! touched chunk flat from a 27k- to a 270k-tuple view at amortised
//! `O(1)` per update. Nothing about the sizing is configurable.
//!
//! The chunk hash is an in-tree multiply–rotate hasher, **deterministic**
//! (no per-process seed): equal contents always chunk, iterate and count
//! copies identically, which is what lets `BENCH_report.json` hold exact
//! copied-tuple counts. It is not collision-resistant; colliding keys
//! only lengthen one chunk's equal-hash run, they never break lookups.
//!
//! [`SharedBag`] is the counted-multiset face of a `SharedMap<Tuple,
//! i64>` with [`Bag`]'s read surface and no-zero-count invariant; it is
//! what `MaterializedView`, the snapshot store's epochs and checkpointed
//! view runtimes hold. `Arc::make_mut` and the chunk layout appear in
//! this file only (a `ci.sh` boundary guard keeps it that way).

use crate::bag::Bag;
use crate::error::RelationalError;
use crate::tuple::Tuple;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Entries per chunk at (re)build time. Balances the two per-update
/// costs at the view sizes the warehouse sees: the spine copy shrinks
/// with bigger chunks (`|V| / target` pointers), the copy of each touched
/// shared chunk grows with them (`target` entries per delta tuple).
const CHUNK_TARGET: usize = 64;

/// The deterministic chunk hasher: FxHash's multiply–rotate word mix
/// with a final avalanche, so the *high* bits (which pick the chunk)
/// depend on every input word.
#[derive(Default)]
struct ChunkHasher(u64);

impl ChunkHasher {
    const K: u64 = 0x517c_c1b7_2722_0a95;

    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for ChunkHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for part in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..part.len()].copy_from_slice(part);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.mix(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        let h = (self.0 ^ (self.0 >> 32)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^ (h >> 29)
    }
}

fn chunk_hash<K: Hash>(key: &K) -> u64 {
    let mut h = ChunkHasher::default();
    key.hash(&mut h);
    h.finish()
}

/// Chunk of `hash` among `n` (multiply-shift: any `n`, no modulo).
#[inline]
fn chunk_of(hash: u64, n: usize) -> usize {
    ((u128::from(hash) * n as u128) >> 64) as usize
}

fn chunks_for(len: usize) -> usize {
    (len / CHUNK_TARGET).max(1)
}

#[derive(Clone)]
struct Entry<K, V> {
    hash: u64,
    key: K,
    value: V,
}

type Chunk<K, V> = Vec<Entry<K, V>>;

/// Cut `entries` (distinct keys) into the chunks their hashes name.
fn scatter<K, V>(entries: impl Iterator<Item = Entry<K, V>>, len: usize) -> Vec<Arc<Chunk<K, V>>> {
    let n = chunks_for(len);
    let per = len / n;
    let mut chunks: Vec<Chunk<K, V>> = (0..n).map(|_| Vec::with_capacity(per + per / 2)).collect();
    for e in entries {
        chunks[chunk_of(e.hash, n)].push(e);
    }
    chunks.into_iter().map(Arc::new).collect()
}

/// Where `key` sits in its chunk. The stored hash screens the scan, so
/// keys are compared only on a full 64-bit match.
fn locate<K: Eq, V>(chunk: &[Entry<K, V>], hash: u64, key: &K) -> Option<usize> {
    chunk.iter().position(|e| e.hash == hash && e.key == *key)
}

/// A hash map whose handles share structure (see the module docs).
pub struct SharedMap<K, V> {
    /// Never empty: an empty map is one empty chunk.
    spine: Arc<Vec<Arc<Chunk<K, V>>>>,
    len: usize,
}

impl<K, V> Clone for SharedMap<K, V> {
    fn clone(&self) -> Self {
        SharedMap {
            spine: Arc::clone(&self.spine),
            len: self.len,
        }
    }
}

impl<K, V> Default for SharedMap<K, V> {
    fn default() -> Self {
        SharedMap {
            spine: Arc::new(vec![Arc::new(Vec::new())]),
            len: 0,
        }
    }
}

impl<K, V> SharedMap<K, V> {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the map holds no entry.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterate `(key, value)`, chunk by chunk. The order is a function
    /// of the update history alone (no per-process hash seed).
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        let entries = self.spine.iter().flat_map(|c| c.iter());
        entries.map(|e| (&e.key, &e.value))
    }

    /// Entries of `self` that live in chunks `other` does not physically
    /// share — what a handle copy followed by updates has paid so far,
    /// and `0` for a fresh clone.
    pub fn unshared_len(&self, other: &Self) -> usize {
        if Arc::ptr_eq(&self.spine, &other.spine) {
            0
        } else if self.spine.len() != other.spine.len() {
            self.len
        } else {
            let pairs = self.spine.iter().zip(other.spine.iter());
            let unshared = pairs.filter(|(a, b)| !Arc::ptr_eq(a, b));
            unshared.map(|(a, _)| a.len()).sum()
        }
    }
}

impl<K: Hash + Eq + Clone, V: Clone> SharedMap<K, V> {
    /// Bulk-build from entries with **distinct** keys (a later duplicate
    /// would shadow nothing and break `len`). Each key is hashed once.
    pub fn from_distinct(entries: impl ExactSizeIterator<Item = (K, V)>) -> Self {
        let len = entries.len();
        let entries = entries.map(|(key, value)| Entry {
            hash: chunk_hash(&key),
            key,
            value,
        });
        SharedMap {
            spine: Arc::new(scatter(entries, len)),
            len,
        }
    }

    /// The value stored for `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        let hash = chunk_hash(key);
        let chunk = &self.spine[chunk_of(hash, self.spine.len())];
        locate(chunk, hash, key).map(|at| &chunk[at].value)
    }

    /// Insert, replace or remove the entry for `key`: `next` sees the
    /// current value and returns the one to store (`None` = absent).
    /// Returns the entries this handle had to copy because a sibling
    /// handle shares them — `0` when the handle is uniquely held or the
    /// update changes nothing.
    pub fn update(&mut self, key: K, next: impl FnOnce(Option<&V>) -> Option<V>) -> usize {
        let hash = chunk_hash(&key);
        let i = chunk_of(hash, self.spine.len());
        let at = locate(&self.spine[i], hash, &key);
        let next = next(at.map(|at| &self.spine[i][at].value));
        if at.is_none() && next.is_none() {
            return 0;
        }
        let slot = &mut Arc::make_mut(&mut self.spine)[i];
        let copied = if Arc::get_mut(slot).is_some() {
            0
        } else {
            slot.len()
        };
        let chunk = Arc::make_mut(slot);
        match (at, next) {
            (Some(at), Some(value)) => chunk[at].value = value,
            (Some(at), None) => {
                chunk.swap_remove(at);
                self.len -= 1;
            }
            (None, Some(value)) => {
                chunk.push(Entry { hash, key, value });
                self.len += 1;
            }
            (None, None) => {}
        }
        copied + self.rebalance()
    }

    /// Re-split when the average chunk load has doubled or fallen to a
    /// quarter since the last (re)build — amortised `O(1)` per update.
    /// Entries move without re-hashing; only those still shared with a
    /// sibling handle are copied (and counted).
    fn rebalance(&mut self) -> usize {
        let n = self.spine.len();
        let crowded = self.len > 2 * CHUNK_TARGET * n;
        let sparse = n > 1 && 4 * self.len < CHUNK_TARGET * n;
        if !crowded && !sparse {
            return 0;
        }
        let mut copied = 0;
        let spine = std::mem::take(&mut self.spine);
        let old = Arc::try_unwrap(spine).unwrap_or_else(|shared| (*shared).clone());
        let entries = old.into_iter().flat_map(|chunk| {
            Arc::try_unwrap(chunk).unwrap_or_else(|shared| {
                copied += shared.len();
                (*shared).clone()
            })
        });
        self.spine = Arc::new(scatter(entries, self.len));
        copied
    }
}

/// A counted bag (multiset with signed multiplicities, no zero counts)
/// whose handles share structure — [`Bag`]'s read surface over a
/// [`SharedMap`]. Cloning copies no tuple; [`SharedBag::merge`] copies
/// only the chunks the delta touches that a sibling handle still shares.
#[derive(Clone, Default)]
pub struct SharedBag {
    counts: SharedMap<Tuple, i64>,
}

impl SharedBag {
    /// The empty bag.
    pub fn new() -> Self {
        SharedBag::default()
    }

    /// Add `count` copies of `tuple` (negative to delete), dropping the
    /// entry when it reaches zero. Returns the tuples copied (see
    /// [`SharedMap::update`]).
    pub fn add(&mut self, tuple: Tuple, count: i64) -> usize {
        if count == 0 {
            return 0;
        }
        self.counts.update(tuple, |old| {
            let next = old.copied().unwrap_or(0) + count;
            (next != 0).then_some(next)
        })
    }

    /// `self += delta` — the `+` of the paper's `V = V + ΔV`. Returns
    /// the tuples copied: `0` on a uniquely held handle, otherwise the
    /// sizes of the touched chunks a sibling handle shares.
    pub fn merge(&mut self, delta: &Bag) -> usize {
        let copies = delta.iter().map(|(t, c)| self.add(t.clone(), c));
        copies.sum()
    }

    /// Checked `self += delta` onto a non-negative state: refuses,
    /// *before* mutating, any delta that would drive a multiplicity below
    /// zero, reporting the smallest offending tuple (the contract of
    /// [`Bag::apply_delta`]). Returns the tuples copied.
    pub fn apply_delta(&mut self, delta: &Bag) -> Result<usize, RelationalError> {
        crate::bag::check_non_negative(delta, |t| self.count(t))?;
        Ok(self.merge(delta))
    }

    /// Multiplicity of `tuple` (zero when absent).
    pub fn count(&self, tuple: &Tuple) -> i64 {
        self.counts.get(tuple).copied().unwrap_or(0)
    }

    /// Number of *distinct* tuples.
    pub fn distinct_len(&self) -> usize {
        self.counts.len()
    }

    /// True when no tuple has a non-zero count.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// True when every count is strictly positive.
    pub fn all_positive(&self) -> bool {
        self.iter().all(|(_, c)| c > 0)
    }

    /// Iterate `(tuple, count)` in chunk order — repeatable, but not
    /// canonical (see [`SharedBag::to_sorted_vec`]).
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, i64)> {
        self.counts.iter().map(|(t, &c)| (t, c))
    }

    /// Keep only tuples satisfying `pred` (counts unchanged).
    pub fn filter(&self, mut pred: impl FnMut(&Tuple) -> bool) -> Bag {
        let kept = self.iter().filter(|(t, _)| pred(t));
        kept.map(|(t, c)| (t.clone(), c)).collect()
    }

    /// Canonical sorted `(tuple, count)` listing.
    pub fn to_sorted_vec(&self) -> Vec<(Tuple, i64)> {
        let mut v: Vec<(Tuple, i64)> = self.iter().map(|(t, c)| (t.clone(), c)).collect();
        v.sort();
        v
    }

    /// Materialise a private [`Bag`] with the same contents — the one
    /// deep copy this type offers, for oracles and algebra that need a
    /// plain bag.
    pub fn to_bag(&self) -> Bag {
        self.filter(|_| true)
    }

    /// Tuples of `self` in chunks `other` does not physically share
    /// (see [`SharedMap::unshared_len`]).
    pub fn unshared_len(&self, other: &SharedBag) -> usize {
        self.counts.unshared_len(&other.counts)
    }
}

impl From<Bag> for SharedBag {
    /// Partition an owned bag: tuples move (no refcount traffic), each is
    /// hashed once, chunks are presized.
    fn from(bag: Bag) -> Self {
        SharedBag {
            counts: SharedMap::from_distinct(bag.into_counts().into_iter()),
        }
    }
}

impl SharedBag {
    /// Same contents as a bag of `len` distinct tuples counted by `count`.
    fn same_counts(&self, len: usize, count: impl Fn(&Tuple) -> i64) -> bool {
        self.distinct_len() == len && self.iter().all(|(t, c)| count(t) == c)
    }
}

impl PartialEq for SharedBag {
    fn eq(&self, other: &SharedBag) -> bool {
        self.same_counts(other.distinct_len(), |t| other.count(t))
    }
}

impl Eq for SharedBag {}

impl PartialEq<Bag> for SharedBag {
    fn eq(&self, other: &Bag) -> bool {
        self.same_counts(other.distinct_len(), |t| other.count(t))
    }
}

impl PartialEq<SharedBag> for Bag {
    fn eq(&self, other: &SharedBag) -> bool {
        other == self
    }
}

impl fmt::Debug for SharedBag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::bag::fmt_counted(self.to_sorted_vec(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tup;

    fn ints(range: std::ops::Range<i64>) -> Bag {
        Bag::from_tuples(range.map(|i| tup![i, i * 7]))
    }

    #[test]
    fn reads_like_the_bag_it_was_built_from() {
        let bag = Bag::from_pairs([(tup![7, 8], 2), (tup![3, 5], 1), (tup![9, 9], 4)]);
        let shared = SharedBag::from(bag.clone());
        assert_eq!(shared, bag);
        assert_eq!(bag, shared);
        assert_eq!(shared.to_bag(), bag);
        assert_eq!(shared.to_sorted_vec(), bag.to_sorted_vec());
        assert_eq!(shared.count(&tup![7, 8]), 2);
        assert_eq!(shared.count(&tup![0, 0]), 0);
        assert_eq!(shared.distinct_len(), 3);
        assert_eq!(format!("{shared:?}"), format!("{bag:?}"));
        let odd = |t: &Tuple| t.at(0) != &crate::Value::Int(9);
        assert_eq!(shared.filter(odd), bag.filter(odd));
        assert!(shared.all_positive() && !shared.is_empty());
        assert!(SharedBag::new().is_empty());
    }

    #[test]
    fn zero_counts_are_never_stored() {
        let mut b = SharedBag::new();
        b.add(tup![1], 0);
        b.add(tup![1], 2);
        b.add(tup![1], -2);
        b.add(tup![2], -1);
        assert_eq!(b, Bag::singleton(tup![2], -1));
        assert!(!b.all_positive());
    }

    #[test]
    fn a_frozen_handle_keeps_its_moment() {
        let mut live = SharedBag::from(ints(0..1_000));
        let frozen = live.clone();
        assert_eq!(live.unshared_len(&frozen), 0);
        let delta = Bag::from_pairs([(tup![3, 21], -1), (tup![-1, -1], 1)]);
        let copied = live.merge(&delta);
        assert_eq!(frozen, ints(0..1_000));
        assert_eq!(live, ints(0..1_000).plus(&delta));
        // Two touched chunks (at most) were copied, not the bag.
        assert!(copied > 0 && copied <= 4 * 2 * CHUNK_TARGET, "{copied}");
        assert!(live.unshared_len(&frozen) <= copied + 1);
        // The next merge of the same chunks finds them already private.
        assert_eq!(live.merge(&delta.negated()), 0);
    }

    #[test]
    fn a_unique_handle_copies_nothing_even_across_resplits() {
        let mut b = SharedBag::new();
        let mut copied = 0;
        for i in 0..5_000 {
            copied += b.add(tup![i], 1);
        }
        assert!(b.counts.spine.len() > 1, "growth re-split the map");
        for i in 0..5_000 {
            copied += b.add(tup![i], -1);
        }
        assert_eq!(b.counts.spine.len(), 1, "shrinkage re-split it back");
        assert_eq!(copied, 0);
        assert!(b.is_empty());
    }

    #[test]
    fn chunk_load_follows_the_bag() {
        for len in [10usize, 1_000, 27_000] {
            let b = SharedBag::from(ints(0..len as i64));
            let n = b.counts.spine.len();
            assert_eq!(n, chunks_for(len));
            let max = b.counts.spine.iter().map(|c| c.len()).max().unwrap();
            assert!(max <= 3 * CHUNK_TARGET.max(len / n), "len {len}: {max}");
        }
    }

    #[test]
    fn checked_apply_is_atomic_and_names_the_smallest_offender() {
        let mut v = SharedBag::from(Bag::from_pairs([(tup![1], 1), (tup![5], 1)]));
        let bad = Bag::from_pairs([(tup![9], 1), (tup![5], -2), (tup![1], -2)]);
        let err = v.apply_delta(&bad).unwrap_err();
        assert!(
            matches!(&err, RelationalError::NegativeMultiplicity { tuple, resulting }
                if tuple == "(1)" && *resulting == -1),
            "{err:?}"
        );
        assert_eq!(v.distinct_len(), 2);
        v.apply_delta(&Bag::singleton(tup![1], -1)).unwrap();
        assert_eq!(v, Bag::singleton(tup![5], 1));
    }

    #[test]
    fn colliding_hashes_still_resolve_by_key() {
        let entry = |key: i64| Entry {
            hash: 42,
            key,
            value: key * 10,
        };
        let chunk: Chunk<i64, i64> = (0..4).map(entry).collect();
        for k in 0..4 {
            assert_eq!(chunk[locate(&chunk, 42, &k).unwrap()].value, k * 10);
        }
        assert_eq!(locate(&chunk, 42, &9), None);
        assert_eq!(locate(&chunk, 41, &0), None);
    }

    #[test]
    fn generic_map_updates_and_shares() {
        let mut m: SharedMap<i64, String> =
            SharedMap::from_distinct((0..300i32).map(|i| (i64::from(i), i.to_string())));
        let before = m.clone();
        let copied = m.update(7, |old| old.map(|s| format!("{s}!")));
        assert!(
            copied > 0 && copied < 300,
            "one shared chunk of four: {copied}"
        );
        assert_eq!(
            m.update(999, |_| None),
            0,
            "absent → absent touches nothing"
        );
        m.update(8, |_| None);
        assert_eq!(m.get(&7).map(String::as_str), Some("7!"));
        assert_eq!(m.get(&8), None);
        assert_eq!((m.len(), before.len()), (299, 300));
        assert_eq!(before.get(&7).map(String::as_str), Some("7"));
        assert_eq!(before.iter().count(), 300);
    }
}
