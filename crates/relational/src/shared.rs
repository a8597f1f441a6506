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
//! in chunk `⌊hash(k) · n / 2⁶⁴⌋` of `n`, stored with its 64-bit hash. A
//! key is hashed once: the hash picks the chunk, screens the scan of a
//! lookup (keys are compared only on a full hash match) and lets a
//! re-split move entries without re-hashing.
//! Chunks sit behind `Arc`s under an `Arc`'d spine, so
//!
//! * **cloning a handle** is one refcount bump — no entry is copied;
//! * **updating** a handle copies the spine (`n` pointers) if a sibling
//!   handle still shares it, and then only the chunks that are both
//!   *touched* and *shared* (`Arc::make_mut`). Every mutator returns how
//!   many entries it copied that way — `0` on a uniquely held handle — so
//!   callers can gate "publish copies `O(|Δ|)` tuples" on an exact count.
//!
//! A handle clone is for a moment someone will read while the original
//! moves on (a pinned serving epoch, an install record's snapshot). A
//! party that keeps its *own* lineage instead — a checkpoint image,
//! advanced in place by the deltas since the last one, or the live view
//! recovery rebuilds from it — starts from [`SharedBag::deep_copy`]: the
//! same chunks copied as they are (no re-hash, no `Bag` round-trip), so
//! neither side's updates ever copy a chunk the other holds. A lineage
//! nobody else holds merges in place; a serving epoch nobody pins is
//! retired into its successor the same way.
//!
//! The chunk count follows the map: chunks hold `CHUNK_TARGET` (64) entries
//! when (re)built, and the map re-splits itself when the average load
//! doubles or falls to a quarter, which keeps the entries copied per
//! touched chunk flat from a 27k- to a 270k-tuple view at amortised
//! `O(1)` per update. Nothing about the sizing is configurable.
//!
//! **One slack rule.** A chunk of `len` entries has room for at most
//! `len + len / 8 + 1`, wherever its capacity was set: `scatter` presizes
//! to the rule and gives back what its hashes did not fill, a
//! `deep_copy` or copy-on-write copies to the rule (an exact copy would
//! double at its first insert), and an insert into a full chunk grows it
//! to the rule. Removals shrink nothing. So a 40-byte entry (8-byte hash,
//! 24-byte `Tuple`, 8-byte count) costs about 45 B in every lineage,
//! built or copied, before and after installs (`tests/memory_by_layer.rs`).
//! [`merge_sorted_group`] grows a point-index group by the same rule.
//!
//! The chunk hash is an in-tree multiply–rotate hasher, **deterministic**
//! (no per-process seed): equal contents always chunk, iterate and count
//! copies identically, which is what lets `BENCH_report.json` hold exact
//! copied-tuple counts. It is not collision-resistant; colliding keys
//! only lengthen one chunk's equal-hash run, they never break lookups.
//!
//! [`SharedBag`] is the counted-multiset face of a `SharedMap<Tuple,
//! i64>` with [`Bag`]'s read surface and no-zero-count invariant; it is
//! what `MaterializedView`, the snapshot store's epochs and checkpoint
//! images hold. `Arc::make_mut` and the chunk layout appear in
//! this file only (a `ci.sh` boundary guard keeps it that way) — which is
//! why [`SharedMap::edit`] (a value changed through a `&mut`, its chunk
//! copied first if shared) and [`merge_sorted_group`] (a shared sorted
//! group edited copy-on-write) live here, for the serve layer's point
//! index.

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

/// A chunk holds room for at most one entry in `SLACK` beyond its
/// entries, plus one (see [`with_slack`]).
const SLACK: usize = 8;

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

pub(crate) fn chunk_hash<K: Hash>(key: &K) -> u64 {
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

/// The most entries a chunk of `len` may have room for: `len / SLACK + 1`
/// beyond them. Every place a chunk's capacity is set keeps to it — a
/// chunk `scatter` builds, one a `deep_copy` or copy-on-write copies, one
/// an insert grows — and the point index's groups grow by the same rule.
fn with_slack(len: usize) -> usize {
    len + len / SLACK + 1
}

#[derive(Clone)]
struct Entry<K, V> {
    hash: u64,
    key: K,
    value: V,
}

/// One chunk's entries, each with its key's hash.
struct Chunk<K, V> {
    entries: Vec<Entry<K, V>>,
}

impl<K, V> Chunk<K, V> {
    fn with_capacity(cap: usize) -> Self {
        Chunk {
            entries: Vec::with_capacity(cap),
        }
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    /// Where `key` sits. The stored hash screens the scan, so keys are
    /// compared only on a full 64-bit match.
    fn locate(&self, hash: u64, key: &K) -> Option<usize>
    where
        K: Eq,
    {
        let mut entries = self.entries.iter();
        entries.position(|e| e.hash == hash && e.key == *key)
    }

    /// Append an entry; a full chunk grows to the slack rule's room.
    fn push(&mut self, entry: Entry<K, V>) {
        let len = self.len();
        if len == self.entries.capacity() {
            self.entries.reserve_exact(with_slack(len + 1) - len);
        }
        self.entries.push(entry);
    }

    /// Give back room beyond the slack rule (a chunk `scatter` presized
    /// for more entries than its hashes sent it).
    fn trim(&mut self) {
        self.entries.shrink_to(with_slack(self.len()));
    }
}

impl<K: Clone, V: Clone> Clone for Chunk<K, V> {
    /// A private copy, entries in the same order, with the slack rule's
    /// room (a derived clone would be exact, and double at its first
    /// insert).
    fn clone(&self) -> Self {
        let mut c = Chunk::with_capacity(with_slack(self.len()));
        c.entries.extend_from_slice(&self.entries);
        c
    }
}

/// Cut `entries` (distinct keys) into the chunks their hashes name.
fn scatter<K, V>(entries: impl Iterator<Item = Entry<K, V>>, len: usize) -> Vec<Arc<Chunk<K, V>>> {
    let n = chunks_for(len);
    let room = with_slack(len / n);
    let mut chunks: Vec<Chunk<K, V>> = (0..n).map(|_| Chunk::with_capacity(room)).collect();
    for e in entries {
        chunks[chunk_of(e.hash, n)].push(e);
    }
    let chunks = chunks.into_iter().map(|mut c| {
        c.trim();
        Arc::new(c)
    });
    chunks.collect()
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
            spine: Arc::new(vec![Arc::new(Chunk::with_capacity(0))]),
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
        let entries = self.spine.iter().flat_map(|c| c.entries.iter());
        entries.map(|e| (&e.key, &e.value))
    }
}

impl<K: Clone, V: Clone> SharedMap<K, V> {
    /// A map with the same entries in the same chunks, sharing none of
    /// them with `self`: every chunk is copied as it is, so nothing is
    /// re-hashed or re-split, and the copy iterates in `self`'s order.
    fn deep_copy(&self) -> Self {
        let chunks = self.spine.iter().map(|c| Arc::new(Chunk::clone(c)));
        SharedMap {
            spine: Arc::new(chunks.collect()),
            len: self.len,
        }
    }

    /// Chunk `i`, private to this handle: the spine and the chunk are
    /// copied first if a sibling handle shares them. Returns the chunk and
    /// the entries copied (`0` when it was private already).
    fn chunk_mut(&mut self, i: usize) -> (&mut Chunk<K, V>, usize) {
        let slot = &mut Arc::make_mut(&mut self.spine)[i];
        let copied = if Arc::get_mut(slot).is_some() {
            0
        } else {
            slot.len()
        };
        (Arc::make_mut(slot), copied)
    }
}

/// What [`SharedMap::edit`] leaves for its key.
pub enum Edit<V> {
    /// The stored value as the edit left it; an absent key stays absent.
    Keep,
    /// No entry for the key.
    Remove,
    /// Store this value: a new entry for an absent key, else a
    /// replacement.
    Insert(V),
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
        chunk.locate(hash, key).map(|at| &chunk.entries[at].value)
    }

    /// Insert, replace or remove the entry for `key`: `edit` may change
    /// the stored value through a `&mut` (its chunk copied first if a
    /// sibling handle shares it, whatever the edit then does) and says
    /// what to leave (see [`Edit`]). Returns the entries this handle had
    /// to copy because a sibling handle shares them — `0` when the handle
    /// is uniquely held or an absent key stays absent.
    pub fn edit(&mut self, key: K, edit: impl FnOnce(Option<&mut V>) -> Edit<V>) -> usize {
        let hash = chunk_hash(&key);
        let i = chunk_of(hash, self.spine.len());
        let copied = match self.spine[i].locate(hash, &key) {
            Some(at) => {
                let (chunk, copied) = self.chunk_mut(i);
                match edit(Some(&mut chunk.entries[at].value)) {
                    Edit::Keep => {}
                    Edit::Insert(value) => chunk.entries[at].value = value,
                    Edit::Remove => {
                        chunk.entries.swap_remove(at);
                        self.len -= 1;
                    }
                }
                copied
            }
            None => match edit(None) {
                Edit::Insert(value) => {
                    let (chunk, copied) = self.chunk_mut(i);
                    chunk.push(Entry { hash, key, value });
                    self.len += 1;
                    copied
                }
                Edit::Keep | Edit::Remove => return 0,
            },
        };
        copied + self.rebalance()
    }

    /// [`SharedMap::edit`] by value: `next` sees the current value and
    /// returns the one to store (`None` = absent).
    pub fn update(&mut self, key: K, next: impl FnOnce(Option<&V>) -> Option<V>) -> usize {
        self.edit(key, |old| {
            let held = old.is_some();
            match (held, next(old.as_deref())) {
                (_, Some(value)) => Edit::Insert(value),
                (true, None) => Edit::Remove,
                (false, None) => Edit::Keep,
            }
        })
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
            let own = Arc::try_unwrap(chunk).unwrap_or_else(|shared| {
                copied += shared.len();
                Chunk::clone(&shared)
            });
            own.entries
        });
        self.spine = Arc::new(scatter(entries, self.len));
        copied
    }
}

/// `group += delta` on a sorted `(tuple, count)` group held behind an
/// `Arc`: per delta entry a binary-search insert, a count change or a
/// removal (a count reaching 0 leaves), so nothing is re-sorted. The
/// group is copied first only if another holder shares it — a pinned
/// epoch's index or an answer a reader still holds — and grows by the
/// chunks' slack rule. Returns the change in the group's total count.
pub fn merge_sorted_group(
    group: &mut Arc<Vec<(Tuple, i64)>>,
    delta: impl IntoIterator<Item = (Tuple, i64)>,
) -> i64 {
    let group = Arc::make_mut(group);
    let mut change = 0;
    for (tuple, count) in delta.into_iter().filter(|&(_, c)| c != 0) {
        change += count;
        match group.binary_search_by(|(t, _)| t.cmp(&tuple)) {
            Ok(at) => {
                group[at].1 += count;
                if group[at].1 == 0 {
                    group.remove(at);
                }
            }
            Err(at) => {
                let len = group.len();
                if len == group.capacity() {
                    group.reserve_exact(with_slack(len + 1) - len);
                }
                group.insert(at, (tuple, count));
            }
        }
    }
    change
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

    /// Materialise a private [`Bag`] with the same contents, for oracles
    /// and algebra that need a plain bag.
    pub fn to_bag(&self) -> Bag {
        self.filter(|_| true)
    }

    /// A bag with the same contents in the same chunk layout that shares
    /// no chunk with `self`: each chunk is copied as it is, so no tuple is
    /// re-hashed and no [`Bag`] is built on the way. Seeds a lineage of
    /// its own — a checkpoint image, or the live view recovery rebuilds
    /// from one — so installs on either side never copy a chunk.
    pub fn deep_copy(&self) -> SharedBag {
        SharedBag {
            counts: self.counts.deep_copy(),
        }
    }
}

impl From<Bag> for SharedBag {
    /// Partition an owned bag: tuples move (no refcount traffic), each is
    /// hashed once, chunks are presized.
    fn from(bag: Bag) -> Self {
        SharedBag {
            counts: SharedMap::from_distinct(bag.into_counts()),
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
    use crate::value::Value;

    const PINNED_ORDER: [i64; 12] = [699, 691, 685, 679, 231, 546, 658, 637, 476, 280, 245, 399];

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
        let mut frozen = live.clone();
        let delta = Bag::from_pairs([(tup![3, 21], -1), (tup![-1, -1], 1)]);
        let copied = live.merge(&delta);
        assert_eq!(frozen, ints(0..1_000));
        assert_eq!(live, ints(0..1_000).plus(&delta));
        // Two touched chunks (at most) were copied, not the bag.
        assert!(copied > 0 && copied <= 4 * 2 * CHUNK_TARGET, "{copied}");
        // The next merge of the same chunks finds them already private.
        assert_eq!(live.merge(&delta.negated()), 0);
        // The live handle took copies of the touched chunks, so the
        // frozen handle now holds their originals alone.
        assert_eq!(frozen.merge(&delta), 0, "no sibling shares them now");
    }

    #[test]
    fn a_deep_copy_is_a_lineage_of_its_own() {
        let mut live = SharedBag::from(ints(0..5_000));
        let mut image = live.deep_copy();
        assert_eq!(image, live);
        assert!(image.iter().eq(live.iter()), "same chunks, same order");
        assert_eq!(image.counts.spine.len(), live.counts.spine.len());
        // Neither side shares a chunk with the other: both merge in place.
        let delta = Bag::from_pairs([(tup![3, 21], -1), (tup![-1, -1], 1)]);
        assert_eq!(live.merge(&delta), 0);
        assert_eq!(image, ints(0..5_000), "the copy kept its moment");
        assert_eq!(image.merge(&delta), 0);
        assert_eq!(image, live);
        // A handle clone, by contrast, shares every chunk.
        let shared = live.clone();
        assert!(live.merge(&delta.negated()) > 0);
        drop(shared);
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

    /// The chunk hash hashes a tuple's values, never the keyed hash the
    /// tuple carries (drawn per process): the same tuples must chunk the
    /// same way in every process, or `BENCH_report.json`'s copied-tuple
    /// counts would not repeat.
    #[test]
    fn chunk_hashes_of_tuples_are_the_same_in_every_process() {
        let pinned = [
            (tup![1, 2], 0xfed0_5d1c_7173_90f4),
            (tup!["a", 2.5, true], 0xcf2b_dbe3_d775_22c3),
            (
                Tuple::new(vec![Value::Null, Value::Int(-7)]),
                0x741b_ebae_cd6a_6451,
            ),
        ];
        for (t, hash) in pinned {
            assert_eq!(chunk_hash(&t), hash, "{t}");
        }
    }

    #[test]
    fn colliding_hashes_still_resolve_by_key() {
        let mut chunk: Chunk<i64, i64> = Chunk::with_capacity(0);
        for key in 0..4 {
            let value = key * 10;
            chunk.push(Entry {
                hash: 42,
                key,
                value,
            });
        }
        for k in 0..4 {
            assert_eq!(chunk.entries[chunk.locate(42, &k).unwrap()].value, k * 10);
        }
        assert_eq!(chunk.locate(42, &9), None);
        assert_eq!(chunk.locate(41, &0), None);
    }

    /// A key whose chunk hash is forced: every multiple of 16 hashes
    /// alike, so those keys share one chunk and one full hash, and only
    /// the key comparison tells them apart.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    struct Forced(i64);

    impl Hash for Forced {
        fn hash<H: Hasher>(&self, h: &mut H) {
            h.write_i64(if self.0 % 16 == 0 { -1 } else { self.0 });
        }
    }

    /// (address, capacity) of every chunk.
    fn chunk_rooms<K, V>(m: &SharedMap<K, V>) -> Vec<(*const Chunk<K, V>, usize)> {
        let rooms = m.spine.iter();
        rooms
            .map(|c| (Arc::as_ptr(c), c.entries.capacity()))
            .collect()
    }

    /// Every chunk of `m` whose (address, room) is not in `before` was
    /// built, copied or grown since: its room keeps the slack rule for
    /// the entries it held then (`removed` more than now).
    fn assert_slack<K, V>(
        m: &SharedMap<K, V>,
        before: &[(*const Chunk<K, V>, usize)],
        removed: usize,
        ctx: &str,
    ) {
        for (c, room) in m.spine.iter().zip(chunk_rooms(m)) {
            if !before.contains(&room) {
                let most = with_slack(c.len() + removed);
                assert!(
                    room.1 <= most,
                    "{ctx}: {} entries in room {room:?}",
                    c.len()
                );
            }
        }
    }

    /// `SharedMap` against a `HashMap` model over seeded runs: a build,
    /// inserts that re-split the map upward, updates, removals that
    /// re-split it back down, keys whose hashes are forced to collide, and
    /// a sibling handle taken part-way that must keep its moment. After
    /// every operation: lookups, `len`, the copied count (the touched
    /// chunk if the sibling still shares it, plus every still-shared
    /// chunk a re-split moves) and the slack rule on every chunk that was
    /// built, copied or grown.
    #[test]
    fn matches_a_hashmap_model_with_collisions_resplits_and_a_sibling() {
        use dw_rng::Rng64;
        use std::collections::{HashMap, HashSet};
        for case in 0..12u64 {
            let mut r = Rng64::new(case);
            let mut model: HashMap<i64, i64> = (0..200).map(|k| (k, k * 3)).collect();
            let mut map = SharedMap::from_distinct(model.iter().map(|(&k, &v)| (Forced(k), v)));
            assert_slack(&map, &[], 0, "build");
            let image = map.deep_copy();
            assert_slack(&image, &[], 0, "deep copy");
            assert!(image.iter().eq(map.iter()), "a deep copy iterates alike");
            let mut sibling: Option<(SharedMap<Forced, i64>, HashMap<i64, i64>)> = None;
            let mut splits = (0, 0);
            for step in 0..12_000 {
                let ctx = format!("case {case} step {step}");
                if step == 1_000 + 200 * case as usize {
                    sibling = Some((map.clone(), model.clone()));
                }
                let grow = step < 3_000;
                let k = r.i64_in(0, 4_000);
                let held = model.get(&k).copied();
                let next = match (held, r.usize_below(10)) {
                    (Some(_), 0..=7) if !grow => None,
                    (None, _) if !grow => None,
                    (Some(_), 0) => None,
                    (_, n) => Some(k + n as i64),
                };
                let (hash, n) = (chunk_hash(&Forced(k)), map.spine.len());
                let i = chunk_of(hash, n);
                let shared: HashSet<*const Chunk<Forced, i64>> = sibling
                    .iter()
                    .flat_map(|(s, _)| s.spine.iter().map(Arc::as_ptr))
                    .collect();
                let len_of = |j: usize| map.spine[j].len();
                let is_shared = |j: usize| shared.contains(&Arc::as_ptr(&map.spine[j]));
                let changes = held.is_some() || next.is_some();
                let len_after =
                    model.len() + usize::from(next.is_some()) - usize::from(held.is_some());
                let resplit = changes
                    && (len_after > 2 * CHUNK_TARGET * n
                        || (n > 1 && 4 * len_after < CHUNK_TARGET * n));
                let mut want = if changes && is_shared(i) {
                    len_of(i)
                } else {
                    0
                };
                if resplit {
                    want += (0..n)
                        .filter(|&j| j != i && is_shared(j))
                        .map(len_of)
                        .sum::<usize>();
                }
                let before = chunk_rooms(&map);
                let copied = map.update(Forced(k), |old| {
                    assert_eq!(old.copied(), held, "{ctx}: the value update sees");
                    next
                });
                assert_eq!(copied, want, "{ctx}: copied");
                if resplit {
                    let grew = map.spine.len() > n;
                    if grew {
                        splits.0 += 1
                    } else {
                        splits.1 += 1
                    }
                }
                match next {
                    Some(v) => model.insert(k, v),
                    None => model.remove(&k),
                };
                let removed = usize::from(held.is_some() && next.is_none());
                assert_slack(&map, &before, removed, &ctx);
                assert_eq!(map.len(), model.len(), "{ctx}");
                for probe in [k, k + 16, r.i64_in(0, 4_000)] {
                    assert_eq!(
                        map.get(&Forced(probe)),
                        model.get(&probe),
                        "{ctx}: key {probe}"
                    );
                }
            }
            assert!(
                splits.0 > 0 && splits.1 > 0,
                "case {case}: re-splits both ways {splits:?}"
            );
            let got: HashMap<i64, i64> = map.iter().map(|(k, &v)| (k.0, v)).collect();
            assert_eq!(got, model, "case {case}: iteration");
            let (sibling, then) = sibling.unwrap();
            assert_eq!(sibling.len(), then.len(), "case {case}: the sibling's len");
            for (k, v) in &then {
                assert_eq!(
                    sibling.get(&Forced(*k)),
                    Some(v),
                    "case {case}: the sibling's moment"
                );
            }
            let copy = image.deep_copy();
            assert_slack(&copy, &[], 0, "deep copy of the image");
        }
    }

    /// The same operations on the same map iterate in the same order, in
    /// every process: the chunk hash is deterministic and a chunk's
    /// entries keep the order of `push` and `swap_remove`. Pinned, so a
    /// change of layout cannot reorder what `BENCH_report.json` counts.
    #[test]
    fn iteration_order_is_pinned() {
        // Build, delete in place, grow past a re-split, shrink past one.
        let mut b = SharedBag::from(ints(0..200));
        for i in (0..200).step_by(7) {
            b.add(tup![i, i * 7], -1);
        }
        for i in 200..700 {
            b.add(tup![i, i * 7], 2);
        }
        let grown = b.counts.spine.len();
        for i in (0..680).filter(|i| i % 7 != 0) {
            b.add(tup![i, i * 7], -b.count(&tup![i, i * 7]));
        }
        assert!(
            grown > 3 && b.counts.spine.len() < grown,
            "re-split both ways"
        );
        let order: Vec<i64> = b
            .iter()
            .map(|(t, _)| match t.at(0) {
                Value::Int(i) => *i,
                v => panic!("{v}"),
            })
            .collect();
        // The first twelve keys, and a checksum of the whole order.
        let sum = order.iter().enumerate();
        let sum = sum.fold(0u64, |h, (at, &k)| {
            h.wrapping_mul(31).wrapping_add(at as u64 ^ k as u64)
        });
        assert_eq!(
            (&order[..12], sum),
            (&PINNED_ORDER[..], 0xa3bc_533f_89b3_2fb7),
            "{order:?} {sum:#x}"
        );
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
