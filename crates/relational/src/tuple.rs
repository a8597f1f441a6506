//! Tuples: immutable, cheaply cloneable value sequences.

use crate::value::Value;
use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// An immutable tuple of scalar values.
///
/// Backed by `Arc<[Value]>` so that the heavy tuple traffic of join
/// pipelines (hash-table keys, partial-delta states, message payloads)
/// clones in O(1). Concatenation (the only structural operation the sweep
/// algebra needs) allocates a fresh backing slice.
///
/// A tuple also carries its **keyed hash**, computed once when it is built
/// (see `keyed_hash`): a [`crate::Bag`] keys its map by it, so inserting,
/// resizing, looking up, filtering and projecting never hash a value
/// again, and equality rejects most unequal tuples on it. It is not part
/// of the tuple's data: it is never encoded, persisted or sent, and
/// [`Hash`] still hashes the values, so a hasher with a fixed seed (the
/// chunk hash of [`crate::SharedMap`]) sees the same input in every
/// process.
#[derive(Clone)]
pub struct Tuple {
    values: Arc<[Value]>,
    hash: u64,
}

// A slice handle and the keyed hash: what every bag entry holds per tuple.
const _: () = assert!(std::mem::size_of::<Tuple>() == 24);

/// The one SipHash key every tuple's hash is taken under. It is drawn once
/// per *process*, not per thread or per map: a tuple built on a source's
/// thread is looked up in a bag on the warehouse's. Drawn at random so
/// that rows crafted to collide cannot be chosen in advance.
pub(crate) fn tuple_key() -> &'static RandomState {
    static KEY: OnceLock<RandomState> = OnceLock::new();
    KEY.get_or_init(RandomState::new)
}

/// Values whose kind tags share one word of [`keyed_hash`]'s input (3 bits
/// each).
const TAGS_PER_WORD: usize = 21;

fn kind_tag(v: &Value) -> u64 {
    match v {
        Value::Null => 0,
        Value::Bool(_) => 1,
        Value::Int(_) => 2,
        Value::Float(_) => 3,
        Value::Str(_) => 4,
    }
}

/// SipHash, under the process-wide [`tuple_key`], of an injective encoding
/// of `values`: the arity, the kind tags packed 21 to a word, then each
/// value's payload alone — one word for an integer or a float, one byte
/// for a boolean, nothing for NULL, a string's bytes closed by `0xff`
/// (never a UTF-8 byte). That is about half the words the derived `Hash`
/// writes (a discriminant word beside every payload), and since the
/// encoding is injective, distinct tuples collide only as SipHash itself
/// does. Floats are canonical in [`Value`] (one NaN, `+0.0`), so equal
/// values always hash equally.
fn keyed_hash(values: &[Value]) -> u64 {
    let mut h = tuple_key().build_hasher();
    h.write_usize(values.len());
    for chunk in values.chunks(TAGS_PER_WORD) {
        h.write_u64(chunk.iter().fold(0, |tags, v| (tags << 3) | kind_tag(v)));
    }
    for v in values {
        match v {
            Value::Null => {}
            Value::Bool(b) => h.write_u8(u8::from(*b)),
            Value::Int(i) => h.write_u64(*i as u64),
            Value::Float(f) => h.write_u64(f.get().to_bits()),
            Value::Str(s) => {
                h.write(s.as_bytes());
                h.write_u8(0xff);
            }
        }
    }
    h.finish()
}

impl Tuple {
    /// Build a tuple from values.
    pub fn new(values: Vec<Value>) -> Self {
        Tuple::from_arc(values.into())
    }

    fn from_arc(values: Arc<[Value]>) -> Self {
        let hash = keyed_hash(&values);
        Tuple { values, hash }
    }

    /// The empty tuple (width 0).
    pub fn empty() -> Self {
        Tuple::new(Vec::new())
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Access one attribute by position.
    ///
    /// # Panics
    /// Panics when `idx` is out of bounds — positions are resolved against a
    /// validated schema before evaluation, so an out-of-bounds access is a
    /// logic error, not a data error.
    pub fn at(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    /// Access one attribute, returning `None` when out of bounds.
    pub fn get(&self, idx: usize) -> Option<&Value> {
        self.values.get(idx)
    }

    /// All values as a slice.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Concatenate `self ++ other` (used when a sweep extends rightward).
    /// One allocation: the slice is collected from an iterator of known
    /// length straight into its `Arc`.
    pub fn concat(&self, other: &Tuple) -> Tuple {
        Tuple::collect(self.values.iter().chain(other.values.iter()).cloned())
    }

    /// Project the tuple onto the given attribute positions.
    pub fn project(&self, indices: &[usize]) -> Tuple {
        Tuple::from_arc(indices.iter().map(|&i| self.values[i].clone()).collect())
    }

    /// A tuple of `values`, in one allocation when the iterator knows its
    /// exact length (a slice's, mapped or chained).
    pub(crate) fn collect(values: impl Iterator<Item = Value>) -> Tuple {
        Tuple::from_arc(values.collect())
    }

    /// Approximate serialized size in bytes for message accounting.
    pub fn size_bytes(&self) -> usize {
        4 + self.values.iter().map(Value::size_bytes).sum::<usize>()
    }

    /// The keyed hash taken when the tuple was built — what a
    /// [`crate::Bag`] keys its map by.
    pub(crate) fn keyed_hash(&self) -> u64 {
        self.hash
    }

    /// A tuple that claims `hash` whatever its values, to make distinct
    /// tuples collide on purpose.
    #[cfg(test)]
    pub(crate) fn with_hash(values: Vec<Value>, hash: u64) -> Tuple {
        Tuple {
            values: values.into(),
            hash,
        }
    }
}

/// Hashes first (they differ for almost every unequal pair), then the
/// values.
impl PartialEq for Tuple {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash
            && (Arc::ptr_eq(&self.values, &other.values) || self.values == other.values)
    }
}

impl Eq for Tuple {}

/// Hashes the values, exactly as the derived impl over `Arc<[Value]>`
/// would, never the per-process keyed hash: a fixed-seed hasher must see
/// the same input in every process.
impl Hash for Tuple {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.values.hash(state);
    }
}

/// The values' order; the keyed hash plays no part.
impl PartialOrd for Tuple {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Tuple {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.values.cmp(&other.values)
    }
}

fn fmt_tuple(values: &[Value], f: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(f, "(")?;
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            write!(f, ",")?;
        }
        write!(f, "{v}")?;
    }
    write!(f, ")")
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_tuple(&self.values, f)
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_tuple(&self.values, f)
    }
}

/// Convenience constructor: `tup![1, "a", 2.5]`.
#[macro_export]
macro_rules! tup {
    ($($v:expr),* $(,)?) => {
        $crate::tuple::Tuple::new(vec![$($crate::value::Value::from($v)),*])
    };
}

impl<const N: usize> From<[Value; N]> for Tuple {
    fn from(values: [Value; N]) -> Self {
        Tuple::new(values.to_vec())
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::new(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concat_preserves_order() {
        let a = tup![1, 2];
        let b = tup![3];
        let c = a.concat(&b);
        assert_eq!(c, tup![1, 2, 3]);
        assert_eq!(c.arity(), 3);
    }

    #[test]
    fn project_picks_positions() {
        let t = tup![10, 20, 30, 40];
        assert_eq!(t.project(&[3, 1]), tup![40, 20]);
        assert_eq!(t.project(&[]), Tuple::empty());
    }

    #[test]
    fn clone_is_shallow() {
        let t = tup!["hello", 1];
        let u = t.clone();
        assert_eq!(t, u);
        // Arc-backed: same allocation.
        assert!(std::ptr::eq(t.values().as_ptr(), u.values().as_ptr()));
    }

    #[test]
    fn display_format() {
        assert_eq!(format!("{}", tup![1, 3]), "(1,3)");
        assert_eq!(format!("{}", tup![7, 8]), "(7,8)");
    }

    #[test]
    fn size_bytes_sums_values() {
        assert_eq!(tup![1, 2].size_bytes(), 4 + 16);
    }

    /// Equal values hash equally — floats included, whose NaNs and zeros
    /// `Value` canonicalizes — and unequal ones apart, across kinds that
    /// print alike and across where one value ends and the next begins.
    #[test]
    fn equal_values_iff_equal_keyed_hash() {
        let tuples = [
            tup![1],
            tup![1.0],
            tup!["1"],
            tup![true],
            Tuple::new(vec![Value::Null]),
            Tuple::new(vec![Value::Int(1), Value::Null]),
            Tuple::empty(),
            tup![0],
            tup![0.0],
            tup![-0.0],
            tup![f64::NAN],
            tup![-f64::NAN],
            tup!["ab", "c"],
            tup!["a", "bc"],
            tup![""],
        ];
        for a in &tuples {
            for b in &tuples {
                let same = a.values() == b.values();
                assert_eq!(same, a.keyed_hash() == b.keyed_hash(), "{a} vs {b}");
                assert_eq!(same, a == b, "{a} vs {b}");
            }
        }
        assert_eq!(tup![0.0], tup![-0.0]);
        assert_eq!(tup![f64::NAN], tup![-f64::NAN]);
    }

    #[test]
    fn a_concat_or_projection_hashes_as_if_built_directly() {
        let t = tup![1, "x"].concat(&tup![2.5]);
        assert_eq!(t.keyed_hash(), tup![1, "x", 2.5].keyed_hash());
        assert_eq!(t.project(&[2, 0]).keyed_hash(), tup![2.5, 1].keyed_hash());
    }

    #[test]
    fn get_bounds() {
        let t = tup![5];
        assert_eq!(t.get(0), Some(&Value::Int(5)));
        assert_eq!(t.get(1), None);
    }
}
