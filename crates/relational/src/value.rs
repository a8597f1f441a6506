//! Scalar values stored in tuples.
//!
//! `Value` is the single dynamic scalar type of the substrate. It must be
//! hashable and totally ordered (tuples key hash maps and sorted output), so
//! floats are wrapped in a bit-canonicalizing newtype.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// An `f64` with total equality/ordering semantics suitable for hashing.
///
/// NaNs are canonicalized to a single bit pattern and `-0.0` is normalized to
/// `+0.0`, so `Eq`/`Hash` agree with `Ord` (which uses `f64::total_cmp`).
#[derive(Clone, Copy)]
pub struct OrderedF64(f64);

impl OrderedF64 {
    /// Wrap a float, canonicalizing NaN and negative zero.
    pub fn new(v: f64) -> Self {
        if v.is_nan() {
            OrderedF64(f64::NAN)
        } else if v == 0.0 {
            OrderedF64(0.0)
        } else {
            OrderedF64(v)
        }
    }

    /// The underlying float.
    pub fn get(self) -> f64 {
        self.0
    }
}

impl PartialEq for OrderedF64 {
    fn eq(&self, other: &Self) -> bool {
        self.0.to_bits() == other.0.to_bits()
    }
}
impl Eq for OrderedF64 {}

impl std::hash::Hash for OrderedF64 {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.to_bits().hash(state);
    }
}

impl PartialOrd for OrderedF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl fmt::Debug for OrderedF64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A scalar value in a tuple.
///
/// Comparisons between different variants are *undefined* for predicates
/// (they evaluate to "false") but are still totally ordered for canonical
/// sorting, using the variant rank.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// SQL NULL. Compares equal only to itself for bag identity purposes.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float with canonical NaN/zero.
    Float(OrderedF64),
    /// String. `Arc` keeps clones cheap and `Box` keeps its pointer thin, so a `Value` is 16
    /// bytes (24 with `Arc<str>`'s fat pointer); a string read takes one hop more.
    Str(Arc<Box<str>>),
}

// Every stored tuple is a slice of these: a wider `Value` costs every layer.
const _: () = assert!(std::mem::size_of::<Value>() == 16);

impl Value {
    /// Construct a float value.
    pub fn float(v: f64) -> Self {
        Value::Float(OrderedF64::new(v))
    }

    /// Construct a string value.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::new(s.as_ref().into()))
    }

    /// Compare two values *as a predicate would*: `None` when the variants
    /// differ (or either side is NULL), `Some(ordering)` otherwise.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Float(a), Value::Float(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Approximate serialized size in bytes, used for message accounting.
    pub fn size_bytes(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Bool(_) => 1,
            Value::Int(_) => 8,
            Value::Float(_) => 8,
            Value::Str(s) => 4 + s.len(),
        }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(v) => write!(f, "{v:?}"),
            Value::Str(s) => write!(f, "{s:?}"),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => write!(f, "{s}"),
            other => write!(f, "{other:?}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::new(v.into_boxed_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn hash_of<T: Hash>(t: &T) -> u64 {
        let mut h = DefaultHasher::new();
        t.hash(&mut h);
        h.finish()
    }

    #[test]
    fn nan_is_canonical() {
        let a = Value::float(f64::NAN);
        let b = Value::float(-f64::NAN);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn negative_zero_normalized() {
        assert_eq!(Value::float(0.0), Value::float(-0.0));
        assert_eq!(hash_of(&Value::float(0.0)), hash_of(&Value::float(-0.0)));
    }

    #[test]
    fn sql_cmp_same_type() {
        assert_eq!(Value::Int(1).sql_cmp(&Value::Int(2)), Some(Ordering::Less));
        assert_eq!(
            Value::str("b").sql_cmp(&Value::str("a")),
            Some(Ordering::Greater)
        );
        assert_eq!(
            Value::float(1.5).sql_cmp(&Value::float(1.5)),
            Some(Ordering::Equal)
        );
    }

    #[test]
    fn sql_cmp_cross_type_is_none() {
        assert_eq!(Value::Int(1).sql_cmp(&Value::str("1")), None);
        assert_eq!(Value::Null.sql_cmp(&Value::Null), None);
        assert_eq!(Value::Null.sql_cmp(&Value::Int(0)), None);
    }

    #[test]
    fn total_order_is_consistent() {
        let mut vals = vec![
            Value::str("z"),
            Value::Int(4),
            Value::Null,
            Value::float(2.0),
            Value::Bool(true),
        ];
        vals.sort();
        vals.dedup();
        assert_eq!(vals.len(), 5);
        // Null sorts first by variant rank.
        assert_eq!(vals[0], Value::Null);
    }

    #[test]
    fn size_accounting() {
        assert_eq!(Value::Int(7).size_bytes(), 8);
        assert_eq!(Value::str("abc").size_bytes(), 7);
        assert_eq!(Value::Null.size_bytes(), 1);
    }

    /// A string's every observable is pinned to what the 24-byte
    /// `Arc<str>` layout gave: the thin pointer must change no hash (the
    /// chunk hash places `SharedBag` entries, so copied-tuple counts
    /// repeat), no order and no rendering.
    #[test]
    fn the_string_path_is_pinned() {
        use crate::{shard::value_hash, shared::chunk_hash, tuple::tuple_key, Tuple};
        use std::hash::BuildHasher;
        let pinned = [
            ("", 0x1e29_53ce_9714_0a92, 0x1d26_fef0_10c6_029a, 0xe5),
            (
                "abc",
                0x7d4c_5cf1_ddd4_e93f,
                0xc4c5_aec4_58d9_23f6,
                0x8767_c80e_02b7_069d,
            ),
            (
                "héllo, wörld",
                0x7c85_0614_dcbc_735c,
                0x5587_184d_e3d4_d719,
                0x7bf1_65ea_bdcd_7aa4,
            ),
        ];
        for (s, sip, chunk, band) in pinned {
            let v = Value::str(s);
            assert_eq!(hash_of(&v), sip, "{s:?}: std Hash, SipHash-1-3");
            assert_eq!(chunk_hash(&v), chunk, "{s:?}: SharedMap chunk hash");
            assert_eq!(value_hash(&v), band, "{s:?}: ShardMap band hash");
            assert_eq!(Value::from(s.to_string()), v);
            assert_eq!(format!("{v:?}"), format!("{s:?}"));
            assert_eq!(v.to_string(), s);
            assert_eq!(v.size_bytes(), 4 + s.len());
            // The keyed hash: arity, one word of kind tags (4 = string),
            // the bytes, 0xff.
            let mut h = tuple_key().build_hasher();
            h.write_usize(1);
            h.write_u64(4);
            h.write(s.as_bytes());
            h.write_u8(0xff);
            assert_eq!(Tuple::new(vec![v]).keyed_hash(), h.finish(), "{s:?}");
        }
        let t = crate::tup!["abc", 7, "xyz"];
        assert_eq!(hash_of(&t), 0x5223_e566_5255_175f);
        assert_eq!(chunk_hash(&t), 0x5603_2c90_7a1e_3b68);
        assert_eq!(format!("{t:?}"), "(abc,7,xyz)");
        assert_eq!(t.size_bytes(), 26);
        let mut vals = ["b", "a", "ab", ""].map(Value::str).to_vec();
        vals.extend([Value::Int(3), Value::Null]);
        vals.sort();
        assert_eq!(format!("{vals:?}"), r#"[NULL, 3, "", "a", "ab", "b"]"#);
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i32), Value::Int(3));
        assert_eq!(Value::from("x"), Value::str("x"));
        assert_eq!(Value::from(true), Value::Bool(true));
    }
}
