//! Value-space partitioning for the sharded warehouse.
//!
//! A [`ShardMap`] deterministically assigns every [`Value`] to one of `S`
//! shards (`S ≤ 64`, so shard *sets* fit a `u64` bitmask). The sharded
//! sweep adapter builds its correctness argument on value **purity**:
//!
//! * a tuple is *pure in shard s* when **every** attribute value maps to
//!   `s`; otherwise it is *impure* (it straddles shards);
//! * equi-joins equate attribute values, so a pure tuple can only join
//!   same-shard pure tuples, and the join of pure tuples is pure — sweeps
//!   confined to disjoint shards never see each other's tuples;
//! * an impure tuple bridges every shard in its band set
//!   ([`ShardMap::tuple_bands`]); the scheduler merges those shards into
//!   one serialization group so a sweep's partial provably stays inside
//!   the group's bands.
//!
//! Nothing below the warehouse knows about shards: a lane's sweep query
//! is an ordinary query against the source's full relation. By the same
//! purity argument, the tuples outside the lane's group join nothing in
//! its partial, so restricting the relation to the group's bands would
//! not change the answer (`tests/algebra_props.rs` pins that lemma).

use crate::bag::Bag;
use crate::tuple::Tuple;
use crate::value::Value;

/// Deterministic value-space partitioner over `S ≤ 64` shards.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardMap {
    /// Hash partitioning: every value's deterministic 64-bit hash mod
    /// `shards`. Seed-free and platform-independent — runs agree on the
    /// placement of every tuple.
    Hash {
        /// Number of shards (1..=64).
        shards: usize,
    },
    /// Range partitioning over integer bands: `Int(v)` lands in shard
    /// `clamp(v div width, 0, shards-1)`; non-integer values fall back to
    /// the hash placement. Workload generators that band their value
    /// domain per shard use this to make every generated tuple pure.
    Range {
        /// Width of each shard's integer band.
        width: i64,
        /// Number of shards (1..=64).
        shards: usize,
    },
}

fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29)
}

pub(crate) fn value_hash(v: &Value) -> u64 {
    match v {
        Value::Null => mix(0xA1, 0),
        Value::Bool(b) => mix(0xB2, u64::from(*b)),
        Value::Int(i) => mix(0xC3, *i as u64),
        Value::Float(f) => mix(0xD4, f.get().to_bits()),
        Value::Str(s) => s.as_bytes().iter().fold(0xE5, |h, &b| mix(h, u64::from(b))),
    }
}

impl ShardMap {
    /// Hash partitioner over `shards` shards. Panics unless
    /// `1 <= shards <= 64`.
    pub fn hash(shards: usize) -> ShardMap {
        assert!((1..=64).contains(&shards), "shards must be in 1..=64");
        ShardMap::Hash { shards }
    }

    /// Range partitioner: integer band `[s·width, (s+1)·width)` maps to
    /// shard `s` (clamped at the ends). Panics unless `1 <= shards <= 64`
    /// and `width > 0`.
    pub fn range(width: i64, shards: usize) -> ShardMap {
        assert!((1..=64).contains(&shards), "shards must be in 1..=64");
        assert!(width > 0, "band width must be positive");
        ShardMap::Range { width, shards }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        match self {
            ShardMap::Hash { shards } | ShardMap::Range { shards, .. } => *shards,
        }
    }

    /// Bitmask with every shard's bit set.
    pub fn full_mask(&self) -> u64 {
        if self.shards() == 64 {
            u64::MAX
        } else {
            (1u64 << self.shards()) - 1
        }
    }

    /// The shard one value maps to.
    pub fn shard_of_value(&self, v: &Value) -> usize {
        match self {
            ShardMap::Hash { shards } => (value_hash(v) % *shards as u64) as usize,
            ShardMap::Range { width, shards } => match v {
                Value::Int(i) => i.div_euclid(*width).clamp(0, *shards as i64 - 1) as usize,
                other => (value_hash(other) % *shards as u64) as usize,
            },
        }
    }

    /// Bitmask of the shards a tuple's attribute values touch.
    pub fn tuple_bands(&self, t: &Tuple) -> u64 {
        t.values()
            .iter()
            .fold(0u64, |m, v| m | (1u64 << self.shard_of_value(v)))
    }

    /// How a delta sits in the shard space: the bitmask of every band
    /// its tuples touch (0 for an empty delta), and the band masks of its
    /// *individually impure* tuples (each with more than one bit set).
    /// Once such a tuple is resident, the scheduler unions its bands into
    /// one group — pure tuples of different bands need no union, only
    /// tuples that themselves bridge bands do.
    pub fn delta_bands(&self, delta: &Bag) -> (u64, Vec<u64>) {
        let (mut bands, mut impure) = (0, Vec::new());
        for (t, _) in delta.iter() {
            let m = self.tuple_bands(t);
            bands |= m;
            if m.count_ones() > 1 {
                impure.push(m);
            }
        }
        (bands, impure)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tup;

    #[test]
    fn range_map_bands_integers() {
        let m = ShardMap::range(10, 4);
        assert_eq!(m.shard_of_value(&Value::Int(0)), 0);
        assert_eq!(m.shard_of_value(&Value::Int(9)), 0);
        assert_eq!(m.shard_of_value(&Value::Int(10)), 1);
        assert_eq!(m.shard_of_value(&Value::Int(39)), 3);
        // Out-of-range values clamp instead of wrapping.
        assert_eq!(m.shard_of_value(&Value::Int(-5)), 0);
        assert_eq!(m.shard_of_value(&Value::Int(400)), 3);
    }

    #[test]
    fn hash_map_is_deterministic_and_total() {
        let m = ShardMap::hash(4);
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Int(-7),
            Value::float(2.5),
            Value::str("abc"),
        ] {
            let s = m.shard_of_value(&v);
            assert!(s < 4);
            assert_eq!(s, m.shard_of_value(&v), "placement must be stable");
        }
        assert_ne!(
            ShardMap::hash(64).shard_of_value(&Value::str("a")),
            ShardMap::hash(64).shard_of_value(&Value::str("b")),
            "distinct strings should usually spread"
        );
    }

    #[test]
    fn purity_and_band_masks() {
        let m = ShardMap::range(10, 4);
        assert_eq!(m.tuple_bands(&tup![1, 2, 3]), 0b1);
        assert_eq!(m.tuple_bands(&tup![11, 12]), 0b10);
        assert_eq!(m.tuple_bands(&tup![1, 12]), 0b11);
        assert_eq!(m.tuple_bands(&tup![1, 12, 35]), 0b1011);
    }

    #[test]
    fn delta_bands_unions_every_tuple_and_keeps_the_impure_masks() {
        let m = ShardMap::range(10, 4);
        assert_eq!(m.delta_bands(&Bag::new()), (0, vec![]));
        let one_band = Bag::from_tuples([tup![1, 2], tup![3, 4]]);
        assert_eq!(m.delta_bands(&one_band), (0b1, vec![]));
        // Pure tuples of two different shards touch both but union nothing.
        let two_pure = Bag::from_tuples([tup![1, 2], tup![13, 14]]);
        assert_eq!(m.delta_bands(&two_pure), (0b11, vec![]));
        // An individually impure tuple carries its band mask out.
        let impure = Bag::from_tuples([tup![1, 12], tup![35, 36]]);
        assert_eq!(m.delta_bands(&impure), (0b1011, vec![0b11]));
    }
}
