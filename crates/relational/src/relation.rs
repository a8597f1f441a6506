//! Base relations: schema-checked bags with strictly positive counts.

use crate::bag::Bag;
use crate::error::RelationalError;
use crate::schema::Schema;
use crate::tuple::Tuple;
use std::fmt;

/// A base relation `R_i` as stored at a data source (or as the shadow copy
/// the consistency checker replays).
///
/// Invariants enforced at every mutation:
/// * every tuple matches the schema arity;
/// * every multiplicity is strictly positive (a delete may not remove more
///   copies than exist — the paper assumes source transactions are valid).
#[derive(Clone, PartialEq, Eq)]
pub struct BaseRelation {
    schema: Schema,
    bag: Bag,
}

impl BaseRelation {
    /// Empty relation with the given schema.
    pub fn new(schema: Schema) -> Self {
        BaseRelation {
            schema,
            bag: Bag::new(),
        }
    }

    /// Build from whole tuples (each at multiplicity `+1`).
    pub fn from_tuples<I: IntoIterator<Item = Tuple>>(
        schema: Schema,
        tuples: I,
    ) -> Result<Self, RelationalError> {
        let mut r = BaseRelation::new(schema);
        for t in tuples {
            r.insert(t, 1)?;
        }
        Ok(r)
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Contents as a bag (counts all positive).
    pub fn bag(&self) -> &Bag {
        &self.bag
    }

    /// Keep the contents chained on the key columns `cols`
    /// ([`Bag::chain_on`]).
    pub fn chain_on(&mut self, cols: Vec<usize>) {
        self.bag.chain_on(cols);
    }

    /// Number of distinct tuples.
    pub fn distinct_len(&self) -> usize {
        self.bag.distinct_len()
    }

    /// Total number of tuple occurrences.
    #[cfg(test)]
    pub(crate) fn cardinality(&self) -> u64 {
        self.bag.total_multiplicity()
    }

    fn check_arity(&self, t: &Tuple, context: &'static str) -> Result<(), RelationalError> {
        if t.arity() != self.schema.arity() {
            return Err(RelationalError::ArityMismatch {
                context,
                expected: self.schema.arity(),
                found: t.arity(),
            });
        }
        Ok(())
    }

    /// Insert `count ≥ 1` copies of a tuple.
    pub fn insert(&mut self, tuple: Tuple, count: i64) -> Result<(), RelationalError> {
        self.check_arity(&tuple, "insert")?;
        if count < 1 {
            return Err(RelationalError::NegativeMultiplicity {
                tuple: format!("{tuple}"),
                resulting: count,
            });
        }
        self.bag.add(tuple, count);
        Ok(())
    }

    /// Delete `count ≥ 1` copies of a tuple; errors if fewer copies exist.
    pub fn delete(&mut self, tuple: Tuple, count: i64) -> Result<(), RelationalError> {
        self.check_arity(&tuple, "delete")?;
        let have = self.bag.count(&tuple);
        if count < 1 || have < count {
            return Err(RelationalError::NegativeMultiplicity {
                tuple: format!("{tuple}"),
                resulting: have - count,
            });
        }
        self.bag.add(tuple, -count);
        Ok(())
    }

    /// Apply a signed delta atomically: either the whole delta applies and
    /// the relation stays valid, or nothing changes.
    ///
    /// This is the "updates are executed atomically at a data source"
    /// assumption of the paper's §2, including multi-tuple *source local
    /// transactions*.
    pub fn apply_delta(&mut self, delta: &Bag) -> Result<(), RelationalError> {
        // Arity first, then the checked signed application (atomic: every
        // count is validated before anything mutates).
        for (t, _) in delta.iter() {
            self.check_arity(t, "apply_delta")?;
        }
        self.bag.apply_delta(delta)?;
        debug_assert!(self.bag.all_positive());
        Ok(())
    }
}

impl fmt::Debug for BaseRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{:?}", self.schema.name(), self.bag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tup;

    fn schema() -> Schema {
        Schema::new("R", ["A", "B"]).unwrap()
    }

    #[test]
    fn insert_delete_roundtrip() {
        let mut r = BaseRelation::new(schema());
        r.insert(tup![1, 2], 2).unwrap();
        r.delete(tup![1, 2], 1).unwrap();
        assert_eq!(r.bag().count(&tup![1, 2]), 1);
        r.delete(tup![1, 2], 1).unwrap();
        assert_eq!(r.distinct_len(), 0);
    }

    #[test]
    fn over_delete_rejected() {
        let mut r = BaseRelation::new(schema());
        r.insert(tup![1, 2], 1).unwrap();
        assert!(r.delete(tup![1, 2], 2).is_err());
        // unchanged
        assert_eq!(r.bag().count(&tup![1, 2]), 1);
    }

    #[test]
    fn delete_absent_rejected() {
        let mut r = BaseRelation::new(schema());
        assert!(r.delete(tup![9, 9], 1).is_err());
    }

    #[test]
    fn arity_checked() {
        let mut r = BaseRelation::new(schema());
        assert!(matches!(
            r.insert(tup![1], 1),
            Err(RelationalError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn apply_delta_is_atomic() {
        let mut r = BaseRelation::new(schema());
        r.insert(tup![1, 2], 1).unwrap();
        // Delta deletes an existing tuple but also an absent one: must
        // reject *without* applying the valid part.
        let delta = Bag::from_pairs([(tup![1, 2], -1), (tup![3, 4], -1)]);
        assert!(r.apply_delta(&delta).is_err());
        assert_eq!(r.bag().count(&tup![1, 2]), 1);
    }

    #[test]
    fn apply_delta_mixed() {
        let mut r = BaseRelation::from_tuples(schema(), [tup![1, 2]]).unwrap();
        let delta = Bag::from_pairs([(tup![1, 2], -1), (tup![3, 4], 2)]);
        r.apply_delta(&delta).unwrap();
        assert_eq!(r.bag().count(&tup![1, 2]), 0);
        assert_eq!(r.bag().count(&tup![3, 4]), 2);
        assert_eq!(r.cardinality(), 2);
    }

    #[test]
    fn zero_count_insert_rejected() {
        let mut r = BaseRelation::new(schema());
        assert!(r.insert(tup![1, 2], 0).is_err());
    }
}
