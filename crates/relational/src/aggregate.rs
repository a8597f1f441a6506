//! Incremental Σ/group-by operators over signed-multiplicity deltas.
//!
//! An [`AggregateState`] maintains `γ_{G; A₁,…,A_k}(R)` — one output row
//! per non-empty group, carrying the group key followed by the aggregate
//! values — directly from the *signed delta stream* of its input, without
//! ever seeing the input relation whole. This is the DBSP construction:
//! COUNT and SUM are linear in the Z-set of rows, so inserts add and
//! deletes subtract; MIN/MAX are not linear, so each group keeps a
//! **support multiset** of the aggregated column (the private group
//! state holds a
//! `BTreeMap<Value, i64>` per MIN/MAX aggregate) and a retraction just
//! decrements the departing value's support — the new extremum is the
//! first/last surviving key, never a recompute of the group.
//!
//! **NULL semantics.** Two deliberately different rules meet here, both
//! SQL's. Predicates (PR 5) use Kleene three-valued logic: `NULL = NULL`
//! is UNKNOWN and never selects. Grouping uses *identity*: all NULL keys
//! land in one group (`GROUP BY` treats NULLs as equal). Aggregates
//! *skip* NULL inputs: COUNT counts rows, but SUM/MIN/MAX ignore NULL
//! values, and a group whose aggregated column is entirely NULL reports
//! `NULL` for that aggregate.
//!
//! **Negative multiplicities.** A delta that would drive a group's row
//! count — or any support count — below zero describes deleting rows the
//! input never contained. [`AggregateState::apply`] detects this,
//! reports the smallest offending group in canonical order, and leaves
//! the state untouched (atomic, like every other application site).

use crate::bag::Bag;
use crate::error::RelationalError;
use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::BTreeMap;
use std::fmt;

/// One aggregate function over the grouped input rows.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AggFn {
    /// `COUNT(*)` — rows in the group, counting multiplicity.
    CountRows,
    /// `SUM(col)` over non-NULL integer values; `NULL` when every value
    /// in the group is NULL. Non-integer inputs are rejected at apply
    /// time (the workload layer only generates integer columns).
    Sum(usize),
    /// `MIN(col)` over non-NULL values, retractable via the support
    /// multiset; `NULL` when the column is entirely NULL.
    Min(usize),
    /// `MAX(col)`, same support-multiset mechanics as `Min`.
    Max(usize),
}

impl AggFn {
    /// The input column this aggregate reads, if any.
    pub fn column(&self) -> Option<usize> {
        match self {
            AggFn::CountRows => None,
            AggFn::Sum(c) | AggFn::Min(c) | AggFn::Max(c) => Some(*c),
        }
    }

    /// Short display name ("count", "sum", …).
    pub fn name(&self) -> &'static str {
        match self {
            AggFn::CountRows => "count",
            AggFn::Sum(_) => "sum",
            AggFn::Min(_) => "min",
            AggFn::Max(_) => "max",
        }
    }
}

/// A group-by/aggregate view definition: `γ_{group_by; aggs}(input)`.
///
/// Output rows are `group_by` values followed by one value per aggregate,
/// each group at multiplicity `+1`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AggregateSpec {
    /// Input column positions forming the group key (may be empty: one
    /// global group).
    pub group_by: Vec<usize>,
    /// Aggregates computed per group, in output order (at least one).
    pub aggs: Vec<AggFn>,
}

impl AggregateSpec {
    /// Width of the output rows.
    pub fn output_width(&self) -> usize {
        self.group_by.len() + self.aggs.len()
    }

    /// Validate column references against the input width.
    pub fn validate(&self, input_width: usize) -> Result<(), RelationalError> {
        if self.aggs.is_empty() {
            return Err(RelationalError::InvalidViewDef {
                reason: "aggregate view needs at least one aggregate".to_string(),
            });
        }
        for c in self
            .group_by
            .iter()
            .copied()
            .chain(self.aggs.iter().filter_map(AggFn::column))
        {
            if c >= input_width {
                return Err(RelationalError::InvalidViewDef {
                    reason: format!(
                        "aggregate column {c} out of range for width-{input_width} input"
                    ),
                });
            }
        }
        Ok(())
    }

    /// Fresh recompute: evaluate the aggregate over a whole input bag.
    /// This is the oracle the incremental path is checked against; it is
    /// literally "apply the input as one big insert-delta to an empty
    /// state", so the two paths cannot drift apart.
    pub fn eval(&self, input: &Bag) -> Result<Bag, RelationalError> {
        let mut state = AggregateState::new(self.clone());
        state.apply(input)?;
        Ok(state.current())
    }
}

/// Per-aggregate accumulator inside one group.
#[derive(Clone, Debug, PartialEq, Eq)]
enum AggAcc {
    /// COUNT(*) — derived from the group's row count.
    Count,
    /// SUM: running integer total plus how many non-NULL rows feed it.
    Sum { total: i64, non_null: i64 },
    /// MIN/MAX: the support multiset — every non-NULL value of the
    /// aggregated column with its signed row count. Extremum = first or
    /// last key; retraction only decrements.
    Support { counts: BTreeMap<Value, i64> },
}

/// The maintained accumulators of one group. Private to `dw-relational`
/// by design (and by the CI boundary guard): adapter crates feed deltas
/// through [`AggregateState`], they never construct group internals.
#[derive(Clone, Debug, PartialEq, Eq)]
struct GroupState {
    /// Signed row count of the group (counting multiplicity).
    rows: i64,
    /// One accumulator per aggregate, in spec order.
    accs: Vec<AggAcc>,
}

impl GroupState {
    fn new(spec: &AggregateSpec) -> GroupState {
        GroupState {
            rows: 0,
            accs: spec
                .aggs
                .iter()
                .map(|a| match a {
                    AggFn::CountRows => AggAcc::Count,
                    AggFn::Sum(_) => AggAcc::Sum {
                        total: 0,
                        non_null: 0,
                    },
                    AggFn::Min(_) | AggFn::Max(_) => AggAcc::Support {
                        counts: BTreeMap::new(),
                    },
                })
                .collect(),
        }
    }

    /// Fold `count` copies of `row` into the group, validating signs.
    fn absorb(
        &mut self,
        spec: &AggregateSpec,
        row: &Tuple,
        count: i64,
    ) -> Result<(), RelationalError> {
        self.rows += count;
        if self.rows < 0 {
            return Err(RelationalError::NegativeMultiplicity {
                tuple: format!("{row}"),
                resulting: self.rows,
            });
        }
        for (agg, acc) in spec.aggs.iter().zip(self.accs.iter_mut()) {
            match (agg, acc) {
                (AggFn::CountRows, AggAcc::Count) => {}
                (AggFn::Sum(c), AggAcc::Sum { total, non_null }) => match row.at(*c) {
                    Value::Null => {}
                    Value::Int(v) => {
                        *total += v * count;
                        *non_null += count;
                        if *non_null < 0 {
                            return Err(RelationalError::NegativeMultiplicity {
                                tuple: format!("{row}"),
                                resulting: *non_null,
                            });
                        }
                    }
                    other => {
                        return Err(RelationalError::InvalidViewDef {
                            reason: format!("SUM over non-integer value {other}"),
                        })
                    }
                },
                (AggFn::Min(c) | AggFn::Max(c), AggAcc::Support { counts }) => {
                    let v = row.at(*c);
                    if *v == Value::Null {
                        continue;
                    }
                    let entry = counts.entry(v.clone()).or_insert(0);
                    *entry += count;
                    if *entry < 0 {
                        let resulting = *entry;
                        return Err(RelationalError::NegativeMultiplicity {
                            tuple: format!("{row}"),
                            resulting,
                        });
                    }
                    if *entry == 0 {
                        counts.remove(v);
                    }
                }
                _ => unreachable!("accumulator shape fixed at construction"),
            }
        }
        Ok(())
    }

    /// The group's output values, in spec order.
    fn outputs(&self, spec: &AggregateSpec) -> Vec<Value> {
        spec.aggs
            .iter()
            .zip(self.accs.iter())
            .map(|(agg, acc)| match (agg, acc) {
                (AggFn::CountRows, AggAcc::Count) => Value::Int(self.rows),
                (AggFn::Sum(_), AggAcc::Sum { total, non_null }) => {
                    if *non_null > 0 {
                        Value::Int(*total)
                    } else {
                        Value::Null
                    }
                }
                (AggFn::Min(_), AggAcc::Support { counts }) => {
                    counts.keys().next().cloned().unwrap_or(Value::Null)
                }
                (AggFn::Max(_), AggAcc::Support { counts }) => {
                    counts.keys().next_back().cloned().unwrap_or(Value::Null)
                }
                _ => unreachable!("accumulator shape fixed at construction"),
            })
            .collect()
    }
}

/// The maintained state of one aggregate view: group key → accumulators.
///
/// Deterministic by construction: groups live in a `BTreeMap` keyed by
/// the group tuple, deltas are folded in canonical tuple order, and the
/// emitted output delta depends only on the before/after group states.
#[derive(Clone, PartialEq, Eq)]
pub struct AggregateState {
    spec: AggregateSpec,
    groups: BTreeMap<Tuple, GroupState>,
}

impl AggregateState {
    /// Empty state (aggregate of the empty relation: no groups, no rows).
    pub fn new(spec: AggregateSpec) -> Self {
        AggregateState {
            spec,
            groups: BTreeMap::new(),
        }
    }

    /// The view definition.
    pub fn spec(&self) -> &AggregateSpec {
        &self.spec
    }

    /// Number of live (non-empty) groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Output row for one group.
    fn row_of(&self, key: &Tuple, g: &GroupState) -> Tuple {
        let mut values = key.values().to_vec();
        values.extend(g.outputs(&self.spec));
        Tuple::new(values)
    }

    /// The current view contents: one `+1` row per non-empty group.
    pub fn current(&self) -> Bag {
        Bag::from_tuples(self.groups.iter().map(|(k, g)| self.row_of(k, g)))
    }

    /// Fold a signed input delta into the state and return the **output
    /// delta** of the aggregate view: `−1` on each changed group's old
    /// row, `+1` on its new row (groups retracted to empty emit only the
    /// `−1`; new groups only the `+1`; groups whose aggregates are
    /// unchanged emit nothing).
    ///
    /// Atomic: a delta that would drive a row count or a MIN/MAX support
    /// count negative (deleting rows the input never contained) leaves
    /// the state untouched and reports the offense deterministically.
    pub fn apply(&mut self, delta: &Bag) -> Result<Bag, RelationalError> {
        if delta.is_empty() {
            return Ok(Bag::new());
        }
        // Group the incoming rows by key, in canonical order so both the
        // mutation order and any error are deterministic.
        let mut by_key: BTreeMap<Tuple, Vec<(Tuple, i64)>> = BTreeMap::new();
        for (row, count) in delta.to_sorted_vec() {
            if row.arity() < self.input_width_floor() {
                return Err(RelationalError::ArityMismatch {
                    context: "aggregate apply",
                    expected: self.input_width_floor(),
                    found: row.arity(),
                });
            }
            by_key
                .entry(row.project(&self.spec.group_by))
                .or_default()
                .push((row, count));
        }
        // Validate + mutate on copies of the touched groups only; swap in
        // on success so failures leave the state untouched.
        let mut changed: BTreeMap<Tuple, GroupState> = BTreeMap::new();
        for (key, rows) in &by_key {
            let mut g = self
                .groups
                .get(key)
                .cloned()
                .unwrap_or_else(|| GroupState::new(&self.spec));
            for (row, count) in rows {
                g.absorb(&self.spec, row, *count)?;
            }
            changed.insert(key.clone(), g);
        }
        let mut out = Bag::new();
        for (key, next) in changed {
            let before = self.groups.get(&key).map(|g| self.row_of(&key, g));
            let after = (next.rows > 0).then(|| self.row_of(&key, &next));
            if before == after {
                // Aggregates unchanged (e.g. a MIN group absorbed a larger
                // value and its retraction) — no output churn.
            } else {
                if let Some(old) = before {
                    out.add(old, -1);
                }
                if let Some(new) = &after {
                    out.add(new.clone(), 1);
                }
            }
            if next.rows > 0 {
                self.groups.insert(key, next);
            } else {
                self.groups.remove(&key);
            }
        }
        Ok(out)
    }

    /// Smallest input width every referenced column fits in.
    fn input_width_floor(&self) -> usize {
        self.spec
            .group_by
            .iter()
            .copied()
            .chain(self.spec.aggs.iter().filter_map(AggFn::column))
            .map(|c| c + 1)
            .max()
            .unwrap_or(0)
    }
}

impl fmt::Debug for AggregateState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "γ{:?}", self.current())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tup;

    fn spec(group_by: Vec<usize>, aggs: Vec<AggFn>) -> AggregateSpec {
        AggregateSpec { group_by, aggs }
    }

    fn delta(pairs: Vec<(Tuple, i64)>) -> Bag {
        Bag::from_pairs(pairs)
    }

    #[test]
    fn count_sum_track_inserts_and_deletes() {
        let mut s = AggregateState::new(spec(vec![0], vec![AggFn::CountRows, AggFn::Sum(1)]));
        let d1 = s
            .apply(&delta(vec![
                (tup![1, 10], 2),
                (tup![1, 5], 1),
                (tup![2, 7], 1),
            ]))
            .unwrap();
        assert_eq!(d1.count(&tup![1, 3, 25]), 1);
        assert_eq!(d1.count(&tup![2, 1, 7]), 1);
        let d2 = s.apply(&delta(vec![(tup![1, 10], -1)])).unwrap();
        assert_eq!(d2.count(&tup![1, 3, 25]), -1);
        assert_eq!(d2.count(&tup![1, 2, 15]), 1);
        assert_eq!(
            s.current(),
            Bag::from_tuples([tup![1, 2, 15], tup![2, 1, 7]])
        );
    }

    #[test]
    fn min_max_retract_via_support_without_recompute() {
        let mut s = AggregateState::new(spec(vec![0], vec![AggFn::Min(1), AggFn::Max(1)]));
        s.apply(&delta(vec![
            (tup![1, 3], 1),
            (tup![1, 9], 1),
            (tup![1, 9], 1),
            (tup![1, 5], 1),
        ]))
        .unwrap();
        assert_eq!(s.current(), Bag::from_tuples([tup![1, 3, 9]]));
        // Retract one of the two 9s: MAX must stay 9 (support survives).
        let d = s.apply(&delta(vec![(tup![1, 9], -1)])).unwrap();
        assert!(
            d.is_empty(),
            "extremum unchanged → no output churn, got {d:?}"
        );
        // Retract the last 9: MAX falls back to the next supported value.
        let d = s.apply(&delta(vec![(tup![1, 9], -1)])).unwrap();
        assert_eq!(d.count(&tup![1, 3, 9]), -1);
        assert_eq!(d.count(&tup![1, 3, 5]), 1);
    }

    #[test]
    fn group_retracted_to_empty_disappears() {
        let mut s = AggregateState::new(spec(vec![0], vec![AggFn::CountRows]));
        s.apply(&delta(vec![(tup![4, 1], 1)])).unwrap();
        let d = s.apply(&delta(vec![(tup![4, 1], -1)])).unwrap();
        assert_eq!(d.count(&tup![4, 1]), -1);
        assert_eq!(s.group_count(), 0);
        assert!(s.current().is_empty());
    }

    #[test]
    fn incremental_matches_fresh_recompute() {
        let sp = spec(
            vec![0],
            vec![
                AggFn::CountRows,
                AggFn::Sum(1),
                AggFn::Min(1),
                AggFn::Max(1),
            ],
        );
        let mut s = AggregateState::new(sp.clone());
        let mut input = Bag::new();
        let steps: Vec<Vec<(Tuple, i64)>> = vec![
            vec![(tup![1, 4], 1), (tup![2, 8], 2)],
            vec![(tup![1, 6], 1), (tup![2, 8], -1)],
            vec![(tup![1, 4], -1), (tup![3, 1], 1)],
            vec![(tup![3, 1], -1)],
        ];
        for step in steps {
            let d = delta(step);
            s.apply(&d).unwrap();
            input.merge(&d);
            assert_eq!(s.current(), sp.eval(&input).unwrap());
        }
    }

    #[test]
    fn global_group_when_group_by_empty() {
        let mut s = AggregateState::new(spec(vec![], vec![AggFn::Sum(0)]));
        s.apply(&delta(vec![(tup![5], 1), (tup![7], 1)])).unwrap();
        assert_eq!(s.current(), Bag::from_tuples([tup![12]]));
    }

    #[test]
    fn spec_validation_rejects_out_of_range_and_empty() {
        assert!(spec(vec![0], vec![AggFn::Sum(3)]).validate(2).is_err());
        assert!(spec(vec![5], vec![AggFn::CountRows]).validate(2).is_err());
        assert!(spec(vec![0], vec![]).validate(2).is_err());
        assert!(spec(vec![0], vec![AggFn::Sum(1)]).validate(2).is_ok());
    }
}
