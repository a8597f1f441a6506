//! Negative-multiplicity and NULL edge cases for the signed-delta
//! algebra and the Σ/group-by operators (PR 9 satellite).
//!
//! A delta that describes deleting rows the input never contained — a
//! bag count, a group row count, or a MIN/MAX support count driven
//! below zero — must be rejected *deterministically* and *atomically*:
//! the same offense is reported no matter the surrounding rows, and the
//! state is left untouched so the caller can retry or escalate. NULL
//! group keys follow SQL identity semantics (one group for all NULLs)
//! while selection predicates keep PR 5's Kleene 3VL, where `NULL = NULL`
//! is UNKNOWN and never selects — both rules exercised side by side.

use dw_relational::{
    tup, AggFn, AggregateSpec, AggregateState, Bag, CmpOp, Predicate, RelationalError, Tuple, Value,
};

fn delta(pairs: Vec<(Tuple, i64)>) -> Bag {
    Bag::from_pairs(pairs)
}

fn spec(group_by: Vec<usize>, aggs: Vec<AggFn>) -> AggregateSpec {
    AggregateSpec { group_by, aggs }
}

#[test]
fn bag_count_below_zero_is_rejected_atomically() {
    let base = Bag::from_pairs([(tup![1, 2], 2), (tup![3, 4], 1)]);
    let mut state = base.clone();
    // Mixes a legal retraction with an illegal one: nothing may stick.
    let bad = delta(vec![(tup![1, 2], -1), (tup![3, 4], -2)]);
    let err = state.apply_delta(&bad).unwrap_err();
    match err {
        RelationalError::NegativeMultiplicity { resulting, .. } => {
            assert_eq!(resulting, -1);
        }
        other => panic!("expected NegativeMultiplicity, got {other:?}"),
    }
    assert_eq!(
        state, base,
        "failed application must leave the bag untouched"
    );
}

#[test]
fn rejection_is_deterministic_across_retries() {
    let mut state = Bag::from_pairs([(tup![5], 1)]);
    let bad = delta(vec![(tup![9], -1), (tup![7], -1)]);
    // The smallest offending tuple is reported, identically every time.
    let report = |e: RelationalError| match e {
        RelationalError::NegativeMultiplicity { tuple, resulting } => (tuple, resulting),
        other => panic!("expected NegativeMultiplicity, got {other:?}"),
    };
    let first = report(state.apply_delta(&bad).unwrap_err());
    let second = report(state.apply_delta(&bad).unwrap_err());
    assert_eq!(first, second);
}

#[test]
fn group_row_count_below_zero_is_rejected_with_state_untouched() {
    let mut s = AggregateState::new(spec(vec![0], vec![AggFn::CountRows, AggFn::Sum(1)]));
    s.apply(&delta(vec![(tup![1, 10], 1)])).unwrap();
    let before = s.current();
    let err = s
        .apply(&delta(vec![(tup![1, 10], -2)]))
        .expect_err("over-retraction must be rejected");
    assert!(matches!(err, RelationalError::NegativeMultiplicity { .. }));
    assert_eq!(s.current(), before);
}

#[test]
fn min_max_support_below_zero_is_rejected_even_when_rows_stay_positive() {
    // The group keeps two rows, but the retracted *value* was never
    // inserted: the support multiset catches what the row count cannot.
    let mut s = AggregateState::new(spec(vec![0], vec![AggFn::Min(1), AggFn::CountRows]));
    s.apply(&delta(vec![(tup![1, 3], 1), (tup![1, 8], 1)]))
        .unwrap();
    let before = s.current();
    let err = s
        .apply(&delta(vec![(tup![1, 5], -1), (tup![1, 3], 1)]))
        .expect_err("retracting a never-inserted value must fail");
    assert!(matches!(err, RelationalError::NegativeMultiplicity { .. }));
    assert_eq!(s.current(), before);
}

#[test]
fn min_max_group_retracted_to_empty_emits_one_retraction_and_vanishes() {
    let mut s = AggregateState::new(spec(vec![0], vec![AggFn::Min(1), AggFn::Max(1)]));
    s.apply(&delta(vec![(tup![7, 4], 1), (tup![7, 9], 1)]))
        .unwrap();
    let out = s
        .apply(&delta(vec![(tup![7, 4], -1), (tup![7, 9], -1)]))
        .unwrap();
    assert_eq!(
        out.count(&tup![7, 4, 9]),
        -1,
        "exactly the old row retracted"
    );
    assert_eq!(out.distinct_len(), 1, "no +row for an empty group");
    assert_eq!(s.group_count(), 0);
    assert!(s.current().is_empty());
}

#[test]
fn null_group_keys_land_in_one_group() {
    // GROUP BY identity semantics: every NULL key is the same group.
    let mut s = AggregateState::new(spec(vec![0], vec![AggFn::CountRows, AggFn::Sum(1)]));
    s.apply(&delta(vec![
        (tup![Value::Null, 10], 1),
        (tup![Value::Null, 5], 2),
        (tup![1, 7], 1),
    ]))
    .unwrap();
    assert_eq!(s.group_count(), 2);
    assert_eq!(s.current().count(&tup![Value::Null, 3, 20]), 1);
    // …and the NULL group retracts to empty like any other.
    let out = s
        .apply(&delta(vec![
            (tup![Value::Null, 10], -1),
            (tup![Value::Null, 5], -2),
        ]))
        .unwrap();
    assert_eq!(out.count(&tup![Value::Null, 3, 20]), -1);
    assert_eq!(s.group_count(), 1);
}

#[test]
fn grouping_identity_vs_kleene_selection_on_the_same_nulls() {
    // The two NULL rules meet on the same data: grouping says
    // NULL = NULL (identity), Kleene says NULL = NULL is UNKNOWN.
    let null_eq_null = Predicate::AttrCmp {
        left: 0,
        op: CmpOp::Eq,
        right: 0,
    };
    let row = tup![Value::Null, 10];
    assert_eq!(null_eq_null.eval3(&row), None, "UNKNOWN under 3VL");
    assert!(!null_eq_null.eval(&row), "UNKNOWN never selects");
    assert!(
        !Predicate::Not(Box::new(null_eq_null)).eval(&row),
        "NOT UNKNOWN is still UNKNOWN — negation cannot rescue a NULL"
    );
    // Yet the aggregate groups both NULL-keyed rows together.
    let mut s = AggregateState::new(spec(vec![0], vec![AggFn::CountRows]));
    s.apply(&delta(vec![
        (tup![Value::Null, 10], 1),
        (tup![Value::Null, 99], 1),
    ]))
    .unwrap();
    assert_eq!(s.group_count(), 1);
    assert_eq!(s.current().count(&tup![Value::Null, 2]), 1);
}

#[test]
fn null_inputs_are_skipped_and_all_null_groups_report_null() {
    let mut s = AggregateState::new(spec(
        vec![0],
        vec![
            AggFn::CountRows,
            AggFn::Sum(1),
            AggFn::Min(1),
            AggFn::Max(1),
        ],
    ));
    s.apply(&delta(vec![
        (tup![1, Value::Null], 2),
        (tup![2, Value::Null], 1),
        (tup![2, 6], 1),
    ]))
    .unwrap();
    // Group 1: two rows, but SUM/MIN/MAX saw only NULLs → NULL.
    assert_eq!(
        s.current()
            .count(&tup![1, 2, Value::Null, Value::Null, Value::Null]),
        1
    );
    // Group 2: COUNT counts the NULL row, the value aggregates skip it.
    assert_eq!(s.current().count(&tup![2, 2, 6, 6, 6]), 1);
    // Retracting the only non-NULL value sends the aggregates back to
    // NULL without touching the NULL rows' support (which is empty).
    s.apply(&delta(vec![(tup![2, 6], -1)])).unwrap();
    assert_eq!(
        s.current()
            .count(&tup![2, 1, Value::Null, Value::Null, Value::Null]),
        1
    );
}

#[test]
fn failed_aggregate_apply_keeps_subsequent_applies_consistent() {
    // After a rejection, the state must still agree with the oracle fed
    // only the successful deltas — no half-absorbed group survives.
    let sp = spec(vec![0], vec![AggFn::CountRows, AggFn::Min(1)]);
    let mut s = AggregateState::new(sp.clone());
    let mut input = Bag::new();
    let good1 = delta(vec![(tup![1, 4], 1), (tup![2, 2], 1)]);
    s.apply(&good1).unwrap();
    input.merge(&good1);
    assert!(s.apply(&delta(vec![(tup![1, 4], -2)])).is_err());
    let good2 = delta(vec![(tup![1, 4], -1), (tup![1, 6], 1)]);
    s.apply(&good2).unwrap();
    input.merge(&good2);
    assert_eq!(s.current(), sp.eval(&input).unwrap());
}
