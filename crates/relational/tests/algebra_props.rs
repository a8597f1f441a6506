//! Property-based tests of the bag/delta algebra — the identities the
//! SWEEP correctness argument leans on. If any of these laws broke, the
//! on-line error correction would silently corrupt views; here they are
//! checked over thousands of random bags.
//!
//! Each property runs a seeded loop of random cases, so a failure prints
//! the offending case seed and replays exactly — no external
//! property-testing framework needed.

use dw_relational::{
    eval_view, extend_hop, extend_partial, extend_partial_indexed, merge_pivot, neighbor_keys, tup,
    Bag, CmpOp, JoinIndex, JoinSide, PartialDelta, Predicate, Schema, ShardMap, SharedBag, Tuple,
    Value, ViewDefBuilder,
};
use dw_rng::Rng64;
use std::collections::BTreeMap;

const CASES: u64 = 128;

/// Arbitrary signed bag over small 2-attribute tuples. Small domains force
/// collisions (count summation paths).
fn arb_bag(r: &mut Rng64) -> Bag {
    let n = r.usize_below(12);
    Bag::from_pairs((0..n).map(|_| {
        let (a, b) = (r.i64_in(0, 6), r.i64_in(0, 6));
        (tup![a, b], r.i64_in(-3, 4))
    }))
}

/// Arbitrary *positive* bag (a legal base-relation state).
fn arb_relation(r: &mut Rng64) -> Bag {
    let n = r.usize_below(12);
    Bag::from_pairs((0..n).map(|_| (tup![r.i64_in(0, 6), r.i64_in(0, 6)], 1)))
}

fn two_chain() -> dw_relational::ViewDef {
    ViewDefBuilder::new()
        .relation(Schema::new("R1", ["A", "B"]).unwrap())
        .relation(Schema::new("R2", ["C", "D"]).unwrap())
        .join("R1.B", "R2.C")
        .build()
        .unwrap()
}

fn join_right(view: &dw_relational::ViewDef, left: &Bag, right: &Bag) -> Bag {
    let pd = PartialDelta::seed(view, 0, left).unwrap();
    extend_partial(view, &pd, right, JoinSide::Right)
        .unwrap()
        .bag
}

// ---- Bag laws ----------------------------------------------------------

#[test]
fn merge_is_commutative() {
    for case in 0..CASES {
        let mut r = Rng64::new(case);
        let (a, b) = (arb_bag(&mut r), arb_bag(&mut r));
        assert_eq!(a.plus(&b), b.plus(&a), "case {case}");
    }
}

#[test]
fn merge_is_associative() {
    for case in 0..CASES {
        let mut r = Rng64::new(100 + case);
        let (a, b, c) = (arb_bag(&mut r), arb_bag(&mut r), arb_bag(&mut r));
        assert_eq!(a.plus(&b).plus(&c), a.plus(&b.plus(&c)), "case {case}");
    }
}

#[test]
fn negation_is_additive_inverse() {
    for case in 0..CASES {
        let mut r = Rng64::new(200 + case);
        let a = arb_bag(&mut r);
        assert!(a.plus(&a.negated()).is_empty(), "case {case}");
    }
}

#[test]
fn subtract_then_add_roundtrips() {
    for case in 0..CASES {
        let mut r = Rng64::new(300 + case);
        let (a, b) = (arb_bag(&mut r), arb_bag(&mut r));
        let mut x = a.clone();
        x.subtract(&b);
        x.merge(&b);
        assert_eq!(x, a, "case {case}");
    }
}

#[test]
fn no_zero_counts_stored() {
    for case in 0..CASES {
        let mut r = Rng64::new(400 + case);
        let sum = arb_bag(&mut r).plus(&arb_bag(&mut r));
        for (_, c) in sum.iter() {
            assert_ne!(c, 0, "case {case}");
        }
    }
}

#[test]
fn sorted_vec_is_canonical() {
    // Rebuilding from the sorted listing yields the same bag, and the
    // listing is sorted.
    for case in 0..CASES {
        let mut r = Rng64::new(500 + case);
        let a = arb_bag(&mut r);
        let v = a.to_sorted_vec();
        assert!(v.windows(2).all(|w| w[0].0 <= w[1].0), "case {case}");
        assert_eq!(Bag::from_pairs(v), a, "case {case}");
    }
}

/// `bag` against a `BTreeMap` model: counts, length, the iteration
/// multiset, and equality (both ways) with the model's entries added in
/// reverse order — a bag of the same counts in another order.
fn assert_matches_model(bag: &Bag, model: &BTreeMap<Tuple, i64>, ctx: &str) {
    assert_eq!(bag.distinct_len(), model.len(), "{ctx}");
    for (t, &c) in model {
        assert_eq!(bag.count(t), c, "{ctx}: count of {t}");
    }
    let mut listed: Vec<(Tuple, i64)> = bag.iter().map(|(t, c)| (t.clone(), c)).collect();
    listed.sort();
    let want: Vec<(Tuple, i64)> = model.iter().map(|(t, &c)| (t.clone(), c)).collect();
    assert_eq!(listed, want, "{ctx}: iter");
    let reversed = Bag::from_pairs(model.iter().rev().map(|(t, &c)| (t.clone(), c)));
    assert_eq!(*bag, reversed, "{ctx}: reversed");
    assert_eq!(reversed, *bag, "{ctx}: reversed");
}

/// Each chain of `bag` against the model: probing with any tuple's key
/// yields exactly the model's tuples of that key — none for a key with a
/// NULL column.
fn assert_chains_match_model(
    bag: &Bag,
    chain_keys: &[Vec<usize>],
    model: &BTreeMap<Tuple, i64>,
    ctx: &str,
) {
    for cols in chain_keys {
        let mut groups: BTreeMap<Vec<&Value>, Vec<(Tuple, i64)>> = BTreeMap::new();
        for (t, &c) in model {
            let key: Vec<&Value> = cols.iter().map(|&k| t.at(k)).collect();
            groups.entry(key).or_default().push((t.clone(), c));
        }
        for (key, rows) in groups {
            // A chain that cycles yields more rows than the bag holds.
            let mut got: Vec<(Tuple, i64)> = bag
                .probe(cols, &rows[0].0, cols)
                .expect("chained")
                .take(model.len() + 1)
                .map(|(t, c)| (t.clone(), c))
                .collect();
            got.sort();
            let want = if key.contains(&&Value::Null) {
                Vec::new()
            } else {
                rows
            };
            assert_eq!(got, want, "{ctx}: chain on {cols:?}, key {key:?}");
        }
    }
}

fn model_of(bag: &Bag) -> BTreeMap<Tuple, i64> {
    bag.iter().map(|(t, c)| (t.clone(), c)).collect()
}

/// Random add/cancel sequences against a `BTreeMap` model, checked after
/// every operation; domains up to a few hundred tuples make tables grow
/// and exact cancellations (swap-removes, backward shifts) frequent. The
/// derived bags — negated, filtered, projected, cloned, merged, shared —
/// are then checked against the model too.
#[test]
fn bag_matches_a_btreemap_model_under_add_and_cancel() {
    let chain_keys = [vec![1], vec![0, 1]];
    for case in 0..CASES / 2 {
        let mut r = Rng64::new(5_000 + case);
        let domain = 1 + r.i64_in(0, 120);
        let (mut bag, mut model) = (Bag::new(), BTreeMap::new());
        // The same operations on a bag chained on both key sets: from the
        // start in even cases, from a loaded bag half-way in odd ones.
        let (mut chained, chain_from) = (Bag::new(), (case % 2) * 125);
        let mut ops = Vec::new();
        for step in 0..250 {
            if step == chain_from {
                chain_keys.iter().for_each(|k| chained.chain_on(k.clone()));
            }
            // A 2 in column 1 spells a NULL key, which is on no chain.
            let (a, b) = (r.i64_in(0, domain), r.i64_in(0, 3));
            let b = if b == 2 { Value::Null } else { b.into() };
            let t = Tuple::new(vec![a.into(), b]);
            let held = model.get(&t).copied().unwrap_or(0);
            let c = if held != 0 && r.chance(0.4) {
                -held
            } else {
                [-2, -1, 1, 2, 3][r.usize_below(5)]
            };
            bag.add(t.clone(), c);
            chained.add(t.clone(), c);
            ops.push((t.clone(), c));
            *model.entry(t).or_insert(0) += c;
            model.retain(|_, c| *c != 0);
            let ctx = format!("case {case} step {step}");
            assert_matches_model(&bag, &model, &ctx);
            assert_matches_model(&chained, &model, &ctx);
            if step >= chain_from {
                assert_chains_match_model(&chained, &chain_keys, &model, &ctx);
            }
        }
        let ctx = format!("case {case}");
        assert_chains_match_model(&chained.clone(), &chain_keys, &model, &ctx);
        assert!(!chained.negated().chained_on(&[1]), "{ctx}");
        assert_eq!(
            Bag::from_pairs(ops.into_iter().rev()),
            bag,
            "{ctx}: ops reversed"
        );

        let negated: BTreeMap<Tuple, i64> = model.iter().map(|(t, &c)| (t.clone(), -c)).collect();
        assert_matches_model(&bag.negated(), &negated, &ctx);
        assert_eq!(bag.negated().negated(), bag, "{ctx}");
        let even = |t: &Tuple| matches!(t.at(0), Value::Int(k) if k % 2 == 0);
        let mut kept = model.clone();
        kept.retain(|t, _| even(t));
        assert_matches_model(&bag.filter(even), &kept, &ctx);
        let mut image = BTreeMap::new();
        for (t, &c) in &model {
            *image.entry(t.project(&[1])).or_insert(0) += c;
        }
        image.retain(|_, c| *c != 0);
        assert_matches_model(&bag.map_tuples(|t| t.project(&[1])), &image, &ctx);
        let mut copy = bag.clone();
        assert_matches_model(&copy, &model, &ctx);
        copy.merge_owned(bag.negated());
        assert!(copy.is_empty(), "{ctx}: merge_owned of the negation");
        copy.merge_owned(bag.clone());
        assert_matches_model(&copy, &model, &ctx);
        let other = arb_bag(&mut r);
        let mut sum = model.clone();
        for (t, c) in model_of(&other) {
            *sum.entry(t).or_insert(0) += c;
        }
        sum.retain(|_, c| *c != 0);
        let mut merged = bag.clone();
        merged.merge_owned(other);
        assert_matches_model(&merged, &sum, &ctx);
        assert_eq!(
            model_of(&SharedBag::from(bag.clone()).to_bag()),
            model,
            "{ctx}"
        );
        assert_matches_model(&bag, &model, &ctx);
    }
}

// ---- Join laws (the §3 identities) -------------------------------------

/// (R + ΔR) ⋈ S = R ⋈ S + ΔR ⋈ S — the incremental-maintenance identity
/// SWEEP is built on.
#[test]
fn join_distributes_over_delta() {
    for case in 0..CASES {
        let mut rng = Rng64::new(600 + case);
        let (r, dr, s) = (
            arb_relation(&mut rng),
            arb_bag(&mut rng),
            arb_relation(&mut rng),
        );
        let view = two_chain();
        let lhs = join_right(&view, &r.plus(&dr), &s);
        let rhs = join_right(&view, &r, &s).plus(&join_right(&view, &dr, &s));
        assert_eq!(lhs, rhs, "case {case}");
    }
}

/// Signs multiply through joins: (−ΔR) ⋈ S = −(ΔR ⋈ S).
#[test]
fn join_respects_negation() {
    for case in 0..CASES {
        let mut rng = Rng64::new(700 + case);
        let (dr, s) = (arb_bag(&mut rng), arb_relation(&mut rng));
        let view = two_chain();
        let lhs = join_right(&view, &dr.negated(), &s);
        let rhs = join_right(&view, &dr, &s).negated();
        assert_eq!(lhs, rhs, "case {case}");
    }
}

/// Left and right extension orders commute on a 3-chain:
/// (ΔR₂ ⋈ R₃) then R₁ equals (R₁ ⋈ ΔR₂) then R₃.
#[test]
fn extension_order_commutes() {
    for case in 0..CASES {
        let mut rng = Rng64::new(800 + case);
        let (r1, d2, r3) = (
            arb_relation(&mut rng),
            arb_bag(&mut rng),
            arb_relation(&mut rng),
        );
        let view = ViewDefBuilder::new()
            .relation(Schema::new("R1", ["A", "B"]).unwrap())
            .relation(Schema::new("R2", ["C", "D"]).unwrap())
            .relation(Schema::new("R3", ["E", "F"]).unwrap())
            .join("R1.B", "R2.C")
            .join("R2.D", "R3.E")
            .build()
            .unwrap();
        let seed = PartialDelta::seed(&view, 1, &d2).unwrap();
        let right_then_left = {
            let pd = extend_partial(&view, &seed, &r3, JoinSide::Right).unwrap();
            extend_partial(&view, &pd, &r1, JoinSide::Left).unwrap()
        };
        let left_then_right = {
            let pd = extend_partial(&view, &seed, &r1, JoinSide::Left).unwrap();
            extend_partial(&view, &pd, &r3, JoinSide::Right).unwrap()
        };
        assert_eq!(right_then_left, left_then_right, "case {case}");
    }
}

/// Incremental maintenance agrees with full recomputation over an
/// arbitrary sequence of deltas (applied one at a time).
#[test]
fn incremental_equals_recompute() {
    for case in 0..CASES {
        let mut rng = Rng64::new(900 + case);
        let view = two_chain();
        let mut cur1 = arb_relation(&mut rng);
        let mut cur2 = arb_relation(&mut rng);
        let mut v = eval_view(&view, &[&cur1, &cur2]).unwrap();
        for _ in 0..rng.usize_below(6) {
            let left_side = rng.chance(0.5);
            let d = arb_bag(&mut rng);
            if left_side {
                // ΔV = ΔR1 ⋈ R2 (R2 unchanged)
                let dv = join_right(&view, &d, &cur2);
                v.merge(&dv);
                cur1.merge(&d);
            } else {
                let pd = PartialDelta::seed(&view, 1, &d).unwrap();
                let dv = extend_partial(&view, &pd, &cur1, JoinSide::Left)
                    .unwrap()
                    .bag;
                v.merge(&dv);
                cur2.merge(&d);
            }
            let direct = eval_view(&view, &[&cur1, &cur2]).unwrap();
            assert_eq!(&v, &direct, "case {case}");
        }
    }
}

/// The compensation identity of §4: for a query seeded with ΔR₂ and a
/// concurrent ΔR₁, the answer computed on (R₁ + ΔR₁) minus the locally
/// computed error term ΔR₁ ⋈ ΔR₂ equals the answer on R₁ alone.
#[test]
fn local_compensation_identity() {
    for case in 0..CASES {
        let mut rng = Rng64::new(1_000 + case);
        let (r1, d1, d2) = (arb_relation(&mut rng), arb_bag(&mut rng), arb_bag(&mut rng));
        let view = two_chain();
        let seed = PartialDelta::seed(&view, 1, &d2).unwrap();
        // What the source returns after applying ΔR1:
        let contaminated = extend_partial(&view, &seed, &r1.plus(&d1), JoinSide::Left)
            .unwrap()
            .bag;
        // Error term, computable entirely at the warehouse:
        let error = extend_partial(&view, &seed, &d1, JoinSide::Left)
            .unwrap()
            .bag;
        // Target: the answer on the pre-update state.
        let clean = extend_partial(&view, &seed, &r1, JoinSide::Left)
            .unwrap()
            .bag;
        assert_eq!(contaminated.minus(&error), clean, "case {case}");
    }
}

// ---- Projection / tuple laws -------------------------------------------

#[test]
fn projection_preserves_total_signed_count() {
    for case in 0..CASES {
        let mut r = Rng64::new(1_100 + case);
        let a = arb_bag(&mut r);
        let signed_total = |b: &Bag| b.iter().map(|(_, c)| c).sum::<i64>();
        let projected = a.map_tuples(|t| t.project(&[0]));
        assert_eq!(signed_total(&a), signed_total(&projected), "case {case}");
    }
}

#[test]
fn concat_then_project_recovers_parts() {
    for case in 0..CASES {
        let mut r = Rng64::new(1_200 + case);
        let xs: Vec<i64> = (0..1 + r.usize_below(4))
            .map(|_| r.i64_in(0, 100))
            .collect();
        let ys: Vec<i64> = (0..1 + r.usize_below(4))
            .map(|_| r.i64_in(0, 100))
            .collect();
        let a = Tuple::new(xs.iter().map(|&v| v.into()).collect());
        let b = Tuple::new(ys.iter().map(|&v| v.into()).collect());
        let c = a.concat(&b);
        let left: Vec<usize> = (0..xs.len()).collect();
        let right: Vec<usize> = (xs.len()..xs.len() + ys.len()).collect();
        assert_eq!(c.project(&left), a, "case {case}");
        assert_eq!(c.project(&right), b, "case {case}");
    }
}

/// How a random view projects its full-width join.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Proj {
    /// No projection list: the identity.
    Default,
    /// Every attribute listed in chain order: the identity again.
    Listed,
    /// Every attribute, in a shuffled (non-identity) order: as wide as
    /// the identity, but not it.
    Permuted,
    /// Some attributes, repeats allowed.
    Narrowing,
}

/// `finalize` (and `eval_view`, which owns its bag) may skip the residual
/// σ where it is `True` and the projection where it is exactly the
/// identity; over random 1–3-relation chains with and without a residual
/// and with each kind of projection, the result equals σ-then-Π applied
/// literally.
#[test]
fn finalize_equals_literal_select_then_project() {
    let (mut permuted, mut filtered) = (0, 0);
    for case in 0..4 * CASES {
        let mut r = Rng64::new(3_000 + case);
        let n = 1 + r.usize_below(3);
        let mut b = ViewDefBuilder::new();
        let mut attrs = Vec::new();
        for k in 0..n {
            b = b.relation(Schema::new(format!("R{k}"), ["X", "Y"]).unwrap());
            attrs.extend([format!("R{k}.X"), format!("R{k}.Y")]);
        }
        for k in 1..n {
            b = b.join(format!("R{}.Y", k - 1), format!("R{k}.X"));
        }
        if r.chance(0.5) {
            let (left, right) = (r.usize_below(attrs.len()), r.usize_below(attrs.len()));
            b = b.select_across(attrs[left].clone(), CmpOp::Le, attrs[right].clone());
        }
        let proj = [Proj::Default, Proj::Listed, Proj::Permuted, Proj::Narrowing][r.usize_below(4)];
        let listed: Vec<String> = match proj {
            Proj::Default => Vec::new(),
            Proj::Listed => attrs.clone(),
            Proj::Permuted => {
                let mut order = attrs.clone();
                while order == attrs {
                    for i in (1..order.len()).rev() {
                        order.swap(i, r.usize_below(i + 1));
                    }
                }
                order
            }
            Proj::Narrowing => (0..1 + r.usize_below(attrs.len()))
                .map(|_| attrs[r.usize_below(attrs.len())].clone())
                .collect(),
        };
        let view = b.project(listed).build().unwrap();
        let literal = |bag: &Bag| {
            Bag::from_pairs(
                bag.iter()
                    .filter(|(t, _)| view.residual().eval(t))
                    .map(|(t, c)| (t.project(view.projection()), c)),
            )
        };

        let full = PartialDelta {
            lo: 0,
            hi: n - 1,
            bag: Bag::from_pairs((0..r.usize_below(12)).map(|_| {
                let vals: Vec<Value> = (0..2 * n).map(|_| r.i64_in(0, 3).into()).collect();
                (Tuple::new(vals), r.i64_in(-2, 3))
            })),
        };
        let out = full.clone().finalize(&view).unwrap();
        assert_eq!(out, literal(&full.bag), "case {case}, {proj:?}");

        let relations: Vec<Bag> = (0..n).map(|_| arb_relation(&mut r)).collect();
        let mut joined = PartialDelta::seed(&view, 0, &relations[0]).unwrap();
        for rel in &relations[1..] {
            joined = extend_partial(&view, &joined, rel, JoinSide::Right).unwrap();
        }
        let refs: Vec<&Bag> = relations.iter().collect();
        let evaluated = eval_view(&view, &refs).unwrap();
        assert_eq!(evaluated, literal(&joined.bag), "case {case}, {proj:?}");

        permuted += usize::from(proj == Proj::Permuted && !full.bag.is_empty());
        filtered += usize::from(full.bag.iter().any(|(t, _)| !view.residual().eval(t)));
    }
    assert!(
        permuted > CASES as usize / 2,
        "only {permuted} permuted cases"
    );
    assert!(
        filtered > CASES as usize / 2,
        "only {filtered} filtering cases"
    );
}

// ---- The sharding lemma ------------------------------------------------

/// A value in one of `bands` under a width-10 range map; the small
/// offset domain forces join partners.
fn band_value(r: &mut Rng64, bands: &[usize]) -> i64 {
    bands[r.usize_below(bands.len())] as i64 * 10 + r.i64_in(0, 3)
}

/// The purity lemma the lane scheduler rests on: a partial whose values
/// all band inside the mask `m` joins the **full** relation exactly as it
/// joins the relation cut down to its group — the tuples pure in a band
/// of `m`, plus the impure ones. Tuples pure in a foreign band join
/// nothing (an equi-join equates values, and the bands are disjoint), so
/// a lane's sweep query needs no shard scope: the source answers it from
/// the whole relation like any other.
#[test]
fn foreign_band_tuples_never_join_an_in_group_partial() {
    const SHARDS: usize = 4;
    let map = ShardMap::range(10, SHARDS);
    let view = two_chain();
    let all: Vec<usize> = (0..SHARDS).collect();
    let (mut joined, mut cut) = (0, 0);
    for case in 0..4 * CASES {
        let mut r = Rng64::new(1400 + case);
        // Pure tuples of every band, one in four possibly impure.
        let relation = Bag::from_pairs((0..4 + r.usize_below(16)).map(|_| {
            let a = band_value(&mut r, &all);
            let partner = if r.chance(0.25) {
                &all[..]
            } else {
                &[a as usize / 10]
            };
            (tup![a, band_value(&mut r, partner)], 1)
        }));
        let mask = 1 + r.u64_below((1 << SHARDS) - 1);
        let group_bands: Vec<usize> = (0..SHARDS).filter(|s| mask & (1 << s) != 0).collect();
        let delta = Bag::from_pairs((0..1 + r.usize_below(6)).map(|_| {
            let (a, b) = (
                band_value(&mut r, &group_bands),
                band_value(&mut r, &group_bands),
            );
            (tup![a, b], if r.chance(0.3) { -1 } else { 1 })
        }));
        let group = relation.filter(|t| {
            let bands = map.tuple_bands(t);
            bands.count_ones() > 1 || bands & mask != 0
        });
        cut += usize::from(group != relation);
        // Rightward from R1 into R2, leftward from R2 into R1.
        for (j, side) in [(0, JoinSide::Right), (1, JoinSide::Left)] {
            let partial = PartialDelta::seed(&view, j, &delta).unwrap();
            let full = extend_partial(&view, &partial, &relation, side).unwrap();
            let in_group = extend_partial(&view, &partial, &group, side).unwrap();
            assert_eq!(full, in_group, "case {case}, {side:?}, mask {mask:#b}");
            joined += usize::from(!full.bag.is_empty());
        }
    }
    assert!(
        cut > CASES as usize,
        "the group cut dropped something in only {cut} cases"
    );
    assert!(joined > CASES as usize, "only {joined} non-empty answers");
}

// ---- The one hop join: scan ≡ index probe ≡ nested loop ------------------

/// How two adjacent relations of a random chain are joined.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Link {
    /// `R_k.Y = R_{k+1}.X`.
    OnKey,
    /// `R_k.X = R_{k+1}.X ∧ R_k.Y = R_{k+1}.Y` (a two-pair condition).
    OnBoth,
    /// No condition: a cross-product hop.
    Cross,
}

/// The hop kernel has three spellings — hash the neighbor bag and probe it
/// (`extend_partial`, the source's default and the warehouse's
/// compensation), probe a bag chained on the join key (`extend_hop` on a
/// chained relation, `extend_partial_indexed` on a `JoinIndex`)
/// and, here, a nested loop written from the chain's own description. Over
/// random 2–4-relation chains with local selections, an occasional
/// cross-product hop, signed partials spanning 1–3 relations, both sides,
/// with and without a pushed-down σ, all three agree as bags.
#[test]
fn index_probe_equals_scan_equals_nested_loop() {
    const HOP_CASES: u64 = 1_200;
    let int = |t: &Tuple, k: usize| match t.at(k) {
        Value::Int(v) => *v,
        other => panic!("integer column holds {other:?}"),
    };
    let (mut nonempty, mut pushed_cases, mut selected, mut crossed) = (0, 0, 0, 0);
    for case in 0..HOP_CASES {
        let mut r = Rng64::new(2_000 + case);
        let n = 2 + r.usize_below(3);
        let links: Vec<Link> = (1..n)
            .map(|_| match r.usize_below(8) {
                0 => Link::Cross,
                1 | 2 => Link::OnBoth,
                _ => Link::OnKey,
            })
            .collect();
        // σ_k: `R_k.X >= bound`, on about half the relations.
        let bounds: Vec<Option<i64>> = (0..n)
            .map(|_| r.chance(0.5).then(|| r.i64_in(0, 4)))
            .collect();
        let mut b = ViewDefBuilder::new();
        for (k, bound) in bounds.iter().enumerate() {
            b = b.relation(Schema::new(format!("R{k}"), ["X", "Y"]).unwrap());
            if let Some(bound) = *bound {
                b = b.select(format!("R{k}.X"), CmpOp::Ge, bound);
            }
        }
        for (k, link) in links.iter().enumerate() {
            let (l, r) = (format!("R{k}"), format!("R{}", k + 1));
            match link {
                Link::OnKey => b = b.join(format!("{l}.Y"), format!("{r}.X")),
                Link::OnBoth => {
                    b = b.join(format!("{l}.X"), format!("{r}.X"));
                    b = b.join(format!("{l}.Y"), format!("{r}.Y"));
                }
                Link::Cross => {}
            }
        }
        let view = b.build().unwrap();

        // A partial over [lo, hi] with a neighbor on the chosen side.
        let side = if r.chance(0.5) {
            JoinSide::Left
        } else {
            JoinSide::Right
        };
        let span = 1 + r.usize_below(n - 1);
        let lo = match side {
            JoinSide::Left => 1 + r.usize_below(n - span),
            JoinSide::Right => r.usize_below(n - span),
        };
        let hi = lo + span - 1;
        let (nbr, link) = match side {
            JoinSide::Left => (lo - 1, links[lo - 1]),
            JoinSide::Right => (hi + 1, links[hi]),
        };
        let partial = PartialDelta {
            lo,
            hi,
            bag: Bag::from_pairs((0..r.usize_below(8)).map(|_| {
                let vals: Vec<Value> = (0..2 * span).map(|_| r.i64_in(0, 5).into()).collect();
                (Tuple::new(vals), r.i64_in(-2, 3))
            })),
        };
        // The neighbor relation, reached through one transaction so the
        // index is maintained, not just loaded.
        let initial = arb_relation(&mut r);
        let txn = Bag::from_pairs(
            (initial.iter().take(3).map(|(t, _)| (t.clone(), -1)))
                .chain((0..r.usize_below(4)).map(|_| (tup![r.i64_in(0, 6), r.i64_in(0, 6)], 2))),
        );
        let relation = initial.plus(&txn);
        let keys = neighbor_keys(&view, nbr, side).unwrap();
        let mut chained = initial.clone();
        chained.chain_on(keys.clone());
        chained.merge(&txn);
        assert_eq!(chained, relation, "case {case}");
        let mut index = JoinIndex::new(keys);
        index.apply_delta(&initial);
        index.apply_delta(&txn);
        let pushed = r.chance(0.5).then(|| Predicate::Cmp {
            attr: 1,
            op: CmpOp::Lt,
            value: r.i64_in(1, 6).into(),
        });

        // The reference: every pair, every condition, spelled out.
        let mut expected = Bag::new();
        for (pt, pc) in partial.bag.iter() {
            for (nt, nc) in relation.iter() {
                // The partial's relation that faces the neighbor.
                let facing = match side {
                    JoinSide::Left => 0,
                    JoinSide::Right => 2 * (span - 1),
                };
                let (px, py) = (int(pt, facing), int(pt, facing + 1));
                let (nx, ny) = (int(nt, 0), int(nt, 1));
                let joins = match (link, side) {
                    (Link::Cross, _) => true,
                    (Link::OnBoth, _) => px == nx && py == ny,
                    (Link::OnKey, JoinSide::Left) => ny == px,
                    (Link::OnKey, JoinSide::Right) => py == nx,
                };
                let local = bounds[nbr].is_none_or(|bound| nx >= bound);
                let pushed = pushed.as_ref().is_none_or(|p| p.eval(nt));
                if joins && local && pushed {
                    let glued = match side {
                        JoinSide::Left => nt.concat(pt),
                        JoinSide::Right => pt.concat(nt),
                    };
                    expected.add(glued, pc * nc);
                }
            }
        }

        let obs = dw_obs::Obs::off();
        let hop = |neighbor| extend_hop(&view, &partial, neighbor, side, pushed.as_ref(), &obs);
        let scan = hop(&relation).unwrap();
        let probe = hop(&chained).unwrap();
        let ctx = format!("case {case}: {links:?} {bounds:?} [{lo},{hi}] {side:?} {pushed:?}");
        assert_eq!(scan, probe, "{ctx}");
        assert_eq!(scan.bag, expected, "{ctx}");
        let range = match side {
            JoinSide::Left => (nbr, hi),
            JoinSide::Right => (lo, nbr),
        };
        assert_eq!((scan.lo, scan.hi), range, "{ctx}");
        if pushed.is_none() {
            // The two frozen entry points are the same kernel.
            assert_eq!(
                extend_partial(&view, &partial, &relation, side).unwrap(),
                scan
            );
            assert_eq!(
                extend_partial_indexed(&view, &partial, &index, side).unwrap(),
                scan
            );
        }
        nonempty += usize::from(!expected.is_empty());
        pushed_cases += usize::from(pushed.is_some());
        selected += usize::from(bounds[nbr].is_some());
        crossed += usize::from(link == Link::Cross);
    }
    // The generator really visits every cell the claim names.
    assert!(nonempty > 400, "only {nonempty} non-empty joins");
    assert!(
        pushed_cases > 400 && selected > 400,
        "{pushed_cases} / {selected}"
    );
    assert!(crossed > 50, "only {crossed} cross-product hops");
}

// ---- The hop join's keys: every value type, fan-in, signed duplicates ---

/// A join-column value from a small mixed domain: NULL, both booleans,
/// integers, floats whose `-0.0` / NaN spellings must meet their
/// canonical twins, and short strings — so equal keys of every type
/// collide often, and distinct keys share the table's chains.
fn arb_key(r: &mut Rng64) -> Value {
    match r.usize_below(6) {
        0 => Value::Null,
        1 => Value::Bool(r.chance(0.5)),
        2 => Value::Int(r.i64_in(0, 40)),
        3 => Value::float([0.0, -0.0, f64::NAN, -f64::NAN, 1.5][r.usize_below(5)]),
        _ => Value::str(["a", "b", ""][r.usize_below(3)]),
    }
}

fn arb_key_pair(r: &mut Rng64) -> Tuple {
    Tuple::new(vec![arb_key(r), arb_key(r)])
}

/// The scan and the index probe of one hop equal a nested loop over keys
/// of every value type, where a NULL key column joins nothing: single-
/// and two-column keys, both sides, signed partials and signed neighbors
/// whose duplicates sum (and sometimes cancel), and in half the cases a
/// hot key carried by 64–127 neighbor rows.
#[test]
fn hop_join_over_typed_keys_fan_in_and_signed_duplicates_equals_nested_loop() {
    const KEY_CASES: u64 = 400;
    let (mut nulls_refused, mut hot_hits, mut nonempty) = (0, 0, 0);
    for case in 0..KEY_CASES {
        let mut r = Rng64::new(5_000 + case);
        let hot = r.chance(0.5).then(|| arb_key(&mut r));
        // Two-column keys only without a hot key: a hot row there would be
        // one tuple, not a fan-in.
        let both = hot.is_none() && r.chance(0.4);
        let mut b = ViewDefBuilder::new()
            .relation(Schema::new("R0", ["X", "Y"]).unwrap())
            .relation(Schema::new("R1", ["X", "Y"]).unwrap());
        if both {
            b = b.join("R0.X", "R1.X").join("R0.Y", "R1.Y");
        } else {
            b = b.join("R0.Y", "R1.X");
        }
        let view = b.build().unwrap();
        let side = if r.chance(0.5) {
            JoinSide::Left
        } else {
            JoinSide::Right
        };
        let (lo, nbr) = match side {
            JoinSide::Right => (0, 1),
            JoinSide::Left => (1, 0),
        };
        // (partial column, neighbor column) of every key pair.
        let keys = match (both, side) {
            (true, _) => vec![(0, 0), (1, 1)],
            (false, JoinSide::Right) => vec![(1, 0)],
            (false, JoinSide::Left) => vec![(0, 1)],
        };
        let with_key = |key: &Value, other: i64, col: usize| {
            let mut vals = vec![Value::Int(other); 2];
            vals[col] = key.clone();
            Tuple::new(vals)
        };
        let mut relation = Bag::from_pairs(
            (0..r.usize_below(200)).map(|_| (arb_key_pair(&mut r), r.i64_in(-2, 4))),
        );
        let mut partial_rows: Vec<(Tuple, i64)> = (0..r.usize_below(24))
            .map(|_| (arb_key_pair(&mut r), r.i64_in(-3, 4)))
            .collect();
        if let Some(hot) = &hot {
            let (pcol, ncol) = keys[0];
            for i in 0..64 + r.usize_below(64) {
                relation.add(with_key(hot, 1_000 + i as i64, ncol), r.i64_in(1, 3));
            }
            for i in 0..1 + r.usize_below(4) {
                partial_rows.push((with_key(hot, 2_000 + i as i64, pcol), r.i64_in(-2, 3)));
            }
        }
        // Duplicates sum, and a count may cancel to nothing.
        let partial = PartialDelta {
            lo,
            hi: lo,
            bag: Bag::from_pairs(partial_rows),
        };

        let mut expected = Bag::new();
        for (pt, pc) in partial.bag.iter() {
            for (nt, nc) in relation.iter() {
                let equal = keys.iter().all(|&(p, n)| pt.at(p) == nt.at(n));
                let null = keys.iter().any(|&(p, _)| *pt.at(p) == Value::Null);
                nulls_refused += usize::from(equal && null);
                hot_hits += usize::from(equal && !null && hot.as_ref() == Some(pt.at(keys[0].0)));
                if equal && !null {
                    let glued = match side {
                        JoinSide::Left => nt.concat(pt),
                        JoinSide::Right => pt.concat(nt),
                    };
                    expected.add(glued, pc * nc);
                }
            }
        }

        let mut index = JoinIndex::new(neighbor_keys(&view, nbr, side).unwrap());
        index.apply_delta(&relation);
        let ctx = format!("case {case}: both {both}, {side:?}, hot {hot:?}");
        let scan = extend_partial(&view, &partial, &relation, side).unwrap();
        assert_eq!(scan.bag, expected, "{ctx}");
        let probe = extend_partial_indexed(&view, &partial, &index, side).unwrap();
        assert_eq!(probe, scan, "{ctx}");
        nonempty += usize::from(!expected.is_empty());
    }
    assert!(nonempty > 300, "only {nonempty} non-empty joins");
    assert!(
        nulls_refused > 100,
        "only {nulls_refused} NULL = NULL pairs"
    );
    assert!(hot_hits > 100 * 64, "only {hot_hits} hot-key matches");
}

/// The pivot merge is the one equi-join a NULL takes part in: it matches
/// a leg's pivot tuple to the other leg's copy of the same tuple, every
/// column included. It hashes its smaller leg, the left on a tie: with the
/// left leg smaller than, as large as and larger than the right, signed
/// counts and pivots of every value type, it equals the nested loop.
#[test]
fn merge_pivot_equals_nested_loop() {
    let view = ViewDefBuilder::new()
        .relation(Schema::new("R0", ["X", "Y"]).unwrap())
        .relation(Schema::new("R1", ["X", "Y"]).unwrap())
        .relation(Schema::new("R2", ["X", "Y"]).unwrap())
        .join("R0.Y", "R1.X")
        .join("R1.Y", "R2.X")
        .build()
        .unwrap();
    let (mut null_pivots, mut nonempty) = ([0usize; 3], [0usize; 3]);
    let mut built = [[0usize; 5]; 2];
    for case in 0..6 * CASES {
        let mut r = Rng64::new(6_000 + case);
        let size = Size::ALL[case as usize % 3];
        let pivots: Vec<Tuple> = (0..1 + r.usize_below(8))
            .map(|_| arb_key_pair(&mut r))
            .collect();
        // `n` distinct rows: the pivot, and the row's number beside a
        // random value.
        let leg = |r: &mut Rng64, n: usize, pivot_first: bool| {
            let legs = Bag::from_pairs((0..n).map(|i| {
                let pivot = &pivots[r.usize_below(pivots.len())];
                let other = Tuple::new(vec![Value::Int(i as i64), arb_key(r)]);
                let t = if pivot_first {
                    pivot.concat(&other)
                } else {
                    other.concat(pivot)
                };
                (t, signed_count(r))
            }));
            assert_eq!(legs.distinct_len(), n);
            legs
        };
        let table = table_rows(&mut r, case);
        let (left_rows, right_rows) = size.rows(&mut r, table);
        let left = PartialDelta {
            lo: 0,
            hi: 1,
            bag: leg(&mut r, left_rows, false),
        };
        let right = PartialDelta {
            lo: 1,
            hi: 2,
            bag: leg(&mut r, right_rows, true),
        };
        let mut expected = Bag::new();
        for (lt, lc) in left.bag.iter() {
            for (rt, rc) in right.bag.iter() {
                if lt.values()[2..] == rt.values()[..2] {
                    let null = lt.values()[2..].contains(&Value::Null);
                    null_pivots[size as usize] += usize::from(null);
                    let tail = Tuple::new(rt.values()[2..].to_vec());
                    expected.add(lt.concat(&tail), lc * rc);
                }
            }
        }
        let merged = merge_pivot(&view, &left, &right);
        assert_eq!((merged.lo, merged.hi), (0, 2), "case {case}");
        assert_eq!(merged.bag, expected, "case {case}: {size:?}");
        nonempty[size as usize] += usize::from(!expected.is_empty());
        if let Some(k) = regime(table as u64) {
            built[usize::from(size == Size::Larger)][k] += 1;
        }
    }
    for size in Size::ALL {
        let (merges, nulls) = (nonempty[size as usize], null_pivots[size as usize]);
        assert!(merges > 80, "{size:?}: only {merges} non-empty merges");
        assert!(
            nulls > 300,
            "{size:?}: only {nulls} NULL-bearing pivots merged"
        );
    }
    assert_every_regime(built, 20);
}

// ---- The hop join's build side: either input may be the table ----------

/// How the partial's (the pivot merge's left leg's) distinct count
/// compares with the other input's — the hash join's table is the partial
/// on `Smaller` and `Equal`, the other input on `Larger`.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Size {
    Smaller,
    Equal,
    Larger,
}

impl Size {
    const ALL: [Size; 3] = [Size::Smaller, Size::Equal, Size::Larger];

    /// Row counts `(partial, other)` of this class whose table — the
    /// partial on `Smaller` and `Equal`, the other input on `Larger` —
    /// holds `table` rows (before any σ filters the other input).
    fn rows(self, r: &mut Rng64, table: usize) -> (usize, usize) {
        let more = table + 1 + r.usize_below(24);
        match self {
            Size::Smaller => (table, more),
            Size::Equal => (table, table),
            Size::Larger => (more, table),
        }
    }
}

/// The table size of case `case`: the cases cycle through an empty
/// table, both edges of the one unhashed bucket (1 and 4 rows), the
/// smallest hashed table (5 rows), a hashed table of 9 to 24 rows, and
/// any size up to 24.
fn table_rows(r: &mut Rng64, case: u64) -> usize {
    match (case / 3) % 6 {
        0 => 0,
        1 => 1,
        2 => 4,
        3 => 5,
        4 => 9 + r.usize_below(16),
        _ => r.usize_below(25),
    }
}

/// The table sizes each side of the hop join must build at least once —
/// 0, 1 and 4 rows (one unhashed bucket, edges included), 5 and ≥ 9 rows
/// (hashed) — as an index into a per-regime count, `None` for the rest.
fn regime(table: u64) -> Option<usize> {
    match table {
        0 => Some(0),
        1 => Some(1),
        4 => Some(2),
        5 => Some(3),
        9.. => Some(4),
        _ => None,
    }
}

/// Assert that both build sides (`[partial, other]`) hit every
/// [`regime`] at least `min` times.
fn assert_every_regime(built: [[usize; 5]; 2], min: usize) {
    for (side, counts) in ["partial-built", "other-built"].iter().zip(built) {
        for (rows, n) in ["0", "1", "4", "5", ">= 9"].iter().zip(counts) {
            assert!(n >= min, "{side} tables of {rows} rows: only {n}");
        }
    }
}

/// A join-key value from a domain so small that most rows find partners:
/// NULL, one boolean, one string and three integers.
fn small_key(r: &mut Rng64) -> Value {
    match r.usize_below(6) {
        0 => Value::Null,
        1 => Value::Bool(true),
        2 => Value::str("a"),
        _ => Value::Int(r.i64_in(0, 3)),
    }
}

/// A signed, never-zero count.
fn signed_count(r: &mut Rng64) -> i64 {
    let c = r.i64_in(1, 4);
    if r.chance(0.3) {
        -c
    } else {
        c
    }
}

/// `n` distinct rows `[key, key, i]` at signed counts: the third column
/// makes every row distinct, so the bag holds exactly `n`.
fn keyed_rows(r: &mut Rng64, n: usize) -> Bag {
    let rows = (0..n).map(|i| {
        let t = Tuple::new(vec![small_key(r), small_key(r), Value::Int(i as i64)]);
        (t, signed_count(r))
    });
    let bag = Bag::from_pairs(rows);
    assert_eq!(bag.distinct_len(), n);
    bag
}

/// The hop join hashes whichever input has fewer distinct tuples. With
/// the partial smaller than, as large as and larger than the neighbor —
/// single- and two-column keys, NULL keys on both sides, signed counts on
/// both, the neighbor's local σ and a pushed σ — the scan equals the
/// nested loop and the index probe, on both sides of the partial.
#[test]
fn hop_join_equals_nested_loop_whichever_input_is_hashed() {
    const SIZE_CASES: u64 = 600;
    let mut nonempty = [0usize; 3];
    let mut nulls_refused = [0usize; 3];
    let mut built = [[0usize; 5]; 2];
    let (mut partial_nulls, mut nbr_nulls, mut both_keys, mut filtered) = (0, 0, 0, 0);
    for case in 0..SIZE_CASES {
        let mut r = Rng64::new(7_000 + case);
        let size = Size::ALL[case as usize % 3];
        let both = r.chance(0.4);
        let bound = r.chance(0.5).then(|| r.i64_in(0, 12));
        let side = if r.chance(0.5) {
            JoinSide::Left
        } else {
            JoinSide::Right
        };
        let (lo, nbr) = match side {
            JoinSide::Right => (0, 1),
            JoinSide::Left => (1, 0),
        };
        let mut b = ViewDefBuilder::new()
            .relation(Schema::new("R0", ["X", "Y", "Z"]).unwrap())
            .relation(Schema::new("R1", ["X", "Y", "Z"]).unwrap());
        if both {
            b = b.join("R0.X", "R1.X").join("R0.Y", "R1.Y");
        } else {
            b = b.join("R0.Y", "R1.X");
        }
        if let Some(bound) = bound {
            b = b.select(format!("R{nbr}.Z"), CmpOp::Ge, bound);
        }
        let view = b.build().unwrap();
        // (partial column, neighbor column) of every key pair.
        let keys = match (both, side) {
            (true, _) => vec![(0, 0), (1, 1)],
            (false, JoinSide::Right) => vec![(1, 0)],
            (false, JoinSide::Left) => vec![(0, 1)],
        };
        let drawn = table_rows(&mut r, case);
        let (n, nbr_rows) = size.rows(&mut r, drawn);
        let relation = keyed_rows(&mut r, nbr_rows);
        let partial = PartialDelta {
            lo,
            hi: lo,
            bag: keyed_rows(&mut r, n),
        };
        let pushed = r.chance(0.5).then(|| Predicate::Cmp {
            attr: 2,
            op: CmpOp::Lt,
            value: r.i64_in(12, 25).into(),
        });

        let z = |t: &Tuple| match t.at(2) {
            Value::Int(v) => *v,
            other => panic!("payload column holds {other:?}"),
        };
        let null_key = |t: &Tuple, side: fn(&(usize, usize)) -> usize| {
            keys.iter().any(|pair| *t.at(side(pair)) == Value::Null)
        };
        let kept = |nt: &Tuple| {
            bound.is_none_or(|b| z(nt) >= b) && pushed.as_ref().is_none_or(|p| p.eval(nt))
        };
        let mut expected = Bag::new();
        for (pt, pc) in partial.bag.iter() {
            partial_nulls += usize::from(null_key(pt, |&(p, _)| p));
            for (nt, nc) in relation.iter() {
                let equal = keys.iter().all(|&(p, n)| pt.at(p) == nt.at(n));
                let null = null_key(pt, |&(p, _)| p);
                let kept = kept(nt);
                if equal && kept && null {
                    nulls_refused[size as usize] += 1;
                } else if equal && kept {
                    let glued = match side {
                        JoinSide::Left => nt.concat(pt),
                        JoinSide::Right => pt.concat(nt),
                    };
                    expected.add(glued, pc * nc);
                }
            }
        }
        nbr_nulls += relation
            .iter()
            .filter(|(t, _)| null_key(t, |&(_, n)| n))
            .count();

        let ctx = format!("case {case}: {size:?} both {both}, {side:?}, σ {bound:?} {pushed:?}");
        let (obs, rec) = dw_obs::Obs::trace();
        let hop = |neighbor| extend_hop(&view, &partial, neighbor, side, pushed.as_ref(), &obs);
        let scan = hop(&relation).unwrap();
        assert_eq!(scan.bag, expected, "{ctx}");
        // The table is the partial, or the neighbor's rows that pass σ.
        let other_built = partial.bag.distinct_len() > relation.distinct_len();
        let table = if other_built {
            relation.iter().filter(|&(t, _)| kept(t)).count()
        } else {
            partial.bag.distinct_len()
        };
        let sum = |name| rec.lock().unwrap().histogram(name).map(|h| h.sum());
        assert_eq!(sum("join.build_rows"), Some(table as u128), "{ctx}");
        if let Some(k) = regime(table as u64) {
            built[usize::from(other_built)][k] += 1;
        }
        assert_eq!((scan.lo, scan.hi), (0, 1), "{ctx}");
        let mut chained = relation.clone();
        chained.chain_on(neighbor_keys(&view, nbr, side).unwrap());
        assert_eq!(hop(&chained).unwrap(), scan, "{ctx}");
        if pushed.is_none() {
            assert_eq!(
                extend_partial(&view, &partial, &relation, side).unwrap(),
                scan,
                "{ctx}"
            );
        }
        nonempty[size as usize] += usize::from(!expected.is_empty());
        both_keys += usize::from(both);
        filtered += usize::from(bound.is_some() && pushed.is_some());
    }
    // Every cell the claim names is visited, NULL = NULL pairs are turned
    // away with either input hashed, and most joins produce rows.
    for size in Size::ALL {
        let (joins, refused) = (nonempty[size as usize], nulls_refused[size as usize]);
        assert!(joins > 80, "{size:?}: only {joins} non-empty joins");
        assert!(refused > 150, "{size:?}: only {refused} NULL = NULL pairs");
    }
    assert!(
        partial_nulls > 800 && nbr_nulls > 800,
        "{partial_nulls} / {nbr_nulls}"
    );
    assert!(both_keys > 150 && filtered > 80, "{both_keys} / {filtered}");
    assert_every_regime(built, 10);
}
