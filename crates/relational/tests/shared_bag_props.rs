//! Isolation of the structurally shared bag: a handle frozen at any
//! moment keeps reading that moment, whatever is merged into its
//! siblings afterwards, and the shared bag agrees with a plain [`Bag`]
//! fed the same stream on every read it offers.
//!
//! Seeded loops in the style of `algebra_props.rs`: a failure prints its
//! case seed and replays exactly.

use dw_relational::{tup, Bag, SharedBag, Tuple};
use dw_rng::Rng64;

const CASES: u64 = 48;

/// A signed delta over a key domain of `domain` tuples: small domains
/// force counts to cancel to 0 and be re-inserted.
fn arb_delta(r: &mut Rng64, domain: i64, max_len: usize) -> Bag {
    let n = r.usize_below(max_len + 1);
    let pairs = (0..n).map(|_| {
        let k = r.i64_in(0, domain);
        (tup![k, k % 7], r.i64_in(-2, 3))
    });
    Bag::from_pairs(pairs)
}

fn assert_reads_agree(shared: &SharedBag, model: &Bag, probes: &[Tuple], what: &str) {
    assert_eq!(shared, model, "{what}: contents");
    assert_eq!(shared.distinct_len(), model.distinct_len(), "{what}: len");
    assert_eq!(shared.is_empty(), model.is_empty(), "{what}: emptiness");
    assert_eq!(
        shared.to_sorted_vec(),
        model.to_sorted_vec(),
        "{what}: listing"
    );
    let mut iterated: Vec<(Tuple, i64)> = shared.iter().map(|(t, c)| (t.clone(), c)).collect();
    iterated.sort();
    assert_eq!(iterated, model.to_sorted_vec(), "{what}: iter");
    for t in probes {
        assert_eq!(shared.count(t), model.count(t), "{what}: count({t})");
    }
}

#[test]
fn frozen_handles_keep_their_moment_under_later_merges() {
    for case in 0..CASES {
        let mut r = Rng64::new(0x5BA6 + case);
        // Domains from "one chunk" to "several chunks, crossing re-splits
        // in both directions" (growth bursts, then mass deletion).
        let domain = [8, 300, 4_000][(case % 3) as usize];
        let probes: Vec<Tuple> = (0..16)
            .map(|_| r.i64_in(0, domain))
            .map(|k| tup![k, k % 7])
            .collect();
        let mut model = Bag::new();
        let mut live = SharedBag::new();
        let mut frozen: Vec<(SharedBag, Bag)> = vec![(live.clone(), model.clone())];
        for step in 0..60 {
            let delta = match step {
                // A growth burst and a purge, so chunk counts move.
                20 => Bag::from_tuples((0..domain).map(|k| tup![k, k % 7])),
                40 => model.negated(),
                _ => arb_delta(&mut r, domain, 12),
            };
            model.merge(&delta);
            live.merge(&delta);
            if r.usize_below(4) == 0 {
                frozen.push((live.clone(), model.clone()));
            }
        }
        assert_reads_agree(&live, &model, &probes, &format!("case {case} live"));
        for (i, (handle, moment)) in frozen.iter().enumerate() {
            assert_reads_agree(handle, moment, &probes, &format!("case {case} handle {i}"));
        }
    }
}

#[test]
fn a_uniquely_held_handle_copies_nothing() {
    for case in 0..CASES {
        let mut r = Rng64::new(0xC0B1 + case);
        let mut live = SharedBag::from(arb_delta(&mut r, 2_000, 1_500));
        let mut copied = 0;
        for _ in 0..40 {
            copied += live.merge(&arb_delta(&mut r, 2_000, 200));
        }
        assert_eq!(copied, 0, "case {case}");
        // A sibling makes the next merge pay for what it touches — once.
        let sibling = live.clone();
        let delta = arb_delta(&mut r, 2_000, 6);
        let paid = live.merge(&delta);
        assert!(
            delta.is_empty() || paid > 0 && paid <= live.distinct_len() + delta.distinct_len(),
            "case {case}: {paid}"
        );
        assert_eq!(live.merge(&delta.negated()), 0, "case {case}: repaid");
        assert_eq!(live, sibling, "case {case}");
    }
}
