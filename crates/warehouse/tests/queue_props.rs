//! Property tests of the update message queue — the structure both SWEEP
//! variants' compensation correctness rests on. Seeded random loops; a
//! failure message names the case seed for exact replay.

use dw_protocol::{SourceUpdate, UpdateId};
use dw_relational::{tup, Bag};
use dw_rng::Rng64;
use dw_warehouse::UpdateQueue;

const CASES: u64 = 128;

fn upd(source: usize, seq: u64, v: i64, c: i64) -> SourceUpdate {
    SourceUpdate {
        id: UpdateId { source, seq },
        delta: Bag::from_pairs([(tup![v], c)]),
        global: None,
    }
}

/// Random (source, count) entry stream; counts are non-zero in [-2, 2].
fn arb_entries(r: &mut Rng64, n_sources: usize, max_len: usize) -> Vec<(usize, i64)> {
    let n = r.usize_below(max_len);
    (0..n)
        .map(|_| {
            let c = r.i64_in(-2, 3);
            (r.usize_below(n_sources), if c == 0 { 1 } else { c })
        })
        .collect()
}

/// Pops come out in push order regardless of sources.
#[test]
fn fifo_order_preserved() {
    for case in 0..CASES {
        let mut r = Rng64::new(case);
        let entries = arb_entries(&mut r, 4, 40);
        let mut q = UpdateQueue::new();
        let mut seqs = [0u64; 4];
        let mut expect = Vec::new();
        for (i, &(source, c)) in entries.iter().enumerate() {
            let u = upd(source, seqs[source], i as i64, c);
            seqs[source] += 1;
            expect.push(u.id);
            q.push(u, i as u64);
        }
        let mut got = Vec::new();
        while let Some(p) = q.pop() {
            got.push(p.update.id);
        }
        assert_eq!(got, expect, "case {case}");
    }
}

/// merged_from_source equals the sum of that source's queued deltas and
/// leaves the queue untouched; taking that source's ids one by one (what
/// a Figure 6 hop does to the `ΔR_j` it nests) removes exactly them, in
/// per-source order, and leaves every other source's updates alone.
#[test]
fn merge_and_take_agree() {
    for case in 0..CASES {
        let mut r = Rng64::new(1_000 + case);
        let entries = arb_entries(&mut r, 3, 30);
        let mut q = UpdateQueue::new();
        let mut seqs = [0u64; 3];
        let mut manual = [Bag::new(), Bag::new(), Bag::new()];
        for (i, &(source, c)) in entries.iter().enumerate() {
            manual[source].add(tup![i as i64], c);
            q.push(upd(source, seqs[source], i as i64, c), i as u64);
            seqs[source] += 1;
        }
        let before_len = q.len();
        for (s, bag) in manual.iter().enumerate() {
            assert_eq!(&q.merged_from_source(s), bag, "case {case}");
        }
        assert_eq!(q.len(), before_len, "case {case}: merge must not consume");

        let from_1: Vec<UpdateId> = (q.iter().map(|p| p.update.id))
            .filter(|id| id.source == 1)
            .collect();
        let mut taken = Bag::new();
        let mut ids = Vec::new();
        for id in from_1 {
            let p = q.take_id(id).unwrap();
            taken.merge(&p.update.delta);
            ids.push(p.update.id);
        }
        assert_eq!(taken, manual[1], "case {case}");
        assert!(ids.windows(2).all(|w| w[0].seq < w[1].seq), "case {case}");
        assert!(q.iter().all(|p| p.update.id.source != 1), "case {case}");
        assert_eq!(q.len() + ids.len(), before_len, "case {case}");
        // Other sources untouched.
        assert_eq!(q.merged_from_source(0), manual[0], "case {case}");
        assert_eq!(q.merged_from_source(2), manual[2], "case {case}");
    }
}
