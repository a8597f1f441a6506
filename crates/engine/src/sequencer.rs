//! The warehouse's one install order. Sweeps *compute* view deltas in
//! any order — lanes of different bands, or of one band under a window
//! — but installs leave in update-arrival order:
//!
//! * a **ticket** is issued for every update the moment it arrives
//!   (before any scheduling decision), so ticket order *is* arrival
//!   order;
//! * a finished sweep **completes** its ticket with the install payload
//!   (`None` when it installs nothing);
//! * [`InstallSequencer::drain`] releases completed payloads in strict
//!   ticket order, holding back everything behind the first running one.
//!
//! Payloads speak in view *indices*, so the sequencer stays
//! policy-agnostic. Tickets are durable: a checkpoint image holds a clone
//! of the whole sequencer, and recovery marks the journaled tickets issued
//! ([`InstallSequencer::reissue`]) and replays each logged commit through
//! `complete` and `drain` — a commit waiting behind an earlier ticket
//! when the warehouse died still waits behind it afterwards.
//!
//! Released payloads land per view, and a view's delta may wait here, in
//! its **hold**, merging with the next ones — the one place a committed
//! sweep's delta waits:
//!
//! * global transactions (type 3 of §2, as \[ZGMW96\] handles them): from
//!   the release of a transaction's first part until every open
//!   transaction's last, every view holds. Parts count where their delta
//!   installs — by the updates a payload consumed;
//! * install cadence: outside a transaction, a view's batch leaves once
//!   it has consumed at least `every` updates since the view's last
//!   install (`1` = every payload, `0` = only when the caller
//!   [`InstallSequencer::flush`]es it). The caller names each view's
//!   `every` at drain time, so the rule adds no state of its own.
//!
//! Within a payload views are released in payload order; batches that
//! leave together — at a transaction's close — in view order.

use crate::error::WarehouseError;
use dw_protocol::{GlobalPart, SourceUpdate, UpdateId};
use dw_relational::Bag;
use dw_simnet::Time;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// What a completed sweep hands the sequencer for one ticket: the
/// consumed-update set (install fingerprint material) plus the final
/// delta for every affected view.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SequencedInstall {
    /// The updates this install consumes, with their arrival times
    /// (staleness accounting at the install site).
    pub consumed: Vec<(UpdateId, Time)>,
    /// Final view deltas, keyed by the registry's view index.
    pub deltas: Vec<(usize, Bag)>,
}

/// Arrival-order install sequencer (see module docs).
#[derive(Clone, Debug, Default)]
pub struct InstallSequencer {
    next_ticket: u64,
    next_release: u64,
    buffered: BTreeMap<u64, Option<SequencedInstall>>,
    /// Per transaction with parts still to arrive, `(parts, arrived)`.
    announced: HashMap<u64, (u32, u32)>,
    /// Transactions whose parts have all arrived — every gid below
    /// `whole_below`, and those in `whole` — so one more part is refused.
    /// Gids are dense from 0, so `whole` stays small however long the run.
    whole_below: u64,
    whole: BTreeSet<u64>,
    /// The tag of every arrived, unreleased part.
    parts: HashMap<UpdateId, GlobalPart>,
    /// Unreleased parts per open transaction (first part released).
    open: HashMap<u64, u32>,
    /// Released but not installed, per view: the merged delta and the
    /// consumed updates.
    held: BTreeMap<usize, (Bag, Vec<(UpdateId, Time)>)>,
}

impl InstallSequencer {
    /// A fresh sequencer with no tickets outstanding.
    pub fn new() -> Self {
        Self::default()
    }

    /// Issue the next ticket. Call at update arrival, never later: the
    /// issue order is the install order.
    pub fn issue(&mut self) -> u64 {
        let t = self.next_ticket;
        self.next_ticket += 1;
        t
    }

    /// Recovery: the WAL says `ticket` was issued before the crash. Count
    /// it as issued, so the restored sequencer never hands it out again.
    pub fn reissue(&mut self, ticket: u64) {
        self.next_ticket = self.next_ticket.max(ticket + 1);
    }

    /// Complete a ticket with its install payload (`None` when the
    /// update turned out to affect no view — the slot still releases, it
    /// just installs nothing).
    pub fn complete(&mut self, ticket: u64, payload: Option<SequencedInstall>) {
        debug_assert!(ticket < self.next_ticket, "completing an unissued ticket");
        debug_assert!(ticket >= self.next_release, "completing a released ticket");
        let prev = self.buffered.insert(ticket, payload);
        debug_assert!(prev.is_none(), "ticket completed twice");
    }

    /// Note an arriving update's global-transaction tag, if any, before
    /// its ticket is issued (live and in replay). A count that cannot be
    /// met — zero, disagreeing, exceeded — would hold every later install
    /// forever: refused, typed, nothing recorded.
    pub fn note_part(&mut self, u: &SourceUpdate) -> Result<(), WarehouseError> {
        let Some(g) = u.global else { return Ok(()) };
        let (id, gid) = (u.id, g.gid);
        let whole = gid < self.whole_below || self.whole.contains(&gid);
        let (parts, arrived) = self.announced.get(&gid).copied().unwrap_or((g.parts, 0));
        if whole || g.parts == 0 || g.parts != parts {
            let reason = format!(
                "update {id:?} tags itself part of transaction {gid} of {} parts: a \
                 transaction has a part, every part announces one count, no more arrive",
                g.parts
            );
            return Err(WarehouseError::Precondition { reason });
        }
        self.parts.insert(id, g);
        if arrived + 1 < parts {
            self.announced.insert(gid, (parts, arrived + 1));
            return Ok(());
        }
        self.announced.remove(&gid);
        self.whole.insert(gid);
        while self.whole.remove(&self.whole_below) {
            self.whole_below += 1;
        }
        Ok(())
    }

    /// Release every payload whose ticket is next in order, in order, and
    /// land what each view's hold lets go (module docs); `every(view)` is
    /// the view's cadence. Empty slots (`None` payloads) are skipped over
    /// silently. Outside a transaction, a payload whose views hold nothing
    /// at cadence 1 leaves as it came — no merge, no copy.
    pub fn drain(&mut self, every: impl Fn(usize) -> usize) -> Vec<SequencedInstall> {
        let mut out = Vec::new();
        while let Some(payload) = self.buffered.remove(&self.next_release) {
            self.next_release += 1;
            let Some(p) = payload else { continue };
            let was_open = !self.open.is_empty();
            for g in p
                .consumed
                .iter()
                .filter_map(|(id, _)| self.parts.remove(id))
            {
                let left = self.open.entry(g.gid).or_insert(g.parts);
                *left -= 1;
                if *left == 0 {
                    self.open.remove(&g.gid);
                }
            }
            let outside = !was_open && self.open.is_empty();
            let straight = |(v, _): &(usize, Bag)| every(*v) == 1 && !self.held.contains_key(v);
            if outside && p.deltas.iter().all(straight) {
                out.push(p);
                continue;
            }
            let mut due = Vec::with_capacity(p.deltas.len());
            for (view, delta) in p.deltas {
                // A view's first held delta is moved in, not copied.
                let (merged, ids) = self.held.entry(view).or_default();
                if ids.is_empty() {
                    *merged = delta;
                } else {
                    merged.merge(&delta);
                }
                ids.extend_from_slice(&p.consumed);
                due.push(view);
            }
            if !self.open.is_empty() {
                continue;
            }
            // At a transaction's close every held view is due, in view order.
            if was_open {
                due = self.held.keys().copied().collect();
            }
            for view in due {
                let k = every(view);
                if k != 0 && self.held.get(&view).is_some_and(|(_, ids)| ids.len() >= k) {
                    out.extend(self.flush(view));
                }
            }
        }
        out
    }

    /// Release `view`'s held batch whatever its cadence (`None` when it
    /// holds nothing). Call it only with no transaction open — at drain,
    /// or replaying a flush made there.
    pub fn flush(&mut self, view: usize) -> Option<SequencedInstall> {
        debug_assert!(self.open.is_empty(), "flushing inside a transaction");
        let (delta, consumed) = self.held.remove(&view)?;
        Some(SequencedInstall {
            consumed,
            deltas: vec![(view, delta)],
        })
    }

    /// The lowest view index with a batch held, if any.
    pub fn first_held(&self) -> Option<usize> {
        self.held.keys().next().copied()
    }

    /// Has `ticket` been released (installed, or held)?
    pub fn is_released(&self, ticket: u64) -> bool {
        ticket < self.next_release
    }

    /// True when every issued ticket has been released and no global
    /// transaction is open — whatever a view's cadence still holds.
    pub fn is_drained(&self) -> bool {
        self.next_release == self.next_ticket && self.open.is_empty()
    }

    /// Tickets issued but not yet released (completed-but-buffered ones
    /// included).
    pub fn outstanding(&self) -> u64 {
        self.next_ticket - self.next_release
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn install(seq: u64) -> SequencedInstall {
        SequencedInstall {
            consumed: vec![(UpdateId { source: 0, seq }, 0)],
            deltas: vec![],
        }
    }

    #[test]
    fn releases_in_ticket_order_despite_completion_order() {
        let mut s = InstallSequencer::new();
        let (t0, t1, t2) = (s.issue(), s.issue(), s.issue());
        // t2 finishes first: nothing releases, it buffers behind t0.
        s.complete(t2, Some(install(2)));
        assert!(s.drain(|_| 1).is_empty());
        assert_eq!(s.outstanding(), 3);
        // t0 releases itself and nothing else (t1 still running).
        s.complete(t0, Some(install(0)));
        assert_eq!(s.drain(|_| 1), vec![install(0)]);
        // t1 unblocks the buffered t2 behind it.
        s.complete(t1, Some(install(1)));
        assert_eq!(s.drain(|_| 1), vec![install(1), install(2)]);
        assert!(s.is_drained());
    }

    /// A restored clone behaves as the original would have: journaled
    /// tickets are never issued twice, and a payload buffered before the
    /// clone was taken still waits for the ticket ahead of it.
    #[test]
    fn a_restored_clone_keeps_buffered_payloads_and_issued_tickets() {
        let mut s = InstallSequencer::new();
        let (t0, t1) = (s.issue(), s.issue());
        s.complete(t1, Some(install(1)));
        let mut restored = s.clone();
        // Two more tickets were journaled after the image, out of order.
        restored.reissue(3);
        restored.reissue(2);
        assert_eq!(restored.issue(), 4);
        assert!(restored.drain(|_| 1).is_empty(), "t1 overtook t0");
        restored.complete(t0, Some(install(0)));
        assert_eq!(restored.drain(|_| 1), vec![install(0), install(1)]);
        assert_eq!(restored.outstanding(), 3);
    }

    #[test]
    fn empty_slots_release_silently() {
        let mut s = InstallSequencer::new();
        let (t0, t1) = (s.issue(), s.issue());
        s.complete(t0, None);
        s.complete(t1, Some(install(1)));
        assert_eq!(s.drain(|_| 1), vec![install(1)]);
        assert!(s.is_drained());
    }

    #[test]
    fn drain_is_idempotent_when_blocked() {
        let mut s = InstallSequencer::new();
        let _t0 = s.issue();
        let t1 = s.issue();
        s.complete(t1, Some(install(1)));
        assert!(s.drain(|_| 1).is_empty());
        assert!(s.drain(|_| 1).is_empty());
        assert!(!s.is_drained());
        assert_eq!(s.outstanding(), 2);
    }

    fn part(source: usize, gid: u64, parts: u32) -> SourceUpdate {
        SourceUpdate {
            id: UpdateId { source, seq: 0 },
            delta: Bag::new(),
            global: Some(GlobalPart { gid, parts }),
        }
    }

    /// An install consuming update `(source, 0)`, with a one-tuple delta
    /// for each of `views`.
    fn install_at(source: usize, views: &[usize]) -> SequencedInstall {
        let id = UpdateId { source, seq: 0 };
        let delta = |v: usize| {
            (
                v,
                Bag::from_pairs([(dw_relational::tup![source as i64], 1)]),
            )
        };
        SequencedInstall {
            consumed: vec![(id, 0)],
            deltas: views.iter().map(|&v| delta(v)).collect(),
        }
    }

    /// From the release of a transaction's first part to that of its
    /// last, releases are held — a plain update between them included —
    /// and leave as one install per view, each consuming just the
    /// updates that touched the view.
    #[test]
    fn a_global_transaction_releases_as_one_install_per_view() {
        let mut s = InstallSequencer::new();
        s.note_part(&part(0, 7, 2)).unwrap();
        s.note_part(&part(2, 7, 2)).unwrap();
        let t: Vec<u64> = (0..3).map(|_| s.issue()).collect();
        s.complete(t[0], Some(install_at(0, &[0, 1])));
        assert!(s.drain(|_| 1).is_empty(), "the first part opens the hold");
        s.complete(t[1], Some(install_at(1, &[1])));
        assert!(
            s.drain(|_| 1).is_empty(),
            "a plain update inside it is held"
        );
        assert!(!s.is_drained());
        s.complete(t[2], Some(install_at(2, &[0])));
        let out = s.drain(|_| 1);
        let views: Vec<usize> = out.iter().map(|i| i.deltas[0].0).collect();
        assert_eq!(views, vec![0, 1]);
        let consumed = |i: &SequencedInstall| -> Vec<usize> {
            i.consumed.iter().map(|(id, _)| id.source).collect()
        };
        assert_eq!(consumed(&out[0]), vec![0, 2]);
        assert_eq!(consumed(&out[1]), vec![0, 1]);
        assert_eq!(out[0].deltas[0].1.distinct_len(), 2);
        assert!(s.is_drained());
    }

    fn sources(i: &SequencedInstall) -> Vec<usize> {
        i.consumed.iter().map(|(id, _)| id.source).collect()
    }

    /// Cadence 1 lands every payload as is, 2 every second consumed
    /// update, 0 nothing until flushed; what a cadence holds does not keep
    /// the sequencer from being drained.
    #[test]
    fn a_view_holds_until_it_has_consumed_its_cadence() {
        let every = |view: usize| [1, 2, 0][view];
        let mut s = InstallSequencer::new();
        let t: Vec<u64> = (0..2).map(|_| s.issue()).collect();
        s.complete(t[0], Some(install_at(0, &[0, 1, 2])));
        let out = s.drain(every);
        assert_eq!(out.len(), 1, "view 0 lands, views 1 and 2 hold");
        assert_eq!((out[0].deltas[0].0, sources(&out[0])), (0, vec![0]));
        s.complete(t[1], Some(install_at(1, &[0, 1, 2])));
        let out = s.drain(every);
        let views: Vec<usize> = out.iter().map(|i| i.deltas[0].0).collect();
        assert_eq!(views, vec![0, 1], "payload order");
        assert_eq!(sources(&out[1]), vec![0, 1]);
        assert_eq!(out[1].deltas[0].1.distinct_len(), 2);
        assert!(s.is_drained());
        assert_eq!(s.first_held(), Some(2));
        assert_eq!(sources(&s.flush(2).unwrap()), vec![0, 1]);
        assert_eq!((s.first_held(), s.flush(2)), (None, None));
    }

    /// A transaction holds every view whatever its cadence; at its close
    /// only the views whose cadence is met leave, in view order, and the
    /// rest keep counting from what they hold.
    #[test]
    fn a_transaction_close_releases_the_views_whose_cadence_is_met() {
        let every = |view: usize| [1, 4][view];
        let mut s = InstallSequencer::new();
        s.note_part(&part(0, 7, 2)).unwrap();
        s.note_part(&part(2, 7, 2)).unwrap();
        let t: Vec<u64> = (0..4).map(|_| s.issue()).collect();
        s.complete(t[0], Some(install_at(0, &[0, 1])));
        s.complete(t[1], Some(install_at(1, &[0, 1])));
        assert!(s.drain(every).is_empty(), "the hold is open");
        s.complete(t[2], Some(install_at(2, &[0, 1])));
        let out = s.drain(every);
        assert_eq!(out.len(), 1);
        assert_eq!((out[0].deltas[0].0, sources(&out[0])), (0, vec![0, 1, 2]));
        s.complete(t[3], Some(install_at(3, &[1])));
        let out = s.drain(every);
        assert_eq!(
            (out[0].deltas[0].0, sources(&out[0])),
            (1, vec![0, 1, 2, 3])
        );
        assert_eq!(s.first_held(), None);
    }

    #[test]
    fn a_global_tag_whose_count_cannot_be_met_is_refused_and_not_recorded() {
        let mut s = InstallSequencer::new();
        let refused = |r| matches!(r, Err(WarehouseError::Precondition { .. }));
        assert!(refused(s.note_part(&part(0, 1, 0))), "zero parts");
        s.note_part(&part(0, 2, 2)).unwrap();
        assert!(refused(s.note_part(&part(1, 2, 3))), "a disagreeing count");
        s.note_part(&part(1, 2, 2)).unwrap();
        assert!(refused(s.note_part(&part(2, 2, 2))), "a third of two parts");
        // Nothing refused holds a release back.
        let (t0, t1) = (s.issue(), s.issue());
        s.complete(t0, Some(install_at(0, &[0])));
        s.complete(t1, Some(install_at(1, &[0])));
        assert_eq!(s.drain(|_| 1).len(), 1);
        assert!(s.is_drained());
    }

    /// What refuses an extra part does not grow with history: a whole
    /// transaction leaves the per-transaction map, and dense gids fold
    /// into the watermark even when they complete out of order.
    #[test]
    fn whole_transactions_fold_into_a_watermark() {
        let mut s = InstallSequencer::new();
        let refused = |r| matches!(r, Err(WarehouseError::Precondition { .. }));
        s.note_part(&part(0, 0, 2)).unwrap();
        for gid in 1..100 {
            s.note_part(&part(0, gid, 1)).unwrap();
        }
        assert_eq!((s.whole_below, s.whole.len()), (0, 99), "gid 0 still open");
        s.note_part(&part(1, 0, 2)).unwrap();
        assert_eq!((s.whole_below, s.whole.len()), (100, 0));
        assert!(s.announced.is_empty());
        assert!(refused(s.note_part(&part(2, 0, 2))), "a third of two parts");
        assert!(
            refused(s.note_part(&part(2, 42, 1))),
            "a second of one part"
        );
        assert_eq!((s.whole_below, s.whole.len()), (100, 0));
    }

    /// Ticket-order totality under mixed shard escalations: however the
    /// per-shard lanes interleave their completions — shard-local sweeps
    /// finishing out of order, escalated cross-shard updates completing
    /// late, no-view updates releasing empty slots — the concatenation of
    /// all drained payloads is *exactly* the issue-order sequence of
    /// non-empty payloads, every ticket is released exactly once, and the
    /// sequencer ends drained.
    #[test]
    fn property_release_order_is_total_under_seeded_permutations() {
        for seed in 0..96u64 {
            let mut rng = dw_rng::Rng64::new(0x5E9 ^ seed);
            let n = 3 + rng.usize_below(30);
            let mut s = InstallSequencer::new();
            let tickets: Vec<u64> = (0..n).map(|_| s.issue()).collect();

            // ~1/5 of updates affect no view (their slots release empty).
            let payloads: Vec<Option<SequencedInstall>> = (0..n)
                .map(|k| (rng.usize_below(5) != 0).then(|| install(k as u64)))
                .collect();

            // A seeded permutation of completion order — the out-of-order
            // finish schedule of concurrent lanes.
            let mut order: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                order.swap(i, rng.usize_below(i + 1));
            }

            let mut released: Vec<SequencedInstall> = Vec::new();
            for &k in &order {
                s.complete(tickets[k], payloads[k].clone());
                // Drain after a random prefix of completions, like the
                // scheduler draining after every lane finish.
                if rng.usize_below(2) == 0 {
                    released.extend(s.drain(|_| 1));
                }
            }
            released.extend(s.drain(|_| 1));

            let expected: Vec<SequencedInstall> =
                payloads.iter().filter_map(|p| p.clone()).collect();
            assert_eq!(released, expected, "seed {seed}: release order broke");
            assert!(s.is_drained(), "seed {seed}: tickets left outstanding");
            assert_eq!(s.outstanding(), 0, "seed {seed}");
        }
    }
}
