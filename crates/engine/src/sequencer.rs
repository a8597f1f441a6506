//! The global install-order sequencer of the sharded warehouse.
//!
//! Per-shard sweeps *compute* view deltas concurrently, but the warehouse
//! must *install* them in one global order — the sharded engine's
//! conformance claim is that this order equals the unsharded engine's
//! (update-arrival order). The sequencer enforces it mechanically:
//!
//! * a **ticket** is issued for every update the moment it arrives at the
//!   warehouse (before any scheduling decision), so ticket order *is*
//!   arrival order;
//! * when an update's sweep completes — or the scheduler decides the
//!   update affects no view — its ticket is **completed** with the
//!   install payload (or `None`);
//! * [`InstallSequencer::drain`] releases completed payloads in strict
//!   ticket order, holding back everything behind the first still-running
//!   ticket. A shard that finishes early buffers; a shard that finishes
//!   late blocks only the tickets behind it.
//!
//! The payload speaks in plain view *indices* so the sequencer stays
//! policy-agnostic (the multiview scheduler maps them to its `ViewId`s).
//!
//! Tickets are durable: a checkpoint image holds a clone of the whole
//! sequencer, buffered payloads included, and every WAL record that
//! concerns a ticket names it. Recovery restores the clone, marks the
//! journaled tickets issued ([`InstallSequencer::reissue`]) and replays
//! each logged commit through `complete` and `drain` as the live path
//! does — a commit that was waiting behind an earlier ticket when the
//! warehouse died still waits behind it afterwards.

use dw_protocol::UpdateId;
use dw_relational::Bag;
use dw_simnet::Time;
use std::collections::BTreeMap;

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

    /// Release every payload whose ticket is next in order, in order.
    /// Empty slots (`None` payloads) are skipped over silently.
    pub fn drain(&mut self) -> Vec<SequencedInstall> {
        let mut out = Vec::new();
        while let Some(payload) = self.buffered.remove(&self.next_release) {
            self.next_release += 1;
            if let Some(p) = payload {
                out.push(p);
            }
        }
        out
    }

    /// True when every issued ticket has been released.
    pub fn is_drained(&self) -> bool {
        self.next_release == self.next_ticket
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
        assert!(s.drain().is_empty());
        assert_eq!(s.outstanding(), 3);
        // t0 releases itself and nothing else (t1 still running).
        s.complete(t0, Some(install(0)));
        assert_eq!(s.drain(), vec![install(0)]);
        // t1 unblocks the buffered t2 behind it.
        s.complete(t1, Some(install(1)));
        assert_eq!(s.drain(), vec![install(1), install(2)]);
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
        assert!(restored.drain().is_empty(), "t1 overtook t0");
        restored.complete(t0, Some(install(0)));
        assert_eq!(restored.drain(), vec![install(0), install(1)]);
        assert_eq!(restored.outstanding(), 3);
    }

    #[test]
    fn empty_slots_release_silently() {
        let mut s = InstallSequencer::new();
        let (t0, t1) = (s.issue(), s.issue());
        s.complete(t0, None);
        s.complete(t1, Some(install(1)));
        assert_eq!(s.drain(), vec![install(1)]);
        assert!(s.is_drained());
    }

    #[test]
    fn drain_is_idempotent_when_blocked() {
        let mut s = InstallSequencer::new();
        let _t0 = s.issue();
        let t1 = s.issue();
        s.complete(t1, Some(install(1)));
        assert!(s.drain().is_empty());
        assert!(s.drain().is_empty());
        assert!(!s.is_drained());
        assert_eq!(s.outstanding(), 2);
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
                    released.extend(s.drain());
                }
            }
            released.extend(s.drain());

            let expected: Vec<SequencedInstall> =
                payloads.iter().filter_map(|p| p.clone()).collect();
            assert_eq!(released, expected, "seed {seed}: release order broke");
            assert!(s.is_drained(), "seed {seed}: tickets left outstanding");
            assert_eq!(s.outstanding(), 0, "seed {seed}");
        }
    }
}
