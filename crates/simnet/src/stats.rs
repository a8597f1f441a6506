//! Message and byte accounting.
//!
//! The paper's comparison (Table 1) is in *messages per update* and, for
//! ECA, *message size*. The network keeps exact per-link and per-label
//! counters so experiments read these numbers directly instead of
//! re-deriving them from traces.
//!
//! With fault injection and the reliability transport in play, one count
//! is no longer enough: E6's `2(n−1)` messages-per-update claim is about
//! *logical* traffic (what the algorithm sends), while the wire carries
//! *physical* traffic inflated by retransmissions and network-made
//! duplicates. `NetStats` tracks both, plus per-fault counters, so the
//! retry overhead is measurable rather than folded into the algorithm's
//! cost.

use crate::network::NodeId;
use std::collections::BTreeMap;

/// Counters for one directed link.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Messages delivered.
    pub messages: u64,
    /// Total payload bytes delivered.
    pub bytes: u64,
}

impl LinkStats {
    fn bump(&mut self, bytes: u64) {
        self.messages += 1;
        self.bytes += bytes;
    }
}

/// What the fault layer did to the traffic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Messages randomly dropped at send time.
    pub dropped: u64,
    /// Extra copies manufactured by link duplication.
    pub duplicated: u64,
    /// Messages that skipped the FIFO clamp (may arrive out of order).
    pub reordered: u64,
    /// Messages lost to a partition window or a crashed node.
    pub outage_drops: u64,
    /// Bytes lost to drops and outages combined.
    pub lost_bytes: u64,
}

/// Aggregated network statistics.
///
/// *Physical* counters see every delivered message, including transport
/// retransmissions and fault-layer duplicates. *Logical* counters see each
/// message once — the traffic the maintenance algorithm actually asked
/// for. Logical traffic is counted at **send** time (a dropped original
/// later recovered by a retransmission is still one logical message);
/// physical traffic is counted at **delivery** time. On a fault-free run
/// the two are identical once the network drains.
///
/// `BTreeMap`s keep iteration deterministic for golden tests and reports.
#[derive(Clone, Debug, Default)]
pub struct NetStats {
    per_link: BTreeMap<(NodeId, NodeId), LinkStats>,
    per_label: BTreeMap<&'static str, LinkStats>,
    per_label_logical: BTreeMap<&'static str, LinkStats>,
    total: LinkStats,
    logical: LinkStats,
    retransmitted: LinkStats,
    faults: FaultCounters,
}

impl NetStats {
    /// Record one delivered message that is also logical traffic — the
    /// path for environment injections, which are never faulted or
    /// retransmitted.
    pub fn record(&mut self, from: NodeId, to: NodeId, label: &'static str, bytes: usize) {
        self.record_logical_send(label, bytes);
        self.record_delivery(from, to, label, bytes, false);
    }

    /// Record a first-transmission send: one unit of logical traffic,
    /// whatever the fault layer later does to it.
    pub fn record_logical_send(&mut self, label: &'static str, bytes: usize) {
        let b = bytes as u64;
        self.per_label_logical.entry(label).or_default().bump(b);
        self.logical.bump(b);
    }

    /// Record one physical delivery; `retransmit` marks transport
    /// retransmissions.
    pub fn record_delivery(
        &mut self,
        from: NodeId,
        to: NodeId,
        label: &'static str,
        bytes: usize,
        retransmit: bool,
    ) {
        let b = bytes as u64;
        self.per_link.entry((from, to)).or_default().bump(b);
        self.per_label.entry(label).or_default().bump(b);
        self.total.bump(b);
        if retransmit {
            self.retransmitted.bump(b);
        }
    }

    /// Note a random drop at send time.
    pub fn note_drop(&mut self, bytes: usize) {
        self.faults.dropped += 1;
        self.faults.lost_bytes += bytes as u64;
    }

    /// Note a fault-layer duplicate being scheduled.
    pub fn note_duplicate(&mut self, _bytes: usize) {
        self.faults.duplicated += 1;
    }

    /// Note a message escaping the FIFO clamp.
    pub fn note_reorder(&mut self) {
        self.faults.reordered += 1;
    }

    /// Note a message lost to an outage window or a crashed node.
    pub fn note_outage_drop(&mut self, bytes: usize) {
        self.faults.outage_drops += 1;
        self.faults.lost_bytes += bytes as u64;
    }

    /// Counters for a directed link (physical).
    pub fn link(&self, from: NodeId, to: NodeId) -> LinkStats {
        self.per_link.get(&(from, to)).copied().unwrap_or_default()
    }

    /// Counters for a message label (physical).
    pub fn label(&self, label: &str) -> LinkStats {
        self.per_label.get(label).copied().unwrap_or_default()
    }

    /// Counters for a message label, excluding retransmissions and
    /// duplicates.
    pub fn label_logical(&self, label: &str) -> LinkStats {
        self.per_label_logical
            .get(label)
            .copied()
            .unwrap_or_default()
    }

    /// Grand totals (physical: every delivered message).
    pub fn total(&self) -> LinkStats {
        self.total
    }

    /// Grand totals excluding retransmissions and fault-layer duplicates —
    /// the traffic the algorithms logically sent.
    pub fn logical_total(&self) -> LinkStats {
        self.logical
    }

    /// Delivered transport retransmissions only.
    pub fn retransmitted(&self) -> LinkStats {
        self.retransmitted
    }

    /// What the fault layer did to the traffic.
    pub fn fault_counters(&self) -> FaultCounters {
        self.faults
    }

    /// Physical bytes divided by logical bytes — 1.0 on a clean run,
    /// grows with retransmission overhead.
    pub fn inflation(&self) -> f64 {
        if self.logical.bytes == 0 {
            1.0
        } else {
            self.total.bytes as f64 / self.logical.bytes as f64
        }
    }

    /// Iterate all links deterministically.
    pub fn links(&self) -> impl Iterator<Item = ((NodeId, NodeId), LinkStats)> + '_ {
        self.per_link.iter().map(|(&k, &v)| (k, v))
    }

    /// Iterate all labels deterministically.
    pub fn labels(&self) -> impl Iterator<Item = (&'static str, LinkStats)> + '_ {
        self.per_label.iter().map(|(&k, &v)| (k, v))
    }

    /// Snapshot-diff helper: counters accumulated since `earlier`.
    pub fn since(&self, earlier: &NetStats) -> LinkStats {
        LinkStats {
            messages: self.total.messages - earlier.total.messages,
            bytes: self.total.bytes - earlier.total.bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_everywhere() {
        let mut s = NetStats::default();
        s.record(0, 1, "query", 100);
        s.record(0, 1, "query", 50);
        s.record(1, 0, "answer", 10);
        assert_eq!(s.link(0, 1).messages, 2);
        assert_eq!(s.link(0, 1).bytes, 150);
        assert_eq!(s.label("query").messages, 2);
        assert_eq!(s.label("answer").bytes, 10);
        assert_eq!(s.total().messages, 3);
        assert_eq!(s.total().bytes, 160);
        assert_eq!(s.logical_total(), s.total(), "clean traffic: both agree");
    }

    #[test]
    fn missing_entries_are_zero() {
        let s = NetStats::default();
        assert_eq!(s.link(5, 6), LinkStats::default());
        assert_eq!(s.label("nope"), LinkStats::default());
        assert_eq!(s.label_logical("nope"), LinkStats::default());
    }

    #[test]
    fn since_diffs_totals() {
        let mut s = NetStats::default();
        s.record(0, 1, "a", 5);
        let snap = s.clone();
        s.record(0, 1, "a", 7);
        let d = s.since(&snap);
        assert_eq!(d.messages, 1);
        assert_eq!(d.bytes, 7);
    }

    #[test]
    fn iteration_is_sorted() {
        let mut s = NetStats::default();
        s.record(2, 0, "b", 1);
        s.record(0, 1, "a", 1);
        let links: Vec<_> = s.links().map(|(k, _)| k).collect();
        assert_eq!(links, vec![(0, 1), (2, 0)]);
    }

    #[test]
    fn retransmits_count_physically_not_logically() {
        let mut s = NetStats::default();
        s.record_logical_send("update", 100); // the algorithm sent one
        s.record_delivery(0, 1, "update", 100, false); // original arrives
        s.record_delivery(0, 1, "update", 100, true); // retransmit arrives
        s.record_delivery(0, 1, "update", 100, false); // network dup arrives
        assert_eq!(s.total().messages, 3);
        assert_eq!(s.logical_total().messages, 1);
        assert_eq!(s.retransmitted().messages, 1);
        assert_eq!(s.label("update").messages, 3);
        assert_eq!(s.label_logical("update").messages, 1);
        assert!((s.inflation() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn fault_counters_accumulate() {
        let mut s = NetStats::default();
        s.note_drop(10);
        s.note_drop(20);
        s.note_duplicate(5);
        s.note_reorder();
        s.note_outage_drop(40);
        let f = s.fault_counters();
        assert_eq!(f.dropped, 2);
        assert_eq!(f.duplicated, 1);
        assert_eq!(f.reordered, 1);
        assert_eq!(f.outage_drops, 1);
        assert_eq!(f.lost_bytes, 70);
    }

    #[test]
    fn inflation_is_one_when_empty() {
        assert_eq!(NetStats::default().inflation(), 1.0);
    }
}
