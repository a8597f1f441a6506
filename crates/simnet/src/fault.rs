//! Deterministic fault injection.
//!
//! The SWEEP paper (§2) *assumes* reliable FIFO channels; this module is
//! how the simulator stops granting that assumption for free. A
//! [`FaultPlan`] describes, ahead of a run, every way the network may
//! misbehave: random per-link message drop, duplication, and bounded
//! reordering, plus scheduled transient partitions (directed link outages)
//! and node crash/restart windows. All randomness comes from the
//! simulation's seeded RNG, so a fault schedule is replayed exactly by
//! re-running with the same seed — a failing interleaving is always
//! reproducible.
//!
//! Semantics (enforced by `network.rs`):
//!
//! * **Drop** — the message silently never arrives.
//! * **Duplicate** — a second copy is scheduled with an independent
//!   latency sample; the copy is flagged so statistics can separate
//!   physical from logical traffic.
//! * **Reorder** — the message skips the per-link FIFO clamp and picks up
//!   extra delay, so later sends on the same link may overtake it.
//! * **Outage / partition** — sends on a cut link are dropped at send
//!   time for the duration of the window.
//! * **Crash** — while a node is down, messages *from* it are dropped at
//!   send time, messages *to* it are dropped at delivery time, and its
//!   self-addressed timer ticks are lost. Environment injections (source
//!   -local transactions) are still delivered: the database under a
//!   source survives the crash of its network agent, which is what makes
//!   crash-recovery via the transport's `Resync` handshake meaningful.
//! * **State crash** — network-wise identical to a crash (same message
//!   loss while down), but with the opposite *memory* contract: an
//!   ordinary crash is an **amnesia** crash — the node restarts blank and
//!   relies on peers re-sending — whereas a state-crash node owns a
//!   durable store (checkpoint + write-ahead log) that survives, and on
//!   restart it must *replay* that store back into volatile memory. The
//!   distinction lives entirely in the restart orchestration (who
//!   rebuilds state: the peers, or the node's own log); the network
//!   treats both window kinds as one union via [`FaultPlan::node_down`].

use crate::network::NodeId;
use crate::Time;
use std::collections::HashMap;

/// Random fault rates for one directed link (or the all-links default).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkFaults {
    /// Probability a sent message is silently lost.
    pub drop_rate: f64,
    /// Probability a sent message is delivered twice.
    pub dup_rate: f64,
    /// Probability a sent message skips the FIFO clamp and picks up extra
    /// delay, allowing later sends to overtake it.
    pub reorder_rate: f64,
    /// Maximum extra delay (µs) added to a reordered or duplicated copy.
    pub reorder_window: Time,
}

impl Default for LinkFaults {
    fn default() -> Self {
        LinkFaults {
            drop_rate: 0.0,
            dup_rate: 0.0,
            reorder_rate: 0.0,
            reorder_window: 5_000,
        }
    }
}

impl LinkFaults {
    /// True when every rate is zero — the link behaves reliably.
    pub fn is_reliable(&self) -> bool {
        self.drop_rate <= 0.0 && self.dup_rate <= 0.0 && self.reorder_rate <= 0.0
    }
}

/// A directed link outage: sends from `from` to `to` during `[start, end)`
/// are dropped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Outage {
    /// Sender side of the cut link.
    pub from: NodeId,
    /// Receiver side of the cut link.
    pub to: NodeId,
    /// First instant of the outage.
    pub start: Time,
    /// First instant after the outage.
    pub end: Time,
}

/// A node crash window: the node is down during `[down_at, up_at)` and
/// restarts at `up_at`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Crash {
    /// The crashing node.
    pub node: NodeId,
    /// First instant the node is down.
    pub down_at: Time,
    /// Restart instant (the node is up again from here on).
    pub up_at: Time,
}

/// A complete, deterministic description of the faults a run will suffer.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    default_link: LinkFaults,
    link_overrides: HashMap<(NodeId, NodeId), LinkFaults>,
    outages: Vec<Outage>,
    crashes: Vec<Crash>,
    state_crashes: Vec<Crash>,
}

impl FaultPlan {
    /// A plan with no faults at all (same as `Default`).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Set the fault rates applied to every link without an override.
    pub fn uniform(mut self, faults: LinkFaults) -> Self {
        self.default_link = faults;
        self
    }

    /// Shorthand: uniform drop rate, everything else unchanged.
    pub fn drop_rate(mut self, p: f64) -> Self {
        self.default_link.drop_rate = p;
        self
    }

    /// Shorthand: uniform duplication rate.
    pub fn dup_rate(mut self, p: f64) -> Self {
        self.default_link.dup_rate = p;
        self
    }

    /// Shorthand: uniform reorder rate with the given extra-delay window.
    pub fn reorder(mut self, p: f64, window: Time) -> Self {
        self.default_link.reorder_rate = p;
        self.default_link.reorder_window = window;
        self
    }

    /// Override the fault rates of one directed link.
    pub fn link(mut self, from: NodeId, to: NodeId, faults: LinkFaults) -> Self {
        self.link_overrides.insert((from, to), faults);
        self
    }

    /// Cut the directed link `from -> to` during `[start, end)`.
    pub fn outage(mut self, from: NodeId, to: NodeId, start: Time, end: Time) -> Self {
        self.outages.push(Outage {
            from,
            to,
            start,
            end,
        });
        self
    }

    /// Cut both directions between `a` and `b` during `[start, end)` — a
    /// transient partition of the pair.
    pub fn partition(self, a: NodeId, b: NodeId, start: Time, end: Time) -> Self {
        self.outage(a, b, start, end).outage(b, a, start, end)
    }

    /// Crash `node` during `[down_at, up_at)`; it restarts at `up_at`.
    pub fn crash(mut self, node: NodeId, down_at: Time, up_at: Time) -> Self {
        self.crashes.push(Crash {
            node,
            down_at,
            up_at,
        });
        self
    }

    /// Crash `node` during `[down_at, up_at)` with its *durable store
    /// intact*: volatile state is lost, but checkpoints and the
    /// write-ahead log survive and are replayed at `up_at`. Contrast
    /// [`FaultPlan::crash`], which is an amnesia crash (restart from
    /// nothing, peers re-send). The network drops messages identically
    /// for both; only restart orchestration differs.
    pub fn state_crash(mut self, node: NodeId, down_at: Time, up_at: Time) -> Self {
        self.state_crashes.push(Crash {
            node,
            down_at,
            up_at,
        });
        self
    }

    /// Fault rates in effect on a directed link.
    pub fn link_faults(&self, from: NodeId, to: NodeId) -> LinkFaults {
        self.link_overrides
            .get(&(from, to))
            .copied()
            .unwrap_or(self.default_link)
    }

    /// Is the directed link cut by an outage at time `at`?
    pub fn link_cut(&self, from: NodeId, to: NodeId, at: Time) -> bool {
        self.outages
            .iter()
            .any(|o| o.from == from && o.to == to && (o.start..o.end).contains(&at))
    }

    /// Is the node inside a crash window (amnesia *or* state-crash) at
    /// time `at`? The network consults only this union: message loss
    /// while down is identical for both kinds.
    pub fn node_down(&self, node: NodeId, at: Time) -> bool {
        self.crashes
            .iter()
            .chain(self.state_crashes.iter())
            .any(|c| c.node == node && (c.down_at..c.up_at).contains(&at))
    }

    /// All scheduled amnesia-crash windows (the orchestrator injects
    /// restart events at each `up_at`).
    pub fn crashes(&self) -> &[Crash] {
        &self.crashes
    }

    /// All scheduled state-crash windows (durable store survives; the
    /// orchestrator triggers checkpoint+WAL replay at each `up_at`).
    pub fn state_crashes(&self) -> &[Crash] {
        &self.state_crashes
    }

    /// All scheduled outages.
    pub fn outages(&self) -> &[Outage] {
        &self.outages
    }

    /// True when the plan can never perturb a run: no random rates, no
    /// outages, no crashes. The network skips the fault path entirely.
    pub fn is_trivial(&self) -> bool {
        self.default_link.is_reliable()
            && self.link_overrides.values().all(LinkFaults::is_reliable)
            && self.outages.is_empty()
            && self.crashes.is_empty()
            && self.state_crashes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_trivial() {
        assert!(FaultPlan::default().is_trivial());
        assert!(FaultPlan::none().is_trivial());
    }

    #[test]
    fn rates_make_plan_nontrivial() {
        assert!(!FaultPlan::default().drop_rate(0.1).is_trivial());
        assert!(!FaultPlan::default().dup_rate(0.1).is_trivial());
        assert!(!FaultPlan::default().reorder(0.1, 100).is_trivial());
        let plan = FaultPlan::default().link(
            0,
            1,
            LinkFaults {
                drop_rate: 0.5,
                ..Default::default()
            },
        );
        assert!(!plan.is_trivial());
    }

    #[test]
    fn link_overrides_win() {
        let plan = FaultPlan::default().drop_rate(0.1).link(
            2,
            0,
            LinkFaults {
                drop_rate: 0.9,
                ..Default::default()
            },
        );
        assert_eq!(plan.link_faults(0, 1).drop_rate, 0.1);
        assert_eq!(plan.link_faults(2, 0).drop_rate, 0.9);
    }

    #[test]
    fn outage_windows_are_half_open() {
        let plan = FaultPlan::default().outage(0, 1, 100, 200);
        assert!(!plan.link_cut(0, 1, 99));
        assert!(plan.link_cut(0, 1, 100));
        assert!(plan.link_cut(0, 1, 199));
        assert!(!plan.link_cut(0, 1, 200));
        assert!(!plan.link_cut(1, 0, 150), "outage is directed");
        assert!(!plan.is_trivial());
    }

    #[test]
    fn partition_cuts_both_directions() {
        let plan = FaultPlan::default().partition(0, 1, 10, 20);
        assert!(plan.link_cut(0, 1, 15));
        assert!(plan.link_cut(1, 0, 15));
    }

    #[test]
    fn state_crash_windows_count_as_down_and_nontrivial() {
        let plan = FaultPlan::default().state_crash(0, 500, 900);
        assert!(plan.node_down(0, 500));
        assert!(plan.node_down(0, 899));
        assert!(!plan.node_down(0, 900));
        assert_eq!(plan.crashes().len(), 0, "state crashes are not amnesia");
        assert_eq!(plan.state_crashes().len(), 1);
        assert!(!plan.is_trivial());
    }

    /// Overlapping windows (even of different kinds, on the same node)
    /// union cleanly: the node is down wherever *any* window covers.
    #[test]
    fn overlapping_crash_windows_union() {
        let plan = FaultPlan::default()
            .crash(1, 100, 300)
            .state_crash(1, 200, 400);
        for t in [100, 199, 200, 299, 300, 399] {
            assert!(plan.node_down(1, t), "t={t} must be down");
        }
        assert!(!plan.node_down(1, 99));
        assert!(!plan.node_down(1, 400));
    }

    /// Adjacent windows where one's `up_at` equals the next's `down_at`
    /// leave no one-instant gap of liveness *and* no double-down overlap:
    /// half-open intervals tile exactly.
    #[test]
    fn adjacent_crash_windows_tile_without_gap() {
        let plan = FaultPlan::default().crash(2, 100, 200).crash(2, 200, 300);
        assert!(plan.node_down(2, 199));
        assert!(
            plan.node_down(2, 200),
            "restart instant of the first window is the down instant of the second"
        );
        assert!(plan.node_down(2, 299));
        assert!(!plan.node_down(2, 300));
    }

    /// A crash starting at time 0 covers the very first instant — nothing
    /// in the half-open arithmetic underflows or exempts t = 0.
    #[test]
    fn crash_starting_at_time_zero_covers_first_instant() {
        let plan = FaultPlan::default().state_crash(0, 0, 50);
        assert!(plan.node_down(0, 0));
        assert!(plan.node_down(0, 49));
        assert!(!plan.node_down(0, 50));
    }

    /// A restart landing exactly on a send instant: the node is *up* at
    /// `up_at`, so a message sent at precisely that time must not be
    /// treated as sent-while-down. This pins the boundary the restart
    /// orchestrator relies on when it injects the restart event at
    /// `up_at` and expects it (and anything after) to be delivered.
    #[test]
    fn restart_on_send_boundary_is_up() {
        let plan = FaultPlan::default()
            .crash(3, 1_000, 2_000)
            .state_crash(3, 5_000, 6_000);
        assert!(!plan.node_down(3, 2_000), "amnesia restart instant is up");
        assert!(!plan.node_down(3, 6_000), "state restart instant is up");
        // One instant earlier both are still down.
        assert!(plan.node_down(3, 1_999));
        assert!(plan.node_down(3, 5_999));
    }

    #[test]
    fn crash_windows_are_half_open() {
        let plan = FaultPlan::default().crash(3, 1_000, 2_000);
        assert!(!plan.node_down(3, 999));
        assert!(plan.node_down(3, 1_000));
        assert!(plan.node_down(3, 1_999));
        assert!(
            !plan.node_down(3, 2_000),
            "node is up at the restart instant"
        );
        assert!(!plan.node_down(2, 1_500));
        assert_eq!(plan.crashes().len(), 1);
        assert!(!plan.is_trivial());
    }
}
