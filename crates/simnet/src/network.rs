//! The event-driven network core.

use crate::fault::FaultPlan;
use crate::latency::LatencyModel;
use crate::stats::NetStats;
use crate::trace::{Trace, TraceEvent, TraceKind};
use crate::{Payload, Time};
use dw_rng::Rng64;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Identifies a node. Plain indices assigned by the orchestrator.
pub type NodeId = usize;

/// Pseudo-node representing the environment: workload injections are
/// delivered "from" `ENV` with no link semantics.
pub const ENV: NodeId = usize::MAX;

/// A message arriving at its destination.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Delivery<M> {
    /// Delivery time; the network clock has advanced to this instant.
    pub at: Time,
    /// Sender (or [`ENV`] for injected events).
    pub from: NodeId,
    /// Receiver.
    pub to: NodeId,
    /// The payload.
    pub msg: M,
}

#[derive(Debug)]
struct PendingEvent<M> {
    at: Time,
    seq: u64,
    from: NodeId,
    to: NodeId,
    msg: M,
}

// Order by (time, seq); seq is globally monotone so ties resolve in
// insertion order, which (together with the per-link `last_delivery`
// high-water mark) guarantees FIFO per directed link.
impl<M> PartialEq for PendingEvent<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for PendingEvent<M> {}
impl<M> PartialOrd for PendingEvent<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for PendingEvent<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The deterministic network.
///
/// * `send` timestamps a message `now + latency(link)` and clamps it to the
///   link's previous delivery time, so per-link order is preserved no
///   matter what the latency model samples (reliable FIFO channels, §2).
/// * With a non-trivial [`FaultPlan`] installed the reliable-FIFO contract
///   is deliberately broken: sends may be dropped, duplicated, reordered
///   past the FIFO clamp, cut by a partition window, or lost to a crashed
///   node — all sampled from the same seeded RNG, so a fault schedule
///   replays exactly.
/// * `inject` schedules an external event (a source-local transaction, a
///   control probe) at an absolute time; injections are never faulted.
/// * `send_after` schedules a delayed message; a self-addressed one is a
///   pure timer — no link semantics, no faults, no accounting — which is
///   how the reliability transport implements retransmission timeouts.
/// * `next` pops the earliest event, advances the clock, records stats and
///   trace, and hands the delivery to the caller for dispatch.
pub struct Network<M> {
    heap: BinaryHeap<Reverse<PendingEvent<M>>>,
    now: Time,
    seq: u64,
    default_latency: LatencyModel,
    last_delivery: HashMap<(NodeId, NodeId), Time>,
    faults: FaultPlan,
    stats: NetStats,
    trace: Trace,
    rng: Rng64,
    obs: dw_obs::Obs,
}

impl<M: Payload> Network<M> {
    /// A fresh network at time 0 with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        Network {
            heap: BinaryHeap::new(),
            now: 0,
            seq: 0,
            default_latency: LatencyModel::default(),
            last_delivery: HashMap::new(),
            faults: FaultPlan::default(),
            stats: NetStats::default(),
            trace: Trace::default(),
            rng: Rng64::new(seed),
            obs: dw_obs::Obs::off(),
        }
    }

    /// Attach an observability recorder; the network records per-link
    /// queueing delay (FIFO-clamp slack) into the `net.queue_delay`
    /// histogram. `Obs::off()` detaches.
    pub fn set_observer(&mut self, obs: dw_obs::Obs) {
        self.obs = obs;
    }

    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Latency model every link samples from.
    pub fn set_default_latency(&mut self, model: LatencyModel) {
        self.default_latency = model;
    }

    /// Install a fault plan (replacing any previous one).
    pub fn set_faults(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// The installed fault plan.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Access the trace buffer (enable it to record).
    pub fn trace_mut(&mut self) -> &mut Trace {
        &mut self.trace
    }

    /// Read the trace buffer.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Number of in-flight events.
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// Send a message from `from` to `to` at the current time. Latency is
    /// sampled from the link's model; without faults, delivery never
    /// reorders the link.
    pub fn send(&mut self, from: NodeId, to: NodeId, msg: M) {
        self.send_delayed(from, to, msg, 0);
    }

    /// Schedule a message `delay` µs from now. A self-addressed message
    /// (`from == to`) is a timer tick: it bypasses link semantics, faults
    /// and accounting, but is still lost if the node is down when it
    /// fires (a crashed node's timers die with it).
    pub fn send_after(&mut self, from: NodeId, to: NodeId, msg: M, delay: Time) {
        if from == to {
            let at = self.now.saturating_add(delay);
            self.push(at, from, to, msg);
        } else {
            self.send_delayed(from, to, msg, delay);
        }
    }

    fn send_delayed(&mut self, from: NodeId, to: NodeId, msg: M, delay: Time) {
        // Logical traffic is what the algorithm asked for, counted here at
        // send time: a drop later recovered by a retransmission is still
        // one logical message.
        if !msg.is_retransmit() {
            self.stats
                .record_logical_send(msg.label(), msg.size_bytes());
        }
        let faults = self.faults.link_faults(from, to);

        // Scheduled faults first: a down origin or a cut link kills the
        // send outright, before any dice are rolled.
        if self.faults.node_down(from, self.now) || self.faults.link_cut(from, to, self.now) {
            self.stats.note_outage_drop(msg.size_bytes());
            self.trace_fault(TraceKind::Outage, from, to, &msg);
            return;
        }
        if faults.drop_rate > 0.0 && self.rng.chance(faults.drop_rate) {
            self.stats.note_drop(msg.size_bytes());
            self.trace_fault(TraceKind::Drop, from, to, &msg);
            return;
        }

        let latency = self
            .default_latency
            .sample(&mut self.rng)
            .saturating_add(delay);
        let naive = self.now.saturating_add(latency);

        self.trace.push(TraceEvent {
            at: self.now,
            kind: TraceKind::Send,
            from,
            to,
            label: msg.label(),
            bytes: msg.size_bytes(),
        });

        let reordered = faults.reorder_rate > 0.0 && self.rng.chance(faults.reorder_rate);
        let at = if reordered {
            // Skip the FIFO clamp and pick up extra delay, so later sends
            // on this link can overtake the message. The link high-water
            // mark is left untouched on purpose.
            self.stats.note_reorder();
            self.trace_fault(TraceKind::Reorder, from, to, &msg);
            naive.saturating_add(self.rng.u64_in(0, faults.reorder_window))
        } else {
            let floor = self.last_delivery.get(&(from, to)).copied().unwrap_or(0);
            let at = naive.max(floor);
            self.last_delivery.insert((from, to), at);
            // Queueing delay: how long the FIFO clamp held this message
            // behind earlier traffic on the same link.
            self.obs.observe("net.queue_delay", at - naive);
            at
        };

        if faults.dup_rate > 0.0 && self.rng.chance(faults.dup_rate) {
            let extra = self.rng.u64_in(0, faults.reorder_window);
            let dup_at = naive.saturating_add(extra);
            self.stats.note_duplicate(msg.size_bytes());
            self.trace_fault(TraceKind::Duplicate, from, to, &msg);
            self.push(dup_at, from, to, msg.clone());
        }

        self.push(at, from, to, msg);
    }

    fn trace_fault(&mut self, kind: TraceKind, from: NodeId, to: NodeId, msg: &M) {
        self.trace.push(TraceEvent {
            at: self.now,
            kind,
            from,
            to,
            label: msg.label(),
            bytes: msg.size_bytes(),
        });
    }

    /// Schedule an external event (from [`ENV`]) at absolute time `at`;
    /// times in the past are clamped to "now". Injections model the world
    /// outside the network (a committed source-local transaction) and are
    /// never faulted — even delivery to a crashed node succeeds, because
    /// the database under a source outlives its network agent.
    pub fn inject(&mut self, at: Time, to: NodeId, msg: M) {
        let at = at.max(self.now);
        self.push(at, ENV, to, msg);
    }

    fn push(&mut self, at: Time, from: NodeId, to: NodeId, msg: M) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(PendingEvent {
            at,
            seq,
            from,
            to,
            msg,
        }));
    }

    /// Pop the next delivery, advancing the clock. `None` when the network
    /// is quiescent (no in-flight messages or scheduled injections).
    ///
    /// Named `next` to read like the event loop it drives; the network is
    /// not an `Iterator` because dispatch re-entrantly sends into it.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<Delivery<M>> {
        loop {
            let Reverse(ev) = self.heap.pop()?;
            debug_assert!(ev.at >= self.now, "time must be monotone");
            self.now = ev.at;

            // Self-addressed timer ticks: no stats, no trace, but a down
            // node loses its timers.
            if ev.from == ev.to {
                if self.faults.node_down(ev.to, ev.at) {
                    continue;
                }
                return Some(Delivery {
                    at: ev.at,
                    from: ev.from,
                    to: ev.to,
                    msg: ev.msg,
                });
            }

            // A crashed destination loses in-flight network messages (but
            // never ENV injections — see `inject`).
            if ev.from != ENV && self.faults.node_down(ev.to, ev.at) {
                self.stats.note_outage_drop(ev.msg.size_bytes());
                self.trace_fault(TraceKind::Outage, ev.from, ev.to, &ev.msg);
                continue;
            }

            if ev.from == ENV {
                // Injections are never faulted or retransmitted: they are
                // logical and physical at once.
                self.stats
                    .record(ev.from, ev.to, ev.msg.label(), ev.msg.size_bytes());
            } else {
                self.stats.record_delivery(
                    ev.from,
                    ev.to,
                    ev.msg.label(),
                    ev.msg.size_bytes(),
                    ev.msg.is_retransmit(),
                );
            }
            self.trace.push(TraceEvent {
                at: ev.at,
                kind: TraceKind::Deliver,
                from: ev.from,
                to: ev.to,
                label: ev.msg.label(),
                bytes: ev.msg.size_bytes(),
            });
            return Some(Delivery {
                at: ev.at,
                from: ev.from,
                to: ev.to,
                msg: ev.msg,
            });
        }
    }

    /// Peek at the time of the next event without popping it.
    #[cfg(test)]
    pub(crate) fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|Reverse(ev)| ev.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::LinkFaults;

    #[derive(Clone, Debug, PartialEq)]
    struct Msg(u32);
    impl Payload for Msg {
        fn size_bytes(&self) -> usize {
            4
        }
        fn label(&self) -> &'static str {
            "m"
        }
    }

    #[test]
    fn fifo_per_link_under_random_latency() {
        let mut net: Network<Msg> = Network::new(1);
        net.set_default_latency(LatencyModel::Uniform(0, 1_000_000));
        for i in 0..100 {
            net.send(0, 1, Msg(i));
        }
        let mut got = Vec::new();
        while let Some(d) = net.next() {
            got.push(d.msg.0);
        }
        let want: Vec<u32> = (0..100).collect();
        assert_eq!(got, want, "link 0->1 must deliver in send order");
    }

    #[test]
    fn cross_link_order_is_unconstrained() {
        let mut net: Network<Msg> = Network::new(1);
        net.send_after(0, 2, Msg(1), 90); // sent first, arrives later
        net.send(1, 2, Msg(2));
        assert_eq!(net.next().unwrap().msg, Msg(2));
        assert_eq!(net.next().unwrap().msg, Msg(1));
    }

    #[test]
    fn clock_is_monotone_and_advances() {
        let mut net: Network<Msg> = Network::new(3);
        net.set_default_latency(LatencyModel::Uniform(1, 50));
        net.inject(0, 0, Msg(0));
        net.send(0, 1, Msg(1));
        let mut last = 0;
        while let Some(d) = net.next() {
            assert!(d.at >= last);
            last = d.at;
        }
        assert_eq!(net.now(), last);
    }

    #[test]
    fn inject_delivers_from_env_at_time() {
        let mut net: Network<Msg> = Network::new(0);
        net.inject(500, 3, Msg(9));
        let d = net.next().unwrap();
        assert_eq!((d.at, d.from, d.to), (500, ENV, 3));
    }

    #[test]
    fn inject_in_past_clamped_to_now() {
        let mut net: Network<Msg> = Network::new(0);
        net.inject(100, 0, Msg(0));
        net.next().unwrap();
        net.inject(5, 0, Msg(1)); // in the past
        assert_eq!(net.next().unwrap().at, 100);
    }

    #[test]
    fn injections_interleave_with_messages_deterministically() {
        let run = |seed: u64| -> Vec<u32> {
            let mut net: Network<Msg> = Network::new(seed);
            net.set_default_latency(LatencyModel::Uniform(0, 100));
            net.inject(50, 0, Msg(100));
            net.send(0, 1, Msg(1));
            net.send(1, 0, Msg(2));
            let mut got = Vec::new();
            while let Some(d) = net.next() {
                got.push(d.msg.0);
            }
            got
        };
        assert_eq!(run(9), run(9), "same seed, same schedule");
    }

    #[test]
    fn stats_recorded_on_delivery() {
        let mut net: Network<Msg> = Network::new(0);
        net.send(0, 1, Msg(1));
        assert_eq!(net.stats().total().messages, 0, "not yet delivered");
        net.next();
        assert_eq!(net.stats().total().messages, 1);
        assert_eq!(net.stats().link(0, 1).bytes, 4);
        assert_eq!(net.stats().label("m").messages, 1);
        assert_eq!(net.stats().logical_total().messages, 1);
    }

    #[test]
    fn trace_records_send_and_deliver() {
        let mut net: Network<Msg> = Network::new(0);
        net.trace_mut().enable(0);
        net.send(0, 1, Msg(1));
        net.next();
        let kinds: Vec<TraceKind> = net.trace().events().iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec![TraceKind::Send, TraceKind::Deliver]);
    }

    #[test]
    fn quiescence_returns_none() {
        let mut net: Network<Msg> = Network::new(0);
        assert!(net.next().is_none());
        assert_eq!(net.peek_time(), None);
        net.send(0, 1, Msg(0));
        assert!(net.peek_time().is_some());
        net.next();
        assert!(net.next().is_none());
    }

    #[test]
    fn pending_counts_in_flight() {
        let mut net: Network<Msg> = Network::new(0);
        net.send(0, 1, Msg(0));
        net.inject(10, 2, Msg(1));
        assert_eq!(net.pending(), 2);
        net.next();
        assert_eq!(net.pending(), 1);
    }

    #[test]
    fn drop_all_loses_every_message() {
        let mut net: Network<Msg> = Network::new(0);
        net.set_faults(FaultPlan::default().drop_rate(1.0));
        net.trace_mut().enable(0);
        for i in 0..10 {
            net.send(0, 1, Msg(i));
        }
        assert!(net.next().is_none());
        assert_eq!(net.stats().fault_counters().dropped, 10);
        assert!(net
            .trace()
            .events()
            .iter()
            .all(|e| e.kind == TraceKind::Drop));
    }

    #[test]
    fn dup_all_delivers_every_message_twice() {
        let mut net: Network<Msg> = Network::new(0);
        net.set_faults(FaultPlan::default().dup_rate(1.0));
        net.send(0, 1, Msg(7));
        let mut got = Vec::new();
        while let Some(d) = net.next() {
            got.push(d.msg.0);
        }
        assert_eq!(got, vec![7, 7]);
        assert_eq!(net.stats().total().messages, 2, "physical counts both");
        assert_eq!(
            net.stats().logical_total().messages,
            1,
            "logical counts the original only"
        );
        assert_eq!(net.stats().fault_counters().duplicated, 1);
    }

    #[test]
    fn reorder_can_invert_link_order() {
        // With reorder_rate 1.0 every message skips the FIFO clamp; using
        // a wide reorder window some pair must arrive inverted.
        let mut net: Network<Msg> = Network::new(11);
        net.set_default_latency(LatencyModel::Constant(10));
        net.set_faults(FaultPlan::default().reorder(1.0, 100_000));
        for i in 0..50 {
            net.send(0, 1, Msg(i));
        }
        let mut got = Vec::new();
        while let Some(d) = net.next() {
            got.push(d.msg.0);
        }
        assert_eq!(got.len(), 50, "reorder never loses messages");
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_ne!(got, sorted, "some pair must be out of order");
        assert!(net.stats().fault_counters().reordered > 0);
    }

    #[test]
    fn outage_window_cuts_link_then_heals() {
        let mut net: Network<Msg> = Network::new(0);
        net.set_default_latency(LatencyModel::Constant(1));
        net.set_faults(FaultPlan::default().outage(0, 1, 0, 100));
        net.send(0, 1, Msg(1)); // t=0: cut
        assert!(net.next().is_none());
        assert_eq!(net.stats().fault_counters().outage_drops, 1);
        net.inject(200, 0, Msg(0));
        net.next(); // advance past the outage
        net.send(0, 1, Msg(2)); // t=200: healed
        assert_eq!(net.next().unwrap().msg, Msg(2));
    }

    #[test]
    fn crashed_destination_loses_inflight_messages() {
        let mut net: Network<Msg> = Network::new(0);
        net.set_default_latency(LatencyModel::Constant(50));
        net.set_faults(FaultPlan::default().crash(1, 10, 1_000));
        net.send(0, 1, Msg(1)); // arrives at t=50, node 1 is down
        assert!(net.next().is_none());
        assert_eq!(net.stats().fault_counters().outage_drops, 1);
    }

    #[test]
    fn crashed_origin_cannot_send() {
        let mut net: Network<Msg> = Network::new(0);
        net.set_faults(FaultPlan::default().crash(0, 0, 1_000));
        net.send(0, 1, Msg(1));
        assert!(net.next().is_none());
        assert_eq!(net.stats().fault_counters().outage_drops, 1);
    }

    #[test]
    fn env_injection_survives_crash() {
        let mut net: Network<Msg> = Network::new(0);
        net.set_faults(FaultPlan::default().crash(1, 0, 1_000));
        net.inject(500, 1, Msg(9));
        let d = net.next().unwrap();
        assert_eq!((d.from, d.to), (ENV, 1));
    }

    #[test]
    fn self_tick_fires_unless_node_down() {
        let mut net: Network<Msg> = Network::new(0);
        net.send_after(2, 2, Msg(1), 100);
        let d = net.next().unwrap();
        assert_eq!((d.at, d.from, d.to), (100, 2, 2));
        assert_eq!(net.stats().total().messages, 0, "ticks are not traffic");

        let mut net: Network<Msg> = Network::new(0);
        net.set_faults(FaultPlan::default().crash(2, 50, 1_000));
        net.send_after(2, 2, Msg(1), 100); // fires at t=100, node down
        assert!(net.next().is_none());
    }

    #[test]
    fn send_after_delays_cross_node_messages() {
        let mut net: Network<Msg> = Network::new(0);
        net.set_default_latency(LatencyModel::Constant(10));
        net.send_after(0, 1, Msg(1), 500);
        assert_eq!(net.next().unwrap().at, 510);
    }

    #[test]
    fn faulty_runs_replay_exactly() {
        let run = |seed: u64| -> Vec<(Time, u32)> {
            let mut net: Network<Msg> = Network::new(seed);
            net.set_default_latency(LatencyModel::Uniform(1, 500));
            net.set_faults(
                FaultPlan::default()
                    .uniform(LinkFaults {
                        drop_rate: 0.2,
                        dup_rate: 0.2,
                        reorder_rate: 0.2,
                        reorder_window: 1_000,
                    })
                    .crash(1, 200, 400),
            );
            for i in 0..50 {
                net.send(0, 1, Msg(i));
                net.send(1, 0, Msg(1_000 + i));
            }
            let mut got = Vec::new();
            while let Some(d) = net.next() {
                got.push((d.at, d.msg.0));
            }
            got
        };
        assert_eq!(run(42), run(42), "same seed, same fault schedule");
        assert_ne!(run(42), run(43), "different seed, different schedule");
    }
}
