//! The reliability transport: earns back, over unreliable links, the
//! reliable-FIFO contract the SWEEP paper assumes (§2).
//!
//! Every node owns one [`Endpoint`]. Application messages are wrapped in
//! [`Message::Frame`]s carrying a per-directed-link monotone sequence
//! number; the receiver delivers frames **exactly once, in send order**,
//! buffering out-of-order arrivals and discarding duplicates. Cumulative
//! [`Message::Ack`]s let the sender prune its outbox; unacknowledged
//! frames are retransmitted on a timer with exponential backoff plus
//! seeded jitter. Timers are self-addressed messages scheduled through
//! [`NetHandle::send_after`], so the whole machine stays inside the
//! deterministic simulation.
//!
//! **Crash recovery.** Endpoint state models a write-ahead-logged
//! transport: the outbox and receive cursors survive a crash (a real
//! source journals its forwarding state next to its database). What a
//! crash *does* destroy is the in-flight timer chain — self-ticks are
//! dropped while the node is down. On [`Message::Restart`] the endpoint
//! runs a [`Message::Resync`] handshake with every peer: each side reports
//! its receive cursor, prunes acknowledged frames, resets its backoff,
//! retransmits the remainder, and re-arms its timers. The handshake is
//! itself retried until acknowledged, so it survives the same faulty
//! links as everything else.
//!
//! The state machines in `dw-source` and `dw-warehouse` are untouched:
//! the orchestrator wraps their network handle in a [`TransportNet`], so
//! `net.send(...)` transparently becomes `endpoint.send(...)`, and
//! inbound frames are unwrapped by [`Endpoint::on_delivery`] before
//! dispatch.

use crate::Message;
use dw_rng::Rng64;
use dw_simnet::{Delivery, NetHandle, NodeId, Time};
use std::collections::{BTreeMap, HashMap};

/// Retransmission and resync timing knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TransportConfig {
    /// First retransmission timeout (µs). Should comfortably exceed one
    /// round trip.
    pub rto_initial: Time,
    /// Backoff ceiling (µs).
    pub rto_max: Time,
    /// Maximum seeded jitter added to every armed timer (µs) — keeps
    /// retransmissions from synchronizing across links.
    pub jitter: Time,
    /// Retry interval for the resync handshake (µs).
    pub resync_interval: Time,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            rto_initial: 30_000,
            rto_max: 480_000,
            jitter: 5_000,
            resync_interval: 30_000,
        }
    }
}

/// A rejected [`TransportConfig`]: which relation between the knobs is
/// violated. Raised by [`TransportConfig::validate`] before any endpoint
/// is built, so a nonsensical timer setup fails loudly at construction
/// instead of silently mis-pacing retransmissions mid-run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportConfigError {
    /// `rto_max < rto_initial`: the backoff ceiling sits below the
    /// starting timeout, so the very first doubling would *shrink* it.
    BackoffCeilingBelowInitial {
        /// Configured first timeout.
        rto_initial: Time,
        /// Configured (too-low) ceiling.
        rto_max: Time,
    },
    /// `jitter >= rto_initial`: the random spread dominates the timeout
    /// itself, so a timer can fire after up to twice its nominal RTO and
    /// the backoff trajectory becomes noise.
    JitterSwampsRto {
        /// Configured first timeout.
        rto_initial: Time,
        /// Configured (too-large) jitter bound.
        jitter: Time,
    },
}

impl std::fmt::Display for TransportConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportConfigError::BackoffCeilingBelowInitial {
                rto_initial,
                rto_max,
            } => write!(
                f,
                "transport config: rto_max ({rto_max}µs) is below rto_initial ({rto_initial}µs)"
            ),
            TransportConfigError::JitterSwampsRto {
                rto_initial,
                jitter,
            } => write!(
                f,
                "transport config: jitter ({jitter}µs) must be below rto_initial ({rto_initial}µs)"
            ),
        }
    }
}

impl std::error::Error for TransportConfigError {}

impl TransportConfig {
    /// A config tuned to a link's mean latency: RTO of roughly three
    /// round trips, never below 4 ms.
    pub fn for_latency_mean(mean: f64) -> Self {
        let rto = ((mean * 6.0) as Time).max(4_000);
        TransportConfig {
            rto_initial: rto,
            rto_max: rto.saturating_mul(16),
            jitter: (rto / 8).max(500),
            resync_interval: rto,
        }
    }

    /// Reject configurations whose timers cannot behave: a backoff
    /// ceiling below the initial timeout, or jitter at least as large as
    /// the timeout it perturbs. [`TransportConfig::default`] and every
    /// [`TransportConfig::for_latency_mean`] output validate cleanly.
    pub fn validate(&self) -> Result<(), TransportConfigError> {
        if self.rto_max < self.rto_initial {
            return Err(TransportConfigError::BackoffCeilingBelowInitial {
                rto_initial: self.rto_initial,
                rto_max: self.rto_max,
            });
        }
        if self.jitter >= self.rto_initial {
            return Err(TransportConfigError::JitterSwampsRto {
                rto_initial: self.rto_initial,
                jitter: self.jitter,
            });
        }
        Ok(())
    }
}

/// Per-peer transport state (one directed pair of streams).
#[derive(Debug, Default)]
struct PeerState {
    /// Next sequence number to assign to an outgoing frame.
    next_seq: u64,
    /// Sent but unacknowledged frames, by sequence number. This is the
    /// journaled part of the sender: it survives crashes.
    outbox: BTreeMap<u64, Message>,
    /// Current retransmission timeout (doubles per timer firing).
    rto_cur: Time,
    /// A retransmission timer is in flight.
    timer_armed: bool,
    /// Oldest unacknowledged sequence number when the timer was armed.
    /// If the tick finds this frame acknowledged, the link made progress
    /// during the window — newer frames haven't aged a full RTO yet, so
    /// the timer re-arms instead of retransmitting them spuriously.
    oldest_at_arm: u64,
    /// Next expected incoming sequence number (the receive cursor).
    recv_next: u64,
    /// Out-of-order arrivals waiting for the gap to fill.
    reorder: BTreeMap<u64, Message>,
    /// A resync handshake is awaiting its ack.
    resync_pending: bool,
}

/// One node's half of the reliability transport.
#[derive(Debug)]
pub struct Endpoint {
    node: NodeId,
    cfg: TransportConfig,
    rng: Rng64,
    peers: HashMap<NodeId, PeerState>,
    obs: dw_obs::Obs,
}

impl Endpoint {
    /// A fresh endpoint for `node`. The seed drives timer jitter only.
    pub fn new(node: NodeId, cfg: TransportConfig, seed: u64) -> Self {
        Endpoint {
            node,
            cfg,
            rng: Rng64::new(seed),
            peers: HashMap::new(),
            obs: dw_obs::Obs::off(),
        }
    }

    /// Attach an observability recorder: retransmission counts, the RTO
    /// backoff trajectory (`transport.rto`), and armed-timer delays
    /// (`transport.retx_delay`). `Obs::off()` detaches.
    pub fn set_observer(&mut self, obs: dw_obs::Obs) {
        self.obs = obs;
    }

    fn peer(&mut self, peer: NodeId) -> &mut PeerState {
        let rto = self.cfg.rto_initial;
        self.peers.entry(peer).or_insert_with(|| PeerState {
            rto_cur: rto,
            ..Default::default()
        })
    }

    /// Reliably send an application message to `peer`: wrap it in a
    /// sequenced frame, journal it, put it on the wire, and make sure a
    /// retransmission timer is running.
    pub fn send(&mut self, peer: NodeId, msg: Message, net: &mut dyn NetHandle<Message>) {
        debug_assert!(
            !matches!(
                msg,
                Message::Frame { .. }
                    | Message::Ack { .. }
                    | Message::Resync { .. }
                    | Message::ResyncAck { .. }
                    | Message::RetxTick { .. }
                    | Message::ResyncTick { .. }
                    | Message::Restart
            ),
            "transport messages are not re-wrapped"
        );
        let node = self.node;
        let state = self.peer(peer);
        let seq = state.next_seq;
        state.next_seq += 1;
        state.outbox.insert(seq, msg.clone());
        net.send(
            node,
            peer,
            Message::Frame {
                seq,
                retransmit: false,
                inner: Box::new(msg),
            },
        );
        self.arm_retx(peer, net);
    }

    /// Process one delivery addressed to this node. Transport messages
    /// are consumed; the returned list holds application messages now
    /// ready for dispatch, in order, with `from` set to the originating
    /// peer. Non-transport deliveries (ENV injections, traffic from nodes
    /// not speaking the transport) pass through unchanged.
    pub fn on_delivery(
        &mut self,
        d: Delivery<Message>,
        net: &mut dyn NetHandle<Message>,
    ) -> Vec<Delivery<Message>> {
        debug_assert_eq!(d.to, self.node);
        match d.msg {
            Message::Frame { seq, inner, .. } => self.on_frame(d.from, seq, *inner, d.at, net),
            Message::Ack { cum } => {
                self.on_ack(d.from, cum);
                Vec::new()
            }
            Message::Resync { recv_cum } => {
                self.on_resync(d.from, recv_cum, net);
                Vec::new()
            }
            Message::ResyncAck { recv_cum } => {
                self.on_resync_ack(d.from, recv_cum, net);
                Vec::new()
            }
            Message::RetxTick { peer } => {
                self.on_retx_tick(peer, net);
                Vec::new()
            }
            Message::ResyncTick { peer } => {
                self.on_resync_tick(peer, net);
                Vec::new()
            }
            Message::Restart => {
                self.on_restart(net);
                Vec::new()
            }
            // Unsequenced traffic (e.g. ENV injections) passes through.
            msg => vec![Delivery {
                at: d.at,
                from: d.from,
                to: d.to,
                msg,
            }],
        }
    }

    fn on_frame(
        &mut self,
        from: NodeId,
        seq: u64,
        inner: Message,
        at: Time,
        net: &mut dyn NetHandle<Message>,
    ) -> Vec<Delivery<Message>> {
        let node = self.node;
        let state = self.peer(from);
        let mut ready = Vec::new();
        if seq == state.recv_next {
            state.recv_next += 1;
            ready.push(inner);
            // The gap is closed — drain any consecutive run that was
            // buffered behind it.
            while let Some(next) = state.reorder.remove(&state.recv_next) {
                state.recv_next += 1;
                ready.push(next);
            }
        } else if seq > state.recv_next {
            state.reorder.entry(seq).or_insert(inner);
        }
        // seq < recv_next: duplicate of something already delivered —
        // drop it, but still ack so the sender can prune.
        let cum = state.recv_next;
        net.send(node, from, Message::Ack { cum });
        ready
            .into_iter()
            .map(|msg| Delivery {
                at,
                from,
                to: node,
                msg,
            })
            .collect()
    }

    fn on_ack(&mut self, from: NodeId, cum: u64) {
        let rto = self.cfg.rto_initial;
        let state = self.peer(from);
        let before = state.outbox.len();
        state.outbox = state.outbox.split_off(&cum);
        if state.outbox.len() < before {
            // Progress: the link is alive, restart the backoff clock.
            state.rto_cur = rto;
        }
    }

    fn arm_retx(&mut self, peer: NodeId, net: &mut dyn NetHandle<Message>) {
        let node = self.node;
        let jitter = if self.cfg.jitter == 0 {
            0
        } else {
            self.rng.u64_in(0, self.cfg.jitter)
        };
        let state = self.peer(peer);
        if state.timer_armed || state.outbox.is_empty() {
            return;
        }
        state.timer_armed = true;
        state.oldest_at_arm = *state.outbox.keys().next().expect("outbox non-empty");
        let delay = state.rto_cur.saturating_add(jitter);
        self.obs.observe("transport.retx_delay", delay);
        net.send_after(node, node, Message::RetxTick { peer }, delay);
    }

    fn on_retx_tick(&mut self, peer: NodeId, net: &mut dyn NetHandle<Message>) {
        let node = self.node;
        let rto_max = self.cfg.rto_max;
        let state = self.peer(peer);
        state.timer_armed = false;
        if state.outbox.is_empty() || state.resync_pending {
            return;
        }
        if *state.outbox.keys().next().expect("checked non-empty") > state.oldest_at_arm {
            // Acks advanced past the frame this timer was watching: the
            // link is alive and the remaining frames are younger than one
            // RTO. Watch the new oldest frame instead of retransmitting.
            self.arm_retx(peer, net);
            return;
        }
        // Go-back-N: everything unacknowledged goes out again. Outboxes
        // are small (a sweep keeps one query in flight per leg), so the
        // simplicity beats selective repeat here.
        let frames: Vec<(u64, Message)> = state
            .outbox
            .iter()
            .map(|(&seq, msg)| (seq, msg.clone()))
            .collect();
        state.rto_cur = state.rto_cur.saturating_mul(2).min(rto_max);
        // The backed-off RTO that will govern the *next* wait on this peer.
        let rto_next = state.rto_cur;
        self.obs.observe("transport.rto", rto_next);
        for (seq, msg) in frames {
            self.obs.add("transport.retransmits", 1);
            net.send(
                node,
                peer,
                Message::Frame {
                    seq,
                    retransmit: true,
                    inner: Box::new(msg),
                },
            );
        }
        self.arm_retx(peer, net);
    }

    /// Restart after a crash window: the journaled state is intact but
    /// every timer died with the process. Reset the timer flags and run
    /// the resync handshake with each known peer.
    pub fn on_restart(&mut self, net: &mut dyn NetHandle<Message>) {
        let node = self.node;
        let rto = self.cfg.rto_initial;
        let peers: Vec<NodeId> = self.peers.keys().copied().collect();
        for peer in peers {
            let state = self.peer(peer);
            state.timer_armed = false;
            state.rto_cur = rto;
            state.resync_pending = true;
            let recv_cum = state.recv_next;
            self.obs.add("transport.resyncs", 1);
            net.send(node, peer, Message::Resync { recv_cum });
            self.arm_resync(peer, net);
        }
    }

    fn arm_resync(&mut self, peer: NodeId, net: &mut dyn NetHandle<Message>) {
        let node = self.node;
        let delay = self
            .cfg
            .resync_interval
            .saturating_add(self.rng.u64_in(0, self.cfg.jitter));
        net.send_after(node, node, Message::ResyncTick { peer }, delay);
    }

    fn on_resync_tick(&mut self, peer: NodeId, net: &mut dyn NetHandle<Message>) {
        let node = self.node;
        let state = self.peer(peer);
        if !state.resync_pending {
            return;
        }
        let recv_cum = state.recv_next;
        net.send(node, peer, Message::Resync { recv_cum });
        self.arm_resync(peer, net);
    }

    fn on_resync(&mut self, from: NodeId, recv_cum: u64, net: &mut dyn NetHandle<Message>) {
        // The peer told us its receive cursor for our stream: prune what
        // it already has, retransmit the rest, and answer with our own
        // cursor. Idempotent, so duplicated/retried resyncs are harmless.
        let node = self.node;
        let rto = self.cfg.rto_initial;
        let state = self.peer(from);
        state.outbox = state.outbox.split_off(&recv_cum);
        state.rto_cur = rto;
        let my_cum = state.recv_next;
        let frames: Vec<(u64, Message)> = state
            .outbox
            .iter()
            .map(|(&seq, msg)| (seq, msg.clone()))
            .collect();
        net.send(node, from, Message::ResyncAck { recv_cum: my_cum });
        for (seq, msg) in frames {
            net.send(
                node,
                from,
                Message::Frame {
                    seq,
                    retransmit: true,
                    inner: Box::new(msg),
                },
            );
        }
        self.arm_retx(from, net);
    }

    fn on_resync_ack(&mut self, from: NodeId, recv_cum: u64, net: &mut dyn NetHandle<Message>) {
        let node = self.node;
        let rto = self.cfg.rto_initial;
        let state = self.peer(from);
        state.resync_pending = false;
        state.outbox = state.outbox.split_off(&recv_cum);
        state.rto_cur = rto;
        let frames: Vec<(u64, Message)> = state
            .outbox
            .iter()
            .map(|(&seq, msg)| (seq, msg.clone()))
            .collect();
        for (seq, msg) in frames {
            net.send(
                node,
                from,
                Message::Frame {
                    seq,
                    retransmit: true,
                    inner: Box::new(msg),
                },
            );
        }
        self.arm_retx(from, net);
    }

    /// Unacknowledged frames currently journaled for `peer`.
    pub fn outbox_len(&self, peer: NodeId) -> usize {
        self.peers.get(&peer).map_or(0, |s| s.outbox.len())
    }

    /// True when nothing is pending anywhere: all frames acknowledged,
    /// no reorder buffers holding data, no resync in flight.
    pub fn is_quiescent(&self) -> bool {
        self.peers
            .values()
            .all(|s| s.outbox.is_empty() && s.reorder.is_empty() && !s.resync_pending)
    }

    /// The node this endpoint belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }
}

/// A [`NetHandle`] adapter that routes sends through an [`Endpoint`]: the
/// source and warehouse state machines call `net.send(...)` exactly as
/// before, and the transport takes it from there. Timer scheduling passes
/// straight through to the real network.
pub struct TransportNet<'a> {
    endpoint: &'a mut Endpoint,
    net: &'a mut dyn NetHandle<Message>,
}

impl<'a> TransportNet<'a> {
    /// Wrap `net` so sends from `endpoint.node()` go through the
    /// transport.
    pub fn new(endpoint: &'a mut Endpoint, net: &'a mut dyn NetHandle<Message>) -> Self {
        TransportNet { endpoint, net }
    }
}

impl NetHandle<Message> for TransportNet<'_> {
    fn send(&mut self, from: NodeId, to: NodeId, msg: Message) {
        debug_assert_eq!(from, self.endpoint.node());
        self.endpoint.send(to, msg, self.net);
    }
    fn send_after(&mut self, from: NodeId, to: NodeId, msg: Message, delay: Time) {
        self.net.send_after(from, to, msg, delay);
    }
    fn now(&self) -> Time {
        self.net.now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SourceUpdate, UpdateId};
    use dw_relational::{tup, Bag};
    use dw_simnet::{FaultPlan, LatencyModel, LinkFaults, Network};

    fn update(source: usize, seq: u64) -> Message {
        Message::Update(SourceUpdate {
            id: UpdateId { source, seq },
            delta: Bag::from_tuples([tup![seq as i64]]),
            global: None,
        })
    }

    fn seq_of(msg: &Message) -> u64 {
        match msg {
            Message::Update(u) => u.id.seq,
            other => panic!("expected update, got {other:?}"),
        }
    }

    /// Two endpoints on a faulty network; returns the app messages node 1
    /// received from node 0, in delivery order.
    fn run_pair(faults: FaultPlan, n_msgs: u64, seed: u64) -> (Vec<u64>, Network<Message>) {
        let mut net: Network<Message> = Network::new(seed);
        net.set_default_latency(LatencyModel::Uniform(500, 2_000));
        net.set_faults(faults);
        let cfg = TransportConfig::for_latency_mean(1_250.0);
        let mut eps = [
            Endpoint::new(0, cfg, seed ^ 0xA),
            Endpoint::new(1, cfg, seed ^ 0xB),
        ];
        for i in 0..n_msgs {
            eps[0].send(1, update(0, i), &mut net);
        }
        let mut got = Vec::new();
        let mut steps = 0u64;
        while let Some(d) = net.next() {
            steps += 1;
            assert!(steps < 1_000_000, "transport failed to converge");
            let to = d.to;
            for appd in eps[to].on_delivery(d, &mut net) {
                got.push(seq_of(&appd.msg));
            }
        }
        assert!(eps[0].is_quiescent(), "sender must drain its outbox");
        assert!(eps[1].is_quiescent(), "receiver must drain its buffers");
        (got, net)
    }

    #[test]
    fn clean_link_delivers_in_order() {
        let (got, net) = run_pair(FaultPlan::none(), 20, 1);
        assert_eq!(got, (0..20).collect::<Vec<_>>());
        assert_eq!(net.stats().retransmitted().messages, 0);
    }

    #[test]
    fn heavy_drop_still_exactly_once_in_order() {
        for seed in 0..10 {
            let (got, net) = run_pair(FaultPlan::default().drop_rate(0.3), 30, seed);
            assert_eq!(got, (0..30).collect::<Vec<_>>(), "seed {seed}");
            assert!(
                net.stats().retransmitted().messages > 0,
                "seed {seed}: drops must force retransmission"
            );
        }
    }

    #[test]
    fn duplication_is_filtered() {
        for seed in 0..10 {
            let (got, _) = run_pair(FaultPlan::default().dup_rate(0.5), 30, seed);
            assert_eq!(got, (0..30).collect::<Vec<_>>(), "seed {seed}");
        }
    }

    #[test]
    fn reordering_is_repaired() {
        for seed in 0..10 {
            let (got, _) = run_pair(FaultPlan::default().reorder(0.5, 20_000), 30, seed);
            assert_eq!(got, (0..30).collect::<Vec<_>>(), "seed {seed}");
        }
    }

    #[test]
    fn combined_faults_still_reliable() {
        for seed in 0..20 {
            let plan = FaultPlan::default().uniform(LinkFaults {
                drop_rate: 0.2,
                dup_rate: 0.2,
                reorder_rate: 0.2,
                reorder_window: 10_000,
            });
            let (got, _) = run_pair(plan, 40, seed);
            assert_eq!(got, (0..40).collect::<Vec<_>>(), "seed {seed}");
        }
    }

    #[test]
    fn transient_outage_heals() {
        // Link cut for 200 ms starting at t=0; retransmission backoff
        // rides out the outage.
        for seed in 0..5 {
            let plan = FaultPlan::default().outage(0, 1, 0, 200_000);
            let (got, net) = run_pair(plan, 10, seed);
            assert_eq!(got, (0..10).collect::<Vec<_>>(), "seed {seed}");
            assert!(net.stats().fault_counters().outage_drops > 0);
        }
    }

    #[test]
    fn crash_restart_resync_recovers() {
        // Node 1 (receiver) crashes shortly after the sends begin and
        // restarts later; the orchestrator injects Restart at up_at.
        for seed in 0..10 {
            let mut net: Network<Message> = Network::new(seed);
            net.set_default_latency(LatencyModel::Constant(1_000));
            net.set_faults(FaultPlan::default().crash(1, 5_000, 150_000).drop_rate(0.1));
            let cfg = TransportConfig::for_latency_mean(1_000.0);
            let mut eps = [
                Endpoint::new(0, cfg, seed ^ 0xA),
                Endpoint::new(1, cfg, seed ^ 0xB),
            ];
            // Make the crashing node a *transport participant* first, so
            // restart has peers to resync with.
            eps[1].send(0, update(1, 999), &mut net);
            for i in 0..20 {
                eps[0].send(1, update(0, i), &mut net);
            }
            net.inject(150_000, 1, Message::Restart);
            let mut got = Vec::new();
            let mut steps = 0u64;
            while let Some(d) = net.next() {
                steps += 1;
                assert!(steps < 1_000_000, "seed {seed}: no convergence");
                let to = d.to;
                for appd in eps[to].on_delivery(d, &mut net) {
                    if appd.to == 1 {
                        got.push(seq_of(&appd.msg));
                    }
                }
            }
            assert_eq!(got, (0..20).collect::<Vec<_>>(), "seed {seed}");
            assert!(
                eps[0].is_quiescent() && eps[1].is_quiescent(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn crashed_sender_recovers_via_restart() {
        // The *sender* crashes with unacknowledged frames journaled; on
        // restart it resyncs and retransmits them.
        for seed in 0..10 {
            let mut net: Network<Message> = Network::new(seed);
            net.set_default_latency(LatencyModel::Constant(1_000));
            net.set_faults(FaultPlan::default().crash(0, 1_500, 100_000));
            let cfg = TransportConfig::for_latency_mean(1_000.0);
            let mut eps = [
                Endpoint::new(0, cfg, seed ^ 0xA),
                Endpoint::new(1, cfg, seed ^ 0xB),
            ];
            // First frame gets out before the crash; the rest are sent
            // while down (journaled, dropped on the wire).
            eps[0].send(1, update(0, 0), &mut net);
            let mut injected = false;
            let mut sent_rest = false;
            net.inject(
                2_000,
                0,
                Message::ApplyTxn {
                    rel: 0,
                    delta: Bag::new(),
                    global: None,
                },
            );
            net.inject(100_000, 0, Message::Restart);
            let mut got = Vec::new();
            let mut steps = 0u64;
            while let Some(d) = net.next() {
                steps += 1;
                assert!(steps < 1_000_000, "seed {seed}: no convergence");
                let to = d.to;
                for appd in eps[to].on_delivery(d, &mut net) {
                    match appd.msg {
                        Message::ApplyTxn { .. } if !sent_rest => {
                            // ENV injection arrives while node 0 is down:
                            // its database applied the txn; the transport
                            // journals updates it cannot put on the wire.
                            sent_rest = true;
                            for i in 1..10 {
                                eps[0].send(1, update(0, i), &mut net);
                            }
                        }
                        Message::Restart => injected = true,
                        ref m @ Message::Update(_) if appd.to == 1 => {
                            got.push(seq_of(m));
                        }
                        _ => {}
                    }
                }
            }
            let _ = injected;
            assert_eq!(got, (0..10).collect::<Vec<_>>(), "seed {seed}");
            assert!(eps[0].is_quiescent(), "seed {seed}");
        }
    }

    #[test]
    fn stats_separate_logical_from_physical() {
        let (_, net) = run_pair(FaultPlan::default().drop_rate(0.25), 50, 7);
        let s = net.stats();
        assert_eq!(
            s.label_logical("update").messages,
            50,
            "each update delivered exactly once logically"
        );
        assert!(
            s.label("update").messages >= 50,
            "physical includes retransmissions"
        );
        assert!(s.inflation() > 1.0);
    }

    #[test]
    fn transport_net_wraps_sends() {
        let mut net: Network<Message> = Network::new(0);
        let mut ep = Endpoint::new(0, TransportConfig::default(), 1);
        {
            let mut tnet = TransportNet::new(&mut ep, &mut net);
            tnet.send(0, 1, update(0, 0));
            assert_eq!(tnet.now(), 0);
        }
        assert_eq!(ep.outbox_len(1), 1);
        let d = net.next().unwrap();
        assert!(matches!(d.msg, Message::Frame { seq: 0, .. }));
    }

    #[test]
    fn config_validation_rejects_inverted_backoff_and_dominant_jitter() {
        assert!(TransportConfig::default().validate().is_ok());
        for mean in [1.0, 100.0, 2_000.0, 1_000_000.0] {
            assert!(
                TransportConfig::for_latency_mean(mean).validate().is_ok(),
                "for_latency_mean({mean}) must always be valid"
            );
        }
        let inverted = TransportConfig {
            rto_initial: 10_000,
            rto_max: 9_999,
            ..Default::default()
        };
        assert!(matches!(
            inverted.validate(),
            Err(TransportConfigError::BackoffCeilingBelowInitial { .. })
        ));
        let noisy = TransportConfig {
            rto_initial: 5_000,
            jitter: 5_000,
            ..Default::default()
        };
        assert!(matches!(
            noisy.validate(),
            Err(TransportConfigError::JitterSwampsRto { .. })
        ));
        // Errors render their offending values.
        let msg = inverted.validate().unwrap_err().to_string();
        assert!(msg.contains("9999") && msg.contains("10000"), "got: {msg}");
    }

    #[test]
    fn restart_handler_is_passthrough_free() {
        // Restart consumed by the endpoint, nothing re-dispatched.
        let mut net: Network<Message> = Network::new(0);
        let mut ep = Endpoint::new(1, TransportConfig::default(), 1);
        net.inject(10, 1, Message::Restart);
        let d = net.next().unwrap();
        assert!(ep.on_delivery(d, &mut net).is_empty());
    }
}
