//! The shared simulation scaffolding of the two experiment builders.
//!
//! [`Experiment`](crate::Experiment) (one view, any policy) and
//! [`MultiViewExperiment`](crate::MultiViewExperiment) (one scheduler,
//! many views, optionally sharded / durable / serving reads) differ only
//! in *who* sits at the warehouse node. Everything else about the
//! paper's §2 topology exists once, here: the [`NetProfile`] both
//! builders hold and its setters ([`net_setters!`]), the source nodes
//! ([`build_sources`]), workload injection ([`inject_txns`]), the
//! source-side half of dispatch ([`dispatch_to_source`]), and the
//! [`SimHarness`] — network, optional reliability-transport endpoints,
//! the event-capped drive loop and the drain accounting. A builder
//! injects its workload and hands [`SimHarness::drive`] a closure that
//! routes one *application* delivery to the right node.

use crate::experiment::CoreError;
use dw_protocol::{node_source, Endpoint, Message, TransportConfig, TransportNet};
use dw_relational::{Bag, BaseRelation, ViewDef};
use dw_simnet::{Delivery, FaultPlan, LatencyModel, NetHandle, Network, NodeId};
use dw_source::DataSource;
use dw_workload::ScheduledTxn;
use std::collections::{HashMap, HashSet};

/// Whether nodes run behind the reliability transport. The builders
/// record the *intent*; [`SimHarness::new`] resolves it against the final
/// latency model, so setter order cannot matter.
#[derive(Clone, Copy)]
pub(crate) enum Transport {
    Off,
    /// Timing derived from the default latency model's mean.
    Auto,
    Explicit(TransportConfig),
}

/// Everything that shapes the simulated network, independent of which
/// warehouse policy runs on it.
pub(crate) struct NetProfile {
    pub latency: LatencyModel,
    pub link_overrides: Vec<(NodeId, NodeId, LatencyModel)>,
    pub seed: u64,
    pub faults: FaultPlan,
    pub transport: Transport,
    pub event_cap: u64,
    pub trace: bool,
    pub obs: dw_obs::Obs,
}

impl Default for NetProfile {
    /// 1 ms constant links, no faults, no transport, no observer.
    fn default() -> Self {
        NetProfile {
            latency: LatencyModel::Constant(1_000),
            link_overrides: Vec::new(),
            seed: 0,
            faults: FaultPlan::default(),
            transport: Transport::Off,
            event_cap: 10_000_000,
            trace: false,
            obs: dw_obs::Obs::off(),
        }
    }
}

/// The network setters of a builder that holds its profile in a `net:
/// NetProfile` field. Invoked inside the builder's `impl` block, so the
/// methods stay inherent and no call site needs a trait import.
macro_rules! net_setters {
    () => {
        /// Attach an observability recorder: the warehouse, the sources,
        /// the network, the transport endpoints and (on a serving run) the
        /// read frontend all emit spans/counters/histograms into it,
        /// stamped in virtual time (traces are byte-deterministic per seed).
        pub fn observe(mut self, obs: dw_obs::Obs) -> Self {
            self.net.obs = obs;
            self
        }

        /// Default latency model for every link.
        pub fn latency(mut self, l: dw_simnet::LatencyModel) -> Self {
            self.net.latency = l;
            self
        }

        /// Override one directed link's latency.
        pub fn link_latency(
            mut self,
            from: dw_simnet::NodeId,
            to: dw_simnet::NodeId,
            l: dw_simnet::LatencyModel,
        ) -> Self {
            self.net.link_overrides.push((from, to, l));
            self
        }

        /// Network RNG seed.
        pub fn seed(mut self, seed: u64) -> Self {
            self.net.seed = seed;
            self
        }

        /// Abort the run after this many deliveries (oscillation guard).
        pub fn event_cap(mut self, cap: u64) -> Self {
            self.net.event_cap = cap;
            self
        }

        /// Install a fault plan: drops, duplicates, reordering,
        /// partitions, node crashes. Without
        /// [`transport`](Self::transport) the warehouse sees the raw
        /// faulted network — useful for demonstrating that the paper's
        /// consistency claims genuinely depend on reliable FIFO channels.
        pub fn faults(mut self, plan: dw_simnet::FaultPlan) -> Self {
            self.net.faults = plan;
            self
        }

        /// Run every node behind the reliability transport, restoring the
        /// exactly-once in-order contract over whatever the fault plan
        /// does. An invalid configuration is refused, typed, by `run`.
        pub fn transport(mut self, cfg: dw_protocol::TransportConfig) -> Self {
            self.net.transport = $crate::runner::Transport::Explicit(cfg);
            self
        }

        /// Enable the transport with timing derived from the latency
        /// model the run ends up with (RTO ≈ three round trips), whether
        /// [`latency`](Self::latency) is called before or after.
        pub fn transport_auto(mut self) -> Self {
            self.net.transport = $crate::runner::Transport::Auto;
            self
        }
    };
}
pub(crate) use net_setters;

/// One [`DataSource`] per chain relation of `view`, loaded with its
/// initial contents; `indexed` answers queries through maintained join
/// indexes instead of per-query hashing.
pub(crate) fn build_sources(
    view: &ViewDef,
    initial: &[Bag],
    indexed: bool,
    obs: &dw_obs::Obs,
) -> Result<Vec<DataSource>, CoreError> {
    let mut sources = Vec::with_capacity(initial.len());
    for (i, bag) in initial.iter().enumerate() {
        let mut r = BaseRelation::new(view.schema(i).clone());
        r.apply_delta(bag)?;
        let mut src = if indexed {
            DataSource::with_indexes(i, view.clone(), r)
        } else {
            DataSource::new(i, view.clone(), r)
        };
        src.set_observer(obs.clone());
        sources.push(src);
    }
    Ok(sources)
}

/// Schedule the workload: each transaction is injected at its own time
/// at the node `node_of` maps its source index to.
pub(crate) fn inject_txns(
    net: &mut Network<Message>,
    txns: &[ScheduledTxn],
    node_of: impl Fn(usize) -> NodeId,
) {
    for t in txns {
        net.inject(
            t.at,
            node_of(t.source),
            Message::ApplyTxn {
                rel: t.source,
                delta: t.delta.clone(),
                global: t.global,
            },
        );
    }
}

/// The source-side half of dispatch: route a delivery addressed to a
/// source node into its [`DataSource`]. A source's database is modeled
/// durable already, so a state-crash `Restart` needs no application
/// action there.
pub(crate) fn dispatch_to_source(
    sources: &mut [DataSource],
    d: Delivery<Message>,
    net: &mut dyn NetHandle<Message>,
) -> Result<(), CoreError> {
    if matches!(d.msg, Message::Restart) {
        return Ok(());
    }
    let src = sources
        .get_mut(node_source(d.to))
        .ok_or(CoreError::NoSuchNode { node: d.to })?;
    Ok(src.handle(d.from, d.msg, net)?)
}

/// A configured network plus (optionally) one reliability-transport
/// endpoint per node, ready to drive to quiescence.
pub(crate) struct SimHarness {
    pub net: Network<Message>,
    endpoints: Option<HashMap<NodeId, Endpoint>>,
    /// Nodes with scheduled *state* crashes: their `Restart` must reach
    /// the application layer (for durable-store recovery) even when a
    /// transport endpoint consumes the raw delivery first.
    state_crash_nodes: HashSet<NodeId>,
    event_cap: u64,
    /// Deliveries processed so far.
    pub events: u64,
}

impl SimHarness {
    /// Build the network and endpoints for `node_count` nodes
    /// (warehouse + sources). Refuses an explicit transport
    /// configuration whose timers cannot behave.
    pub fn new(profile: &NetProfile, node_count: usize) -> Result<SimHarness, CoreError> {
        let transport = match profile.transport {
            Transport::Off => None,
            Transport::Auto => Some(TransportConfig::for_latency_mean(profile.latency.mean())),
            Transport::Explicit(cfg) => {
                cfg.validate()
                    .map_err(|e| CoreError::Multi(e.to_string()))?;
                Some(cfg)
            }
        };
        let mut net: Network<Message> = Network::new(profile.seed);
        net.set_observer(profile.obs.clone());
        net.set_default_latency(profile.latency.clone());
        for (from, to, l) in &profile.link_overrides {
            net.set_link_latency(*from, *to, l.clone());
        }
        net.set_faults(profile.faults.clone());
        if profile.trace {
            net.trace_mut().enable(0);
        }

        // One transport endpoint per node, each with its own jitter
        // stream derived from the run seed.
        let endpoints: Option<HashMap<NodeId, Endpoint>> = transport.map(|cfg| {
            (0..node_count)
                .map(|node| {
                    let mut ep =
                        Endpoint::new(node, cfg, profile.seed ^ (node as u64).wrapping_mul(0x9E37));
                    ep.set_observer(profile.obs.clone());
                    (node, ep)
                })
                .collect()
        });
        if endpoints.is_some() {
            // A restarting node must be told it restarted: the transport
            // re-arms its timers and resyncs with every peer.
            for c in profile.faults.crashes() {
                net.inject(c.up_at, c.node, Message::Restart);
            }
        }
        // State-crash restarts are injected with or without a transport:
        // the *application* needs the signal to replay its durable store,
        // not just the endpoint. ENV injections survive the crash window
        // machinery, and `up_at` itself is already outside the window.
        let state_crash_nodes: HashSet<NodeId> = profile
            .faults
            .state_crashes()
            .iter()
            .map(|c| c.node)
            .collect();
        for c in profile.faults.state_crashes() {
            net.inject(c.up_at, c.node, Message::Restart);
        }

        Ok(SimHarness {
            net,
            endpoints,
            state_crash_nodes,
            event_cap: profile.event_cap,
            events: 0,
        })
    }

    /// Pump the network until quiescence. With the transport enabled,
    /// each raw delivery first passes through the destination's endpoint
    /// — which consumes transport frames/acks/timers and emits
    /// application messages exactly-once, in-order — and the node's own
    /// sends are wrapped so they go back out through the same endpoint.
    pub fn drive(
        &mut self,
        mut dispatch: impl FnMut(
            Delivery<Message>,
            &mut dyn NetHandle<Message>,
        ) -> Result<(), CoreError>,
    ) -> Result<(), CoreError> {
        while let Some(d) = self.net.next() {
            self.events += 1;
            if self.events > self.event_cap {
                return Err(CoreError::EventCapExceeded {
                    cap: self.event_cap,
                });
            }
            match self.endpoints.as_mut() {
                Some(eps) => {
                    let ep = eps
                        .get_mut(&d.to)
                        .ok_or(CoreError::NoSuchNode { node: d.to })?;
                    // The endpoint consumes a `Restart` outright (it
                    // resyncs the transport and emits nothing); a
                    // state-crash node's application must hear it too,
                    // so re-synthesize the delivery past the endpoint.
                    let restart = (matches!(d.msg, Message::Restart)
                        && self.state_crash_nodes.contains(&d.to))
                    .then_some(Delivery {
                        at: d.at,
                        from: d.from,
                        to: d.to,
                        msg: Message::Restart,
                    });
                    let app_deliveries = ep.on_delivery(d, &mut self.net);
                    for appd in app_deliveries.into_iter().chain(restart) {
                        let mut tnet = TransportNet::new(ep, &mut self.net);
                        dispatch(appd, &mut tnet)?;
                    }
                }
                None => dispatch(d, &mut self.net)?,
            }
        }
        Ok(())
    }

    /// True when every transport endpoint has drained (trivially true
    /// without a transport): no unacked frames, no reorder buffers, no
    /// pending resync.
    pub fn transport_quiescent(&self) -> bool {
        self.endpoints
            .as_ref()
            .is_none_or(|eps| eps.values().all(Endpoint::is_quiescent))
    }
}
