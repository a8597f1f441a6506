//! Serve experiment harness: maintenance plus a snapshot-pinned read
//! path, driven off one virtual clock.
//!
//! Drives a [`MaintenanceScheduler`] (one group and optionally durable,
//! or partitioned into shard lanes) exactly the way
//! [`MultiViewExperiment`](crate::MultiViewExperiment) does, then
//! attaches a [`ReadFrontend`] as the engine's install publisher: every committed
//! install becomes an immutable epoch in the snapshot store, and a
//! seeded [`ReadOp`] schedule from `dw_workload::serve` is resolved
//! against the store *between* deliveries — a read issued at virtual
//! time `t` observes exactly the epochs committed before `t`, never a
//! torn sweep.
//!
//! The report carries enough provenance for an external oracle: each
//! [`ReadOutcome`] records the epoch it was answered from and the
//! length of the delivery-log prefix visible at issue time, so
//! [`oracle_view_at_epoch`] can recompute the pinned contents from the
//! scenario's initial relations and transaction stream, and
//! [`oracle_expects_rejection`] can re-derive every staleness verdict.

use std::collections::{HashMap, HashSet};

use crate::experiment::CoreError;
use crate::multi_experiment::{
    derived_outcomes, install_fingerprint, makespan, recover, warehouse_restarts, DerivedOutcome,
    ViewOutcome,
};
use crate::runner::{NetProfile, SimHarness};
use dw_multiview::{
    CascadeStats, DurabilityConfig, EngineOptions, MaintenanceScheduler, RecoveryStats,
    SchedulerMode, ShardStats, ViewId,
};
use dw_protocol::{node_source, source_node, Message, TransportConfig, UpdateId, WAREHOUSE_NODE};
use dw_relational::{eval_view, Bag, ShardMap, Tuple};
use dw_serve::{InstallDelta, ReadFrontend, ServeError, ServeStats, StalenessBound};
use dw_simnet::{FaultPlan, LatencyModel, NetStats, NodeId, Time};
use dw_source::DataSource;
use dw_warehouse::PolicyMetrics;
use dw_workload::{MultiViewScenario, ReadKind, ReadOp};

impl From<ServeError> for CoreError {
    fn from(e: ServeError) -> Self {
        CoreError::Multi(format!("serve: {e}"))
    }
}

/// A configured serve experiment: scenario × engine shape × read mix ×
/// network profile.
pub struct ServeExperiment {
    scenario: MultiViewScenario,
    map: Option<ShardMap>,
    mode: SchedulerMode,
    opts: EngineOptions,
    reads: Vec<ReadOp>,
    baseline_subs: bool,
    point_index: bool,
    cache_capacity: usize,
    bounded_sub_lag: Option<usize>,
    latency: LatencyModel,
    link_overrides: Vec<(NodeId, NodeId, LatencyModel)>,
    seed: u64,
    record_snapshots: bool,
    event_cap: u64,
    faults: FaultPlan,
    transport: Option<TransportConfig>,
    durability: Option<DurabilityConfig>,
    obs: dw_obs::Obs,
}

impl ServeExperiment {
    /// New serve experiment over a multi-view scenario, flat shared-sweep
    /// engine, no reads yet (add them with
    /// [`reads`](ServeExperiment::reads)).
    pub fn new(scenario: MultiViewScenario) -> Self {
        ServeExperiment {
            scenario,
            map: None,
            mode: SchedulerMode::Shared,
            opts: EngineOptions::default(),
            reads: Vec::new(),
            baseline_subs: true,
            point_index: true,
            cache_capacity: 0,
            bounded_sub_lag: None,
            latency: LatencyModel::Constant(1_000),
            link_overrides: Vec::new(),
            seed: 0,
            record_snapshots: true,
            event_cap: 10_000_000,
            faults: FaultPlan::default(),
            transport: None,
            durability: None,
            obs: dw_obs::Obs::off(),
        }
    }

    /// Partition the value space by `map`: one sweep lane per shard
    /// group. (Durability, the naive mode and unscoped warehouse state
    /// crashes are refused with a typed error at
    /// [`run`](ServeExperiment::run) when sharded; shard-scoped crash
    /// windows apply instead.)
    pub fn sharded(mut self, map: ShardMap) -> Self {
        self.map = Some(map);
        self
    }

    /// Scheduler mode (shared sweep unless set).
    pub fn mode(mut self, mode: SchedulerMode) -> Self {
        self.mode = mode;
        self
    }

    /// The read schedule to resolve against the snapshot store
    /// (typically `ReadMixConfig::generate()`).
    pub fn reads(mut self, reads: Vec<ReadOp>) -> Self {
        self.reads = reads;
        self.reads.sort_by_key(|op| (op.at, op.reader));
        self
    }

    /// Register one subscription per view before traffic starts (on by
    /// default) — their drained streams must replay the full install
    /// fingerprint, which the equivalence suite asserts.
    pub fn baseline_subscriptions(mut self, on: bool) -> Self {
        self.baseline_subs = on;
        self
    }

    /// Enable/disable the store's per-epoch point indexes (on by
    /// default). The off arm linearly scans every point read — the E21
    /// baseline, byte-identical in answers to the indexed arm.
    pub fn point_index(mut self, on: bool) -> Self {
        self.point_index = on;
        self
    }

    /// Capacity of the read-through answer cache (entries; 0 — the
    /// default — disables it). Deterministic FIFO eviction; invisible to
    /// every answer, which the equivalence suite asserts byte-for-byte.
    pub fn answer_cache(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Register one *bounded* subscription per base view before traffic
    /// starts, with the given `max_lag` queue bound. `ReadKind::Poll`
    /// ops in the read mix drain them mid-run; an overflowed one is
    /// resumed through the snapshot-at-`resume_epoch` recovery path and
    /// its full event history lands in [`ServeReport::lag`], where
    /// [`audit_lag_recoveries`] proves it equivalent to the unbounded
    /// stream.
    pub fn bounded_subscriptions(mut self, max_lag: usize) -> Self {
        self.bounded_sub_lag = Some(max_lag);
        self
    }

    /// Default latency model for every link.
    pub fn latency(mut self, l: LatencyModel) -> Self {
        self.latency = l;
        self
    }

    /// Override one directed link's latency.
    pub fn link_latency(mut self, from: NodeId, to: NodeId, l: LatencyModel) -> Self {
        self.link_overrides.push((from, to, l));
        self
    }

    /// Network RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Disable per-install view snapshots (for big runs).
    pub fn record_snapshots(mut self, on: bool) -> Self {
        self.record_snapshots = on;
        self
    }

    /// Abort the run after this many deliveries (oscillation guard).
    pub fn event_cap(mut self, cap: u64) -> Self {
        self.event_cap = cap;
        self
    }

    /// Install a fault plan. Unsharded, warehouse state crashes route to
    /// `crash_and_recover` (arm
    /// [`durability`](ServeExperiment::durability) to survive them);
    /// sharded, shard-scoped windows route to `crash_shard`.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Run every node behind the reliability transport.
    pub fn transport(mut self, cfg: TransportConfig) -> Self {
        self.transport = Some(cfg);
        self
    }

    /// Enable the transport with timing derived from the latency model.
    pub fn transport_auto(mut self) -> Self {
        self.transport = Some(TransportConfig::for_latency_mean(self.latency.mean()));
        self
    }

    /// Arm whole-warehouse crash recovery (checkpoints + sweep WAL).
    pub fn durability(mut self, checkpoint_every: usize) -> Self {
        self.durability = Some(DurabilityConfig { checkpoint_every });
        self
    }

    /// Run to network quiescence and report.
    pub fn run(self) -> Result<ServeReport, CoreError> {
        let scenario = &self.scenario;
        let base = scenario.base.clone();
        let n = base.num_relations();

        if let Some(cfg) = &self.transport {
            cfg.validate()
                .map_err(|e| CoreError::Multi(e.to_string()))?;
        }
        let sharded = self.map.is_some();
        let mut sched = MaintenanceScheduler::with_shards(
            base.clone(),
            self.mode,
            self.opts,
            self.map.clone(),
        )?;
        sched.set_record_snapshots(self.record_snapshots);
        sched.set_observer(self.obs.clone());
        for bag in &scenario.initial {
            sched.seed_groups(bag);
        }

        // The serving layer: engine installs publish into the snapshot
        // store; readers resolve against it. Frontend registration order
        // must mirror scheduler registration order — the publisher keys
        // epochs by registry slot.
        let front = ReadFrontend::new();
        front.set_point_index(self.point_index);
        front.set_answer_cache_capacity(self.cache_capacity);
        front.set_observer(self.obs.clone());
        sched.set_install_publisher(front.sink());

        let mut ids: Vec<ViewId> = Vec::new();
        for spec in &scenario.views {
            let local = spec.compile(&base)?;
            let refs: Vec<&Bag> = scenario.initial[spec.lo..=spec.hi].iter().collect();
            let initial_view = eval_view(&local, &refs)?;
            let id = sched.register(spec, initial_view.clone())?;
            let slot = front.register_view(&spec.name, initial_view, 0);
            debug_assert_eq!(slot, id.index(), "frontend/registry slot drift");
            ids.push(id);
        }
        let spans: Vec<(usize, usize)> = scenario.views.iter().map(|s| (s.lo, s.hi)).collect();

        // Derived views ride the cascade: register the stack with the
        // engine, then mirror it into the frontend in ascending slot
        // order so published events land on the right snapshots.
        let mut derived_ids = sched.register_derived_many(&scenario.derived)?;
        derived_ids.sort_by_key(|id| id.index());
        for &id in &derived_ids {
            let reg = sched.views();
            let (name, initial) = (reg.name(id)?.to_string(), reg.view_bag(id)?.clone());
            let slot = front.register_view(&name, initial, 0);
            debug_assert_eq!(slot, id.index(), "frontend/registry slot drift (derived)");
        }

        // Durability arms after registration so the initial checkpoint
        // already carries every view; a configuration that refuses it
        // says so before any traffic.
        if let Some(cfg) = self.durability {
            sched.enable_durability(cfg);
        }
        sched.validate()?;

        // Baseline subscriptions from epoch 0: their streams must replay
        // each view's full install fingerprint — derived slots included.
        let mut subscriptions: Vec<SubscriptionOutcome> = Vec::new();
        if self.baseline_subs {
            for v in 0..front.view_count() {
                subscriptions.push(SubscriptionOutcome {
                    reader: usize::MAX,
                    view: v,
                    sub: front.subscribe(v)?,
                    from_epoch: front.latest_epoch(v)?,
                    stream: Vec::new(),
                });
            }
        }

        // Bounded subscriptions (lag arm): one per base view, drained by
        // `ReadKind::Poll` ops mid-run and at quiescence. Base views
        // only — their resume snapshots are auditable against
        // [`oracle_view_at_epoch`].
        let mut lag: Vec<LagSubscription> = Vec::new();
        let mut lag_by_view: HashMap<usize, usize> = HashMap::new();
        if let Some(max_lag) = self.bounded_sub_lag {
            for v in 0..scenario.views.len() {
                let sub = front.subscribe_bounded(v, max_lag)?;
                lag_by_view.insert(v, lag.len());
                lag.push(LagSubscription {
                    view: v,
                    sub,
                    max_lag,
                    from_epoch: front.latest_epoch(v)?,
                    events: Vec::new(),
                });
            }
        }

        let mut restarts = warehouse_restarts(&self.faults);

        let profile = NetProfile {
            latency: self.latency,
            link_overrides: self.link_overrides,
            seed: self.seed,
            faults: self.faults,
            transport: self.transport,
            event_cap: self.event_cap,
            trace: false,
            obs: self.obs.clone(),
        };
        let mut harness = SimHarness::new(&profile, n + 1);

        let mut sources: Vec<DataSource> = Vec::new();
        for i in 0..n {
            let mut r = dw_relational::BaseRelation::new(base.schema(i).clone());
            r.apply_delta(&scenario.initial[i])?;
            let mut src = DataSource::new(i, base.clone(), r);
            src.set_observer(self.obs.clone());
            sources.push(src);
        }

        for t in &scenario.txns {
            harness.net.inject(
                t.at,
                source_node(t.source),
                Message::ApplyTxn {
                    rel: t.source,
                    delta: t.delta.clone(),
                    global: t.global,
                },
            );
        }

        let ops = self.reads;
        let mut next_op = 0usize;
        let mut reads: Vec<ReadOutcome> = Vec::new();
        let mut delivery_log: Vec<(UpdateId, Time)> = Vec::new();

        harness.drive(|d, net| {
            // Readers run ahead of the engine: every op issued at or
            // before this delivery's timestamp resolves against the
            // store *now*, before the delivery can commit a new epoch.
            // Installs therefore never block on, nor are observed
            // mid-flight by, any read.
            while next_op < ops.len() && ops[next_op].at <= d.at {
                execute_read(
                    &front,
                    &ops[next_op],
                    delivery_log.len(),
                    &mut reads,
                    &mut subscriptions,
                    &mut lag,
                    &lag_by_view,
                )?;
                next_op += 1;
            }
            if d.to == WAREHOUSE_NODE {
                if matches!(d.msg, Message::Restart) {
                    return recover(&mut sched, sharded, &mut restarts, d.at, net);
                }
                if let Message::Update(u) = &d.msg {
                    delivery_log.push((u.id, d.at));
                }
                sched.on_message(d, net)?;
            } else {
                if matches!(d.msg, Message::Restart) {
                    return Ok(());
                }
                let idx = node_source(d.to);
                let src = sources
                    .get_mut(idx)
                    .ok_or(CoreError::NoSuchNode { node: d.to })?;
                src.handle(d.from, d.msg, net)?;
            }
            Ok(())
        })?;

        // Ops scheduled past the last delivery resolve at quiescence.
        while next_op < ops.len() {
            execute_read(
                &front,
                &ops[next_op],
                delivery_log.len(),
                &mut reads,
                &mut subscriptions,
                &mut lag,
                &lag_by_view,
            )?;
            next_op += 1;
        }

        // Drain every subscription's pending install deltas.
        for sub in &mut subscriptions {
            sub.stream = front.poll(sub.sub)?;
        }

        // Bounded subscriptions catch all the way up at quiescence: a
        // still-lagged one resumes (snapshot at its resume epoch), then
        // drains whatever queued after. Two rounds always suffice — no
        // installs arrive during the drain.
        for entry in &mut lag {
            loop {
                match front.poll(entry.sub) {
                    Ok(deltas) => {
                        entry
                            .events
                            .extend(deltas.into_iter().map(LagEvent::Delivered));
                        break;
                    }
                    Err(ServeError::Lagged { resume_epoch, .. }) => {
                        entry.events.push(LagEvent::Lagged { resume_epoch });
                        resume_lagged(&front, entry)?;
                    }
                    Err(e) => return Err(e.into()),
                }
            }
        }

        let mut views: Vec<ViewOutcome> = Vec::new();
        let mut retained: Vec<Vec<u64>> = Vec::new();
        for (v, &id) in ids.iter().enumerate() {
            let reg = sched.views();
            views.push(ViewOutcome {
                name: reg.name(id)?.to_string(),
                lo: spans[v].0,
                hi: spans[v].1,
                policy: reg.policy(id)?,
                view: reg.view_bag(id)?.clone(),
                installs: reg.install_log(id)?.to_vec(),
                metrics: reg.metrics(id)?.clone(),
                consistency: None,
            });
            retained.push(front.retained_epochs(v)?);
        }
        let derived = derived_outcomes(sched.views(), &derived_ids)?;
        for &id in &derived_ids {
            retained.push(front.retained_epochs(id.index())?);
        }

        let transport_quiescent = harness.transport_quiescent();

        Ok(ServeReport {
            sharded,
            quiescent: sched.is_quiescent() && transport_quiescent,
            scheduler_metrics: sched.metrics().clone(),
            recovery: (!sharded).then(|| sched.recovery_stats()),
            shard_stats: sharded.then(|| sched.stats().clone()),
            views,
            derived,
            cascade: sched.views().cascade_stats(),
            serve_stats: front.stats(),
            retained,
            publication_log: front.publication_log(),
            reads,
            subscriptions,
            lag,
            net: harness.net.stats().clone(),
            end_time: harness.net.now(),
            events: harness.events,
            delivery_log,
        })
    }
}

/// Resolve one read op against the frontend at its scheduled instant.
fn execute_read(
    front: &ReadFrontend,
    op: &ReadOp,
    deliveries_seen: usize,
    reads: &mut Vec<ReadOutcome>,
    subscriptions: &mut Vec<SubscriptionOutcome>,
    lag: &mut [LagSubscription],
    lag_by_view: &HashMap<usize, usize>,
) -> Result<(), CoreError> {
    if let ReadKind::Poll = op.kind {
        // Drain the view's bounded subscription (a no-op result when the
        // lag arm is off). A lagged one resumes through the
        // snapshot-at-resume-epoch path right here, mid-run.
        let result = match lag_by_view.get(&op.view) {
            None => ReadResult::Polled {
                delivered: 0,
                resumed: false,
            },
            Some(&i) => {
                let entry = &mut lag[i];
                match front.poll(entry.sub) {
                    Ok(deltas) => {
                        let delivered = deltas.len();
                        entry
                            .events
                            .extend(deltas.into_iter().map(LagEvent::Delivered));
                        ReadResult::Polled {
                            delivered,
                            resumed: false,
                        }
                    }
                    Err(ServeError::Lagged { resume_epoch, .. }) => {
                        entry.events.push(LagEvent::Lagged { resume_epoch });
                        resume_lagged(front, entry)?;
                        ReadResult::Polled {
                            delivered: 0,
                            resumed: true,
                        }
                    }
                    Err(e) => return Err(e.into()),
                }
            }
        };
        reads.push(ReadOutcome {
            op: op.clone(),
            epoch: front.latest_epoch(op.view)?,
            deliveries_seen,
            result,
        });
        return Ok(());
    }
    if let ReadKind::Subscribe = op.kind {
        let sub = front.subscribe(op.view)?;
        let from_epoch = front.latest_epoch(op.view)?;
        subscriptions.push(SubscriptionOutcome {
            reader: op.reader,
            view: op.view,
            sub,
            from_epoch,
            stream: Vec::new(),
        });
        reads.push(ReadOutcome {
            op: op.clone(),
            epoch: from_epoch,
            deliveries_seen,
            result: ReadResult::Subscribed { sub },
        });
        return Ok(());
    }
    let pin = front.pin(op.view)?;
    let epoch = pin.epoch();
    let bound = op.bound_window.map(|w| StalenessBound {
        reflect_before: op.at.saturating_sub(w),
    });
    let result = match &op.kind {
        ReadKind::Point { column, key } => match front.read_point(&pin, *column, *key, bound) {
            Ok(a) => ReadResult::Point {
                multiplicity: a.multiplicity,
                matches: (*a.matches).clone(),
            },
            Err(ServeError::TooStale {
                required,
                freshest_admissible,
                ..
            }) => ReadResult::Rejected {
                required,
                freshest_admissible,
            },
            Err(e) => return Err(e.into()),
        },
        ReadKind::Scan => match front.read_scan(&pin, bound) {
            Ok(a) => ReadResult::Scan {
                bag: (*a.bag).clone(),
            },
            Err(ServeError::TooStale {
                required,
                freshest_admissible,
                ..
            }) => ReadResult::Rejected {
                required,
                freshest_admissible,
            },
            Err(e) => return Err(e.into()),
        },
        ReadKind::Subscribe | ReadKind::Poll => unreachable!("handled above"),
    };
    front.unpin(pin)?;
    reads.push(ReadOutcome {
        op: op.clone(),
        epoch,
        deliveries_seen,
        result,
    });
    Ok(())
}

/// Recover one lagged bounded subscription: flip it live (pinning its
/// resume epoch atomically), read the resume snapshot, release the pin,
/// and log the `Resumed` event carrying the snapshot for the audit.
fn resume_lagged(front: &ReadFrontend, entry: &mut LagSubscription) -> Result<(), CoreError> {
    let pin = front.resume(entry.sub)?;
    let snap = front.read_scan(&pin, None)?;
    let epoch = pin.epoch();
    let snapshot = (*snap.bag).clone();
    front.unpin(pin)?;
    entry.events.push(LagEvent::Resumed { epoch, snapshot });
    Ok(())
}

/// What one resolved read observed.
#[derive(Clone, Debug)]
pub enum ReadResult {
    /// Point lookup: total multiplicity plus the matching tuples.
    Point {
        /// Sum of matching multiplicities.
        multiplicity: i64,
        /// The matching `(tuple, multiplicity)` pairs, sorted.
        matches: Vec<(Tuple, i64)>,
    },
    /// Full snapshot scan.
    Scan {
        /// The pinned epoch's contents.
        bag: Bag,
    },
    /// The pinned epoch violated the op's staleness bound.
    Rejected {
        /// The bound's cutoff instant.
        required: Time,
        /// Freshest epoch that would have satisfied the bound, if any.
        freshest_admissible: Option<u64>,
    },
    /// A subscription was registered.
    Subscribed {
        /// Subscription id (its stream lands in
        /// [`ServeReport::subscriptions`]).
        sub: u64,
    },
    /// A bounded subscription was polled (lag arm; a no-op when the arm
    /// is off). Full event detail lands in [`ServeReport::lag`].
    Polled {
        /// Install deltas drained by this poll.
        delivered: usize,
        /// Whether the poll found the subscription lagged and resumed it
        /// through the snapshot-at-resume-epoch path.
        resumed: bool,
    },
}

/// One read op's resolution, with the provenance the oracle needs.
#[derive(Clone, Debug)]
pub struct ReadOutcome {
    /// The scheduled op.
    pub op: ReadOp,
    /// Epoch the op was pinned to (the view's latest at issue time; for
    /// subscriptions, the epoch the stream starts after).
    pub epoch: u64,
    /// Warehouse deliveries visible when the op resolved — a prefix
    /// length into [`ServeReport::delivery_log`].
    pub deliveries_seen: usize,
    /// What happened.
    pub result: ReadResult,
}

impl ReadOutcome {
    /// Whether the read was answered (vs. rejected; subscriptions count
    /// as answered).
    pub fn answered(&self) -> bool {
        !matches!(self.result, ReadResult::Rejected { .. })
    }
}

/// One observable event in a bounded subscription's lifetime, in order.
#[derive(Clone, Debug)]
pub enum LagEvent {
    /// A poll drained this install delta while the subscription was live.
    Delivered(InstallDelta),
    /// A poll found the subscription lagged past its `max_lag` bound
    /// (its queue had been dropped at overflow time).
    Lagged {
        /// The epoch recovery will resume from.
        resume_epoch: u64,
    },
    /// The subscription resumed: the snapshot pinned and read at the
    /// resume epoch. Subsequent `Delivered` events continue from
    /// `epoch + 1`.
    Resumed {
        /// The resume epoch.
        epoch: u64,
        /// The snapshot's contents — audited against the recompute
        /// oracle by [`audit_lag_recoveries`].
        snapshot: Bag,
    },
}

/// One bounded subscription's full event history (lag arm).
#[derive(Clone, Debug)]
pub struct LagSubscription {
    /// Subscribed base view (registry slot).
    pub view: usize,
    /// Subscription id.
    pub sub: u64,
    /// The queue bound it was registered with.
    pub max_lag: usize,
    /// Epoch the subscription started after.
    pub from_epoch: u64,
    /// Everything that happened to it, in order.
    pub events: Vec<LagEvent>,
}

/// One subscription's drained install stream.
#[derive(Clone, Debug)]
pub struct SubscriptionOutcome {
    /// Issuing reader (`usize::MAX` for the experiment's baseline
    /// subscriptions registered before traffic).
    pub reader: usize,
    /// Subscribed view (registry slot).
    pub view: usize,
    /// Subscription id.
    pub sub: u64,
    /// Epoch the subscription started after — the stream holds epochs
    /// `from_epoch + 1 ..`.
    pub from_epoch: u64,
    /// Install deltas in publication (= install-ticket) order.
    pub stream: Vec<InstallDelta>,
}

/// Everything observable from one serve run.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Whether the sharded engine ran underneath.
    pub sharded: bool,
    /// Per-view outcomes, in registration order (consistency left to
    /// the serve oracle, so the field is `None`).
    pub views: Vec<ViewOutcome>,
    /// Derived (cascade-fed) views, ascending slot order — their slots
    /// follow the base views', so slot `views.len() + k` is `derived[k]`.
    pub derived: Vec<DerivedOutcome>,
    /// Cascade counters (child installs, memo hits, fresh evals).
    pub cascade: CascadeStats,
    /// Aggregate engine counters.
    pub scheduler_metrics: PolicyMetrics,
    /// Flat-engine crash-recovery statistics (`None` when sharded).
    pub recovery: Option<RecoveryStats>,
    /// Sharding counters (`None` when flat).
    pub shard_stats: Option<ShardStats>,
    /// Snapshot-store counters (publications, GC, reads, pins,
    /// subscription fan-out).
    pub serve_stats: ServeStats,
    /// Epochs still retained per view at quiescence (base slots first,
    /// then derived slots).
    pub retained: Vec<Vec<u64>>,
    /// Every accepted install as `(view slot, epoch)` in publication
    /// order — the global install-ticket order. A base install and its
    /// cascaded derived descendants form one contiguous block (children
    /// ascending by slot, depth-first); replays never re-enter it.
    pub publication_log: Vec<(usize, u64)>,
    /// Every resolved read, in issue order.
    pub reads: Vec<ReadOutcome>,
    /// Every subscription's drained stream (baseline ones first).
    pub subscriptions: Vec<SubscriptionOutcome>,
    /// Bounded-subscription event histories (empty unless the lag arm —
    /// [`ServeExperiment::bounded_subscriptions`] — is on).
    pub lag: Vec<LagSubscription>,
    /// Network-level accounting.
    pub net: NetStats,
    /// Scheduler and transport both drained at the end of the run.
    pub quiescent: bool,
    /// Simulation time at the end of the run (µs).
    pub end_time: Time,
    /// Deliveries processed.
    pub events: u64,
    /// Warehouse delivery log `(update, delivery time)` in delivery order.
    pub delivery_log: Vec<(UpdateId, Time)>,
}

impl ServeReport {
    /// Answered (non-rejected) reads.
    pub fn answered(&self) -> usize {
        self.reads.iter().filter(|r| r.answered()).count()
    }

    /// Reads rejected for violating their staleness bound.
    pub fn rejected(&self) -> usize {
        self.reads.len() - self.answered()
    }

    /// Query/answer round-trip messages (excludes the update stream).
    pub fn query_messages(&self) -> u64 {
        ["query", "answer"]
            .iter()
            .map(|l| self.net.label(l).messages)
            .sum()
    }

    /// Query/answer messages per warehouse-received update. Reads are
    /// answered warehouse-locally, so this must equal the no-reader
    /// baseline — E19's interference gate.
    pub fn messages_per_update(&self) -> f64 {
        if self.scheduler_metrics.updates_received == 0 {
            return 0.0;
        }
        self.query_messages() as f64 / self.scheduler_metrics.updates_received as f64
    }

    /// Makespan of the maintenance work (µs): last install time minus
    /// first delivery. Readers must not stretch it — the "reads never
    /// block installs" invariant is gated as makespan equality against
    /// a referee run with no reads.
    pub fn makespan(&self) -> Time {
        makespan(&self.views, &self.delivery_log)
    }

    /// Install fingerprint: per view, the sequence of consumed-update
    /// sets in install order.
    pub fn install_fingerprint(&self) -> Vec<Vec<Vec<UpdateId>>> {
        install_fingerprint(&self.views)
    }

    /// The install log backing slot `slot` — a base view's outcome for
    /// the leading slots, a derived view's for the trailing ones.
    pub fn installs_for_slot(&self, slot: usize) -> Option<&[dw_warehouse::InstallRecord]> {
        if let Some(v) = self.views.get(slot) {
            return Some(&v.installs);
        }
        self.derived
            .get(slot - self.views.len())
            .map(|d| d.installs.as_slice())
    }

    /// Whether every subscription's stream replays exactly the install
    /// fingerprint of its view (base or derived) from its start epoch:
    /// contiguous epochs, matching consumed sets, matching deltas when
    /// snapshots were kept.
    pub fn subscriptions_match_installs(&self) -> bool {
        self.subscriptions.iter().all(|sub| {
            let Some(installs) = self.installs_for_slot(sub.view) else {
                return false;
            };
            let expected = &installs[sub.from_epoch as usize..];
            sub.stream.len() == expected.len()
                && sub
                    .stream
                    .iter()
                    .zip(expected)
                    .enumerate()
                    .all(|(i, (delta, inst))| {
                        delta.view == sub.view
                            && delta.epoch == sub.from_epoch + 1 + i as u64
                            && delta.consumed == inst.consumed
                            && delta.at == inst.at
                    })
        })
    }

    /// All derived views audited clean: every install epoch matched the
    /// fresh-recompute oracle over the parent, final state included.
    pub fn derived_clean(&self) -> bool {
        self.derived
            .iter()
            .all(|d| d.epoch_mismatches == 0 && d.final_matches_oracle)
    }
}

/// Aggregate verdict of [`audit_reads`]: every read in a report checked
/// against the recompute and staleness oracles.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OracleAudit {
    /// Reads audited (subscriptions excluded).
    pub reads: u64,
    /// Reads answered.
    pub answered: u64,
    /// Reads rejected as too stale.
    pub rejected: u64,
    /// Reads the staleness oracle says *should* have been rejected.
    pub expected_rejected: u64,
    /// Answered reads whose contents diverged from a fresh recompute at
    /// their pinned epoch. Must be zero.
    pub content_mismatches: u64,
    /// Reads whose accept/reject verdict disagreed with the staleness
    /// oracle. Must be zero.
    pub verdict_mismatches: u64,
}

impl OracleAudit {
    /// No divergence anywhere: contents and verdicts both exact.
    pub fn clean(&self) -> bool {
        self.content_mismatches == 0 && self.verdict_mismatches == 0
    }
}

/// Audit every read in `report` against the oracles: answered point and
/// scan reads must equal a fresh recompute of the view at their pinned
/// epoch ([`oracle_view_at_epoch`]), and each accept/reject verdict
/// must match [`oracle_expects_rejection`].
pub fn audit_reads(
    scenario: &MultiViewScenario,
    report: &ServeReport,
) -> Result<OracleAudit, CoreError> {
    let mut audit = OracleAudit::default();
    for read in &report.reads {
        if matches!(
            read.result,
            ReadResult::Subscribed { .. } | ReadResult::Polled { .. }
        ) {
            continue;
        }
        audit.reads += 1;
        let expect_reject = oracle_expects_rejection(scenario, report, read);
        if expect_reject {
            audit.expected_rejected += 1;
        }
        if read.answered() == expect_reject {
            audit.verdict_mismatches += 1;
        }
        match &read.result {
            ReadResult::Rejected { .. } => audit.rejected += 1,
            ReadResult::Scan { bag } => {
                audit.answered += 1;
                let truth = oracle_view_at_epoch(
                    scenario,
                    read.op.view,
                    &report.views[read.op.view].installs,
                    read.epoch,
                )?;
                if bag != &truth {
                    audit.content_mismatches += 1;
                }
            }
            ReadResult::Point {
                multiplicity,
                matches,
            } => {
                audit.answered += 1;
                let ReadKind::Point { column, key } = read.op.kind else {
                    audit.content_mismatches += 1;
                    continue;
                };
                let truth = oracle_view_at_epoch(
                    scenario,
                    read.op.view,
                    &report.views[read.op.view].installs,
                    read.epoch,
                )?;
                let want: Vec<(Tuple, i64)> = truth
                    .to_sorted_vec()
                    .into_iter()
                    .filter(|(t, _)| t.at(column) == &dw_relational::Value::Int(key))
                    .collect();
                if matches != &want || *multiplicity != want.iter().map(|&(_, m)| m).sum::<i64>() {
                    audit.content_mismatches += 1;
                }
            }
            ReadResult::Subscribed { .. } | ReadResult::Polled { .. } => {
                unreachable!("filtered above")
            }
        }
    }
    Ok(audit)
}

/// Aggregate verdict of [`audit_lag_recoveries`]: every bounded
/// subscription's event history checked for stream equivalence — the
/// deltas it received plus the snapshots it resumed through must
/// reconstruct exactly what an unbounded subscriber saw.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LagAudit {
    /// Bounded subscriptions audited.
    pub subs: u64,
    /// Install deltas delivered across them.
    pub delivered: u64,
    /// Lag conditions observed (polls that found a dropped queue).
    pub lag_events: u64,
    /// Snapshot resumes taken.
    pub resumes: u64,
    /// Epoch-contiguity violations inside live stretches. Must be zero.
    pub gap_violations: u64,
    /// Resume snapshots that diverged from the recompute oracle at
    /// their epoch. Must be zero.
    pub snapshot_mismatches: u64,
    /// Subscriptions whose folded history (deltas + resume snapshots)
    /// missed the view's final contents, or stopped short of its final
    /// epoch. Must be zero.
    pub final_mismatches: u64,
}

impl LagAudit {
    /// Every bounded subscription reconstructed the unbounded stream.
    pub fn clean(&self) -> bool {
        self.gap_violations == 0 && self.snapshot_mismatches == 0 && self.final_mismatches == 0
    }
}

/// Audit every bounded subscription in `report` for recovery
/// equivalence: fold its event history — merging delivered deltas,
/// substituting the resume snapshot at each `Resumed` — and require (a)
/// contiguous epochs within each live stretch, (b) every resume
/// snapshot equal to [`oracle_view_at_epoch`] at its epoch, and (c) the
/// folded end state equal to the oracle at the view's final epoch. That
/// is exactly "resumed stream + snapshot == full stream".
pub fn audit_lag_recoveries(
    scenario: &MultiViewScenario,
    report: &ServeReport,
) -> Result<LagAudit, CoreError> {
    let mut audit = LagAudit::default();
    for sub in &report.lag {
        audit.subs += 1;
        let installs = report
            .installs_for_slot(sub.view)
            .ok_or_else(|| CoreError::Multi(format!("lag audit: no slot {}", sub.view)))?;
        let mut running = oracle_view_at_epoch(scenario, sub.view, installs, sub.from_epoch)?;
        let mut next = sub.from_epoch + 1;
        for ev in &sub.events {
            match ev {
                LagEvent::Delivered(d) => {
                    audit.delivered += 1;
                    if d.view != sub.view || d.epoch != next {
                        audit.gap_violations += 1;
                    }
                    running.merge(&d.delta);
                    next = d.epoch + 1;
                }
                LagEvent::Lagged { .. } => audit.lag_events += 1,
                LagEvent::Resumed { epoch, snapshot } => {
                    audit.resumes += 1;
                    let truth = oracle_view_at_epoch(scenario, sub.view, installs, *epoch)?;
                    if snapshot != &truth {
                        audit.snapshot_mismatches += 1;
                    }
                    running = snapshot.clone();
                    next = epoch + 1;
                }
            }
        }
        // The quiescence drain catches every bounded subscription up to
        // the view's final epoch; anything short is a lost suffix.
        let last = next - 1;
        if last != installs.len() as u64 {
            audit.final_mismatches += 1;
            continue;
        }
        let truth = oracle_view_at_epoch(scenario, sub.view, installs, last)?;
        if running != truth {
            audit.final_mismatches += 1;
        }
    }
    Ok(audit)
}

/// Recompute a view's contents at epoch `e` from first principles: the
/// scenario's initial relations with the deltas of every transaction
/// consumed by installs `1..=e` applied, evaluated through the view
/// definition. This is the ground truth a snapshot read at a pinned
/// epoch must equal.
pub fn oracle_view_at_epoch(
    scenario: &MultiViewScenario,
    view_index: usize,
    installs: &[dw_warehouse::InstallRecord],
    epoch: u64,
) -> Result<Bag, CoreError> {
    let spec = scenario
        .views
        .get(view_index)
        .ok_or_else(|| CoreError::Multi(format!("oracle: no view {view_index}")))?;
    let local = spec.compile(&scenario.base)?;
    let mut shadows: Vec<Bag> = scenario.initial[spec.lo..=spec.hi].to_vec();
    if epoch > 0 {
        let deltas = txn_deltas(scenario);
        for rec in installs.iter().take(epoch as usize) {
            for id in &rec.consumed {
                let delta = deltas.get(id).ok_or_else(|| {
                    CoreError::Multi(format!("oracle: consumed unknown update {id:?}"))
                })?;
                shadows[id.source - spec.lo].merge(delta);
            }
        }
    }
    let refs: Vec<&Bag> = shadows.iter().collect();
    Ok(eval_view(&local, &refs)?)
}

/// Whether the staleness oracle expects this read to have been
/// rejected: some in-span update was delivered before the bound's
/// cutoff (within the delivery prefix visible at issue time) yet was
/// not consumed by any install up to the pinned epoch.
pub fn oracle_expects_rejection(
    scenario: &MultiViewScenario,
    report: &ServeReport,
    read: &ReadOutcome,
) -> bool {
    let Some(window) = read.op.bound_window else {
        return false;
    };
    let Some(spec) = scenario.views.get(read.op.view) else {
        return false;
    };
    let cutoff = read.op.at.saturating_sub(window);
    // First delivery time per update within the visible prefix (the
    // store also keeps the first).
    let mut first_seen: HashMap<UpdateId, Time> = HashMap::new();
    for &(id, at) in &report.delivery_log[..read.deliveries_seen] {
        first_seen.entry(id).or_insert(at);
    }
    let consumed: HashSet<UpdateId> = report.views[read.op.view]
        .installs
        .iter()
        .take(read.epoch as usize)
        .flat_map(|r| r.consumed.iter().copied())
        .collect();
    first_seen.iter().any(|(id, &at)| {
        spec.lo <= id.source && id.source <= spec.hi && at < cutoff && !consumed.contains(id)
    })
}

/// Per-update transaction deltas, keyed by the `UpdateId` each source
/// will stamp: sources emit one update per applied transaction, with
/// per-source sequence numbers following injection (time) order.
fn txn_deltas(scenario: &MultiViewScenario) -> HashMap<UpdateId, Bag> {
    let mut next_seq: HashMap<usize, u64> = HashMap::new();
    let mut map = HashMap::new();
    let mut order: Vec<usize> = (0..scenario.txns.len()).collect();
    order.sort_by_key(|&i| (scenario.txns[i].at, i));
    for i in order {
        let t = &scenario.txns[i];
        let seq = next_seq.entry(t.source).or_insert(0);
        map.insert(
            UpdateId {
                source: t.source,
                seq: *seq,
            },
            t.delta.clone(),
        );
        *seq += 1;
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use dw_workload::{MultiViewConfig, ReadMixConfig, StreamConfig};

    fn scenario(n_views: usize, seed: u64) -> MultiViewScenario {
        MultiViewConfig {
            stream: StreamConfig {
                n_sources: 4,
                updates: 20,
                initial_per_source: 12,
                domain: 8,
                mean_gap: 500,
                seed,
                ..Default::default()
            },
            n_views,
            view_seed: seed ^ 0xABCD,
            full_span: false,
            n_derived: 0,
            derived_seed: 0,
        }
        .generate()
        .unwrap()
    }

    fn mix(n_views: usize, seed: u64) -> Vec<ReadOp> {
        ReadMixConfig {
            readers: 4,
            reads_per_reader: 10,
            n_views,
            seed,
            ..Default::default()
        }
        .generate()
    }

    fn check_against_oracle(scenario: &MultiViewScenario, report: &ServeReport) {
        assert!(report.quiescent);
        for read in &report.reads {
            match &read.result {
                ReadResult::Scan { bag } => {
                    let truth = oracle_view_at_epoch(
                        scenario,
                        read.op.view,
                        &report.views[read.op.view].installs,
                        read.epoch,
                    )
                    .unwrap();
                    assert_eq!(bag, &truth, "scan at epoch {} drifted", read.epoch);
                    assert!(!oracle_expects_rejection(scenario, report, read));
                }
                ReadResult::Point {
                    multiplicity,
                    matches,
                } => {
                    let truth = oracle_view_at_epoch(
                        scenario,
                        read.op.view,
                        &report.views[read.op.view].installs,
                        read.epoch,
                    )
                    .unwrap();
                    let ReadKind::Point { column, key } = read.op.kind else {
                        panic!("point outcome from non-point op");
                    };
                    let want: Vec<(Tuple, i64)> = truth
                        .to_sorted_vec()
                        .into_iter()
                        .filter(|(t, _)| t.at(column) == &dw_relational::Value::Int(key))
                        .collect();
                    assert_eq!(matches, &want);
                    assert_eq!(*multiplicity, want.iter().map(|&(_, m)| m).sum::<i64>());
                    assert!(!oracle_expects_rejection(scenario, report, read));
                }
                ReadResult::Rejected { .. } => {
                    assert!(
                        oracle_expects_rejection(scenario, report, read),
                        "spurious rejection at epoch {} (op at {})",
                        read.epoch,
                        read.op.at
                    );
                }
                ReadResult::Subscribed { .. } | ReadResult::Polled { .. } => {}
            }
        }
        assert!(report.subscriptions_match_installs());
    }

    #[test]
    fn flat_reads_match_oracle_and_subs_replay_installs() {
        let sc = scenario(3, 11);
        let reads = mix(3, 11);
        let report = ServeExperiment::new(sc.clone()).reads(reads).run().unwrap();
        assert!(report.serve_stats.snapshots_published > 0);
        let installs: u64 = report.views.iter().map(|v| v.installs.len() as u64).sum();
        assert_eq!(report.serve_stats.snapshots_published, installs);
        assert!(report.answered() > 0);
        check_against_oracle(&sc, &report);
    }

    #[test]
    fn tight_bounds_reject_exactly_when_oracle_says() {
        let sc = scenario(2, 12);
        // Zero trailing window: the answer must reflect everything
        // delivered before the read instant — mid-sweep reads reject.
        let reads: Vec<ReadOp> = mix(2, 12)
            .into_iter()
            .map(|mut op| {
                if !matches!(op.kind, ReadKind::Subscribe) {
                    op.bound_window = Some(0);
                }
                op
            })
            .collect();
        let report = ServeExperiment::new(sc.clone()).reads(reads).run().unwrap();
        assert_eq!(
            report.rejected() as u64,
            report.serve_stats.reads_rejected,
            "store counters disagree with outcomes"
        );
        check_against_oracle(&sc, &report);
    }

    #[test]
    fn sharded_engine_serves_the_same_epochs() {
        let sc = scenario(3, 13);
        let map = ShardMap::hash(2);
        let reads = mix(3, 13);
        let flat = ServeExperiment::new(sc.clone())
            .reads(reads.clone())
            .run()
            .unwrap();
        let sharded = ServeExperiment::new(sc.clone())
            .sharded(map)
            .reads(reads)
            .run()
            .unwrap();
        assert!(sharded.sharded && !flat.sharded);
        check_against_oracle(&sc, &sharded);
        assert_eq!(flat.install_fingerprint(), sharded.install_fingerprint());
    }

    #[test]
    fn reads_survive_a_warehouse_crash_window() {
        let sc = scenario(2, 14);
        let crash_at = sc.txns[8].at;
        let reads = mix(2, 14);
        let report = ServeExperiment::new(sc.clone())
            .reads(reads)
            .durability(2)
            .transport_auto()
            .faults(FaultPlan::none().state_crash(WAREHOUSE_NODE, crash_at, crash_at + 2_000))
            .run()
            .unwrap();
        assert!(report.recovery.as_ref().unwrap().recoveries >= 1);
        // Every read resolved — none was lost to the crash window.
        assert_eq!(report.reads.len(), report.answered() + report.rejected());
        check_against_oracle(&sc, &report);
    }

    /// Field-wise byte-equality of two runs' read outcomes (Bag hides a
    /// HashMap, so Debug-string comparison would be order-unstable).
    fn assert_reads_identical(a: &ServeReport, b: &ServeReport) {
        assert_eq!(a.reads.len(), b.reads.len());
        for (x, y) in a.reads.iter().zip(&b.reads) {
            assert_eq!(x.op, y.op);
            assert_eq!(x.epoch, y.epoch);
            assert_eq!(x.deliveries_seen, y.deliveries_seen);
            match (&x.result, &y.result) {
                (
                    ReadResult::Point {
                        multiplicity: m1,
                        matches: t1,
                    },
                    ReadResult::Point {
                        multiplicity: m2,
                        matches: t2,
                    },
                ) => {
                    assert_eq!(m1, m2);
                    assert_eq!(t1, t2);
                }
                (ReadResult::Scan { bag: b1 }, ReadResult::Scan { bag: b2 }) => {
                    assert_eq!(b1, b2)
                }
                (
                    ReadResult::Rejected {
                        required: r1,
                        freshest_admissible: f1,
                    },
                    ReadResult::Rejected {
                        required: r2,
                        freshest_admissible: f2,
                    },
                ) => {
                    assert_eq!(r1, r2);
                    assert_eq!(f1, f2);
                }
                (ReadResult::Subscribed { .. }, ReadResult::Subscribed { .. }) => {}
                (
                    ReadResult::Polled {
                        delivered: d1,
                        resumed: r1,
                    },
                    ReadResult::Polled {
                        delivered: d2,
                        resumed: r2,
                    },
                ) => {
                    assert_eq!(d1, d2);
                    assert_eq!(r1, r2);
                }
                (x, y) => panic!("outcome shape diverged: {x:?} vs {y:?}"),
            }
        }
    }

    #[test]
    fn index_and_cache_arms_are_invisible_to_answers() {
        let sc = scenario(2, 16);
        let reads = ReadMixConfig::hot_key_points(4, 16, 16);
        let reads = ReadMixConfig {
            n_views: 2,
            ..reads
        }
        .generate();
        let indexed = ServeExperiment::new(sc.clone())
            .reads(reads.clone())
            .run()
            .unwrap();
        let linear = ServeExperiment::new(sc.clone())
            .reads(reads.clone())
            .point_index(false)
            .run()
            .unwrap();
        let cached = ServeExperiment::new(sc.clone())
            .reads(reads)
            .answer_cache(32)
            .run()
            .unwrap();
        assert_reads_identical(&indexed, &linear);
        assert_reads_identical(&indexed, &cached);
        check_against_oracle(&sc, &indexed);
        // The arms really engaged: the indexed run built indexes and did
        // strictly less per-read work than the linear one; the cached
        // run hit its cache on the hot keys.
        assert!(indexed.serve_stats.point_index_builds > 0);
        assert_eq!(linear.serve_stats.point_index_builds, 0);
        assert!(indexed.serve_stats.read_work_tuples < linear.serve_stats.read_work_tuples);
        assert!(cached.serve_stats.cache_hits > 0);
    }

    #[test]
    fn lagged_subscriptions_recover_equivalently() {
        // Seed 20 deals both views a Sweep policy (12 and 11 installs) —
        // plenty of publish pressure for a queue bound of 1.
        let sc = scenario(2, 20);
        let reads = ReadMixConfig {
            n_views: 2,
            ..ReadMixConfig::laggy_subscribers(4, 20, 20)
        }
        .generate();
        let report = ServeExperiment::new(sc.clone())
            .reads(reads)
            .bounded_subscriptions(1)
            .run()
            .unwrap();
        check_against_oracle(&sc, &report);
        let audit = audit_lag_recoveries(&sc, &report).unwrap();
        assert_eq!(audit.subs, 2);
        assert!(
            audit.lag_events >= 1 && audit.resumes >= 1,
            "max_lag=1 under ~a dozen installs per view must overflow: {audit:?}"
        );
        assert!(audit.clean(), "{audit:?}");
        assert_eq!(report.serve_stats.subs_lagged, audit.lag_events);
        assert_eq!(report.serve_stats.subs_resumed, audit.resumes);
    }

    #[test]
    fn no_reader_referee_has_identical_maintenance() {
        let sc = scenario(3, 15);
        let with_reads = ServeExperiment::new(sc.clone())
            .reads(mix(3, 15))
            .run()
            .unwrap();
        let referee = ServeExperiment::new(sc).run().unwrap();
        assert_eq!(with_reads.makespan(), referee.makespan());
        assert_eq!(with_reads.query_messages(), referee.query_messages());
        assert_eq!(
            with_reads.install_fingerprint(),
            referee.install_fingerprint()
        );
    }
}
