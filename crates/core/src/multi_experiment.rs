//! Multi-view experiment harness: many registered views, one scheduler.
//!
//! Mirrors [`Experiment`](crate::Experiment) but drives a
//! [`MaintenanceScheduler`] instead of a single maintenance policy: the
//! scenario carries a *base chain* plus a set of span views
//! ([`dw_workload::MultiViewScenario`]), every view is registered before
//! the stream starts, and the run reports one outcome per registry slot
//! — base and derived views alike: final bag, install log, metrics,
//! consistency level — plus cross-view mutual consistency and the message
//! accounting E14 measures.
//!
//! [`MultiViewExperiment::shards`] partitions the value space: the same
//! scheduler then runs one sweep lane per shard group, and the report
//! additionally accounts the sharding itself — lane concurrency and
//! escalations. [`MultiViewExperiment::durability`] arms the checkpoint +
//! WAL store every configuration recovers a [`FaultPlan::state_crash`]
//! window from. [`MultiViewExperiment::reads`] attaches the serving arm (see
//! [`crate::serve`]): the same run, with a snapshot-pinned read schedule
//! resolved between deliveries and reported in [`MultiViewReport::serve`].

use crate::experiment::CoreError;
use crate::runner::{
    build_sources, dispatch_to_source, inject_txns, net_setters, NetProfile, SimHarness,
};
use crate::serve::{ServeArm, ServeConfig, ServeOutcome};
use dw_consistency::{
    classify, mutual_consistency, ConsistencyLevel, ConsistencyReport, LagSeries, MutualReport,
    Recorder, SlotView, ViewLog,
};
use dw_multiview::{
    CascadeStats, CompletionLog, DurabilityConfig, EngineOptions, MaintenanceScheduler, MvError,
    RecoveryStats, ShardStats, ViewId, NEEDS_DURABLE_STORE,
};
use dw_protocol::{source_node, Message, UpdateId, WAREHOUSE_NODE};
use dw_relational::{Bag, ShardMap};
use dw_simnet::{FaultPlan, LinkStats, NetHandle, NetStats, Time, TraceEvent};
use dw_warehouse::{InstallEvent, InstallLog, PolicyMetrics, WarehouseError};
use dw_workload::{MultiViewScenario, ReadOp, ViewPolicy};
use std::sync::{Arc, Mutex, PoisonError};

/// A configured multi-view experiment: scenario × partitioner ×
/// scheduler options × read schedule × network profile.
pub struct MultiViewExperiment {
    scenario: MultiViewScenario,
    map: Option<ShardMap>,
    opts: EngineOptions,
    pub(crate) net: NetProfile,
    /// Sources answer through maintained join indexes (what
    /// `Experiment::indexed_sources` asks of a SWEEP run).
    pub(crate) indexed_sources: bool,
    check_consistency: bool,
    durability: Option<DurabilityConfig>,
    serve: ServeConfig,
    completions: Option<CompletionLog>,
}

impl MultiViewExperiment {
    /// New experiment over a multi-view scenario, defaulting to the
    /// shared-sweep scheduler, 1 ms constant links, consistency checking
    /// on.
    pub fn new(scenario: MultiViewScenario) -> Self {
        MultiViewExperiment {
            scenario,
            map: None,
            opts: EngineOptions::default(),
            net: NetProfile::default(),
            indexed_sources: false,
            check_consistency: true,
            durability: None,
            serve: ServeConfig::default(),
            completions: None,
        }
    }

    net_setters!();

    /// Partition the value space by `map`: one sweep lane per shard
    /// group, installs still in arrival order. Pass a generated
    /// [`dw_workload::ShardedScenario`]'s `map` alongside its `scenario`,
    /// or any partitioner over any scenario (how the conformance suites
    /// pit sharded against unsharded on identical inputs). A base chain
    /// with a hop that equates nothing is refused, typed, by
    /// [`run`](Self::run).
    pub fn shards(mut self, map: ShardMap) -> Self {
        self.map = Some(map);
        self
    }

    /// The scheduler's options ([`EngineOptions`]): cross-update batching
    /// (E15), σ pushdown (E16), Figure 4's one leg, the empty
    /// short-circuit, pipelining and nesting, each composing with a
    /// partitioner, durability and reads. `0` is no bound for `batch`,
    /// `window` and `depth` alike.
    pub fn options(mut self, opts: EngineOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Disable classification and mutual consistency (for big runs), and
    /// with them the per-install view snapshots only the classifier
    /// reads. The report's [`truth`](MultiViewReport::truth) records
    /// every delivery either way.
    pub fn check_consistency(mut self, on: bool) -> Self {
        self.check_consistency = on;
        self
    }

    /// Arm warehouse crash recovery: durable checkpoints every
    /// `checkpoint_every` sweep commits plus a sweep WAL. Required for
    /// the scheduler to survive [`FaultPlan::state_crash`] windows —
    /// the harness routes each state-crash restart into
    /// `MaintenanceScheduler::crash_and_recover`, and
    /// [`run`](Self::run) refuses such a window, typed, without it.
    pub fn durability(mut self, checkpoint_every: usize) -> Self {
        self.durability = Some(DurabilityConfig { checkpoint_every });
        self
    }

    /// Serve reads beside maintenance: a [`dw_serve::ReadFrontend`]
    /// becomes the scheduler's install publisher and this schedule
    /// (typically `ReadMixConfig::generate()`) is resolved against its
    /// snapshot store, each op *before* any delivery sharing its
    /// timestamp; the readers' view of the run lands in
    /// [`MultiViewReport::serve`]. An empty schedule still serves —
    /// the no-reader referee whose maintenance must be identical.
    /// Without this call no frontend is built and nothing is published.
    pub fn reads(mut self, mut reads: Vec<ReadOp>) -> Self {
        reads.sort_by_key(|op| (op.at, op.reader));
        self.serve.reads = Some(reads);
        self
    }

    /// Register one *bounded* subscription per view — every registry
    /// slot, base and derived — before traffic starts, with the given
    /// `max_lag` queue bound. `ReadKind::Poll`
    /// ops in the read mix drain them mid-run; an overflowed one is
    /// resumed through the snapshot-at-`resume_epoch` recovery path and
    /// its full event history lands in [`ServeOutcome::lag`], where
    /// [`audit_lag_recoveries`](crate::audit_lag_recoveries) proves it
    /// equivalent to the unbounded stream.
    pub fn bounded_subscriptions(mut self, max_lag: usize) -> Self {
        self.serve.bounded_sub_lag = Some(max_lag);
        self
    }

    /// Append every lane completion, `(band mask, finish time)`, to `log`.
    pub fn record_completions(mut self, log: CompletionLog) -> Self {
        self.completions = Some(log);
        self
    }

    /// Run to network quiescence and report.
    pub fn run(self) -> Result<MultiViewReport, CoreError> {
        let scenario = &self.scenario;
        let base = scenario.base.clone();
        let n = base.num_relations();
        let obs = &self.net.obs;

        let mut sched =
            MaintenanceScheduler::with_shards(base.clone(), self.opts, self.map.clone())?;
        sched.set_observer(obs.clone());
        if let Some(log) = &self.completions {
            sched.record_completions(log.clone());
        }
        for bag in &scenario.initial {
            sched.seed_groups(bag);
        }

        // One record of what is delivered, for every view: each base view
        // registers with its truth state before anything is consumed.
        let mut truth = Recorder::new(scenario.initial.clone());
        let mut slots: Vec<SlotView> = Vec::new();
        for spec in &scenario.views {
            let view = SlotView::base(spec.compile(&base)?, spec.lo);
            sched.register(spec, truth.state(&view, &|_| false)?)?;
            slots.push(view);
        }
        // Derived (view-over-view) registrations go on top of the base
        // set; order-independent resolution handles stacks given in any
        // order and rejects cycles/unknown parents up front. A derived slot
        // evaluates to its parent slot's view with its operator appended,
        // and parents take lower slots, so one ascending pass resolves
        // every stack.
        sched.register_derived_many(&scenario.derived)?;
        let reg = sched.views();
        for id in reg.ids().into_iter().skip(slots.len()) {
            let parent = reg.parent_of(id)?.and_then(|p| slots.get(p.index()));
            let (Some(parent), Some(op)) = (parent, reg.derived_op(id)?) else {
                let what = "a slot past the base views is not derived";
                return Err(MvError::Internal { what }.into());
            };
            let mut view = parent.clone();
            view.ops.push(op.clone());
            slots.push(view);
        }
        let mut serve = ServeArm::open(self.serve, &sched, obs)?;
        let store = serve.as_ref().map(|arm| arm.front.sink());
        let log = Arc::new(Mutex::new(InstallLog::new(store)));
        sched.set_install_publisher(log.clone());
        // Durability arms after registration so the initial checkpoint
        // already carries every view at its correct initial contents. A
        // state crash nothing durable would survive is a fault that was
        // asked for and cannot happen: refused before any traffic.
        let mut restarts = warehouse_restarts(&self.net.faults);
        match self.durability {
            Some(cfg) => sched.enable_durability(cfg),
            None if restarts.is_empty() => {}
            None => {
                let reason = NEEDS_DURABLE_STORE.into();
                return Err(CoreError::Warehouse(WarehouseError::Config { reason }));
            }
        }

        let mut harness = SimHarness::new(&self.net, n + 1);
        let mut sources = build_sources(&base, &scenario.initial, self.indexed_sources, obs)?;
        inject_txns(&mut harness.net, &scenario.txns, source_node);

        harness.drive(|d, net| {
            if let Some(arm) = serve.as_mut() {
                arm.pump(Some(d.at), truth.deliveries().len())?;
            }
            if d.to != WAREHOUSE_NODE {
                return dispatch_to_source(&mut sources, d, net);
            }
            if matches!(d.msg, Message::Restart) {
                // Recover instead of dispatching (the scheduler's
                // dispatcher rejects Restart as unexpected).
                return recover(&mut sched, &mut restarts, d.at, net);
            }
            if let Message::Update(u) = &d.msg {
                truth.record_delivery(u.id, d.at, u.delta.clone());
            }
            Ok(sched.on_message(d, net)?)
        })?;
        let log = log.lock().unwrap_or_else(PoisonError::into_inner);
        let serve = serve
            .map(|arm| arm.finish(truth.deliveries().len(), log.order()))
            .transpose()?;

        // One outcome per registry slot, base and derived alike: classify
        // each slot's installs against the truth of the slot's view.
        let reg = sched.views();
        let mut views: Vec<ViewOutcome> = Vec::with_capacity(slots.len());
        for (id, slot) in reg.ids().into_iter().zip(slots) {
            let installs = log.installs(id.index()).to_vec();
            let bag = reg.view_bag(id)?;
            let consistency = self
                .check_consistency
                .then(|| classify(&truth, &slot, &installs, bag));
            views.push(ViewOutcome {
                name: reg.name(id)?.to_string(),
                parent: reg.parent_of(id)?.map(ViewId::index),
                policy: reg.policy(id)?,
                view: bag.to_bag(),
                installs,
                metrics: reg.metrics(id)?.clone(),
                consistency,
                slot,
            });
        }

        // A derived slot consumes its parent's sets by construction:
        // mutual consistency compares the base slots.
        let mutual = self.check_consistency.then(|| {
            let logs: Vec<ViewLog<'_>> = views
                .iter()
                .filter(|o| o.parent.is_none())
                .map(|o| ViewLog {
                    name: &o.name,
                    lo: o.slot.lo,
                    hi: o.slot.hi(),
                    installs: &o.installs,
                })
                .collect();
            mutual_consistency(&logs)
        });

        let transport_quiescent = harness.transport_quiescent();

        Ok(MultiViewReport {
            views,
            cascade: sched.views().cascade_stats(),
            scheduler_metrics: sched.metrics().clone(),
            recovery: sched.recovery_stats(),
            shard_stats: self.map.as_ref().map(|_| sched.stats().clone()),
            wal_bytes_written: sched
                .durable_stats()
                .map(|s| s.wal_bytes_written)
                .unwrap_or(0),
            checkpoints_taken: sched
                .durable_stats()
                .map(|s| s.checkpoints_taken)
                .unwrap_or(0),
            checkpoint_copied_tuples: sched.checkpoint_copied_tuples(),
            mutual,
            serve,
            net: harness.net.stats().clone(),
            quiescent: sched.is_quiescent() && transport_quiescent,
            end_time: harness.net.now(),
            events: harness.events,
            trace: harness.net.trace().events().to_vec(),
            truth,
        })
    }
}

/// The restart times of the warehouse's state-crash windows — what the
/// drive loop matches each warehouse `Restart` against.
fn warehouse_restarts(faults: &FaultPlan) -> Vec<Time> {
    let windows = faults.state_crashes().iter();
    let ours = windows.filter(|c| c.node == WAREHOUSE_NODE);
    ours.map(|c| c.up_at).collect()
}

/// Route one warehouse `Restart` delivered at `at`. The end of a
/// state-crash window: volatile scheduler state is gone and the durable
/// store is not — recover. Any other restart (a plain crash's transport
/// resync) lost nothing.
fn recover(
    sched: &mut MaintenanceScheduler,
    restarts: &mut Vec<Time>,
    at: Time,
    net: &mut dyn NetHandle<Message>,
) -> Result<(), CoreError> {
    if let Some(pos) = restarts.iter().position(|&up_at| up_at == at) {
        restarts.swap_remove(pos);
        sched.crash_and_recover(net)?;
    }
    Ok(())
}

impl From<MvError> for CoreError {
    fn from(e: MvError) -> Self {
        match e {
            MvError::Relational(e) => CoreError::Relational(e),
            MvError::Warehouse(e) => CoreError::Warehouse(e),
            other => CoreError::Multi(other.to_string()),
        }
    }
}

/// One registry slot's end-of-run state — a base view or a derived one,
/// reported, graded and audited alike.
#[derive(Clone, Debug)]
pub struct ViewOutcome {
    /// Display name from the spec.
    pub name: String,
    /// What the slot evaluates to in the run's
    /// [`truth`](MultiViewReport::truth): its base ancestor's span, then
    /// the operator chain down to it (none for a base view).
    pub slot: SlotView,
    /// The parent slot of a derived view (`None` for a base view).
    pub parent: Option<usize>,
    /// The view's maintenance cadence (a derived view installs at every
    /// parent install: `Sweep`).
    pub policy: ViewPolicy,
    /// Final materialized contents.
    pub view: Bag,
    /// Every install, in order, consumed ids in **global** chain
    /// coordinates; a derived view's mirror its parent's 1:1.
    pub installs: Vec<InstallEvent>,
    /// Per-view counters (installs, staleness histogram, …).
    pub metrics: PolicyMetrics,
    /// Consistency classification against the slot's ground truth (when
    /// checking was enabled).
    pub consistency: Option<ConsistencyReport>,
}

/// Everything observable from one multi-view run.
#[derive(Clone, Debug)]
pub struct MultiViewReport {
    /// One outcome per registry slot, in slot order: the base views in
    /// registration order, then the derived ones. Derived views are fed
    /// locally by the cascade, never by source round-trips, so they
    /// appear nowhere in the message accounting.
    pub views: Vec<ViewOutcome>,
    /// Cascade counters: child installs, memoized sibling derivations,
    /// and fresh linear evaluations.
    pub cascade: CascadeStats,
    /// Aggregate scheduler counters (updates, queries, answers,
    /// compensations; installs are per view).
    pub scheduler_metrics: PolicyMetrics,
    /// Accumulated crash-recovery statistics (zeros when durability was
    /// off or no state crash fired).
    pub recovery: RecoveryStats,
    /// Sharding counters — lane concurrency, escalations (`None` without
    /// a partitioner).
    pub shard_stats: Option<ShardStats>,
    /// Total modeled WAL bytes appended over the run (0 with durability
    /// off).
    pub wal_bytes_written: u64,
    /// Durable checkpoints taken over the run (0 with durability off).
    pub checkpoints_taken: u64,
    /// View tuples copied taking those checkpoints — 0: a checkpoint
    /// holds structurally shared handles onto the live views.
    pub checkpoint_copied_tuples: u64,
    /// Cross-view mutual consistency (when checking was enabled).
    pub mutual: Option<MutualReport>,
    /// What the readers observed — `Some` iff the run served
    /// ([`MultiViewExperiment::reads`]). Reads are answered
    /// warehouse-locally from immutable epochs, so every other field of
    /// this report is identical to the same run without them.
    pub serve: Option<ServeOutcome>,
    /// Network-level accounting.
    pub net: NetStats,
    /// Scheduler and transport both drained at the end of the run.
    pub quiescent: bool,
    /// Simulation time at the end of the run (µs).
    pub end_time: Time,
    /// Deliveries processed.
    pub events: u64,
    /// Network trace (when tracing was enabled).
    pub trace: Vec<TraceEvent>,
    /// What the warehouse was delivered: every update once, in delivery
    /// order, over the base chain's initial relations — the ground truth
    /// every view's classification and every oracle audit reads.
    pub truth: Recorder,
}

/// Every policy's query/answer labels: sweep hops, ECA's queries and
/// Recompute's dumps. A scheduler run sends only the first two.
const QUERY_LABELS: [&str; 6] = [
    "query",
    "answer",
    "eca_query",
    "eca_answer",
    "dump_query",
    "dump_answer",
];

/// `messages` per update (0 for a run that received none).
fn per_update(messages: u64, updates: u64) -> f64 {
    if updates == 0 {
        return 0.0;
    }
    messages as f64 / updates as f64
}

impl MultiViewReport {
    /// The report of a run with one slot, `view`, maintained by a policy
    /// whose counters are `metrics`, on `harness` once it drained.
    pub(crate) fn one_slot(
        view: ViewOutcome,
        metrics: PolicyMetrics,
        harness: &SimHarness,
        quiescent: bool,
        truth: Recorder,
    ) -> MultiViewReport {
        MultiViewReport {
            views: vec![view],
            cascade: CascadeStats::default(),
            scheduler_metrics: metrics,
            recovery: RecoveryStats::default(),
            shard_stats: None,
            wal_bytes_written: 0,
            checkpoints_taken: 0,
            checkpoint_copied_tuples: 0,
            mutual: None,
            serve: None,
            net: harness.net.stats().clone(),
            quiescent,
            end_time: harness.net.now(),
            events: harness.events,
            trace: harness.net.trace().events().to_vec(),
            truth,
        }
    }

    /// Query/answer messages in `net`, per label as `count` sees it: on
    /// the wire ([`NetStats::label`]) or logically
    /// ([`NetStats::label_logical`]: each once at send time, however often
    /// the fault layer and the transport made the wire repeat it).
    fn count_queries(&self, count: fn(&NetStats, &str) -> LinkStats) -> u64 {
        QUERY_LABELS
            .iter()
            .map(|l| count(&self.net, l).messages)
            .sum()
    }

    /// Query/answer round-trip messages (excludes the update stream).
    pub fn query_messages(&self) -> u64 {
        self.count_queries(NetStats::label)
    }

    /// Query/answer messages per warehouse-received update — Table 1's
    /// column, and E14's: `2(n−1)` for SWEEP whatever the view count.
    pub fn messages_per_update(&self) -> f64 {
        per_update(
            self.query_messages(),
            self.scheduler_metrics.updates_received,
        )
    }

    /// Query/answer messages counted once at send time — under faults the
    /// number the paper's `2(n−1)` claim (E6) is about.
    pub fn logical_query_messages(&self) -> u64 {
        self.count_queries(NetStats::label_logical)
    }

    /// Logical query/answer messages per update.
    pub fn logical_messages_per_update(&self) -> f64 {
        let updates = self.scheduler_metrics.updates_received;
        per_update(self.logical_query_messages(), updates)
    }

    /// Bytes the reliability transport added to the wire: retransmitted
    /// frames plus ack/resync control traffic. Zero when the transport is
    /// off or the network is clean enough to never retransmit.
    pub fn transport_overhead_bytes(&self) -> u64 {
        self.net.retransmitted().bytes
            + ["ack", "resync", "resync_ack"]
                .iter()
                .map(|l| self.net.label(l).bytes)
                .sum::<u64>()
    }

    /// Warehouse delivery log `(update, delivery time)` in delivery order.
    pub fn delivery_log(&self) -> Vec<(UpdateId, Time)> {
        self.truth.delivery_log()
    }

    /// How far `view` trails the delivered updates over time (the §3
    /// "trailing" phenomenon, quantified): deliveries minus the updates
    /// its installs consumed — the view's lag when it spans every source.
    pub fn lag_series(&self, view: &ViewOutcome) -> LagSeries {
        LagSeries::new(&self.delivery_log(), &view.installs)
    }

    /// Makespan of the maintenance work (µs): last install time minus
    /// first transaction arrival — the virtual-time quantity E18's
    /// speedup gate divides.
    pub fn makespan(&self) -> Time {
        let first = self.truth.deliveries().iter().map(|d| d.at).min();
        let installs = self.views.iter().flat_map(|v| v.installs.iter());
        match (first, installs.map(|r| r.at).max()) {
            (Some(f), Some(l)) if l > f => l - f,
            _ => 0,
        }
    }

    /// Install fingerprint: per view, each install's consumed-update set
    /// and delta, in install order — the installs but for their times
    /// (what the conformance suites compare).
    pub fn install_fingerprint(&self) -> Vec<Vec<(Vec<UpdateId>, Arc<Bag>)>> {
        let installs = |v: &ViewOutcome| {
            let install = |r: &InstallEvent| (r.consumed.clone(), Arc::clone(&r.delta));
            v.installs.iter().map(install).collect()
        };
        self.views.iter().map(installs).collect()
    }

    /// Fraction of linear child derivations served from the shared
    /// sibling memo rather than freshly evaluated (the E20 sweep-sharing
    /// ratio); 0 when no linear derivation ran.
    pub fn sharing_ratio(&self) -> f64 {
        let total = self.cascade.shared_derivations + self.cascade.linear_evals;
        if total == 0 {
            return 0.0;
        }
        self.cascade.shared_derivations as f64 / total as f64
    }

    /// The weakest per-view consistency level (None when checking was
    /// off). The run is as good as its worst view.
    pub fn min_consistency(&self) -> Option<ConsistencyLevel> {
        self.views
            .iter()
            .map(|v| v.consistency.as_ref().map(|c| c.level))
            .collect::<Option<Vec<_>>>()
            .and_then(|levels| levels.into_iter().min())
    }

    /// p-th percentile staleness across *all* views' installs (µs);
    /// `None` when no view installed anything.
    pub fn staleness_percentile(&self, p: f64) -> Option<Time> {
        let mut merged = dw_obs::Histogram::new();
        for v in &self.views {
            merged.merge(v.metrics.staleness_histogram());
        }
        merged.percentile(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dw_relational::{AggFn, AggregateSpec, CmpOp, Value};
    use dw_simnet::LatencyModel;
    use dw_workload::{DerivedOp, DerivedSpec, MultiViewConfig, StreamConfig, ViewSpec};

    fn config(n_views: usize, seed: u64) -> MultiViewConfig {
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
    }

    fn config_with_derived(n_views: usize, n_derived: usize, seed: u64) -> MultiViewConfig {
        MultiViewConfig {
            n_derived,
            derived_seed: seed ^ 0xD0D0,
            ..config(n_views, seed)
        }
    }

    #[test]
    fn every_view_converges_and_mutual_holds() {
        let scenario = config(4, 1).generate().unwrap();
        let report = MultiViewExperiment::new(scenario).run().unwrap();
        assert!(report.quiescent);
        assert_eq!(report.views.len(), 4);
        for v in &report.views {
            let c = v.consistency.as_ref().unwrap();
            assert!(
                c.level >= ConsistencyLevel::Convergent,
                "view '{}' classified {}: {}",
                v.name,
                c.level,
                c.detail
            );
        }
        let mutual = report.mutual.unwrap();
        assert!(mutual.final_agreement, "{}", mutual.detail);
    }

    #[test]
    fn sweep_cadence_views_are_complete() {
        // Pure-SWEEP full-span views walk every delivered state.
        let mut cfg = config(3, 2);
        cfg.full_span = true;
        let scenario = cfg.generate().unwrap();
        let report = MultiViewExperiment::new(scenario).run().unwrap();
        for v in &report.views {
            if v.policy == ViewPolicy::Sweep {
                assert_eq!(
                    v.consistency.as_ref().unwrap().level,
                    ConsistencyLevel::Complete,
                    "view '{}'",
                    v.name
                );
            }
        }
    }

    #[test]
    fn shared_cost_is_view_count_independent() {
        for views in [1usize, 3, 6] {
            let mut cfg = config(views, 3);
            cfg.full_span = true;
            let report = MultiViewExperiment::new(cfg.generate().unwrap())
                .run()
                .unwrap();
            // 4 sources → 2(n−1) = 6 per update, whatever `views` is.
            assert!(
                (report.messages_per_update() - 6.0).abs() < 1e-9,
                "{views} views: {}",
                report.messages_per_update()
            );
        }
    }

    #[test]
    fn naive_cost_scales_with_view_count() {
        // The baseline the shared sweep is measured against: each view
        // maintained alone, by a warehouse of its own.
        let mut cfg = config(3, 4);
        cfg.full_span = true;
        let scenario = cfg.generate().unwrap();
        let shared = MultiViewExperiment::new(scenario.clone()).run().unwrap();
        assert!((shared.messages_per_update() - 6.0).abs() < 1e-9);
        let mut per_view_messages = 0;
        for (spec, s) in scenario.views.iter().zip(&shared.views) {
            let mut alone = scenario.clone();
            alone.views = vec![spec.clone()];
            let alone = MultiViewExperiment::new(alone).run().unwrap();
            per_view_messages += alone.query_messages();
            // Identical final contents per view.
            assert_eq!(s.view, alone.views[0].view, "view '{}'", s.name);
        }
        let updates = shared.scheduler_metrics.updates_received;
        assert_eq!(per_view_messages, 18 * updates);
    }

    #[test]
    fn jittered_links_still_converge() {
        let scenario = config(5, 5).generate().unwrap();
        let report = MultiViewExperiment::new(scenario)
            .latency(LatencyModel::Jittered {
                base: 800,
                jitter: 600,
            })
            .seed(99)
            .run()
            .unwrap();
        assert!(report.quiescent);
        assert!(report.min_consistency().unwrap() >= ConsistencyLevel::Convergent);
    }

    #[test]
    fn deterministic_replay() {
        let r1 = MultiViewExperiment::new(config(4, 6).generate().unwrap())
            .seed(7)
            .run()
            .unwrap();
        let r2 = MultiViewExperiment::new(config(4, 6).generate().unwrap())
            .seed(7)
            .run()
            .unwrap();
        assert_eq!(r1.events, r2.events);
        assert_eq!(r1.end_time, r2.end_time);
        for (a, b) in r1.views.iter().zip(r2.views.iter()) {
            assert_eq!(a.view, b.view);
        }
    }

    #[test]
    fn transport_auto_resolves_against_the_final_latency() {
        // The RTO must derive from the 50 ms links whichever setter is
        // called first — from the 1 ms default it fires long before any
        // ack can arrive and floods the wire with retransmissions.
        let slow = LatencyModel::Constant(50_000);
        let exp = || MultiViewExperiment::new(config(2, 6).generate().unwrap());
        let after = exp().latency(slow.clone()).transport_auto().run().unwrap();
        let before = exp().transport_auto().latency(slow).run().unwrap();
        assert!(after.quiescent && before.quiescent);
        assert_eq!(before.events, after.events);
        assert_eq!(before.end_time, after.end_time);
        assert_eq!(before.net.total(), after.net.total());
        assert_eq!(after.net.retransmitted().messages, 0, "fault-free run");
    }

    #[test]
    fn empty_view_set_drains_harmlessly() {
        let mut scenario = config(1, 8).generate().unwrap();
        scenario.views.clear();
        let report = MultiViewExperiment::new(scenario).run().unwrap();
        assert!(report.quiescent);
        assert_eq!(report.query_messages(), 0);
        assert_eq!(report.messages_per_update(), 0.0);
    }

    /// The derived slots of `report`, each asserted classified at least
    /// `Strong`: every install the truth of its consumed set, consumed in
    /// per-source prefix order, and the final contents the truth's.
    fn strong_derived(report: &MultiViewReport) -> Vec<&ViewOutcome> {
        let derived: Vec<&ViewOutcome> =
            report.views.iter().filter(|v| v.parent.is_some()).collect();
        for d in &derived {
            let c = d.consistency.as_ref().expect("checking on");
            assert!(
                c.level >= ConsistencyLevel::Strong,
                "derived '{}': {}",
                d.name,
                c.detail
            );
        }
        derived
    }

    #[test]
    fn derived_views_track_their_oracle_at_every_epoch() {
        for seed in [11u64, 12, 13] {
            let scenario = config_with_derived(3, 4, seed).generate().unwrap();
            let (n_base, n_derived) = (scenario.views.len(), scenario.derived.len());
            let report = MultiViewExperiment::new(scenario).run().unwrap();
            assert!(report.quiescent);
            assert_eq!(report.views.len(), n_base + n_derived);
            let derived = strong_derived(&report);
            assert_eq!(derived.len(), n_derived);
            for d in derived {
                let checked = d.consistency.as_ref().unwrap().installs_checked;
                assert!(checked > 0, "derived '{}' never audited", d.name);
                assert!(d.parent.is_some_and(|p| p < n_base + n_derived));
            }
            assert!(report.cascade.child_installs > 0);
        }
    }

    #[test]
    fn a_derived_slot_is_graded_like_its_parent() {
        // A SWEEP parent walks every delivered state, so its σ and Σ
        // children do too (complete); a batch-3 parent's children walk
        // its meaningful states (strong).
        let mut scenario = config(1, 17).generate().unwrap();
        scenario.views = vec![
            ViewSpec::full("sweep", 4),
            ViewSpec {
                policy: ViewPolicy::Deferred { batch: 3 },
                ..ViewSpec::full("batched", 4)
            },
        ];
        let child = |name: &str, parent: &str, op: DerivedOp| DerivedSpec {
            name: name.into(),
            parent: parent.into(),
            op,
        };
        let select = DerivedOp::Select {
            selects: vec![(0, CmpOp::Ge, Value::Int(2))],
            projection: None,
        };
        let count = DerivedOp::Aggregate(AggregateSpec {
            group_by: vec![0],
            aggs: vec![AggFn::CountRows],
        });
        scenario.derived = vec![
            child("sweep-hot", "sweep", select.clone()),
            child("sweep-counts", "sweep", count.clone()),
            child("batched-hot", "batched", select),
            child("batched-counts", "batched", count),
        ];
        let report = MultiViewExperiment::new(scenario).run().unwrap();
        let levels: Vec<(Option<usize>, ConsistencyLevel)> = report
            .views
            .iter()
            .map(|v| (v.parent, v.consistency.as_ref().unwrap().level))
            .collect();
        let (complete, strong) = (ConsistencyLevel::Complete, ConsistencyLevel::Strong);
        let want = [
            (None, complete),
            (None, strong),
            (Some(0), complete),
            (Some(0), complete),
            (Some(1), strong),
            (Some(1), strong),
        ];
        assert_eq!(levels, want);
        assert_eq!(report.min_consistency(), Some(strong));
    }

    #[test]
    fn derived_views_cost_zero_extra_source_messages() {
        // The whole point of the DAG scheduler: children are fed locally
        // from the parent's committed install delta, so the source-side
        // message bill is identical with or without derived views.
        let with = config_with_derived(3, 5, 14).generate().unwrap();
        let mut without = with.clone();
        without.derived.clear();
        let r_with = MultiViewExperiment::new(with).run().unwrap();
        let r_without = MultiViewExperiment::new(without).run().unwrap();
        assert!(r_with.views.len() > r_without.views.len());
        assert_eq!(r_with.query_messages(), r_without.query_messages());
        assert_eq!(
            r_with.messages_per_update(),
            r_without.messages_per_update()
        );
        // Base-view outcomes are untouched by the extra registrations.
        for (a, b) in r_with.views.iter().zip(r_without.views.iter()) {
            assert_eq!(a.view, b.view, "view '{}'", a.name);
        }
    }

    #[test]
    fn derived_epochs_align_with_parent_logs() {
        let scenario = config_with_derived(2, 3, 15).generate().unwrap();
        let report = MultiViewExperiment::new(scenario).run().unwrap();
        for d in &report.views {
            let Some(parent) = d.parent else { continue };
            let parent_installs = &report.views[parent].installs;
            assert_eq!(d.installs.len(), parent_installs.len(), "'{}'", d.name);
            for (mine, theirs) in d.installs.iter().zip(parent_installs.iter()) {
                assert_eq!(mine.consumed, theirs.consumed, "'{}'", d.name);
                assert_eq!(
                    (mine.epoch, mine.at),
                    (theirs.epoch, theirs.at),
                    "'{}'",
                    d.name
                );
            }
        }
    }

    #[test]
    fn derived_survive_crash_recovery_with_oracle_intact() {
        let scenario = config_with_derived(3, 4, 16).generate().unwrap();
        let report = MultiViewExperiment::new(scenario)
            .faults(FaultPlan::default().state_crash(WAREHOUSE_NODE, 3_000, 6_000))
            .transport_auto()
            .durability(2)
            .run()
            .unwrap();
        assert!(report.quiescent);
        assert!(report.recovery.recoveries > 0);
        assert!(!strong_derived(&report).is_empty());
    }

    #[test]
    fn one_record_holds_each_delivery_once_for_every_view() {
        // E14's shape at eight views: the truth records every delivered
        // delta once, however many views read it.
        let stream = StreamConfig {
            n_sources: 4,
            initial_per_source: 20,
            updates: 30,
            mean_gap: 800,
            domain: 10,
            seed: 31,
            ..Default::default()
        };
        let scenario = MultiViewConfig {
            stream,
            n_views: 8,
            view_seed: 0xE14 ^ 8,
            full_span: true,
            n_derived: 0,
            derived_seed: 0,
        }
        .generate()
        .unwrap();
        let report = MultiViewExperiment::new(scenario)
            .latency(LatencyModel::Constant(2_000))
            .run()
            .unwrap();
        let delivered = report.truth.deliveries().len() as u64;
        assert_eq!(delivered, report.scheduler_metrics.updates_received);
        assert_eq!(delivered, 30);
        assert_eq!(report.views.len(), 8);
        assert!(report.min_consistency() >= Some(ConsistencyLevel::Strong));
    }

    #[test]
    fn staleness_percentiles_are_reported() {
        let scenario = config(3, 9).generate().unwrap();
        let report = MultiViewExperiment::new(scenario).run().unwrap();
        let p50 = report.staleness_percentile(50.0).unwrap();
        let p95 = report.staleness_percentile(95.0).unwrap();
        assert!(p50 <= p95);
    }

    #[test]
    fn handwritten_specs_roundtrip() {
        let mut scenario = config(1, 10).generate().unwrap();
        scenario.views = vec![
            ViewSpec::full("all", 4),
            ViewSpec {
                lo: 1,
                hi: 2,
                ..ViewSpec::full("mid", 4)
            },
        ];
        let report = MultiViewExperiment::new(scenario).run().unwrap();
        assert_eq!(report.views[0].name, "all");
        assert_eq!(report.views[1].slot.lo, 1);
        assert!(report.min_consistency().unwrap() >= ConsistencyLevel::Convergent);
    }

    /// The sharded arm: the same harness with a partitioner.
    mod sharded {
        use super::*;
        use dw_workload::{ShardedConfig, ShardedScenario};

        fn sharded(generated: ShardedScenario) -> MultiViewExperiment {
            MultiViewExperiment::new(generated.scenario).shards(generated.map)
        }

        fn shard_stats(report: &MultiViewReport) -> &ShardStats {
            report.shard_stats.as_ref().expect("sharded run")
        }

        /// A small handwritten stack over the generated base views: one σ/Π
        /// child of V0, one Σ/group-by child of V0, and a grandchild σ over
        /// the aggregate.
        fn stack_on_v0() -> Vec<DerivedSpec> {
            vec![
                DerivedSpec {
                    name: "hot".into(),
                    parent: "V0".into(),
                    op: DerivedOp::Select {
                        selects: vec![(0, CmpOp::Ge, Value::Int(1))],
                        projection: None,
                    },
                },
                DerivedSpec {
                    name: "counts".into(),
                    parent: "V0".into(),
                    op: DerivedOp::Aggregate(AggregateSpec {
                        group_by: vec![0],
                        aggs: vec![AggFn::CountRows],
                    }),
                },
                DerivedSpec {
                    name: "busy".into(),
                    parent: "counts".into(),
                    op: DerivedOp::Select {
                        selects: vec![(1, CmpOp::Ge, Value::Int(2))],
                        projection: None,
                    },
                },
            ]
        }

        fn config(shards: usize, seed: u64) -> ShardedConfig {
            ShardedConfig {
                n_sources: 3,
                shards,
                updates: 18,
                mean_gap: 300,
                seed,
                ..Default::default()
            }
        }

        #[test]
        fn sharded_run_converges_with_concurrent_lanes() {
            let report = sharded(config(2, 1).generate().unwrap()).run().unwrap();
            assert!(report.quiescent);
            assert!(
                shard_stats(&report).max_concurrent_lanes >= 2,
                "bursty shard-local load must overlap lanes"
            );
            for v in &report.views {
                let c = v.consistency.as_ref().unwrap();
                assert!(
                    c.level >= ConsistencyLevel::Convergent,
                    "view '{}' classified {}: {}",
                    v.name,
                    c.level,
                    c.detail
                );
            }
            assert!(report.mutual.unwrap().final_agreement);
        }

        #[test]
        fn sharded_matches_unsharded_installs_and_bags() {
            let generated = config(4, 2).generate().unwrap();
            let sharded = sharded(generated.clone()).run().unwrap();
            let flat = MultiViewExperiment::new(generated.scenario).run().unwrap();
            assert!(sharded.quiescent && flat.quiescent);
            assert_eq!(sharded.query_messages(), flat.query_messages());
            for (s, f) in sharded.views.iter().zip(flat.views.iter()) {
                assert_eq!(s.view, f.view, "view '{}'", s.name);
                let fp = |o: &ViewOutcome| -> Vec<_> {
                    let install = |r: &InstallEvent| (r.consumed.clone(), r.delta.clone());
                    o.installs.iter().map(install).collect()
                };
                assert_eq!(fp(s), fp(f), "view '{}'", s.name);
            }
        }

        #[test]
        fn escalations_run_and_still_converge() {
            let mut cfg = config(2, 3);
            cfg.cross_shard_frac = 0.25;
            let report = sharded(cfg.generate().unwrap()).run().unwrap();
            assert!(report.quiescent);
            assert!(shard_stats(&report).escalations > 0);
            for v in &report.views {
                assert!(v.consistency.as_ref().unwrap().level >= ConsistencyLevel::Convergent);
            }
        }

        #[test]
        fn a_state_crash_reseeds_the_lanes_and_changes_nothing() {
            let generated = config(2, 4).generate().unwrap();
            // Anchor the window mid-run; it opens while sweeps overlap.
            let crash_at = generated.scenario.txns[6].at;
            let crash = FaultPlan::none().state_crash(WAREHOUSE_NODE, crash_at, crash_at + 1_200);
            let clean = sharded(generated.clone()).run().unwrap();
            let faulted = sharded(generated)
                .faults(crash)
                .transport_auto()
                .durability(2)
                .run()
                .unwrap();
            assert!(faulted.quiescent);
            assert_eq!(faulted.recovery.recoveries, 1);
            assert!(faulted.recovery.sweeps_reseeded > 0);
            // The fault-free run's bags. The window also swallows update
            // deliveries, and retransmission may permute those across
            // sources — so the install order is held to the run's own
            // arrival order (persisted tickets), one install per update.
            for (f, c) in faulted.views.iter().zip(clean.views.iter()) {
                assert_eq!(f.view, c.view);
            }
            let arrived = faulted.delivery_log().into_iter().map(|(id, _)| vec![id]);
            let arrival_order: Vec<Vec<UpdateId>> = arrived.collect();
            for installed in faulted.install_fingerprint() {
                let consumed: Vec<_> = installed.into_iter().map(|(ids, _)| ids).collect();
                assert_eq!(consumed, arrival_order);
            }
        }

        #[test]
        fn sharded_derived_match_flat_derived_and_oracle() {
            let mut generated = config(3, 5).generate().unwrap();
            generated.scenario.derived = stack_on_v0();
            let sharded = sharded(generated.clone()).run().unwrap();
            let flat = MultiViewExperiment::new(generated.scenario).run().unwrap();
            assert!(sharded.quiescent && flat.quiescent);
            assert_eq!(strong_derived(&sharded).len(), 3);
            assert_eq!(strong_derived(&flat).len(), 3);
            // Derived views add no source traffic under either engine.
            assert_eq!(sharded.query_messages(), flat.query_messages());
            assert_eq!(sharded.views.len(), flat.views.len());
            for (s, f) in sharded.views.iter().zip(flat.views.iter()) {
                assert_eq!(s.view, f.view, "view '{}'", s.name);
            }
        }

        #[test]
        fn a_state_crash_keeps_the_derived_oracle_clean() {
            let mut generated = config(2, 4).generate().unwrap();
            generated.scenario.derived = stack_on_v0();
            let crash_at = generated.scenario.txns[6].at;
            let crash = FaultPlan::none().state_crash(WAREHOUSE_NODE, crash_at, crash_at + 1_200);
            let report = sharded(generated)
                .faults(crash)
                .transport_auto()
                .durability(2)
                .run()
                .unwrap();
            assert!(report.quiescent);
            assert_eq!(report.recovery.recoveries, 1);
            assert_eq!(strong_derived(&report).len(), 3);
        }

        #[test]
        fn deterministic_replay() {
            let r1 = sharded(config(2, 6).generate().unwrap())
                .seed(7)
                .run()
                .unwrap();
            let r2 = sharded(config(2, 6).generate().unwrap())
                .seed(7)
                .run()
                .unwrap();
            assert_eq!(r1.events, r2.events);
            assert_eq!(r1.end_time, r2.end_time);
            assert_eq!(r1.install_fingerprint(), r2.install_fingerprint());
        }

        #[test]
        fn makespan_shrinks_with_shards() {
            // Same logical load at S=1 and S=4: the sharded engine overlaps
            // lanes, so its maintenance makespan must be meaningfully
            // shorter. (E18 gates the precise speedup; this is the smoke
            // version.)
            let mk = |shards: usize| {
                let mut cfg = config(shards, 8);
                cfg.shards = shards;
                cfg.updates = 16;
                cfg.mean_gap = 200;
                sharded(cfg.generate().unwrap()).run().unwrap().makespan()
            };
            let m1 = mk(1);
            let m4 = mk(4);
            assert!(
                (m4 as f64) < 0.8 * m1 as f64,
                "S=4 makespan {m4} not meaningfully below S=1 {m1}"
            );
        }
    }
}
