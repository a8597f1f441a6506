//! The lane-based maintenance scheduler: one sweep state machine, any
//! number of sweeps in flight, one install order.
//!
//! The sweep itself — two legs over the union of the affected spans,
//! compensation once per hop on the shared partial, per-view snapshots at
//! the span endpoints, pivot-merge and σ/Π at the warehouse — is laid out
//! in the [crate docs](crate). Its message cost is at most `R − L ≤ n−1`
//! queries (plus answers) per update — `≤ 2(n−1)` messages **regardless
//! of the number of views** (E14 measures it against `V` one-view
//! warehouses, the `V·2(n−1)` of maintaining each view alone).
//!
//! ## Lanes and groups
//!
//! In-flight sweeps live in **lanes**, and a lane claims a **band
//! mask**. Without a [`ShardMap`] there is one band: one sweep at a
//! time — the paper's serial SWEEP. With a map
//! ([`MaintenanceScheduler::with_shards`]) every attribute *value* is
//! banded into one of `S` shards. A tuple is **pure** in shard `s` when
//! every one of its values lands in `s`; pure tuples of different shards
//! can never join (equality joins compare values, and the bands are
//! disjoint).
//!
//! Impure tuples (values straddling bands) bridge their bands, so the
//! bands are kept in **groups**, a union-find. Every individually-impure
//! resident tuple (in the initial data, or installed later by a finished
//! sweep) unions the bands it straddles. An update's mask is the union
//! of the *current* groups of every band its delta touches (an empty
//! delta rides band 0), and one rule decides everything:
//!
//! > two sweeps may overlap iff their masks are disjoint.
//!
//! The queue scan (`plan_scan`) applies it in one arrival-order pass
//! over the queue: an update starts iff its mask misses everything
//! claimed so far, and claims its mask either way. Why that is sound:
//!
//! 1. *A lane's partial stays inside its mask.* The delta's values lie
//!    in the mask's bands, and groups are closed under resident impure
//!    tuples, so whatever the partial joins at a source lies there too
//!    (a not-yet-installed impure tuple it meets there is still queued,
//!    and the hop's compensation takes it back out).
//! 2. *Disjoint masks ⇒ disjoint data.* Neither sweep's queries can see
//!    the other's delta, and their compensation against each other is
//!    empty — which is also why the sources need not know the map
//!    exists: a lane's query is an ordinary query on the full relation.
//! 3. *Overlapping masks ⇒ strict arrival order.* The later update stays
//!    queued until the earlier one has finished, and the earlier one's
//!    hops compensate for it: plain SWEEP, confined to those bands.
//!
//! Same-group FIFO, "a delta across groups waits for, and holds back,
//! the groups it overlaps" and "nothing overtakes an earlier update it
//! overlaps" are all that one test; a delta touching every group is the
//! classic stop-the-world SWEEP as the special case it is.
//!
//! All lanes share one [`EngineCore`] — one FIFO update queue, one qid
//! space, one metrics block — and every hop compensates against the
//! *full* queue: queued updates outside the lane's mask join its
//! `TempView` to an empty error term, so the subtraction is a no-op for
//! them and exact for overlapping interferers. The per-update install
//! deltas are therefore *identical* whatever the number of bands —
//! concurrency changes when answers arrive, never what they add up to.
//!
//! ## One install order
//!
//! Lanes finish out of arrival order; installs must not. Every finished
//! sweep leaves through an [`InstallSequencer`] ticket and is buffered
//! until every earlier ticket has released. The ticket is issued the
//! moment the update arrives, so the install order is arrival order for
//! any number of bands (the conformance suites hold no map and
//! S ∈ {1, 2, 3, 4} to byte equality on this).
//!
//! The sequencer is also where each view's [`ViewPolicy`] cadence holds
//! its batch — the same hold a global transaction uses. `Sweep` installs
//! every update as it releases (complete consistency); `Deferred { batch }`
//! once the view has consumed `batch` updates since its last install,
//! `batch: 0` only at drain (strong consistency — consumed sets grow by
//! whole delivery-order batches). Whatever a cadence still holds when the
//! scheduler goes quiescent is flushed in the same message handling, one
//! `Flush` record per view, so quiescent still means installed.
//!
//! ## Cross-update batching
//!
//! With [`EngineOptions::batch`] ≠ 1: when the sweep for `ΔR_j` starts,
//! up to `batch − 1` (`0`: any number of) further queued updates *from
//! the same source* are
//! folded into it Nested-SWEEP-style — their deltas merge into one
//! composite seed, the whole batch pays one `2(n−1)`-message sweep, and
//! every affected view consumes all k updates in one delta. Message cost
//! per update falls toward `2(n−1)/k` under bursty arrivals (experiment
//! E15); installs consume whole per-source delivery-order batches, so
//! consistency is strong rather than complete.
//!
//! The fold rule: the task for update `u` with mask `m` takes `u`'s
//! same-source successors `u.seq + 1, u.seq + 2, …` while each is still
//! queued and its own mask is ⊆ `m`, and stops at the first that is not.
//! With one band every update fits — flat batching. Sound under a
//! [`ShardMap`] because (1) a mask inside `m` is disjoint from every
//! concurrent lane's, so no lane needed the folded update for
//! compensation; (2) the composite delta stays inside `m`, and the folded
//! deltas' impure tuples union their bands at the same commit; (3) a
//! same-source update is never skipped — one waiting on another mask, or
//! already in another lane, ends the fold — so every install consumes a
//! per-source run of consecutive updates: a source state. The folded
//! updates' own tickets release empty.
//!
//! ## Figure 4's walk, the short-circuit, pipelining, global transactions
//!
//! SWEEP's §5.3 variants and §2 hold are options of the same lanes:
//!
//! * [`EngineOptions::sequential`]: one leg (left, then right) wherever
//!   it passes through every task view's span — each starts at the span
//!   start or ends at `j`. From either end of the span one leg is all
//!   there is, whatever the option.
//! * [`EngineOptions::short_circuit_empty`]: an empty seed sends no
//!   query, and a one-leg walk stops once its partial empties — views it
//!   had not reached take the empty delta.
//! * [`EngineOptions::window`] `k` lets `k` sweeps share a band (the rule
//!   above is `k = 1`); a hop at `j` then also compensates for the tasks
//!   from `j` that left the queue with a later ticket and an overlapping
//!   mask — formed, in flight, or committed but unreleased (checkpointed,
//!   and rebuilt by replay).
//! * A global-transaction part always takes a ticket; the
//!   [`InstallSequencer`] validates its tag and holds releases until
//!   every open transaction is whole.
//!
//! ## Nesting: Figure 6
//!
//! Nested SWEEP differs from SWEEP in one rule: after a hop's one
//! compensation (queue plus `later`), a lane below its
//! [`EngineOptions::depth`] bound (`0` = none, `1` = SWEEP) may **absorb**
//! the queued `ΔR_j` into a child [`SweepRun::sequential`] over the
//! segment the hop covered, which folds into the frame below
//! ([`SweepRun::fold`]) once covered. Child hops follow the same rule.
//!
//! * **Where:** only in a one-leg walk (a child folds into one partial).
//!   In two legs or at the bound the hop stays SWEEP-style, counting a
//!   [`PolicyMetrics::depth_bound_hits`] if a `ΔR_j` is queued.
//! * **What:** the queued `j`-updates in arrival order while each mask is
//!   ⊆ the lane's — never skipping one — if `j` feeds exactly the lane's
//!   views; never past a `j`-update held unreleased under a later ticket
//!   (installs consume per-source prefixes), and nothing while another
//!   formed or in-flight task overlaps the lane (its compensation must
//!   still see the update; vacuous at window 1). Snapshots and the
//!   short-circuit read the bottom frame, after every child has folded.
//! * **Install and durability:** absorbed ids join the lane's consumed
//!   set and install under its ticket; their own tickets release empty at
//!   the commit. Durably they stay queued until the lane's `TaskCommit`,
//!   which names them: a checkpoint image puts them back in the queue, and
//!   the commit, live or replayed, takes them out — so a crash re-seeds
//!   the task as it was formed. Consumed sets then depend on timing
//!   (dovetailing): strong consistency, not complete.
//!
//! ## Crashes
//!
//! One crash, one recovery, for every configuration.
//! [`MaintenanceScheduler::enable_durability`] journals what replay
//! needs — an arrival with its ticket, a formed task, a commit, a flush
//! at drain — and checkpoints every few commits, lanes in flight or
//! not: durably, an in-flight lane *is* its still-pending task.
//! [`MaintenanceScheduler::crash_and_recover`] restores the image,
//! replays the log through the live commit path, and lets the ordinary
//! `pump` re-seed every task without a commit record, in whatever order
//! the mask rule allows; answers to the dead incarnation's queries are
//! known by their qid ([`EngineCore::is_current`]) and dropped. Off by
//! default — with durability disabled the wire behavior and installs
//! are byte-identical to the pre-recovery engine.
//!
//! ## Refused combinations
//!
//! One: a state crash without a durable store, refused typed by
//! [`MaintenanceScheduler::crash_and_recover`] (table in DESIGN.md). The
//! constructor refuses none of its arguments. `0` is no bound for
//! `batch`, `window` and `depth` alike, normalized once there; and a
//! base chain with a hop that equates nothing composes with a
//! [`ShardMap`]: such a hop joins across bands, so purity confines
//! nothing and every band starts in one group — the one-lane schedule of
//! the flat run.
//!
//! [`ViewPolicy`]: dw_workload::ViewPolicy

use crate::registry::{MvError, SlotImage, ViewId, ViewRegistry};
use dw_engine::{
    DurabilityConfig, DurableStats, DurableStore, EngineCore, EngineOptions, ImageCost,
    InstallSequencer, PendingUpdate, PolicyMetrics, SequencedInstall, SweepCtx, SweepRun,
    UpdateQueue, WalRecord, WarehouseError,
};
use dw_obs::Obs;
use dw_protocol::{Message, SourceUpdate, UpdateId};
use dw_relational::{Bag, JoinSide, PartialDelta, Predicate, RelationalError, ShardMap, ViewDef};
use dw_simnet::{Delivery, NetHandle, Time};
use dw_workload::{DerivedSpec, ViewSpec};
use std::collections::{HashMap, VecDeque};
use std::num::NonZeroUsize;
use std::sync::{Arc, Mutex, PoisonError};

/// How the scheduler turns one update into sweeps: one way. The enum
/// (and [`MaintenanceScheduler::new`]'s second parameter) survives only
/// because the frozen `benchmark/src/round.rs` spells both; nothing reads
/// it. On ROADMAP A2(iii)'s delete list.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SchedulerMode {
    /// One shared sweep over the union of the affected spans; every
    /// affected view reuses the per-hop answers. `≤ 2(n−1)` messages
    /// per update, independent of view count.
    #[default]
    Shared,
}

/// Lane and group counters, kept on top of [`PolicyMetrics`]. Over one
/// group every serviced update counts as `shard_local`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Updates whose delta touched more than one band. Their lane claims
    /// every group those bands belong to.
    pub escalations: u64,
    /// Updates whose delta stayed inside one band (or was empty).
    pub shard_local: u64,
    /// Updates skipped because no registered view referenced their
    /// source (they take no ticket). A skip is not journaled: one a
    /// crash undid is done, and counted, again.
    pub skipped: u64,
    /// High-water mark of concurrently in-flight lanes.
    pub max_concurrent_lanes: usize,
}

/// Lane completions, `(band mask, finish time)`, kept where a caller attaches one.
pub type CompletionLog = Arc<Mutex<Vec<(u64, Time)>>>;

/// One unit of sweep work: the batch of updates it services, the span to
/// cover, the views fed by it, the bands it claims and the ticket its
/// install leaves through. Kept whole — a formed task is journaled
/// verbatim and recovery re-seeds the identical task, so its consumed
/// set and its place in the install order are fixed at formation.
#[derive(Clone)]
struct SweepTask {
    ticket: u64,
    /// The bands this sweep claims while in flight: the union of the
    /// groups (as of formation) of every band its delta touches.
    mask: u64,
    /// Band masks of the delta's individually-impure tuples — installed
    /// residents that union their bands when the lane finishes.
    impure_masks: Vec<u64>,
    /// The updates this sweep folds together, in per-source delivery
    /// order. One entry unless cross-update batching folded more in.
    consumed: Vec<(UpdateId, Time)>,
    /// The updated base relation (chain index).
    j: usize,
    delta: Bag,
    /// Span to sweep: the union of the affected views' spans.
    lo: usize,
    hi: usize,
    views: Vec<ViewId>,
}

/// An in-flight sweep: the task, its per-sweep context (span, pushed
/// σ), its bottom run, the Figure 6 child runs stacked on it (the last
/// has the query in flight) and the updates they absorbed, and per side
/// (`JoinSide as usize`) the per-view partials captured the moment the
/// bottom leg reached the view's span endpoint.
struct Lane {
    task: SweepTask,
    ctx: SweepCtx,
    run: SweepRun,
    children: Vec<SweepRun>,
    absorbed: Vec<PendingUpdate>,
    snaps: [Vec<(ViewId, PartialDelta)>; 2],
}

/// What the scheduler learns about an update some view references the
/// moment it arrives: its install ticket, and how its delta sits in the
/// shard space ([`ShardMap::delta_bands`] — a function of the delta and
/// the map alone, so computed once; both empty without a map).
#[derive(Clone)]
struct Arrival {
    ticket: u64,
    bands: u64,
    impure_masks: Vec<u64>,
}

/// The durable image of the scheduler's volatile state, written whole at
/// each checkpoint — with lanes in flight or without. A lane's leg state
/// is deliberately *absent*: a task leaves the durable pending set only
/// at its commit record, so an in-flight sweep is simply a task recovery
/// finds still pending and runs again.
struct MvCheckpoint {
    epoch: u64,
    queue: UpdateQueue,
    /// Ticket and delta bands of every queued update.
    arrivals: HashMap<UpdateId, Arrival>,
    /// Every formed task without a commit record: the in-flight lanes'
    /// first, then the ones waiting for a lane.
    tasks: VecDeque<SweepTask>,
    /// Committed tasks whose install is not released yet.
    unreleased: Vec<SweepTask>,
    /// Issued and released tickets, and the commits buffered between.
    sequencer: InstallSequencer,
    groups: Vec<u64>,
    slots: Vec<SlotImage>,
    metrics: PolicyMetrics,
}

/// Sweep lifecycle journal entries — one kind per transition replay has
/// to redo. Records are appended *before* the volatile action they
/// describe takes effect (within one message handling, which is the
/// crash atom in the simulator), so the WAL never under-describes the
/// durable past.
enum MvWalRecord {
    /// An update entered the queue, under `ticket` — its place in the
    /// install order (`None`: no view references its source, so it
    /// installs nothing and takes none).
    UpdateQueued {
        update: SourceUpdate,
        at: Time,
        ticket: Option<u64>,
    },
    /// A sweep task was formed: its consumed updates leave the queue and
    /// the task joins the durable pending set.
    TaskFormed { task: SweepTask },
    /// The sweep of the task holding `ticket` finished: every per-view
    /// finalized delta and the consumed updates, exactly as the install
    /// will apply them, atomically. The *only* record that moves durable
    /// state forward — into the sequencer, whence it installs in ticket
    /// order, live and in replay alike.
    TaskCommit {
        at: Time,
        ticket: u64,
        install: SequencedInstall,
    },
    /// The flush at drain released view `view`'s batch from the
    /// sequencer's hold.
    Flush { view: ViewId, at: Time },
}

impl WalRecord for MvWalRecord {
    fn wal_bytes(&self) -> usize {
        const HDR: usize = 16; // record tag + timestamp slot
        HDR + match self {
            MvWalRecord::UpdateQueued { update, .. } => 24 + update.delta.size_bytes(),
            MvWalRecord::TaskFormed { task } => {
                32 + task.delta.size_bytes() + 24 * task.consumed.len() + 8 * task.views.len()
            }
            MvWalRecord::TaskCommit { install, .. } => {
                let per_view = |(_, delta): &(usize, Bag)| {
                    16 + delta.size_bytes() + 24 * install.consumed.len()
                };
                8 + install.deltas.iter().map(per_view).sum::<usize>()
            }
            MvWalRecord::Flush { .. } => 8,
        }
    }
}

/// What the recoveries so far replayed and re-seeded, accumulated.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Completed crash-recovery cycles.
    pub recoveries: u64,
    /// WAL records replayed across all recoveries.
    pub wal_records_replayed: u64,
    /// Modeled WAL bytes replayed across all recoveries.
    pub wal_bytes_replayed: u64,
    /// Sweep tasks found durably pending after replay — aborted in-flight
    /// lanes plus formed tasks that never started, all re-seeded from
    /// scratch.
    pub sweeps_reseeded: u64,
    /// Answers dropped because their qid carries an older incarnation
    /// (responses to queries a dead warehouse sent).
    pub stale_answers_dropped: u64,
}

/// Durability state: the store plus the bookkeeping around it.
struct DurableState {
    cfg: DurabilityConfig,
    store: DurableStore<MvCheckpoint, MvWalRecord>,
    /// Commits since the last checkpoint (cadence counter).
    committed_since_ckpt: usize,
    /// View tuples the images cost so far. `copied`: copy-on-write while
    /// advancing an image in place — the store alone holds it, so this
    /// stays 0 (E17 gates it). `seeded`: the deep copies that start a
    /// lineage — each view's first image and the live views a recovery
    /// rebuilds.
    image_cost: ImageCost,
    /// Per checkpoint taken: did every slot image equal its live view
    /// (contents, install count, log length)? The image-lineage tests
    /// read it.
    #[cfg(test)]
    images_matched_live: Vec<bool>,
}

/// The refusal of a state crash nothing durable survives.
pub const NEEDS_DURABLE_STORE: &str =
    "a warehouse state crash needs a durable store: arm `.durability(k)`";

fn config_error(reason: String) -> MvError {
    MvError::Warehouse(WarehouseError::Config { reason })
}

/// The maintenance scheduler — SWEEP, for one view or many: owns the
/// registry, the update queue, the shard groups and the lane state
/// machine. Speaks the `SweepQuery`/`SweepAnswer` protocol, so the
/// unmodified `dw_source::DataSource` serves it, with or without a
/// [`ShardMap`].
pub struct MaintenanceScheduler {
    core: EngineCore,
    pub(crate) registry: ViewRegistry,
    pub(crate) opts: EngineOptions,
    /// The value-band partitioner; `None` = one group.
    map: Option<ShardMap>,
    /// Per shard band, the band mask of the group it belongs to; a
    /// group's root is its lowest band. One band without a map.
    groups: Vec<u64>,
    /// Ticket and delta bands of every queued update some view
    /// referenced when it arrived.
    arrivals: HashMap<UpdateId, Arrival>,
    /// Formed tasks waiting for their lane: between `form` and `begin`,
    /// and whatever recovery found durably pending.
    pending_tasks: VecDeque<SweepTask>,
    /// In-flight lanes, at most [`EngineOptions::window`] per band. An
    /// answer finds its lane by the qid the lane's run is waiting on.
    lanes: Vec<Lane>,
    /// Committed tasks the sequencer has not released.
    unreleased: Vec<SweepTask>,
    sequencer: InstallSequencer,
    stats: ShardStats,
    completions: Option<CompletionLog>,
    durable: Option<Box<DurableState>>,
    recovery: RecoveryStats,
}

impl MaintenanceScheduler {
    /// New scheduler over a selection-free, identity-projection base
    /// chain, with default options (one group, no batching). The second
    /// parameter is read by nobody: it and [`SchedulerMode`] stay only
    /// because the frozen `benchmark/src/round.rs` spells both (ROADMAP
    /// A2(iii) deletes them).
    pub fn new(base: ViewDef, _: SchedulerMode) -> Result<Self, MvError> {
        Self::with_shards(base, EngineOptions::default(), None)
    }

    /// The general constructor. With `Some(map)` the lanes are the shard
    /// groups of `map`: sweeps over distinct groups run concurrently,
    /// installs still leave in arrival order. `None` is one group. Every
    /// field of `opts` composes with a map, and every base chain: the
    /// constructor refuses none of its arguments.
    pub fn with_shards(
        base: ViewDef,
        opts: EngineOptions,
        map: Option<ShardMap>,
    ) -> Result<Self, MvError> {
        // `0` is no bound for every knob that counts: no band fills, no
        // fold or nest stops short.
        let unbounded = |k: usize| NonZeroUsize::new(k).map_or(usize::MAX, NonZeroUsize::get);
        let opts = EngineOptions {
            batch: unbounded(opts.batch),
            window: unbounded(opts.window),
            depth: unbounded(opts.depth),
            ..opts
        };
        // The purity lemma needs every hop to equate values: a hop that
        // equates nothing is a cross product, which joins across bands,
        // so every update overlaps every other and the bands start as one
        // group.
        let cross = (0..base.num_relations() - 1).any(|k| base.join_cond(k).pairs.is_empty());
        let (bands, all) = map.as_ref().map_or((1, 1), |m| (m.shards(), m.full_mask()));
        Ok(MaintenanceScheduler {
            registry: ViewRegistry::new(base.clone())?,
            core: EngineCore::new(base),
            opts,
            groups: (0..bands)
                .map(|b| if cross { all } else { 1 << b })
                .collect(),
            map,
            arrivals: HashMap::new(),
            pending_tasks: VecDeque::new(),
            lanes: Vec::new(),
            unreleased: Vec::new(),
            sequencer: InstallSequencer::new(),
            stats: ShardStats::default(),
            completions: None,
            durable: None,
            recovery: RecoveryStats::default(),
        })
    }

    /// Fold one base relation's *initial* contents into the shard
    /// groups: every individually-impure tuple unions the bands it
    /// straddles. Call once per relation before traffic starts —
    /// resident impure tuples a lane could join must already have
    /// collapsed their bands into one group, or two lanes would
    /// wrongly run concurrently against shared rows. A no-op without a
    /// [`ShardMap`] (one group already).
    pub fn seed_groups(&mut self, initial: &Bag) {
        for (t, _) in initial.iter() {
            let Some(mask) = self.map.as_ref().map(|m| m.tuple_bands(t)) else {
                return;
            };
            if mask.count_ones() > 1 {
                self.union_mask(mask);
            }
        }
    }

    /// Register a view. `initial` must be the view's correct current
    /// contents — at start-up the span evaluation of the initial base
    /// relations; mid-run, the span evaluation of the sources' current
    /// state, at a quiescent point
    /// ([`MaintenanceScheduler::is_quiescent`]). Anywhere else is refused,
    /// typed: contents taken from the sources already hold the deltas in
    /// flight or queued, which the view would then be handed a second
    /// time. The view participates in every sweep started after
    /// registration. With durability armed the new registry is
    /// checkpointed on the spot: no WAL record names a view, so an older
    /// image would lose this one at the next recovery.
    pub fn register(&mut self, spec: &ViewSpec, initial: Bag) -> Result<ViewId, MvError> {
        if !self.is_quiescent() {
            let (lanes, queued) = (self.lanes.len(), self.core.queue.len());
            let reason = format!(
                "register a swept view at a quiescent point: \
                 {lanes} lane(s) in flight, {queued} update(s) queued"
            );
            return Err(WarehouseError::Precondition { reason }.into());
        }
        let id = self.registry.register(spec, initial);
        self.checkpoint_now();
        id
    }

    /// Register a derived view over an already-registered parent.
    /// Derived views are maintained by the install cascade — fed when
    /// the sequencer releases their parent's install — so they never
    /// join sweeps and never cost source messages. Unlike
    /// [`MaintenanceScheduler::register`] this needs no quiescent point:
    /// the initial contents are evaluated from the parent's current
    /// *bag*, which holds exactly the installs released so far, and the
    /// cascade hands the child every later one — nothing in flight is in
    /// the seed, nothing released is missed.
    pub fn register_derived(&mut self, spec: &DerivedSpec) -> Result<ViewId, MvError> {
        let id = self.registry.register_derived(spec);
        self.checkpoint_now();
        id
    }

    /// Register a batch of derived specs in dependency order (the
    /// registry topologically sorts and rejects cycles and unknown
    /// parents deterministically).
    pub fn register_derived_many(&mut self, specs: &[DerivedSpec]) -> Result<Vec<ViewId>, MvError> {
        // Checkpointed even on a refusal: the specs ahead of the refused
        // one are registered and stay.
        let ids = self.registry.register_derived_many(specs);
        self.checkpoint_now();
        ids
    }

    /// Read access to the registry (per-view bags, metrics, logs).
    pub fn views(&self) -> &ViewRegistry {
        &self.registry
    }

    /// Aggregate engine metrics, shared across all lanes. `installs`
    /// stays zero here — install counts are per view in the registry.
    pub fn metrics(&self) -> &PolicyMetrics {
        &self.core.metrics
    }

    /// Lane and group counters.
    pub fn stats(&self) -> &ShardStats {
        &self.stats
    }

    /// No lane in flight, no formed or queued work, every ticket
    /// released. The batches views' cadences hold are flushed in the
    /// message handling that makes this true, so quiescent ⇒ installed.
    pub fn is_quiescent(&self) -> bool {
        self.lanes.is_empty()
            && self.pending_tasks.is_empty()
            && self.core.queue.is_empty()
            && self.sequencer.is_drained()
    }

    /// The band mask of the group shard `s` currently belongs to.
    #[cfg(test)]
    pub(crate) fn group_mask_of(&self, s: usize) -> u64 {
        self.groups[s]
    }

    /// Does nothing: the warehouse keeps no install history, so there is
    /// no snapshot to switch off. Kept only because the frozen benchmark
    /// calls it; it goes with
    /// `SchedulerMode` in the next benchmark-only change.
    pub fn set_record_snapshots(&mut self, _record: bool) {}

    /// Attach an install publisher (e.g. a `dw-serve` snapshot store's
    /// sink): every committed install of every current and future view
    /// is announced through it when the sequencer releases it — the
    /// published epoch stream is in install-ticket order even though
    /// lanes complete out of order — keyed by the view's registry slot,
    /// and update arrivals are forwarded as delivery notices so the
    /// consumer can account staleness. Crash recovery replays committed
    /// installs through the same handle with their original epochs. A
    /// caller that reads install history attaches an `InstallLog` here.
    pub fn set_install_publisher(&mut self, p: dw_engine::SharedInstallPublisher) {
        self.registry.set_install_publisher(p);
    }

    /// Append every lane completion to `log` (without one, none is kept).
    pub fn record_completions(&mut self, log: CompletionLog) {
        self.completions = Some(log);
    }

    /// Attach an observability recorder: the engine's `engine.sweep` /
    /// `engine.hop` spans, `engine.compensations` counter and
    /// `engine.batch_size` histogram, plus the scheduler's own `mv.*`
    /// events. Per-view staleness histograms live in the registry's
    /// [`PolicyMetrics`].
    pub fn set_observer(&mut self, obs: Obs) {
        self.core.set_observer(obs);
    }

    /// Turn on durable checkpoints + sweep WAL: from here on the sweep
    /// lifecycle is journaled into a [`DurableStore`] — update arrivals
    /// with their tickets, task formation, one atomic commit record per
    /// finished sweep, flushes at drain — and the full volatile image is
    /// checkpointed every few commits. The initial checkpoint, taken
    /// here, captures the current state whatever it is.
    pub fn enable_durability(&mut self, cfg: DurabilityConfig) {
        self.durable = Some(Box::new(DurableState {
            cfg,
            store: DurableStore::new(),
            committed_since_ckpt: 0,
            image_cost: ImageCost::default(),
            #[cfg(test)]
            images_matched_live: Vec::new(),
        }));
        self.checkpoint_now();
    }

    /// View tuples copied copy-on-write advancing checkpoint images so
    /// far (0 with durability off — and 0 with it on: an image is a
    /// lineage only the durable store holds).
    pub fn checkpoint_copied_tuples(&self) -> u64 {
        let copied = self.durable.as_ref().map(|d| d.image_cost.copied);
        copied.unwrap_or(0)
    }

    /// View tuples deep-copied seeding image lineages so far: each
    /// view's first image, and the live views every recovery rebuilds
    /// from the images (0 with durability off).
    #[cfg(test)]
    pub(crate) fn checkpoint_seeded_tuples(&self) -> u64 {
        let seeded = self.durable.as_ref().map(|d| d.image_cost.seeded);
        seeded.unwrap_or(0)
    }

    /// Durable-store write statistics (`None` until durability is
    /// enabled).
    pub fn durable_stats(&self) -> Option<DurableStats> {
        self.durable.as_ref().map(|d| d.store.stats())
    }

    /// Accumulated recovery statistics (zeros until a crash happened).
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery
    }

    /// A warehouse *state crash*: every volatile structure — queue,
    /// formed tasks, in-flight lanes, tickets, groups, view contents,
    /// counters — is lost; only the durable store survives. Rebuild from
    /// the last checkpoint, replay the WAL (a committed sweep re-enters
    /// the sequencer from its logged deltas and installs in ticket order
    /// — no re-querying; a sweep without a commit record is still
    /// durably pending, whether it was in flight or waiting), enter the
    /// next incarnation (sources drop the old one's queries, the
    /// warehouse its answers), persist a fresh checkpoint, and resume
    /// through the ordinary pump, which re-seeds whatever is pending.
    /// Idempotent: recovering twice at the same point replays a WAL the
    /// first recovery already truncated to empty.
    ///
    /// A typed error when durability is not armed — an amnesia crash,
    /// which this scheduler does not survive alone. What was replayed
    /// accumulates in [`MaintenanceScheduler::recovery_stats`].
    pub fn crash_and_recover(&mut self, net: &mut dyn NetHandle<Message>) -> Result<(), MvError> {
        // The store is detached while its log is read back: replay runs
        // the live commit path, and nothing it does there may be
        // journaled or checkpointed a second time.
        let Some(mut durable) = self.durable.take() else {
            return Err(config_error(NEEDS_DURABLE_STORE.into()));
        };
        let replayed = self.replay(&durable.store);
        let records = durable.store.wal().len() as u64;
        let wal_bytes = durable.store.wal_bytes() as u64;
        if let Ok(seeded) = replayed {
            durable.image_cost.seeded += seeded;
        }
        self.durable = Some(durable);
        replayed?;
        // Fence the dead incarnation, then persist the recovered image
        // (which also truncates the replayed WAL — recovery is
        // re-runnable).
        self.core.bump_epoch();
        self.checkpoint_now();
        let reseeded = self.pending_tasks.len() as u64;
        self.recovery.recoveries += 1;
        self.recovery.wal_records_replayed += records;
        self.recovery.wal_bytes_replayed += wal_bytes;
        self.recovery.sweeps_reseeded += reseeded;
        let obs = &self.core.obs;
        obs.add("mv.recovery.replays", 1);
        obs.add("mv.recovery.wal_records", records);
        obs.add("mv.recovery.wal_bytes", wal_bytes);
        obs.add("mv.recovery.sweeps_reseeded", reseeded);
        // Resume: every pending task re-seeds (fresh qids, new epoch) as
        // soon as the bands it claims are free.
        self.pump(net)
    }

    /// Volatile state dies with the crash: the checkpoint image replaces
    /// it wholesale, then the WAL rolls it forward — each record through
    /// the same function its live transition went through. Returns the
    /// view tuples seeded rebuilding the live views from the image.
    fn replay(&mut self, store: &DurableStore<MvCheckpoint, MvWalRecord>) -> Result<u64, MvError> {
        let Some(ckpt) = store.checkpoint_ref() else {
            let what = "durable store holds no checkpoint";
            return Err(MvError::Internal { what });
        };
        self.lanes.clear();
        self.core.queue = ckpt.queue.clone();
        self.core.metrics = ckpt.metrics.clone();
        self.core.epoch = ckpt.epoch;
        self.arrivals = ckpt.arrivals.clone();
        self.pending_tasks = ckpt.tasks.clone();
        self.unreleased = ckpt.unreleased.clone();
        self.sequencer = ckpt.sequencer.clone();
        self.groups = ckpt.groups.clone();
        let seeded = self.registry.restore_slots(&ckpt.slots);
        for rec in store.wal() {
            match rec {
                MvWalRecord::UpdateQueued { update, at, ticket } => {
                    self.sequencer.note_part(update)?;
                    self.admit(update, *ticket);
                    self.core.queue.push(update.clone(), *at);
                }
                MvWalRecord::TaskFormed { task } => {
                    let ids: Vec<UpdateId> = task.consumed.iter().map(|&(id, _)| id).collect();
                    self.core.queue.remove_ids(&ids);
                    self.adopt(task.clone());
                }
                MvWalRecord::TaskCommit {
                    at,
                    ticket,
                    install,
                } => {
                    // Derived children are deliberately absent from the
                    // record: the cascade recomputes them deterministically
                    // from the checkpointed state, so replay re-derives
                    // exactly the installs the dead incarnation made.
                    let holds = |t: &SweepTask| t.ticket == *ticket;
                    let pos = self.pending_tasks.iter().position(holds);
                    let Some(task) = pos.and_then(|pos| self.pending_tasks.remove(pos)) else {
                        let what = "commit record names no pending task";
                        return Err(MvError::Internal { what });
                    };
                    self.commit(task, install.clone());
                    // Only a `Flush` record flushes: a live drain may go
                    // quiescent without a commit (an unreferenced update
                    // dropped, not journaled), so the record says when.
                    self.release(*at)?;
                }
                MvWalRecord::Flush { view, at } => self.flush(view.index(), *at)?,
            }
        }
        Ok(seeded)
    }

    /// Replace the durable image with the current volatile state —
    /// queue, tickets, pending tasks, sequencer, groups and counters
    /// cloned, each view's image taken out of the last checkpoint and
    /// advanced by what the view installed since — and truncate the log
    /// (no-op with durability off). Updates in-flight lanes absorbed are
    /// durably queued still: back where their tickets go.
    fn checkpoint_now(&mut self) {
        let Some(d) = self.durable.as_mut() else {
            return;
        };
        let prev = d.store.take_checkpoint().map(|c| c.slots);
        let (slots, cost) = self.registry.snapshot_slots(prev.unwrap_or_default());
        let mut queue = self.core.queue.clone();
        let ticket = |pu: &PendingUpdate| self.arrivals.get(&pu.update.id).map(|a| a.ticket);
        for pu in self.lanes.iter().flat_map(|l| &l.absorbed) {
            let at = ticket(pu);
            queue.insert_before(pu.clone(), |queued| ticket(queued) > at);
        }
        let in_flight = self.lanes.iter().map(|l| &l.task);
        let image = MvCheckpoint {
            epoch: self.core.epoch,
            queue,
            arrivals: self.arrivals.clone(),
            tasks: in_flight.chain(&self.pending_tasks).cloned().collect(),
            unreleased: self.unreleased.clone(),
            sequencer: self.sequencer.clone(),
            groups: self.groups.clone(),
            slots,
            metrics: self.core.metrics.clone(),
        };
        #[cfg(test)]
        let matched = self.registry.images_match_live(&image.slots);
        if let Some(d) = self.durable.as_mut() {
            d.committed_since_ckpt = 0;
            d.image_cost += cost;
            #[cfg(test)]
            d.images_matched_live.push(matched);
            d.store.checkpoint(image);
        }
    }

    /// Append a WAL record (built only when durability is on).
    fn wal(&mut self, rec: impl FnOnce() -> MvWalRecord) {
        if let Some(d) = self.durable.as_mut() {
            d.store.append(rec());
        }
    }

    /// Handle one warehouse delivery: an update is counted, noted,
    /// queued and scheduled; a sweep answer is counted and absorbed;
    /// anything else is refused.
    pub fn on_message(
        &mut self,
        delivery: Delivery<Message>,
        net: &mut dyn NetHandle<Message>,
    ) -> Result<(), MvError> {
        match delivery.msg {
            Message::Update(u) => {
                self.core.metrics.updates_received += 1;
                self.note_update(&u, delivery.at)?;
                self.core.queue.push(u, delivery.at);
                self.pump(net)
            }
            Message::SweepAnswer(a) => {
                self.core.metrics.answers_received += 1;
                self.on_answer(a.qid, a.partial, net)
            }
            other => Err(WarehouseError::UnexpectedMessage {
                policy: "shared-sweep",
                label: dw_simnet::Payload::label(&other),
            }
            .into()),
        }
    }

    // ---- shard groups ---------------------------------------------------

    /// Merge the groups of every band set in `mask` into one.
    fn union_mask(&mut self, mask: u64) {
        let merged = groups_of(&self.groups, mask);
        for b in band_indices(merged) {
            self.groups[b] = merged;
        }
    }

    // ---- scheduling -----------------------------------------------------

    /// Walk the queue in arrival order and decide what may start now.
    /// One rule (the correctness core — see module docs): an update's
    /// mask is the union of the *current* groups of every band its delta
    /// touches, and it may start iff no band of it is full — carries
    /// [`EngineOptions::window`] lanes, formed tasks or updates this scan
    /// started — and no *earlier* queued update it overlaps is waiting.
    /// A waiting update blocks its mask, so nothing it overlaps overtakes
    /// it: it stays queued, and the lanes it waits for compensate for it.
    ///
    /// The walk stops once every band is blocked — with one group, at
    /// once while its lanes are busy, so a deep backlog costs a kick
    /// nothing.
    ///
    /// Decisions are collected first and executed after (the scan must
    /// not mutate the queue it walks): per update, the mask to form its
    /// task with, or `None` when it took no ticket — no registered view
    /// references its source — and is simply dropped.
    fn plan_scan(&self) -> Vec<(UpdateId, Option<u64>)> {
        let cap = self.opts.window;
        let (mut running, mut full) = (vec![0; self.groups.len()], 0);
        let lanes = self.lanes.iter().map(|l| &l.task);
        for task in lanes.chain(&self.pending_tasks) {
            occupy(&mut running, &mut full, task.mask, cap);
        }
        let every_band = self.map.as_ref().map_or(1, ShardMap::full_mask);
        let (mut waiting, mut actions) = (0, Vec::new());
        for pu in self.core.queue.iter() {
            let blocked = full | waiting;
            if blocked == every_band {
                break;
            }
            let id = pu.update.id;
            let Some(arrival) = self.arrivals.get(&id) else {
                actions.push((id, None));
                continue;
            };
            // An empty delta is vacuously pure; it rides band 0 so it
            // still consumes its ticket.
            let mask = groups_of(&self.groups, arrival.bands.max(1));
            if mask & blocked == 0 {
                actions.push((id, Some(mask)));
                occupy(&mut running, &mut full, mask, cap);
            } else {
                waiting |= mask;
            }
        }
        actions
    }

    /// Start everything the rule allows, then release sequenced
    /// installs. Loops because an inline-completing lane (single-relation
    /// span) frees its bands for the next formed task or queued update
    /// immediately.
    fn pump(&mut self, net: &mut dyn NetHandle<Message>) -> Result<(), MvError> {
        let cap = self.opts.window;
        loop {
            // Formed tasks first, in formation order, each as soon as its
            // bands have room — recovery's durably-pending tasks re-seed
            // this way.
            while let Some(task) = self.pending_tasks.pop_front() {
                let lanes = &self.lanes;
                let on = move |b: usize| lanes.iter().filter(move |l| l.task.mask >> b & 1 == 1);
                if band_indices(task.mask).any(|b| on(b).count() >= cap) {
                    self.pending_tasks.push_front(task);
                    break;
                }
                self.begin(net, task)?;
            }
            let actions = self.plan_scan();
            if actions.is_empty() {
                break;
            }
            for (id, mask) in actions {
                self.form(id, mask)?;
            }
        }
        self.drain_installs(net.now())
    }

    /// Record what an update's arrival fixes (live and in replay): its
    /// ticket, and how its delta sits in the shard space.
    fn admit(&mut self, u: &SourceUpdate, ticket: Option<u64>) {
        let Some(ticket) = ticket else { return };
        self.sequencer.reissue(ticket);
        let map = self.map.as_ref();
        let (bands, impure_masks) = map.map_or_else(Default::default, |m| m.delta_bands(&u.delta));
        let arrival = Arrival {
            ticket,
            bands,
            impure_masks,
        };
        self.arrivals.insert(u.id, arrival);
    }

    /// Take update `id` out of the queue — *before* any hop answer can
    /// compensate, a sweep must never subtract its own delta — and form
    /// its task claiming `mask`: one shared sweep over the union of the
    /// affected spans, folding in up to `batch − 1` of its queued
    /// same-source successors whose own masks lie inside `mask` (the fold
    /// rule — see module docs). `None`: it took no ticket because no view
    /// references its source — drop it.
    fn form(&mut self, id: UpdateId, mask: Option<u64>) -> Result<(), MvError> {
        let Some(PendingUpdate { update, arrived_at }) = self.core.queue.take_id(id) else {
            let what = "planned update left the queue before launch";
            return Err(MvError::Internal { what });
        };
        let (Some(mask), Some(arrival)) = (mask, self.arrivals.remove(&id)) else {
            self.stats.skipped += 1;
            return Ok(());
        };
        if arrival.bands.count_ones() > 1 {
            self.stats.escalations += 1;
            self.core.obs.add("mv.escalations", 1);
        } else {
            self.stats.shard_local += 1;
        }
        let j = id.source;
        let mut task = SweepTask {
            ticket: arrival.ticket,
            mask,
            impure_masks: arrival.impure_masks,
            consumed: vec![(id, arrived_at)],
            j,
            delta: update.delta,
            lo: j,
            hi: j,
            views: self.registry.affected_by(j),
        };
        for &v in &task.views {
            let (lo, hi) = self.registry.span(v)?;
            task.lo = task.lo.min(lo);
            task.hi = task.hi.max(hi);
        }
        let extra = self.opts.batch - 1;
        if extra > 0 {
            let (arrivals, groups) = (&self.arrivals, &self.groups);
            let fits = |pu: &PendingUpdate| {
                let own = arrivals.get(&pu.update.id);
                own.is_some_and(|a| groups_of(groups, a.bands.max(1)) & !mask == 0)
            };
            let (folded, infos) = self.core.fold_same_source(id, extra, fits);
            task.delta.merge(&folded);
            for (id, _) in &infos {
                if let Some(folded) = self.arrivals.get(id) {
                    task.impure_masks.extend(&folded.impure_masks);
                }
            }
            task.consumed.extend(infos);
        }
        self.wal(|| MvWalRecord::TaskFormed { task: task.clone() });
        self.adopt(task);
        Ok(())
    }

    /// A formed task joins the pending set (live and in replay). The
    /// updates cross-update batching folded into it install under its
    /// ticket; their own slots release empty.
    fn adopt(&mut self, task: SweepTask) {
        self.sequencer.reissue(task.ticket);
        for (id, _) in &task.consumed {
            let folded = self.arrivals.remove(id).filter(|a| a.ticket != task.ticket);
            if let Some(folded) = folded {
                self.sequencer.complete(folded.ticket, None);
            }
        }
        self.pending_tasks.push_back(task);
    }

    /// Does one leg serve `task`? It covers `[k, j]` down to the span
    /// start, then `[start, k]` up to the span end: every view that starts
    /// at the span start or ends at `j`.
    fn one_leg(&self, task: &SweepTask) -> Result<bool, MvError> {
        let (j, lo, hi) = (task.j, task.lo, task.hi);
        let mut serves = self.opts.sequential || j == lo || j == hi;
        for &v in &task.views {
            let (v_lo, v_hi) = self.registry.span(v)?;
            serves &= v_lo == lo || v_hi == j;
        }
        Ok(serves)
    }

    /// Seed the walk, snapshot the views the seed already covers, fire
    /// the first queries under the lane's context — for a fresh task and
    /// for one recovery found pending alike. A task that needs no queries
    /// (single-relation span, short-circuited seed) finishes inline.
    fn begin(&mut self, net: &mut dyn NetHandle<Message>, task: SweepTask) -> Result<(), MvError> {
        let j = task.j;
        let mut ctx = self.core.begin_sweep(net.now());
        if self.opts.pushdown {
            ctx.push_preds = self.derive_push_preds(&task)?;
        }
        self.core
            .obs
            .observe("mv.fanout_views", task.views.len() as u64);
        let mut seed = PartialDelta::seed(&self.core.view, j, &task.delta)?;
        // Seed tuples failing every task view's σ over R_j die at every
        // view's finalize; drop them here so they never ride a query.
        if let Some(pred) = ctx.push_pred(j) {
            seed.bag = seed.bag.filter(|t| pred.eval(t));
        }
        let dead = self.opts.short_circuit_empty && seed.bag.is_empty();
        let one_leg = self.one_leg(&task)?;
        let (mut run, sides) = match one_leg {
            true => (SweepRun::sequential(seed, task.lo, task.hi), 1),
            false => (SweepRun::two_legs(seed, task.lo, task.hi), 2),
        };
        let (mut snaps, reg, views) = ([Vec::new(), Vec::new()], &self.registry, &task.views);
        // One leg has one partial; two legs, one per side.
        for side in [JoinSide::Left, JoinSide::Right].into_iter().take(sides) {
            snapshot(reg, views, &mut snaps, one_leg, side, run.leg(side))?;
        }
        if !dead {
            run.advance(&mut self.core, &ctx, net);
        }
        let deepest = &mut self.core.metrics.max_recursion_depth;
        *deepest = (*deepest).max(u64::from(self.opts.depth != 1));
        let lane = Lane {
            task,
            ctx,
            run,
            children: Vec::new(),
            absorbed: Vec::new(),
            snaps,
        };
        if lane.run.is_done() {
            return self.finish(lane, dead, net.now());
        }
        self.lanes.push(lane);
        self.stats.max_concurrent_lanes = self.stats.max_concurrent_lanes.max(self.lanes.len());
        Ok(())
    }

    /// The walk is covered, or `dead` (short-circuited: what it had not
    /// reached is empty). Each view's delta — its one-leg snapshot, or
    /// its two merged on the pivot — goes through its σ/residual/Π, and
    /// the sequencer installs the payload when every earlier ticket has.
    fn finish(&mut self, lane: Lane, dead: bool, now: Time) -> Result<(), MvError> {
        let Lane {
            task,
            ctx,
            run,
            absorbed,
            mut snaps,
            ..
        } = lane;
        let mut deltas = Vec::with_capacity(task.views.len());
        for &v in &task.views {
            let local = &self.registry.runtime(v)?.local;
            let snap_of = |side: usize| snaps[side].iter().position(|(id, _)| *id == v);
            // A covered walk passed through every task view's span, so a
            // miss is a scheduler bug, reported rather than panicked on.
            let delta = match (run.is_sequential(), snap_of(0), snap_of(1)) {
                (true, Some(whole), _) => finalize_for_view(local, snaps[0].swap_remove(whole).1)?,
                (false, Some(left), Some(right)) => {
                    let (left, right) = (&snaps[0][left].1, &snaps[1][right].1);
                    finalize_for_view(local, run.merge(&self.core.view, left, right))?
                }
                _ if dead => Bag::new(),
                _ => {
                    let what = "a sweep missed an affected span endpoint";
                    return Err(MvError::Internal { what });
                }
            };
            deltas.push((v.index(), delta));
        }
        // One atomic commit record carrying every per-view delta: replay
        // either re-applies the whole sweep or none of it, and only a
        // committed task leaves the durable pending set.
        let mut consumed = task.consumed.clone();
        consumed.extend(absorbed.iter().map(|pu| (pu.update.id, pu.arrived_at)));
        let install = SequencedInstall { consumed, deltas };
        self.wal(|| MvWalRecord::TaskCommit {
            at: now,
            ticket: task.ticket,
            install: install.clone(),
        });
        self.core.end_sweep(&ctx, now);
        if let Some(log) = &self.completions {
            (log.lock().unwrap_or_else(PoisonError::into_inner)).push((task.mask, now));
        }
        self.commit(task, install);
        self.drain_installs(now)
    }

    /// A sweep's commit takes effect (live, and again in replay): the
    /// delta's impure tuples are residents now — their bands share rows
    /// and must sweep as one group from here on — and the install enters
    /// the sequencer under its ticket, to land when every earlier ticket
    /// has. Updates the lane absorbed (consumed past the task's own)
    /// leave the queue and their tickets release empty.
    fn commit(&mut self, mut task: SweepTask, install: SequencedInstall) {
        for mask in &task.impure_masks {
            self.union_mask(*mask);
        }
        let absorbed = &install.consumed[task.consumed.len()..];
        for (id, _) in absorbed {
            self.core.queue.take_id(*id);
            if let Some(arrival) = self.arrivals.remove(id) {
                arrival
                    .impure_masks
                    .iter()
                    .for_each(|&m| self.union_mask(m));
                self.sequencer.complete(arrival.ticket, None);
            }
        }
        if !absorbed.is_empty() {
            task.consumed.clone_from(&install.consumed);
        }
        if let Some(d) = self.durable.as_mut() {
            d.committed_since_ckpt += 1;
        }
        self.core.record_batch(install.consumed.len());
        self.sequencer.complete(task.ticket, Some(install));
        self.unreleased.push(task);
    }

    /// Apply one sweep's per-view deltas, cascading each into the view's
    /// derived children right behind it — inside the same ticket's slot.
    fn apply_install(&mut self, install: SequencedInstall, at: Time) -> Result<(), MvError> {
        let SequencedInstall { consumed, deltas } = install;
        for (index, delta) in deltas {
            let id = self.registry.id_at(index)?;
            self.registry
                .apply_with_cascade(id, Arc::new(delta), &consumed, at)?;
        }
        Ok(())
    }

    /// Release every install whose ticket is next in order, each view's
    /// batch as its cadence lets it go (live, and replaying a commit).
    fn release(&mut self, now: Time) -> Result<(), MvError> {
        let registry = &self.registry;
        for install in self.sequencer.drain(|view| registry.every(view)) {
            self.apply_install(install, now)?;
        }
        let sequencer = &self.sequencer;
        self.unreleased.retain(|t| !sequencer.is_released(t.ticket));
        Ok(())
    }

    /// Land `view`'s held batch whatever its cadence (at drain, and
    /// replaying the `Flush` record that drain journaled).
    fn flush(&mut self, view: usize, at: Time) -> Result<(), MvError> {
        match self.sequencer.flush(view) {
            Some(install) => self.apply_install(install, at),
            None => Ok(()),
        }
    }

    /// [`MaintenanceScheduler::release`], then checkpoint if the cadence
    /// says so, then, once quiescent, flush every batch a view's cadence
    /// still holds, in view order — one `Flush` record each.
    fn drain_installs(&mut self, now: Time) -> Result<(), MvError> {
        self.release(now)?;
        // Checkpoint cadence: every `checkpoint_every` commits, replace
        // the durable image and truncate the log.
        let due = |d: &DurableState| d.committed_since_ckpt >= d.cfg.cadence();
        if self.durable.as_deref().is_some_and(due) {
            self.checkpoint_now();
        }
        if self.is_quiescent() {
            while let Some(view) = self.sequencer.first_held() {
                let id = self.registry.id_at(view)?;
                self.wal(|| MvWalRecord::Flush { view: id, at: now });
                self.flush(view, now)?;
            }
            // Free what a drained backlog grew; a paced run's few slots stay.
            if self.arrivals.capacity() > 64 {
                self.arrivals.shrink_to_fit();
                self.core.queue = Default::default();
            }
        }
        Ok(())
    }

    /// Derive the σ pushed to each source for `task`: for chain position
    /// `k`, the union (OR) of the task views' relation-local selections
    /// at `k`, taken over the views whose span contains `k`. A view with
    /// no selection there contributes `True`, which collapses the union
    /// to "no filter" (`None`) — pushing a vacuous predicate would only
    /// fatten the query. With a single affected view this degenerates to
    /// exactly that view's own σ.
    ///
    /// Soundness: a source tuple dropped by the union fails *every*
    /// affected view's σ over that relation, so [`finalize_for_view`]
    /// would have filtered each of its join extensions anyway — the
    /// pushed filter only changes what travels, never what installs.
    fn derive_push_preds(&self, task: &SweepTask) -> Result<Vec<Option<Predicate>>, MvError> {
        let union_at = |k: usize| {
            let mut disjuncts = Vec::new();
            for &v in &task.views {
                let (lo, hi) = self.registry.span(v)?;
                if (lo..=hi).contains(&k) {
                    match self.registry.local_def(v)?.local_select(k - lo) {
                        Predicate::True => return Ok(None),
                        sel => disjuncts.push(sel.clone()),
                    }
                }
            }
            Ok(match disjuncts.len() {
                0 | 1 => disjuncts.pop(),
                _ => Some(Predicate::Or(disjuncts)),
            })
        };
        (0..self.core.n()).map(union_at).collect()
    }
}

impl MaintenanceScheduler {
    /// Bookkeeping on update arrival, before the update is queued under
    /// its delivery time `at`.
    fn note_update(&mut self, u: &SourceUpdate, at: Time) -> Result<(), MvError> {
        // A global-transaction tag whose count cannot be met is refused
        // before the update takes a ticket.
        self.sequencer.note_part(u)?;
        // The ticket at arrival IS the install order — issued before any
        // scheduling decision, claimed at launch, released in order. An
        // update no view references installs nothing and takes none —
        // unless it is a global part, whose release closes its
        // transaction.
        let referenced = !self.registry.affected_by(u.id.source).is_empty();
        let ticketed = referenced || u.global.is_some();
        let ticket = ticketed.then(|| self.sequencer.issue());
        // Journal the arrival before it enters the volatile queue: an
        // update the WAL knows about can never be lost to a crash, nor
        // its place in the install order.
        self.wal(|| MvWalRecord::UpdateQueued {
            update: u.clone(),
            at,
            ticket,
        });
        self.admit(u, ticket);
        self.registry.note_delivery(u.id, at)
    }

    /// A sweep answer arrived.
    fn on_answer(
        &mut self,
        qid: u64,
        partial: PartialDelta,
        net: &mut dyn NetHandle<Message>,
    ) -> Result<(), MvError> {
        // A straggler: the answer to a query a dead incarnation sent. Its
        // sweep was re-seeded under fresh qids; silently absorbing it is
        // the idempotent move.
        if !self.core.is_current(qid) {
            self.recovery.stale_answers_dropped += 1;
            self.core.obs.add("mv.recovery.stale_answers_dropped", 1);
            return Ok(());
        }
        let top = |l: &Lane| l.children.last().unwrap_or(&l.run).waiting_on(qid);
        let Some(pos) = self.lanes.iter().position(top) else {
            return Err(WarehouseError::UnknownQuery { qid }.into());
        };
        let mut lane = self.lanes.swap_remove(pos);
        let one_leg = lane.run.is_sequential();
        let frames = 1 + lane.children.len();
        let top = lane.children.last_mut().unwrap_or(&mut lane.run);
        let mut hop = top.absorb(&mut self.core, qid, partial, net.now())?;
        // Full-queue compensation: foreign-group queued deltas join the
        // scoped TempView to nothing, same-group ones subtract exactly —
        // and so do the later tasks a window lets overlap this one.
        let me = &lane.task;
        let left_queue = self.lanes.iter().map(|l| &l.task);
        let left_queue = left_queue
            .chain(&self.pending_tasks)
            .chain(&self.unreleased);
        let later: Vec<&Bag> = left_queue
            .filter(|t| t.j == hop.j && t.ticket > me.ticket && t.mask & me.mask != 0)
            .map(|t| &t.delta)
            .collect();
        self.core.compensate(&lane.ctx, &mut hop, &later)?;
        // Figure 6: below the bound, a one-leg hop nests the queued ΔR_j.
        let (j, side, lo, hi) = (hop.j, hop.side, hop.dv.lo, hop.dv.hi);
        let mut nested = false;
        if self.opts.depth != 1 {
            if one_leg && frames < self.opts.depth {
                nested = self.nest(&mut lane, j, lo, hi)?;
            } else if self.core.queue.iter().any(|pu| pu.update.id.source == j) {
                self.core.metrics.depth_bound_hits += 1;
            }
        }
        self.step(lane, (frames == 1 && !nested).then_some(side), net)
    }

    /// Figure 6 at a one-leg hop of `lane` at `j` that covered `[lo, hi]`
    /// (module docs): take the queued `ΔR_j` the rule admits out of the
    /// queue and stack a child run over `[lo, hi]` seeded — and σ-filtered,
    /// as a task's seed is — with their merged delta. `false`: none fit.
    fn nest(&mut self, lane: &mut Lane, j: usize, lo: usize, hi: usize) -> Result<bool, MvError> {
        let task = &lane.task;
        let in_lanes = self.lanes.iter().map(|l| &l.task);
        let mut others = in_lanes.clone().chain(&self.pending_tasks);
        if others.any(|t| t.mask & task.mask != 0) || self.registry.affected_by(j) != task.views {
            return Ok(false);
        }
        // The first `ΔR_j` a later ticket holds bounds what may go first.
        let later = |ticket: u64| ticket > task.ticket;
        let tasks = in_lanes.chain(&self.pending_tasks).chain(&self.unreleased);
        let held = tasks.filter(|t| later(t.ticket)).flat_map(|t| &t.consumed);
        let lanes = self.lanes.iter().filter(|l| later(l.task.ticket));
        let absorbed = lanes.flat_map(|l| &l.absorbed).map(|pu| pu.update.id);
        let held = held.map(|&(id, _)| id).chain(absorbed);
        let bound = held.filter(|id| id.source == j).map(|id| id.seq).min();
        let fits = |pu: &PendingUpdate| {
            let a = self.arrivals.get(&pu.update.id)?;
            let mask = groups_of(&self.groups, a.bands.max(1));
            let before = bound.is_none_or(|seq| pu.update.id.seq < seq);
            (later(a.ticket) && before && mask & !task.mask == 0).then_some(pu.update.id)
        };
        let from_j = self.core.queue.iter().filter(|pu| pu.update.id.source == j);
        let ids: Vec<UpdateId> = from_j.map_while(fits).collect();
        if ids.is_empty() {
            return Ok(false);
        }
        let mut merged = Bag::new();
        for id in ids {
            let Some(pu) = self.core.queue.take_id(id) else {
                let what = "a nested update left the queue before the hop";
                return Err(MvError::Internal { what });
            };
            merged.merge(&pu.update.delta);
            lane.absorbed.push(pu);
        }
        let mut seed = PartialDelta::seed(&self.core.view, j, &merged)?;
        if let Some(pred) = lane.ctx.push_pred(j) {
            seed.bag = seed.bag.filter(|t| pred.eval(t));
        }
        lane.children.push(SweepRun::sequential(seed, lo, hi));
        let deepest = &mut self.core.metrics.max_recursion_depth;
        *deepest = (*deepest).max(1 + lane.children.len() as u64);
        Ok(true)
    }

    /// Drive `lane` on after a hop. When its bottom run's leg on `moved`
    /// changed — a hop there, or a child folded into it — the views whose
    /// span it now covers peel off its partial and the short-circuit may
    /// stop it; then the top run sends its next query, or covered children
    /// fold into the frame below, until a query is in flight or the bottom
    /// run is covered (or dead) and the lane finishes.
    fn step(
        &mut self,
        mut lane: Lane,
        mut moved: Option<JoinSide>,
        net: &mut dyn NetHandle<Message>,
    ) -> Result<(), MvError> {
        loop {
            let mut dead = false;
            if let Some(side) = moved.take() {
                let (one_leg, leg) = (lane.run.is_sequential(), lane.run.leg(side));
                let (reg, views) = (&self.registry, &lane.task.views);
                snapshot(reg, views, &mut lane.snaps, one_leg, side, leg)?;
                dead = self.opts.short_circuit_empty && one_leg && leg.bag.is_empty();
            }
            if !dead {
                let top = lane.children.last_mut().unwrap_or(&mut lane.run);
                top.advance(&mut self.core, &lane.ctx, net);
                if !top.is_done() {
                    self.lanes.push(lane);
                    return Ok(());
                }
            }
            let Some(child) = lane.children.pop() else {
                self.finish(lane, dead, net.now())?;
                return self.pump(net);
            };
            let done = child.into_partial(&self.core.view);
            match lane.children.last_mut() {
                Some(parent) => parent.fold(&done),
                None => {
                    lane.run.fold(&done);
                    moved = Some(JoinSide::Left);
                }
            }
        }
    }
}

/// The union of the current `groups` of every band set in `bands`.
fn groups_of(groups: &[u64], bands: u64) -> u64 {
    band_indices(bands).fold(0, |m, b| m | groups[b])
}

/// The indices of the bands set in `mask`.
fn band_indices(mask: u64) -> impl Iterator<Item = usize> {
    (0..u64::BITS as usize).filter(move |&b| mask >> b & 1 == 1)
}

/// Count one more sweep over every band of `mask`; a band carrying `cap`
/// of them joins `full`.
fn occupy(running: &mut [usize], full: &mut u64, mask: u64, cap: usize) {
    for b in band_indices(mask) {
        running[b] += 1;
        if running[b] >= cap {
            *full |= 1 << b;
        }
    }
}

/// Record `partial`, the walk's leg on `side`, for every task view whose
/// share it now covers exactly: one leg, the whole span; two legs, the
/// span up to the seed (left) or from it (right).
fn snapshot(
    registry: &ViewRegistry,
    views: &[ViewId],
    snaps: &mut [Vec<(ViewId, PartialDelta)>; 2],
    one_leg: bool,
    side: JoinSide,
    partial: &PartialDelta,
) -> Result<(), MvError> {
    let slot = side as usize * usize::from(!one_leg);
    let ends = [partial.lo, partial.hi];
    for &v in views {
        let (lo, hi) = registry.span(v)?;
        if ends[slot] == [lo, hi][slot] && (!one_leg || ends == [lo, hi]) {
            snaps[slot].push((v, partial.clone()));
        }
    }
    Ok(())
}

/// Apply a view's own σ (per-relation selections, shifted to span-tuple
/// offsets), then its residual predicate and projection. Sound because
/// the shared sweep ran on unfiltered tuples and selection commutes
/// with join; subtraction (compensation) distributes over the filter.
/// The view's own snapshot is taken by value, so a view with no σ and an
/// identity Π installs the walk's bag itself, copying no entry.
fn finalize_for_view(local: &ViewDef, merged: PartialDelta) -> Result<Bag, RelationalError> {
    let mut bag = merged.bag;
    for r in 0..local.num_relations() {
        let sel = local.local_select(r);
        if sel != &Predicate::True {
            let shifted = sel.shifted(local.offset(r));
            bag = bag.filter(|t| shifted.eval(t));
        }
    }
    PartialDelta {
        lo: 0,
        hi: local.num_relations() - 1,
        bag,
    }
    .finalize(local)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dw_protocol::{node_source, source_node, WAREHOUSE_NODE};
    use dw_relational::{eval_view, tup, CmpOp, Schema, SharedBag, Value, ViewDefBuilder};
    use dw_simnet::Network;
    use dw_source::DataSource;
    use dw_workload::{DerivedOp, DerivedSpec, ViewPolicy};

    /// A scheduler with an install log and a completion log attached:
    /// where a test reads install and lane history.
    struct Logged {
        sched: MaintenanceScheduler,
        log: Arc<Mutex<dw_engine::InstallLog>>,
        done: CompletionLog,
    }

    impl From<MaintenanceScheduler> for Logged {
        fn from(mut sched: MaintenanceScheduler) -> Logged {
            let log = Arc::new(Mutex::new(dw_engine::InstallLog::new(None)));
            sched.set_install_publisher(log.clone());
            let done = CompletionLog::default();
            sched.record_completions(done.clone());
            Logged { sched, log, done }
        }
    }

    impl std::ops::Deref for Logged {
        type Target = MaintenanceScheduler;
        fn deref(&self) -> &MaintenanceScheduler {
            &self.sched
        }
    }

    impl std::ops::DerefMut for Logged {
        fn deref_mut(&mut self) -> &mut MaintenanceScheduler {
            &mut self.sched
        }
    }

    impl Logged {
        /// View `id`'s installs, in order.
        fn installs(&self, id: ViewId) -> Vec<dw_engine::InstallEvent> {
            self.log.lock().unwrap().installs(id.index()).to_vec()
        }

        /// Every lane completion, `(band mask, finish time)`, in order.
        fn completions(&self) -> Vec<(u64, Time)> {
            self.done.lock().unwrap().clone()
        }
    }

    fn base3() -> ViewDef {
        ViewDefBuilder::new()
            .relation(Schema::new("R1", ["A", "B"]).unwrap())
            .relation(Schema::new("R2", ["C", "D"]).unwrap())
            .relation(Schema::new("R3", ["E", "F"]).unwrap())
            .join("R1.B", "R2.C")
            .join("R2.D", "R3.E")
            .build()
            .unwrap()
    }

    fn initial3() -> Vec<Bag> {
        vec![
            Bag::from_tuples([tup![1, 3], tup![2, 3], tup![2, 5]]),
            Bag::from_tuples([tup![3, 5], tup![5, 7], tup![3, 7]]),
            Bag::from_tuples([tup![5, 9], tup![7, 9], tup![7, 11]]),
        ]
    }

    /// Initial data banded by `ShardMap::range(100, 2)`: shard 0 holds
    /// values 0..100, shard 1 the rest. Every tuple is pure.
    fn banded_initial() -> Vec<Bag> {
        vec![
            Bag::from_tuples([tup![1, 3], tup![101, 103]]),
            Bag::from_tuples([tup![3, 5], tup![103, 105]]),
            Bag::from_tuples([tup![5, 9], tup![105, 109]]),
        ]
    }

    fn specs() -> Vec<ViewSpec> {
        vec![
            ViewSpec::full("full", 3),
            ViewSpec {
                lo: 0,
                hi: 1,
                selects: vec![(1, 1, CmpOp::Ge, Value::Int(6))],
                ..ViewSpec::full("left-pair", 3)
            },
            ViewSpec {
                lo: 1,
                hi: 2,
                projection: Some(vec!["R2.C".to_string(), "R3.F".to_string()]),
                ..ViewSpec::full("right-pair", 3)
            },
            ViewSpec {
                lo: 1,
                hi: 1,
                ..ViewSpec::full("solo", 3)
            },
        ]
    }

    /// One data source per base relation, loaded with `initial`.
    fn sources(base: &ViewDef, initial: &[Bag]) -> Vec<DataSource> {
        (0..3)
            .map(|i| {
                let mut r = dw_relational::BaseRelation::new(base.schema(i).clone());
                r.apply_delta(&initial[i]).unwrap();
                DataSource::new(i, base.clone(), r)
            })
            .collect()
    }

    /// Register `spec` on `sched` with its correct contents over `rels`.
    fn register(sched: &mut MaintenanceScheduler, spec: &ViewSpec, rels: &[Bag]) -> ViewId {
        let local = spec.compile(sched.views().base()).unwrap();
        let refs: Vec<&Bag> = rels[spec.lo..=spec.hi].iter().collect();
        sched
            .register(spec, eval_view(&local, &refs).unwrap())
            .unwrap()
    }

    fn txn(src: usize, delta: Bag) -> Message {
        Message::ApplyTxn {
            rel: src,
            delta,
            global: None,
        }
    }

    /// Deliver until the network drains, calling `before_warehouse` ahead
    /// of every warehouse delivery.
    fn pump_network(
        net: &mut Network<Message>,
        sched: &mut MaintenanceScheduler,
        sources: &mut [DataSource],
        mut before_warehouse: impl FnMut(&mut MaintenanceScheduler, &Message, &mut Network<Message>),
    ) {
        while let Some(d) = net.next() {
            if d.to == WAREHOUSE_NODE {
                before_warehouse(sched, &d.msg, net);
                sched.on_message(d, net).unwrap();
            } else {
                sources[node_source(d.to)]
                    .handle(d.from, d.msg, net)
                    .unwrap();
            }
        }
    }

    /// Build sources over the base chain, register every spec with its
    /// correct initial contents, inject `txns`, run to quiescence, and
    /// return (scheduler, shadow relations after all txns). With
    /// `crash_at_first_answer` the scheduler is made durable and its
    /// warehouse state-crashes just before the first answer is delivered
    /// — every lane started so far is mid-sweep.
    fn drive(
        sched: impl Into<Logged>,
        initial: Vec<Bag>,
        view_specs: &[ViewSpec],
        txns: &[(Time, usize, Bag)],
        crash_at_first_answer: bool,
    ) -> (Logged, Vec<Bag>) {
        let mut sched = sched.into();
        for bag in &initial {
            sched.seed_groups(bag);
        }
        for spec in view_specs {
            register(&mut sched, spec, &initial);
        }
        if crash_at_first_answer {
            sched.enable_durability(DurabilityConfig::default());
        }
        drive_registered(sched, initial, txns, crash_at_first_answer)
    }

    /// [`drive`] for a scheduler whose views are already registered (and
    /// whose durability, if it is to crash, is already armed).
    fn drive_registered(
        sched: impl Into<Logged>,
        initial: Vec<Bag>,
        txns: &[(Time, usize, Bag)],
        crash_at_first_answer: bool,
    ) -> (Logged, Vec<Bag>) {
        let mut sched = sched.into();
        let mut net: Network<Message> = Network::new(7);
        let mut sources = sources(sched.views().base(), &initial);
        let mut shadows = initial;
        for &(at, src, ref delta) in txns {
            shadows[src].merge(delta);
            net.inject(at, source_node(src), txn(src, delta.clone()));
        }
        let mut crash_pending = crash_at_first_answer;
        pump_network(&mut net, &mut sched, &mut sources, |sched, msg, net| {
            if crash_pending && matches!(msg, Message::SweepAnswer { .. }) {
                crash_pending = false;
                sched.crash_and_recover(net).unwrap();
            }
        });
        assert!(sched.is_quiescent());
        (sched, shadows)
    }

    fn run(view_specs: &[ViewSpec], txns: &[(Time, usize, Bag)]) -> (Logged, Vec<Bag>) {
        run_with_options(EngineOptions::default(), view_specs, txns)
    }

    fn run_with_options(
        opts: EngineOptions,
        view_specs: &[ViewSpec],
        txns: &[(Time, usize, Bag)],
    ) -> (Logged, Vec<Bag>) {
        let sched = MaintenanceScheduler::with_shards(base3(), opts, None).unwrap();
        drive(sched, initial3(), view_specs, txns, false)
    }

    fn sharded(map: ShardMap) -> Logged {
        batched(map, 1)
    }

    /// A sharded scheduler folding up to `batch` same-source updates
    /// per sweep.
    fn batched(map: ShardMap, batch: usize) -> Logged {
        let opts = EngineOptions {
            batch,
            ..EngineOptions::default()
        };
        MaintenanceScheduler::with_shards(base3(), opts, Some(map))
            .unwrap()
            .into()
    }

    /// Drive a sharded scheduler to quiescence over `txns` (see
    /// [`drive`]). Returns (scheduler, shadows).
    fn run_sharded(
        map: ShardMap,
        initial: Vec<Bag>,
        view_specs: &[ViewSpec],
        txns: &[(Time, usize, Bag)],
        crash_at_first_answer: bool,
    ) -> (Logged, Vec<Bag>) {
        let sched = sharded(map);
        drive(sched, initial, view_specs, txns, crash_at_first_answer)
    }

    fn assert_ground_truth(sched_views: &ViewRegistry, specs: &[ViewSpec], shadows: &[Bag]) {
        for (spec, id) in specs.iter().zip(sched_views.ids()) {
            let local = spec.compile(sched_views.base()).unwrap();
            let refs: Vec<&Bag> = shadows[spec.lo..=spec.hi].iter().collect();
            let truth = eval_view(&local, &refs).unwrap();
            assert_eq!(
                sched_views.view_bag(id).unwrap(),
                &truth,
                "view '{}'",
                spec.name
            );
        }
    }

    /// A bare task for an `R2` delta: no ticket, nothing consumed.
    fn r2_task(mask: u64, delta: Bag, lo: usize, hi: usize, views: Vec<ViewId>) -> SweepTask {
        SweepTask {
            ticket: 0,
            mask,
            impure_masks: Vec::new(),
            consumed: Vec::new(),
            j: 1,
            delta,
            lo,
            hi,
            views,
        }
    }

    /// Per-install consumed-update sets of view `id`, in install order.
    fn consumed_log(sched: &Logged, id: ViewId) -> Vec<Vec<UpdateId>> {
        let log = sched.installs(id);
        log.iter().map(|rec| rec.consumed.clone()).collect()
    }

    /// Dense, interfering transactions hitting every source.
    fn interfering_txns() -> Vec<(Time, usize, Bag)> {
        vec![
            (100, 1, Bag::from_tuples([tup![7, 9]])),
            (150, 0, Bag::from_tuples([tup![4, 7]])),
            (200, 2, Bag::from_tuples([tup![9, 13]])),
            (260, 1, Bag::from_pairs([(tup![3, 5], -1)])),
            (300, 0, Bag::from_tuples([tup![6, 3]])),
            (340, 2, Bag::from_pairs([(tup![5, 9], -1)])),
        ]
    }

    /// A durable image is a lineage of its own, seeded from the live
    /// views, and nothing installed afterwards shows in it.
    #[test]
    fn a_checkpoint_image_never_sees_later_installs() {
        let opts = EngineOptions::default();
        let mut sched = MaintenanceScheduler::with_shards(base3(), opts, None).unwrap();
        for spec in &specs() {
            register(&mut sched, spec, &initial3());
        }
        // One image, taken here: the cadence outlasts the stream.
        sched.enable_durability(DurabilityConfig {
            checkpoint_every: usize::MAX,
        });
        let image = |sched: &MaintenanceScheduler| -> Vec<SharedBag> {
            let durable = sched.durable.as_ref().unwrap();
            let slots = &durable.store.checkpoint_ref().unwrap().slots;
            slots.iter().map(|slot| slot.sink.bag().clone()).collect()
        };
        let live = |sched: &MaintenanceScheduler| -> Vec<SharedBag> {
            let ids = sched.views().ids();
            let bag = |id| sched.views().view_bag(id).unwrap().clone();
            ids.into_iter().map(bag).collect()
        };
        let before: Vec<Bag> = image(&sched).iter().map(SharedBag::to_bag).collect();
        assert_eq!(live(&sched), image(&sched));

        let (sched, shadows) = drive_registered(sched, initial3(), &interfering_txns(), false);
        assert_ground_truth(sched.views(), &specs(), &shadows);
        assert_eq!(sched.durable_stats().unwrap().checkpoints_taken, 1);
        assert_eq!(image(&sched), before, "the image moved with the live views");
        assert_ne!(live(&sched), image(&sched), "the stream changed no view");
        assert_eq!(sched.checkpoint_copied_tuples(), 0);
    }

    #[test]
    fn every_view_lands_on_ground_truth() {
        let (sched, shadows) = run(&specs(), &interfering_txns());
        assert_ground_truth(sched.views(), &specs(), &shadows);
        for id in sched.views().ids() {
            assert!(sched.views().view_bag(id).unwrap().all_positive());
        }
    }

    #[test]
    fn shared_mode_message_cost_is_span_bounded() {
        // All four views are registered; the union span is the full
        // chain, so each update costs exactly 2(n−1) = 4 messages no
        // matter that four views were maintained.
        let (sched, _) = run(&specs(), &interfering_txns());
        let n_txns = interfering_txns().len() as u64;
        assert_eq!(sched.metrics().queries_sent, 2 * n_txns);
        assert_eq!(sched.metrics().answers_received, 2 * n_txns);
    }

    #[test]
    fn naive_cost_scales_with_view_count() {
        // Three full-span views, each maintained alone by a scheduler of
        // its own: every update pays 3 × 2(n−1), where sharing pays 2(n−1).
        let views: Vec<ViewSpec> = (0..3).map(|v| ViewSpec::full(format!("V{v}"), 3)).collect();
        let txns = interfering_txns();
        let (shared, _) = run(&views, &txns);
        let n_txns = txns.len() as u64;
        assert_eq!(shared.metrics().queries_sent, 2 * n_txns);
        let mut per_view_queries = 0;
        for (view, id) in views.iter().zip(shared.views().ids()) {
            let (alone, _) = run(std::slice::from_ref(view), &txns);
            per_view_queries += alone.metrics().queries_sent;
            // Same final contents, same installs either way.
            let only = alone.views().ids()[0];
            assert_eq!(
                shared.views().view_bag(id).unwrap(),
                alone.views().view_bag(only).unwrap()
            );
            assert_eq!(consumed_log(&shared, id), consumed_log(&alone, only));
        }
        assert_eq!(per_view_queries, 3 * 2 * n_txns);
    }

    #[test]
    fn single_relation_view_needs_no_queries() {
        let solo = vec![ViewSpec {
            lo: 1,
            hi: 1,
            ..ViewSpec::full("solo", 3)
        }];
        let txns = vec![(100u64, 1usize, Bag::from_tuples([tup![7, 9]]))];
        let (sched, shadows) = run(&solo, &txns);
        assert_eq!(sched.metrics().queries_sent, 0);
        let id = sched.views().ids()[0];
        assert_eq!(sched.views().view_bag(id).unwrap(), &shadows[1]);
        assert_eq!(sched.views().metrics(id).unwrap().installs, 1);
    }

    #[test]
    fn updates_outside_every_span_are_skipped() {
        let right_only = vec![ViewSpec {
            lo: 2,
            hi: 2,
            ..ViewSpec::full("r3-only", 3)
        }];
        let txns = vec![
            (100u64, 0usize, Bag::from_tuples([tup![4, 7]])),
            (200, 2, Bag::from_tuples([tup![9, 13]])),
        ];
        let (sched, shadows) = run(&right_only, &txns);
        assert_eq!(sched.metrics().updates_received, 2);
        assert_eq!(sched.metrics().queries_sent, 0);
        let id = sched.views().ids()[0];
        assert_eq!(sched.views().view_bag(id).unwrap(), &shadows[2]);
        // Only the in-span update was consumed.
        assert_eq!(sched.installs(id).len(), 1);
    }

    #[test]
    fn policy_cadence_batches_installs() {
        let mut batched = ViewSpec::full("batched", 3);
        batched.policy = ViewPolicy::Deferred { batch: 3 };
        let (sched, shadows) = run(&[batched.clone()], &interfering_txns());
        let id = sched.views().ids()[0];
        // 6 updates at batch 3 → exactly 2 installs, still ground truth.
        assert_eq!(sched.views().metrics(id).unwrap().installs, 2);
        let refs: Vec<&Bag> = shadows.iter().collect();
        let truth = eval_view(&batched.compile(sched.views().base()).unwrap(), &refs).unwrap();
        assert_eq!(sched.views().view_bag(id).unwrap(), &truth);
        // Every install consumed a whole delivery-order batch.
        let log = sched.installs(id);
        assert_eq!(log.len(), 2);
        assert!(log.iter().all(|rec| rec.consumed.len() == 3));
    }

    #[test]
    fn cross_update_batching_folds_queued_same_source_updates() {
        // Three same-source updates injected back-to-back: with batch 4
        // the first sweep starts on ΔR2(1) while the other two queue; the
        // second sweep folds them both. Ground truth must still hold and
        // the query count must drop from 3·2(n−1)=12 to 2·2(n−1)... no —
        // to 2 sweeps × 4 = 8. Without batching it is 12.
        let views = vec![ViewSpec::full("full", 3)];
        let txns = vec![
            (100u64, 1usize, Bag::from_tuples([tup![7, 9]])),
            (101, 1, Bag::from_tuples([tup![9, 5]])),
            (102, 1, Bag::from_pairs([(tup![3, 7], -1)])),
        ];
        let (plain, _) = run(&views, &txns);
        assert_eq!(plain.metrics().queries_sent, 3 * 2);
        let (batched, shadows) = run_with_options(
            EngineOptions {
                batch: 4,
                ..Default::default()
            },
            &views,
            &txns,
        );
        // First sweep: 1 update; second sweep: the 2 queued folded.
        assert_eq!(batched.metrics().queries_sent, 2 * 2);
        let id = batched.views().ids()[0];
        let refs: Vec<&Bag> = shadows.iter().collect();
        let full = ViewSpec::full("full", 3)
            .compile(batched.views().base())
            .unwrap();
        assert_eq!(
            batched.views().view_bag(id).unwrap(),
            &eval_view(&full, &refs).unwrap()
        );
        // The folded install consumed both updates at once.
        let log = batched.installs(id);
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].consumed.len(), 1);
        assert_eq!(log[1].consumed.len(), 2);
    }

    #[test]
    fn derive_push_preds_unions_selects_and_collapses_true() {
        let pushdown = EngineOptions {
            pushdown: true,
            ..Default::default()
        };
        let mut sched = MaintenanceScheduler::with_shards(base3(), pushdown, None).unwrap();
        let left_pair = ViewSpec {
            lo: 0,
            hi: 1,
            selects: vec![(1, 1, CmpOp::Ge, Value::Int(6))],
            ..ViewSpec::full("lp", 3)
        };
        let mid = ViewSpec {
            lo: 1,
            hi: 2,
            selects: vec![(1, 0, CmpOp::Le, Value::Int(9))],
            ..ViewSpec::full("mid", 3)
        };
        let ids: Vec<ViewId> = [&left_pair, &mid]
            .map(|spec| register(&mut sched, spec, &initial3()))
            .to_vec();
        let task_over = |lo, hi, views| r2_task(1, Bag::new(), lo, hi, views);
        let task = task_over(0, 2, ids.clone());
        let preds = sched.derive_push_preds(&task).unwrap();
        // R1: only left-pair's span contains it and it has no σ there —
        // True collapses the union to "no filter". Same for R3 via mid.
        assert_eq!(preds[0], None);
        assert_eq!(preds[2], None);
        // R2: both views select on it → the union is their OR.
        match &preds[1] {
            Some(Predicate::Or(ds)) => assert_eq!(ds.len(), 2),
            other => panic!("expected Or of two selects, got {other:?}"),
        }

        // A single affected view degenerates to exactly its own σ.
        let solo_task = task_over(0, 1, vec![ids[0]]);
        let solo = sched.derive_push_preds(&solo_task).unwrap();
        assert_eq!(
            solo[1].as_ref(),
            Some(sched.registry.local_def(ids[0]).unwrap().local_select(1)),
            "one affected view pushes exactly its own σ"
        );
    }

    #[test]
    fn pushdown_matches_unpushed_views_and_install_sequences() {
        let (plain, shadows) = run(&specs(), &interfering_txns());
        let (pushed, _) = run_with_options(
            EngineOptions {
                pushdown: true,
                ..Default::default()
            },
            &specs(),
            &interfering_txns(),
        );
        // Same message *count* — pushdown changes payloads, not the
        // number of hops.
        assert_eq!(plain.metrics().queries_sent, pushed.metrics().queries_sent);
        // Ground truth still holds for the pushed run.
        assert_ground_truth(pushed.views(), &specs(), &shadows);
        for (spec, id) in specs().iter().zip(plain.views().ids()) {
            assert_eq!(
                plain.views().view_bag(id).unwrap(),
                pushed.views().view_bag(id).unwrap(),
                "view '{}' diverged under pushdown",
                spec.name
            );
            // Identical install sequences: same consumed ids, same
            // deltas, in the same order.
            let a = plain.installs(id);
            let b = pushed.installs(id);
            assert_eq!(a.len(), b.len());
            for (ra, rb) in a.iter().zip(b) {
                assert_eq!(ra.consumed, rb.consumed);
                assert_eq!(ra.delta, rb.delta);
            }
        }
    }

    #[test]
    fn mid_run_registration_at_quiescent_point() {
        let mut sched = MaintenanceScheduler::new(base3(), SchedulerMode::Shared).unwrap();
        register(&mut sched, &ViewSpec::full("early", 3), &initial3());
        let mut net: Network<Message> = Network::new(3);
        let mut sources = sources(&base3(), &initial3());
        let mut shadows = initial3();

        // Phase 1: one update drains.
        let d1 = Bag::from_tuples([tup![7, 9]]);
        shadows[1].merge(&d1);
        net.inject(100, source_node(1), txn(1, d1));
        pump_network(&mut net, &mut sched, &mut sources, |_, _, _| {});
        assert!(sched.is_quiescent());

        // Quiescent: register a late view seeded from the *current*
        // source state.
        let late_spec = ViewSpec {
            lo: 0,
            hi: 1,
            ..ViewSpec::full("late", 3)
        };
        let late_id = register(&mut sched, &late_spec, &shadows);

        // Phase 2: more updates; the late view tracks them.
        let d2 = Bag::from_tuples([tup![6, 3]]);
        shadows[0].merge(&d2);
        net.inject(10_000, source_node(0), txn(0, d2));
        pump_network(&mut net, &mut sched, &mut sources, |_, _, _| {});
        assert!(sched.is_quiescent());
        assert_ground_truth(
            sched.views(),
            &[ViewSpec::full("early", 3), late_spec],
            &shadows,
        );
        assert_eq!(sched.views().ids()[1], late_id);
    }

    /// Contents evaluated from the sources' current state already hold
    /// whatever is in flight or queued, and the sweeps then hand it to
    /// the view again: a registration anywhere but a quiescent point is
    /// refused at the call, and the run it interrupted is untouched.
    #[test]
    fn registering_a_swept_view_on_a_busy_scheduler_is_refused() {
        let mut sched = MaintenanceScheduler::new(base3(), SchedulerMode::Shared).unwrap();
        let early = ViewSpec::full("early", 3);
        register(&mut sched, &early, &initial3());
        let late = ViewSpec {
            lo: 0,
            hi: 1,
            ..ViewSpec::full("late", 3)
        };
        let mut net: Network<Message> = Network::new(3);
        let mut sources = sources(&base3(), &initial3());
        let mut shadows = initial3();
        // Two updates 20 µs apart: at the first answer one sweep is in
        // flight and the other update is queued behind it.
        for (at, src, t) in [(100, 1, tup![7, 9]), (120, 0, tup![6, 3])] {
            let delta = Bag::from_tuples([t]);
            shadows[src].merge(&delta);
            net.inject(at, source_node(src), txn(src, delta));
        }
        let mut refusals = Vec::new();
        pump_network(&mut net, &mut sched, &mut sources, |sched, msg, _| {
            if refusals.is_empty() && matches!(msg, Message::SweepAnswer { .. }) {
                let local = late.compile(sched.views().base()).unwrap();
                let now: Vec<&Bag> = shadows[..=1].iter().collect();
                let e = sched.register(&late, eval_view(&local, &now).unwrap());
                refusals.push(e.unwrap_err());
            }
        });
        match &refusals[..] {
            [MvError::Warehouse(WarehouseError::Precondition { reason })] => assert_eq!(
                reason,
                "register a swept view at a quiescent point: \
                 1 lane(s) in flight, 1 update(s) queued"
            ),
            other => panic!("expected one typed refusal, got {other:?}"),
        }
        assert!(sched.is_quiescent());
        assert_eq!(sched.views().ids().len(), 1);
        assert_ground_truth(sched.views(), &[early], &shadows);
        // Quiescent now: the same registration is accepted.
        register(&mut sched, &late, &shadows);
    }

    /// No WAL record names a view, so a registration under durability
    /// must reach the checkpoint image itself: views registered after
    /// `enable_durability` — swept and derived — survive a state crash
    /// and are maintained afterwards like any other.
    #[test]
    fn views_registered_under_durability_survive_recovery() {
        let mut sched = MaintenanceScheduler::new(base3(), SchedulerMode::Shared).unwrap();
        let early = ViewSpec::full("early", 3);
        let late = ViewSpec {
            lo: 0,
            hi: 1,
            ..ViewSpec::full("late", 3)
        };
        register(&mut sched, &early, &initial3());
        sched.enable_durability(DurabilityConfig {
            checkpoint_every: usize::MAX,
        });
        let late_id = register(&mut sched, &late, &initial3());
        let child = DerivedSpec {
            name: "late-hot".into(),
            parent: "late".into(),
            op: DerivedOp::Select {
                selects: Vec::new(),
                projection: None,
            },
        };
        let child_id = sched.register_derived(&child).unwrap();

        let mut net: Network<Message> = Network::new(3);
        sched.crash_and_recover(&mut net).unwrap();
        assert_eq!(sched.views().ids().len(), 3);
        assert_eq!(sched.views().resolve("late"), Some(late_id));
        assert_eq!(sched.views().resolve("late-hot"), Some(child_id));
        let specs = [early, late];
        assert_ground_truth(sched.views(), &specs, &initial3());

        let (sched, shadows) = drive_registered(sched, initial3(), &interfering_txns(), false);
        assert_ground_truth(sched.views(), &specs, &shadows);
        assert_eq!(
            sched.views().view_bag(child_id).unwrap(),
            sched.views().view_bag(late_id).unwrap()
        );
    }

    #[test]
    fn shard_local_updates_sweep_concurrently() {
        let specs = vec![ViewSpec::full("full", 3)];
        // Two pure updates, one per shard, 50µs apart with 1000µs links:
        // the second lane must start while the first is in flight.
        let txns = vec![
            (100u64, 1usize, Bag::from_tuples([tup![3, 5]])),
            (150, 1, Bag::from_tuples([tup![103, 105]])),
        ];
        let (sched, shadows) = run_sharded(
            ShardMap::range(100, 2),
            banded_initial(),
            &specs,
            &txns,
            false,
        );
        assert_ground_truth(sched.views(), &specs, &shadows);
        assert_eq!(sched.stats().max_concurrent_lanes, 2);
        assert_eq!(sched.stats().shard_local, 2);
        assert_eq!(sched.stats().escalations, 0);
        // Shard-locality is free: still exactly 2(n−1) messages each.
        assert_eq!(sched.metrics().queries_sent, 4);
        assert_eq!(sched.metrics().answers_received, 4);
    }

    #[test]
    fn out_of_order_completions_install_in_arrival_order() {
        let specs = vec![ViewSpec::full("full", 3)];
        // Update A (src 0, shard 0) needs a 2-hop sequential right leg
        // (~4000µs); update B (src 1, shard 1) needs one parallel
        // round-trip (~2000µs) and finishes first — but must install
        // second.
        let txns = vec![
            (100u64, 0usize, Bag::from_tuples([tup![2, 3]])),
            (150, 1, Bag::from_tuples([tup![103, 105]])),
        ];
        let (sched, shadows) = run_sharded(
            ShardMap::range(100, 2),
            banded_initial(),
            &specs,
            &txns,
            false,
        );
        assert_ground_truth(sched.views(), &specs, &shadows);
        assert_eq!(sched.stats().max_concurrent_lanes, 2);
        let id = sched.views().ids()[0];
        assert_eq!(
            consumed_log(&sched, id),
            vec![
                vec![UpdateId { source: 0, seq: 0 }],
                vec![UpdateId { source: 1, seq: 0 }],
            ],
            "sequencer must hold B's install behind A's"
        );
    }

    #[test]
    fn cross_shard_update_escalates_and_unions_the_groups() {
        let specs = vec![ViewSpec::full("full", 3)];
        let map = ShardMap::range(100, 2);
        // The impure R2 tuple [3, 103] straddles both bands: global
        // sweep, then shards 0 and 1 are one group forever after.
        let txns = vec![
            (100u64, 1usize, Bag::from_tuples([tup![3, 103]])),
            (10_000, 1, Bag::from_tuples([tup![3, 5]])),
            (10_050, 1, Bag::from_tuples([tup![103, 105]])),
        ];
        let (sched, shadows) = run_sharded(map, banded_initial(), &specs, &txns, false);
        assert_ground_truth(sched.views(), &specs, &shadows);
        assert_eq!(sched.stats().escalations, 1);
        assert_eq!(sched.stats().shard_local, 2);
        assert_eq!(sched.group_mask_of(0), 0b11);
        assert_eq!(sched.group_mask_of(1), 0b11);
        // Merged group ⇒ the two post-escalation updates serialized.
        assert_eq!(sched.stats().max_concurrent_lanes, 1);
    }

    #[test]
    fn impure_initial_data_seeds_merged_groups() {
        let mut sched = sharded(ShardMap::range(4, 3));
        // [5, 9] has bands {1, 2}: one impure resident merges them.
        sched.seed_groups(&Bag::from_tuples([tup![1, 2], tup![5, 9]]));
        assert_eq!(sched.group_mask_of(0), 0b001);
        assert_eq!(sched.group_mask_of(1), 0b110);
        assert_eq!(sched.group_mask_of(2), 0b110);
    }

    #[test]
    fn sharded_matches_unsharded_on_interfering_txns() {
        // The unsharded scheduler's own hostile workload: dense,
        // interfering, with escalations (range-8 bands cut through the
        // values) and impure initial residents. Byte-equal installs.
        let specs = vec![
            ViewSpec::full("full", 3),
            ViewSpec {
                lo: 1,
                hi: 2,
                ..ViewSpec::full("right-pair", 3)
            },
        ];
        let initial = vec![
            Bag::from_tuples([tup![1, 3], tup![2, 3], tup![2, 5]]),
            Bag::from_tuples([tup![3, 5], tup![5, 7], tup![3, 7]]),
            Bag::from_tuples([tup![5, 9], tup![7, 9], tup![7, 11]]),
        ];
        let txns = vec![
            (100u64, 1usize, Bag::from_tuples([tup![7, 9]])),
            (150, 0, Bag::from_tuples([tup![4, 7]])),
            (200, 2, Bag::from_tuples([tup![9, 13]])),
            (260, 1, Bag::from_pairs([(tup![3, 5], -1)])),
            (300, 0, Bag::from_tuples([tup![6, 3]])),
            (340, 2, Bag::from_pairs([(tup![5, 9], -1)])),
        ];
        let (sharded, shadows) =
            run_sharded(ShardMap::range(8, 2), initial.clone(), &specs, &txns, false);
        assert_ground_truth(sharded.views(), &specs, &shadows);

        // Unsharded reference run over the identical scenario.
        let flat = MaintenanceScheduler::new(base3(), SchedulerMode::Shared).unwrap();
        let (flat, _) = drive(flat, initial, &specs, &txns, false);

        assert_eq!(sharded.metrics().queries_sent, flat.metrics().queries_sent);
        for (sid, fid) in sharded.views().ids().into_iter().zip(flat.views().ids()) {
            assert_eq!(
                sharded.views().view_bag(sid).unwrap(),
                flat.views().view_bag(fid).unwrap()
            );
            assert_eq!(consumed_log(&sharded, sid), consumed_log(&flat, fid));
        }
    }

    #[test]
    fn a_state_crash_reseeds_every_lane_and_converges() {
        let specs = vec![ViewSpec::full("full", 3)];
        let txns = vec![
            (100u64, 1usize, Bag::from_tuples([tup![3, 5]])),
            (150, 1, Bag::from_tuples([tup![103, 105]])),
        ];
        // Both lanes are mid-sweep when the warehouse dies.
        let (sched, shadows) = run_sharded(
            ShardMap::range(100, 2),
            banded_initial(),
            &specs,
            &txns,
            true,
        );
        assert_ground_truth(sched.views(), &specs, &shadows);
        let recovery = sched.recovery_stats();
        assert_eq!((recovery.recoveries, recovery.sweeps_reseeded), (1, 2));
        // Each aborted lane had in-flight queries whose answers landed
        // after the crash — dropped by their incarnation, not folded.
        assert!(recovery.stale_answers_dropped >= 2);
        assert_eq!(sched.stats().max_concurrent_lanes, 2);
        // Install order still arrival order.
        let id = sched.views().ids()[0];
        assert_eq!(
            consumed_log(&sched, id),
            vec![
                vec![UpdateId { source: 1, seq: 0 }],
                vec![UpdateId { source: 1, seq: 1 }],
            ]
        );
    }

    /// The buffered commit: B (band 1, one parallel round trip) finishes
    /// while A (band 0, two sequential hops, the earlier ticket) is still
    /// sweeping, and the warehouse dies right then. Whether B's commit
    /// reaches recovery through the WAL or, already checkpointed, inside
    /// the image's sequencer, it must come back *buffered behind A* — and
    /// install second once the re-seeded A lands.
    #[test]
    fn a_commit_waiting_behind_an_earlier_ticket_survives_the_crash() {
        let specs = vec![ViewSpec::full("full", 3)];
        let txns = vec![
            (100u64, 0usize, Bag::from_tuples([tup![2, 3]])),
            (150, 1, Bag::from_tuples([tup![103, 105]])),
        ];
        for checkpoint_every in [usize::MAX, 1] {
            let mut sched = sharded(ShardMap::range(100, 2));
            register(&mut sched, &specs[0], &banded_initial());
            sched.enable_durability(DurabilityConfig { checkpoint_every });
            let mut net: Network<Message> = Network::new(7);
            let mut sources = sources(sched.views().base(), &banded_initial());
            let mut shadows = banded_initial();
            for &(at, src, ref delta) in &txns {
                shadows[src].merge(delta);
                net.inject(at, source_node(src), txn(src, delta.clone()));
            }
            let mut crashed = false;
            let done = sched.done.clone();
            pump_network(&mut net, &mut sched, &mut sources, |sched, _, net| {
                if crashed || done.lock().unwrap().len() != 1 {
                    return;
                }
                crashed = true;
                sched.crash_and_recover(net).unwrap();
                // Right after replay: A re-seeded and in flight, B's
                // commit held by the sequencer, nothing installed.
                assert_eq!(sched.recovery_stats().sweeps_reseeded, 1);
                assert_eq!((sched.lanes.len(), sched.lanes[0].task.ticket), (1, 0));
                assert_eq!(sched.sequencer.outstanding(), 2);
                let id = sched.views().ids()[0];
                assert_eq!(sched.views().metrics(id).unwrap().installs, 0);
            });
            assert!(crashed && sched.is_quiescent());
            assert_ground_truth(sched.views(), &specs, &shadows);
            assert_eq!(sched.completions().len(), 2, "committed B swept again");
            let id = sched.views().ids()[0];
            assert_eq!(
                consumed_log(&sched, id),
                vec![
                    vec![UpdateId { source: 0, seq: 0 }],
                    vec![UpdateId { source: 1, seq: 0 }],
                ],
                "cadence {checkpoint_every}: B's install overtook A's"
            );
        }
    }

    /// A checkpoint image is the view and its install count, so the
    /// 200th checkpoint of a run copies exactly what the 1st did —
    /// nothing — and recovery re-publishes under the image's count: the
    /// attached log keeps the same 200 installs, and the next install
    /// continues at epoch 201.
    #[test]
    fn a_checkpoint_costs_the_same_however_long_the_history() {
        let mut sched: Logged = MaintenanceScheduler::new(base3(), SchedulerMode::Shared)
            .unwrap()
            .into();
        let spec = ViewSpec::full("full", 3);
        let id = register(&mut sched, &spec, &initial3());
        sched.enable_durability(DurabilityConfig {
            checkpoint_every: 1,
        });
        // 201 single-update sweeps, each committed and checkpointed.
        let insert = |k: i64| Bag::from_tuples([tup![1_000 + k, 3]]);
        let txns: Vec<_> = (0..201)
            .map(|k| (100 + 10_000 * k, 0, insert(k as i64)))
            .collect();
        let (first, rest) = txns.split_at(1);
        let (rest, last) = rest.split_at(199);
        let (sched, _) = drive_registered(sched, initial3(), first, false);
        assert_eq!(sched.installs(id).len(), 1);
        let (mut sched, _) = drive_registered(sched, initial3(), rest, false);
        assert_eq!(sched.installs(id).len(), 200);
        assert_eq!(sched.durable_stats().unwrap().checkpoints_taken, 201);
        assert_eq!(sched.checkpoint_copied_tuples(), 0);

        let published = sched.installs(id);
        let mut net: Network<Message> = Network::new(3);
        sched.crash_and_recover(&mut net).unwrap();
        let mut shadows = initial3();
        shadows[0].merge(&Bag::from_tuples((0..200).map(|k| tup![1_000 + k, 3])));
        let (sched, _) = drive_registered(sched, shadows, last, false);
        let epochs: Vec<u64> = sched.installs(id).iter().map(|e| e.epoch).collect();
        assert_eq!(epochs, (1..=201).collect::<Vec<_>>());
        assert_eq!(sched.installs(id)[..200], published[..]);
    }

    /// Keeps a `Weak` of each published delta and drops the event; with
    /// `keep`, keeps every event too, replays included.
    #[derive(Default)]
    struct Tape {
        keep: bool,
        deltas: Vec<std::sync::Weak<Bag>>,
        events: Vec<dw_engine::InstallEvent>,
    }

    impl dw_engine::InstallPublisher for Tape {
        fn note_delivery(&mut self, _: usize, _: UpdateId, _: Time) {}
        fn publish(&mut self, event: dw_engine::InstallEvent) {
            self.deltas.push(Arc::downgrade(&event.delta));
            if self.keep {
                self.events.push(event);
            }
        }
    }

    /// `n` random transactions over `initial3`, 500 µs apart, and the
    /// relations after them.
    fn random_txns(seed: u64, n: usize) -> (Vec<(Time, usize, Bag)>, Vec<Bag>) {
        let mut rng = dw_rng::Rng64::new(seed);
        let mut shadows = initial3();
        let txns = (1..=n as u64).map(|k| {
            let src = rng.usize_below(3);
            let delta = random_txn(&mut rng, &shadows[src]);
            shadows[src].merge(&delta);
            (500 * k, src, delta)
        });
        (txns.collect(), shadows)
    }

    /// The warehouse keeps no install: with no publisher, and with one
    /// that drops each event, no delta outlives its publish. A durable
    /// run's recovery re-publishes from the image's install count, each
    /// event equal to the one first published.
    #[test]
    fn no_delta_outlives_its_publish_and_replays_continue_the_epochs() {
        let dead = |deltas: &[std::sync::Weak<Bag>]| deltas.iter().all(|d| d.strong_count() == 0);
        let specs = specs();
        let hot = DerivedSpec {
            name: "hot".into(),
            parent: "full".into(),
            op: DerivedOp::Select {
                selects: vec![(0, CmpOp::Ge, Value::Int(2))],
                projection: None,
            },
        };
        let scheduler = |initial: &[Bag]| {
            let mut sched = MaintenanceScheduler::new(base3(), SchedulerMode::Shared).unwrap();
            for spec in &specs {
                register(&mut sched, spec, initial);
            }
            sched.register_derived(&hot).unwrap();
            sched
        };

        // No publisher: the one install site, fed deltas only this test
        // holds.
        let mut sched = scheduler(&initial3());
        let full = sched.views().ids()[0];
        let deltas: Vec<_> = (0..50)
            .map(|k| {
                let delta = Arc::new(Bag::from_tuples([tup![100 + k, 3, 3, 5, 5, 9]]));
                let id = UpdateId {
                    source: 0,
                    seq: k as u64,
                };
                let at = k as Time;
                let consumed = [(id, at)];
                (sched.registry)
                    .apply_with_cascade(full, Arc::clone(&delta), &consumed, at)
                    .unwrap();
                Arc::downgrade(&delta)
            })
            .collect();
        assert_eq!(sched.views().metrics(full).unwrap().installs, 50);
        assert!(dead(&deltas), "the warehouse kept an installed delta");

        // A publisher that drops each event, over real sweeps.
        let (txns, shadows) = random_txns(0x7e7a, 40);
        let mut sched = scheduler(&initial3());
        let tape = Arc::new(std::sync::Mutex::new(Tape::default()));
        sched.set_install_publisher(tape.clone());
        let mut net: Network<Message> = Network::new(5);
        let mut srcs = sources(sched.views().base(), &initial3());
        for (at, src, delta) in &txns {
            net.inject(*at, source_node(*src), txn(*src, delta.clone()));
        }
        pump_network(&mut net, &mut sched, &mut srcs, |_, _, _| {});
        assert!(sched.is_quiescent());
        assert_ground_truth(sched.views(), &specs, &shadows);
        let published = tape.lock().unwrap().deltas.len() as u64;
        let installs = sched.views().ids().into_iter();
        let installs = installs.map(|id| sched.views().metrics(id).unwrap().installs);
        assert_eq!(published, installs.sum::<u64>());
        assert!(published >= 40);
        assert!(
            dead(&tape.lock().unwrap().deltas),
            "a published delta outlived its publish"
        );

        // Durable: crash once the tape holds 7 installs of the full view.
        let mut sched = scheduler(&initial3());
        sched.enable_durability(DurabilityConfig {
            checkpoint_every: 3,
        });
        let keep = Tape {
            keep: true,
            ..Tape::default()
        };
        let tape = Arc::new(std::sync::Mutex::new(keep));
        sched.set_install_publisher(tape.clone());
        let mut net: Network<Message> = Network::new(5);
        let mut srcs = sources(sched.views().base(), &initial3());
        for (at, src, delta) in &txns {
            net.inject(*at, source_node(*src), txn(*src, delta.clone()));
        }
        let mut crash = None;
        pump_network(&mut net, &mut sched, &mut srcs, |sched, _, net| {
            let (before, of_full) = {
                let events = &tape.lock().unwrap().events;
                let full = events.iter().filter(|e| e.view_index == 0);
                (events.len(), full.count())
            };
            if crash.is_some() || of_full < 7 {
                return;
            }
            let durable = sched.durable.as_ref().unwrap();
            let image = &durable.store.checkpoint_ref().unwrap().slots;
            let counts: Vec<u64> = image.iter().map(|s| s.sink.installs()).collect();
            sched.crash_and_recover(net).unwrap();
            crash = Some((before, tape.lock().unwrap().events.len(), counts));
        });
        let (before, after, image) = crash.unwrap();
        assert!(sched.is_quiescent());
        assert_ground_truth(sched.views(), &specs, &shadows);
        let events = &tape.lock().unwrap().events;
        let replayed = &events[before..after];
        assert!(!replayed.is_empty(), "the crash replayed nothing");
        for (slot, &count) in image.iter().enumerate() {
            let epochs: Vec<u64> = (replayed.iter())
                .filter(|e| e.view_index == slot)
                .map(|e| e.epoch)
                .collect();
            let expected: Vec<u64> = (count + 1..=count + epochs.len() as u64).collect();
            assert_eq!(
                epochs, expected,
                "slot {slot}: replay starts past the image"
            );
        }
        // Every replay equals the first event of its epoch.
        let first = |e: &dw_engine::InstallEvent| {
            let kept = events[..before].iter();
            kept.filter(|k| k.view_index == e.view_index)
                .nth(e.epoch as usize - 1)
        };
        assert!(replayed.iter().all(|e| first(e) == Some(e)));
        // Outside the replay each slot's epochs run 1, 2, … up to its
        // install count: the installs after recovery continue it.
        for (slot, id) in sched.views().ids().into_iter().enumerate() {
            let rest = events[..before].iter().chain(&events[after..]);
            let ours = rest.filter(|e| e.view_index == slot).map(|e| e.epoch);
            let installs = sched.views().metrics(id).unwrap().installs;
            assert_eq!(ours.collect::<Vec<_>>(), (1..=installs).collect::<Vec<_>>());
        }
    }

    /// A random source transaction over a small value domain (so the
    /// chain joins hit): an insert, or the delete of a tuple `shadow`
    /// holds.
    fn random_txn(rng: &mut dw_rng::Rng64, shadow: &Bag) -> Bag {
        let held: Vec<_> = shadow.iter().filter(|(_, c)| *c > 0).collect();
        if !held.is_empty() && rng.chance(0.3) {
            let (t, _) = held[rng.usize_below(held.len())];
            return Bag::from_pairs([(t.clone(), -1)]);
        }
        Bag::from_tuples([tup![rng.i64_in(1, 12), rng.i64_in(1, 12)]])
    }

    /// Image lineage, over seeded install streams, flat and in two shard
    /// lanes: per-view cadences, σ/Π/Σ children, checkpoints after every
    /// commit, every third and never (bar enable and recovery), and a
    /// state crash at a random warehouse delivery. Every checkpoint
    /// leaves each slot image equal to its live view (contents, install
    /// count, log length) at zero tuples copied; the live views copy
    /// nothing either; and the deep copies seeding the lineages add up
    /// to Σ|V| over the views at enable and over the images at recovery.
    /// Seed an image by a handle clone instead and installs copy. At the
    /// end each slot's install log, folded from its registered contents,
    /// is its view — one event per install.
    #[test]
    fn checkpoint_images_are_lineages_of_their_own() {
        for case in 0..36u64 {
            let mut rng = dw_rng::Rng64::new(0x11e5_0000 + case);
            let checkpoint_every = [1, 3, usize::MAX][case as usize % 3];
            let opts = EngineOptions::default();
            let map = (case % 2 == 1).then(|| ShardMap::range(6, 2));
            let mut sched: Logged = MaintenanceScheduler::with_shards(base3(), opts, map)
                .unwrap()
                .into();
            for bag in &initial3() {
                sched.seed_groups(bag);
            }
            let policies = [
                ViewPolicy::Sweep,
                ViewPolicy::Deferred { batch: 2 },
                ViewPolicy::Deferred { batch: 0 },
            ];
            let specs: Vec<ViewSpec> = specs()
                .into_iter()
                .map(|spec| ViewSpec {
                    policy: policies[rng.usize_below(policies.len())],
                    ..spec
                })
                .collect();
            for spec in &specs {
                register(&mut sched, spec, &initial3());
            }
            let derived = [
                (
                    "hot",
                    "full",
                    DerivedOp::Select {
                        selects: vec![(5, CmpOp::Ge, Value::Int(6))],
                        projection: None,
                    },
                ),
                (
                    "narrow",
                    "right-pair",
                    DerivedOp::Select {
                        selects: Vec::new(),
                        projection: Some(vec![1]),
                    },
                ),
                (
                    "per-a",
                    "full",
                    DerivedOp::Aggregate(dw_relational::AggregateSpec {
                        group_by: vec![0],
                        aggs: vec![
                            dw_relational::AggFn::CountRows,
                            dw_relational::AggFn::Max(5),
                        ],
                    }),
                ),
            ];
            let derived: Vec<DerivedSpec> = derived
                .into_iter()
                .map(|(name, parent, op)| DerivedSpec {
                    name: name.into(),
                    parent: parent.into(),
                    op,
                })
                .collect();
            sched.register_derived_many(&derived).unwrap();
            let registered: Vec<Bag> = (sched.views().ids().into_iter())
                .map(|id| sched.views().view_bag(id).unwrap().to_bag())
                .collect();
            let sizes = |sched: &MaintenanceScheduler| -> u64 {
                let views = sched.views();
                let len = |id| views.view_bag(id).unwrap().distinct_len() as u64;
                views.ids().into_iter().map(len).sum()
            };
            let mut seeded = sizes(&sched);
            sched.enable_durability(DurabilityConfig { checkpoint_every });
            assert_eq!(sched.checkpoint_seeded_tuples(), seeded, "case {case}");

            let mut net: Network<Message> = Network::new(case);
            let mut sources = sources(sched.views().base(), &initial3());
            let mut shadows = initial3();
            let mut at = 0;
            for _ in 0..24 {
                at += rng.u64_in(50, 3_000);
                let src = rng.usize_below(3);
                let delta = random_txn(&mut rng, &shadows[src]);
                shadows[src].merge(&delta);
                net.inject(at, source_node(src), txn(src, delta));
            }
            let mut crash_at = rng.usize_below(60);
            let (log, mut published) = (sched.log.clone(), vec![]);
            pump_network(&mut net, &mut sched, &mut sources, |sched, _, net| {
                if crash_at == 0 {
                    let ids = sched.views().ids().into_iter();
                    let log = |id: ViewId| log.lock().unwrap().installs(id.index()).to_vec();
                    published = ids.map(log).collect();
                    let durable = sched.durable.as_ref().unwrap();
                    let image = &durable.store.checkpoint_ref().unwrap().slots;
                    seeded += image
                        .iter()
                        .map(|s| s.sink.bag().distinct_len() as u64)
                        .sum::<u64>();
                    sched.crash_and_recover(net).unwrap();
                }
                crash_at = crash_at.wrapping_sub(1);
            });
            assert!(sched.is_quiescent(), "case {case}");
            assert_eq!(sched.recovery_stats().recoveries, 1, "case {case}");
            assert_ground_truth(sched.views(), &specs, &shadows);

            let durable = sched.durable.as_ref().unwrap();
            let matched = &durable.images_matched_live;
            assert_eq!(
                matched.len() as u64,
                durable.store.stats().checkpoints_taken
            );
            assert!(matched.iter().all(|&m| m), "case {case}: {matched:?}");
            assert_eq!(sched.checkpoint_copied_tuples(), 0, "case {case}");
            assert_eq!(sched.views().install_copied_tuples(), 0, "case {case}");
            assert_eq!(sched.checkpoint_seeded_tuples(), seeded, "case {case}");
            let views = sched.views();
            for (id, initial) in views.ids().into_iter().zip(registered) {
                let log = sched.installs(id);
                // Recovery re-published what was published before it.
                let before = published.get(id.index()).map_or(&[][..], Vec::as_slice);
                assert_eq!(&log[..before.len()], before, "case {case}");
                assert_eq!(log.len() as u64, views.metrics(id).unwrap().installs);
                let folded = dw_engine::view_states(initial.clone().into(), &log).last();
                let folded = folded.unwrap_or_else(|| initial.into());
                let name = views.name(id).unwrap();
                assert_eq!(&folded, views.view_bag(id).unwrap(), "case {case}: {name}");
            }
        }
    }

    #[test]
    fn a_cross_join_hop_puts_every_band_in_one_group() {
        // No `.join` names the pair: the hop is a cross product, which
        // joins across bands — so the bands start as one group.
        let cross = ViewDefBuilder::new()
            .relation(Schema::new("R1", ["A", "B"]).unwrap())
            .relation(Schema::new("R2", ["C", "D"]).unwrap())
            .build()
            .unwrap();
        let map = Some(ShardMap::range(10, 4));
        let sched = MaintenanceScheduler::with_shards(cross, EngineOptions::default(), map);
        let sched = sched.unwrap();
        assert!((0..4).all(|s| sched.group_mask_of(s) == 0b1111));
        // With an equi-join on every hop, every band is its own group.
        let sched = sharded(ShardMap::range(10, 4));
        assert!((0..4).all(|s| sched.group_mask_of(s) == 1 << s));
    }

    /// All `R2` inserts, 50 µs apart from t = 100 on 1000 µs links: the
    /// first sweeps alone (its round trip outlasts the burst), the rest
    /// queue behind whatever it claims.
    fn r2_burst(tuples: impl IntoIterator<Item = dw_relational::Tuple>) -> Vec<(Time, usize, Bag)> {
        let at = |k: usize| 100 + 50 * k as Time;
        let inserts = tuples.into_iter().enumerate();
        inserts
            .map(|(k, t)| (at(k), 1, Bag::from_tuples([t])))
            .collect()
    }

    /// The `seq`s each install of view `id` consumed.
    fn consumed_seqs(sched: &Logged, id: ViewId) -> Vec<Vec<u64>> {
        let seqs = |ids: Vec<UpdateId>| ids.iter().map(|u| u.seq).collect();
        consumed_log(sched, id).into_iter().map(seqs).collect()
    }

    #[test]
    fn a_lane_folds_its_batch_inside_its_mask() {
        let specs = vec![ViewSpec::full("full", 3)];
        // Band 0 busy with #0; #1 and #2 (band 0) queue behind it, #3
        // (band 1) sweeps beside it, #4 (band 0) queues. When band 0
        // frees, #1 folds #2 and stops: #3 has left for its own lane, and
        // folding #4 over it would install a state the source never had.
        let txns = r2_burst([
            tup![3, 7],
            tup![3, 9],
            tup![5, 5],
            tup![103, 107],
            tup![5, 9],
        ]);
        let sched = batched(ShardMap::range(100, 2), 4);
        let (sched, shadows) = drive(sched, banded_initial(), &specs, &txns, false);
        assert_ground_truth(sched.views(), &specs, &shadows);
        assert_eq!(sched.stats().max_concurrent_lanes, 2);
        let id = sched.views().ids()[0];
        assert_eq!(
            consumed_seqs(&sched, id),
            vec![vec![0], vec![1, 2], vec![3], vec![4]]
        );
        // Four sweeps for five updates.
        assert_eq!(sched.metrics().queries_sent, 4 * 2);
    }

    #[test]
    fn a_fold_ends_at_an_update_outside_the_lanes_mask() {
        let specs = vec![ViewSpec::full("full", 3)];
        // Lane X (R2, band 0) and lane Y (R1, band 1 — a two-hop right
        // leg, so it outlasts X) in flight; R2's #1 (band 0) and #2
        // (band 1) queued behind them. X finishes first: #1 may not fold
        // #2, whose band Y still sweeps — Y's query reached R2 after #2
        // was applied there, and only the queued #2 compensates for it.
        let txns = vec![
            (50u64, 1usize, Bag::from_tuples([tup![3, 7]])),
            (100, 0, Bag::from_tuples([tup![102, 103]])),
            (150, 1, Bag::from_tuples([tup![3, 9]])),
            (200, 1, Bag::from_tuples([tup![103, 105]])),
        ];
        let sched = batched(ShardMap::range(100, 2), 4);
        let (sched, shadows) = drive(sched, banded_initial(), &specs, &txns, false);
        assert_ground_truth(sched.views(), &specs, &shadows);
        let id = sched.views().ids()[0];
        let r = |source, seq| vec![UpdateId { source, seq }];
        assert_eq!(
            consumed_log(&sched, id),
            vec![r(1, 0), r(0, 0), r(1, 1), r(1, 2)]
        );
        assert!(sched.metrics().local_compensations > 0, "Y never met #2");
    }

    #[test]
    fn folded_impure_tuples_fuse_their_bands_at_the_commit() {
        let specs = vec![ViewSpec::full("full", 3)];
        // #1 touches bands 0 and 1 with two *pure* tuples — its mask is
        // {0, 1} but it fuses nothing; #2's tuple straddles the two and
        // folds into #1's lane. Its commit must leave 0 and 1 one group,
        // or later lanes would run side by side over rows they share.
        let mut txns = r2_burst([tup![3, 7], tup![3, 9], tup![3, 103]]);
        txns[1].2.merge(&Bag::from_tuples([tup![103, 107]]));
        let sched = batched(ShardMap::range(100, 3), 2);
        let (sched, shadows) = drive(sched, banded_initial3(), &specs, &txns, false);
        assert_ground_truth(sched.views(), &specs, &shadows);
        let id = sched.views().ids()[0];
        assert_eq!(consumed_seqs(&sched, id), vec![vec![0], vec![1, 2]]);
        assert_eq!(sched.group_mask_of(0), 0b011);
        assert_eq!(sched.group_mask_of(1), 0b011);
        assert_eq!(sched.group_mask_of(2), 0b100);
    }

    #[test]
    fn updates_nobody_references_hold_no_ticket() {
        // Only a view over R3: an R1 update must not hold a sequencer
        // slot, or the R3 install behind it would block forever.
        let specs = vec![ViewSpec {
            lo: 2,
            hi: 2,
            ..ViewSpec::full("r3-only", 3)
        }];
        let txns = vec![
            (100u64, 0usize, Bag::from_tuples([tup![4, 7]])),
            (200, 2, Bag::from_tuples([tup![9, 13]])),
        ];
        let (sched, shadows) = run_sharded(
            ShardMap::range(100, 2),
            banded_initial(),
            &specs,
            &txns,
            false,
        );
        assert_eq!(sched.stats().skipped, 1);
        let id = sched.views().ids()[0];
        assert_eq!(sched.installs(id).len(), 1);
        let refs: Vec<&Bag> = shadows[2..=2].iter().collect();
        let truth = eval_view(&specs[0].compile(sched.views().base()).unwrap(), &refs).unwrap();
        assert_eq!(sched.views().view_bag(id).unwrap(), &truth);
    }

    #[test]
    fn escalation_fence_holds_back_later_pure_updates() {
        let specs = vec![ViewSpec::full("full", 3)];
        // A pure update in flight, then one straddling both bands, then a
        // pure one in the still-free band 1. The third overlaps the
        // second's mask {0, 1}, and the second is earlier and still
        // queued, so the mask rule serialises all three — one lane at a
        // time, installs in arrival order.
        let txns = vec![
            (100u64, 1usize, Bag::from_tuples([tup![3, 5]])),
            (150, 1, Bag::from_tuples([tup![3, 103]])),
            (200, 1, Bag::from_tuples([tup![103, 105]])),
        ];
        let (sched, shadows) = run_sharded(
            ShardMap::range(100, 2),
            banded_initial(),
            &specs,
            &txns,
            false,
        );
        assert_ground_truth(sched.views(), &specs, &shadows);
        assert_eq!(sched.stats().escalations, 1);
        assert_eq!(sched.stats().max_concurrent_lanes, 1);
        let id = sched.views().ids()[0];
        let consumed: Vec<u64> = sched
            .installs(id)
            .iter()
            .flat_map(|rec| rec.consumed.iter().map(|u| u.seq))
            .collect();
        assert_eq!(consumed, vec![0, 1, 2]);
    }

    /// `banded_initial` plus a third band (values 200..) for
    /// `ShardMap::range(100, 3)`.
    fn banded_initial3() -> Vec<Bag> {
        let mut initial = banded_initial();
        for (bag, t) in initial
            .iter_mut()
            .zip([tup![201, 203], tup![203, 205], tup![205, 209]])
        {
            bag.merge(&Bag::from_tuples([t]));
        }
        initial
    }

    #[test]
    fn a_straddling_update_sweeps_beside_the_bands_it_does_not_touch() {
        let specs = vec![ViewSpec::full("full", 3)];
        // Band 2 in flight; then an update straddling {0, 1} — disjoint
        // from band 2, so it starts at once; then a band-2 update (waits
        // for its own band's lane) and a band-0 one (waits for the
        // straddler, which holds band 0).
        let txns = vec![
            (100u64, 1usize, Bag::from_tuples([tup![203, 207]])),
            (150, 1, Bag::from_tuples([tup![3, 103]])),
            (200, 1, Bag::from_tuples([tup![205, 205]])),
            (250, 1, Bag::from_tuples([tup![3, 7]])),
        ];
        let map = ShardMap::range(100, 3);
        let (sched, shadows) = run_sharded(map, banded_initial3(), &specs, &txns, false);
        assert_ground_truth(sched.views(), &specs, &shadows);
        let stats = sched.stats();
        assert_eq!((stats.escalations, stats.shard_local), (1, 3));
        assert!(stats.max_concurrent_lanes >= 2, "the straddler ran alone");
        // The straddler's impure tuple merged bands 0 and 1, so the
        // band-0 update ran under the same mask — and only after the
        // straddler finished: a full query round trip later, not beside it.
        assert_eq!(sched.group_mask_of(0), 0b011);
        let of_01: Vec<Time> = (sched.completions().iter())
            .filter(|&&(mask, _)| mask == 0b011)
            .map(|&(_, at)| at)
            .collect();
        assert_eq!(of_01.len(), 2);
        assert!(of_01[1] >= of_01[0] + 2_000, "{of_01:?}");
        let id = sched.views().ids()[0];
        let seqs =
            |log: Vec<Vec<UpdateId>>| -> Vec<u64> { log.iter().flatten().map(|u| u.seq).collect() };
        assert_eq!(seqs(consumed_log(&sched, id)), vec![0, 1, 2, 3]);
    }

    #[test]
    fn a_state_crash_reseeds_a_multi_band_lane_under_its_mask() {
        let specs = vec![ViewSpec::full("full", 3)];
        // The only lane in flight holds bands {0, 1}; the warehouse dies
        // at its first answer. The re-seeded lane claims the same mask.
        let txns = vec![(100u64, 1usize, Bag::from_tuples([tup![3, 103]]))];
        let map = ShardMap::range(100, 3);
        let (sched, shadows) = run_sharded(map, banded_initial3(), &specs, &txns, true);
        assert_ground_truth(sched.views(), &specs, &shadows);
        let recovery = sched.recovery_stats();
        assert_eq!((recovery.recoveries, recovery.sweeps_reseeded), (1, 1));
        assert!(recovery.stale_answers_dropped >= 1);
        let completions = sched.completions();
        assert_eq!(completions.len(), 1);
        assert_eq!(completions[0].0, 0b011);
        // The commit fused the groups, on the recovered scheduler too.
        assert_eq!(sched.group_mask_of(0), 0b011);
    }

    /// The mask rule itself, on 1 200 seeded scheduler states — random
    /// group partitions, lanes in flight, queued deltas touching zero to
    /// three bands: what one scan starts is pairwise disjoint and
    /// disjoint from every lane; nothing started overlaps an *earlier*
    /// queued update; and everything left waiting overlaps a lane or an
    /// earlier queued update (the scan is maximal).
    #[test]
    fn one_scan_starts_a_maximal_disjoint_set_that_overtakes_nothing_it_overlaps() {
        let mut rng = dw_rng::Rng64::new(0x1a9e);
        let mut net: Network<Message> = Network::new(1);
        let (mut started_total, mut waiting_total) = (0, 0);
        for case in 0..1_200 {
            let s = 2 + rng.usize_below(11);
            let mut sched = sharded(ShardMap::range(10, s));
            sched
                .register(&ViewSpec::full("full", 3), Bag::new())
                .unwrap();
            for _ in 0..rng.usize_below(s / 2 + 1) {
                sched.union_mask(1 << rng.usize_below(s) | 1 << rng.usize_below(s));
            }
            // A delta over R2 touching exactly `bands`.
            let delta_over = |bands: &[usize]| {
                let v = |b: usize| 10 * b as i64;
                let pairs = bands.iter().zip(bands.iter().cycle().skip(1));
                Bag::from_tuples(pairs.map(|(&a, &b)| tup![v(a), v(b)]))
            };
            let mut in_flight = 0u64;
            for _ in 0..rng.usize_below(3) {
                let band = rng.usize_below(s);
                let mask = groups_of(&sched.groups, 1 << band);
                if mask & in_flight == 0 {
                    in_flight |= mask;
                    let views = sched.views().ids();
                    let task = r2_task(mask, delta_over(&[band]), 0, 2, views);
                    sched.begin(&mut net, task).unwrap();
                }
            }
            let mut queued = Vec::new();
            for seq in 0..rng.usize_below(9) as u64 {
                let touched: Vec<usize> = (0..rng.usize_below(4))
                    .map(|_| rng.usize_below(s))
                    .collect();
                let update = SourceUpdate {
                    id: UpdateId { source: 1, seq },
                    delta: delta_over(&touched),
                    global: None,
                };
                sched.note_update(&update, 0).unwrap();
                sched.core.queue.push(update, 0);
                // The oracle's mask: band 0 for an empty delta.
                let home: &[usize] = if touched.is_empty() { &[0] } else { &touched };
                queued.push(home.iter().fold(0, |m, &b| m | sched.group_mask_of(b)));
            }

            let actions = sched.plan_scan();
            let started: Vec<usize> = actions.iter().map(|(id, _)| id.seq as usize).collect();
            for (&i, (_, mask)) in started.iter().zip(&actions) {
                assert_eq!(*mask, Some(queued[i]), "case {case}");
                assert_eq!(
                    queued[i] & in_flight,
                    0,
                    "case {case}: #{i} overlaps a lane"
                );
                for (e, earlier) in queued[..i].iter().enumerate() {
                    assert_eq!(queued[i] & earlier, 0, "case {case}: #{i} overtook #{e}");
                }
            }
            for (i, &mask) in queued.iter().enumerate() {
                let earlier = queued[..i].iter().fold(in_flight, |m, e| m | e);
                if !started.contains(&i) {
                    assert_ne!(mask & earlier, 0, "case {case}: #{i} could have started");
                }
            }
            started_total += started.len();
            waiting_total += queued.len() - started.len();
        }
        // Both outcomes are well represented.
        assert!(
            started_total > 1_000 && waiting_total > 1_000,
            "{started_total} {waiting_total}"
        );
    }

    /// SWEEP over one view — Figure 4's walk, §5.3's legs, short-circuit
    /// and pipelining — driven by hand (answers crafted as a source
    /// would) and through real sources.
    mod one_view {
        use super::*;
        use dw_protocol::{SweepAnswer, SweepQuery};
        use dw_simnet::{LatencyModel, ENV};

        /// The paper's running example: `Π[D,F](R1 ⋈ R2 ⋈ R3)`.
        fn paper_view() -> ViewDef {
            ViewDefBuilder::new()
                .relation(Schema::new("R1", ["A", "B"]).unwrap())
                .relation(Schema::new("R2", ["C", "D"]).unwrap())
                .relation(Schema::new("R3", ["E", "F"]).unwrap())
                .join("R1.B", "R2.C")
                .join("R2.D", "R3.E")
                .project(["R2.D", "R3.F"])
                .build()
                .unwrap()
        }

        /// `R1(A,B) ⋈ R2(C,D)` with the identity projection.
        fn two_chain() -> ViewDef {
            ViewDefBuilder::new()
                .relation(Schema::new("R1", ["A", "B"]).unwrap())
                .relation(Schema::new("R2", ["C", "D"]).unwrap())
                .join("R1.B", "R2.C")
                .build()
                .unwrap()
        }

        fn deliver(at: Time, msg: Message) -> Delivery<Message> {
            let to = WAREHOUSE_NODE;
            Delivery {
                at,
                from: ENV,
                to,
                msg,
            }
        }

        fn update(source: usize, seq: u64, delta: Bag) -> Message {
            let id = UpdateId { source, seq };
            Message::Update(SourceUpdate {
                id,
                delta,
                global: None,
            })
        }

        fn answer(qid: u64, lo: usize, hi: usize, bag: Bag) -> Message {
            let partial = PartialDelta { lo, hi, bag };
            Message::SweepAnswer(SweepAnswer { qid, partial })
        }

        /// The next query on the wire, and the source it went to.
        fn query(net: &mut Network<Message>) -> (usize, SweepQuery) {
            let d = net.next().unwrap();
            let Message::SweepQuery(q) = d.msg else {
                panic!("expected a query, got {:?}", d.msg)
            };
            (node_source(d.to), q)
        }

        /// SWEEP over `view` alone under `opts`, σ pushed: a scheduler
        /// over the view's bare chain with the view as its one spec.
        fn sweep_over(view: &ViewDef, initial: Bag, mut opts: EngineOptions) -> (Logged, ViewId) {
            opts.pushdown = true;
            let mut sched = MaintenanceScheduler::with_shards(view.chain(), opts, None).unwrap();
            let spec = ViewSpec::of("view", view).unwrap();
            let id = sched.register(&spec, initial).unwrap();
            (sched.into(), id)
        }

        struct OneView {
            sched: Logged,
            id: ViewId,
            net: Network<Message>,
        }

        impl OneView {
            fn new(view: ViewDef, initial: Bag, opts: EngineOptions) -> OneView {
                let (sched, id) = sweep_over(&view, initial, opts);
                let net = Network::new(0);
                OneView { sched, id, net }
            }

            fn on(&mut self, at: Time, msg: Message) -> Result<(), MvError> {
                self.sched.on_message(deliver(at, msg), &mut self.net)
            }

            fn view(&self) -> &SharedBag {
                self.sched.views().view_bag(self.id).unwrap()
            }

            fn installs(&self) -> Vec<dw_engine::InstallEvent> {
                self.sched.installs(self.id)
            }
        }

        #[test]
        fn pipelining_compensates_only_for_later_arrivals() {
            // Update A (first, source 1) sweeps toward source 0; update B
            // (second, source 0) arrives before A's answer → compensate
            // A. Then B's own sweep toward source 1 must NOT compensate
            // for A (A arrived earlier), though A is from source 1 and
            // its sweep started beside B's.
            let unbounded = EngineOptions {
                window: 0,
                ..EngineOptions::FIGURE_4
            };
            let mut wh = OneView::new(two_chain(), Bag::new(), unbounded);
            wh.on(0, update(1, 0, Bag::from_tuples([tup![3, 9]])))
                .unwrap();
            let (to, qa) = query(&mut wh.net);
            assert_eq!((to, qa.side), (0, JoinSide::Left));
            wh.on(1, update(0, 0, Bag::from_tuples([tup![7, 3]])))
                .unwrap();
            let (to, qb) = query(&mut wh.net);
            assert_eq!((to, qb.side), (1, JoinSide::Right));
            assert_eq!(wh.sched.lanes.len(), 2, "both sweeps in flight at once");

            // A's answer includes B's tuple (the source applied it).
            let joined = Bag::from_tuples([tup![7, 3, 3, 9]]);
            wh.on(5, answer(qa.qid, 0, 1, joined.clone())).unwrap();
            assert_eq!(wh.sched.metrics().local_compensations, 1);
            // A's install: the error term (7,3)⋈(3,9) removed → empty ΔV.
            assert_eq!(wh.installs().len(), 1);
            assert!(wh.installs()[0].delta.is_empty());

            // B's answer from source 1 includes A's tuple (3,9) — right
            // for B's target state (A precedes B): no compensation.
            wh.on(6, answer(qb.qid, 0, 1, joined.clone())).unwrap();
            assert_eq!(wh.sched.metrics().local_compensations, 1);
            assert_eq!(wh.installs().len(), 2);
            assert_eq!(wh.view(), &joined, "the joined tuple exactly once");
            assert!(wh.sched.is_quiescent());
        }

        #[test]
        fn out_of_order_pipelined_answers_install_in_arrival_order() {
            let unbounded = EngineOptions {
                window: 0,
                ..EngineOptions::FIGURE_4
            };
            let mut wh = OneView::new(two_chain(), Bag::new(), unbounded);
            wh.on(0, update(0, 0, Bag::from_tuples([tup![1, 3]])))
                .unwrap();
            wh.on(1, update(0, 1, Bag::from_tuples([tup![2, 4]])))
                .unwrap();
            let ((_, q1), (_, q2)) = (query(&mut wh.net), query(&mut wh.net));
            // The second answers first: nothing installs yet.
            let a2 = answer(q2.qid, 0, 1, Bag::from_tuples([tup![2, 4, 4, 9]]));
            wh.on(10, a2).unwrap();
            assert!(wh.installs().is_empty());
            let a1 = answer(q1.qid, 0, 1, Bag::from_tuples([tup![1, 3, 3, 7]]));
            wh.on(11, a1).unwrap();
            let seqs: Vec<u64> = wh.installs().iter().map(|r| r.consumed[0].seq).collect();
            assert_eq!(seqs, vec![0, 1]);
            assert!(wh.sched.is_quiescent());
        }

        #[test]
        fn two_legs_merge_the_support_counted_right_leg() {
            let mut wh = OneView::new(
                paper_view(),
                Bag::from_pairs([(tup![7, 8], 2)]),
                EngineOptions::default(),
            );
            // ΔR2 = +(3,5) with multiplicity 3 to exercise count handling.
            wh.on(0, update(1, 0, Bag::from_pairs([(tup![3, 5], 3)])))
                .unwrap();
            let (to, lq) = query(&mut wh.net);
            assert_eq!((to, lq.side), (0, JoinSide::Left));
            assert_eq!(lq.partial.bag.count(&tup![3, 5]), 3, "true delta");
            let (to, rq) = query(&mut wh.net);
            assert_eq!((to, rq.side), (2, JoinSide::Right));
            assert_eq!(rq.partial.bag.count(&tup![3, 5]), 1, "support");

            // Right answer first (R3 matches (5,6)): the left leg is out.
            wh.on(
                5,
                answer(rq.qid, 1, 2, Bag::from_tuples([tup![3, 5, 5, 6]])),
            )
            .unwrap();
            assert!(wh.installs().is_empty(), "must wait for the left leg");
            // Left answer: R1 has two matches, counts ×3.
            let left = Bag::from_pairs([(tup![1, 3, 3, 5], 3), (tup![2, 3, 3, 5], 3)]);
            wh.on(6, answer(lq.qid, 0, 1, left)).unwrap();
            // Π[D,F] gives (5,6) with count 2 matches × 3 = 6.
            let want = Bag::from_pairs([(tup![5, 6], 6), (tup![7, 8], 2)]);
            assert_eq!(wh.view(), &want);
            assert!(wh.sched.is_quiescent());
        }

        #[test]
        fn figure_4_walks_left_then_right_one_query_at_a_time() {
            let mut wh = OneView::new(
                paper_view(),
                Bag::from_pairs([(tup![7, 8], 2)]),
                EngineOptions::FIGURE_4,
            );
            wh.on(0, update(1, 0, Bag::from_tuples([tup![3, 5]])))
                .unwrap();
            let (to, q1) = query(&mut wh.net);
            assert_eq!((to, q1.side), (0, JoinSide::Left));
            assert!(wh.net.next().is_none(), "one query in flight");
            let left = Bag::from_tuples([tup![1, 3, 3, 5], tup![2, 3, 3, 5]]);
            wh.on(5, answer(q1.qid, 0, 1, left)).unwrap();
            let (to, q2) = query(&mut wh.net);
            assert_eq!((to, q2.side), (2, JoinSide::Right));
            let full = Bag::from_tuples([tup![1, 3, 3, 5, 5, 6], tup![2, 3, 3, 5, 5, 6]]);
            wh.on(6, answer(q2.qid, 0, 2, full)).unwrap();
            let want = Bag::from_pairs([(tup![5, 6], 2), (tup![7, 8], 2)]);
            assert_eq!(wh.view(), &want);
            assert_eq!(wh.sched.metrics().queries_sent, 2);
            assert_eq!(wh.installs().len(), 1);
        }

        #[test]
        fn an_empty_seed_short_circuits_without_a_query() {
            // σ R1.A > 100, the view's own, filters the seed: an update
            // it turns away is provably no view change.
            let view = ViewDefBuilder::new()
                .relation(Schema::new("R1", ["A", "B"]).unwrap())
                .relation(Schema::new("R2", ["C", "D"]).unwrap())
                .join("R1.B", "R2.C")
                .select("R1.A", CmpOp::Gt, 100)
                .build()
                .unwrap();
            let opts = EngineOptions {
                short_circuit_empty: true,
                ..EngineOptions::FIGURE_4
            };
            let mut wh = OneView::new(view, Bag::new(), opts);
            wh.on(0, update(0, 0, Bag::from_tuples([tup![1, 3]])))
                .unwrap();
            assert_eq!(wh.sched.metrics().queries_sent, 0);
            assert_eq!(wh.installs().len(), 1);
            assert!(wh.view().is_empty() && wh.sched.is_quiescent());
        }

        #[test]
        fn a_one_leg_walk_stops_when_its_partial_empties() {
            let opts = EngineOptions {
                short_circuit_empty: true,
                ..EngineOptions::FIGURE_4
            };
            let initial = Bag::from_pairs([(tup![7, 8], 2)]);
            let mut wh = OneView::new(paper_view(), initial.clone(), opts);
            wh.on(0, update(1, 0, Bag::from_tuples([tup![3, 5]])))
                .unwrap();
            let (_, q1) = query(&mut wh.net);
            // R1 joins nothing: the walk stops, R3 is never asked.
            wh.on(5, answer(q1.qid, 0, 1, Bag::new())).unwrap();
            assert!(wh.net.next().is_none());
            assert_eq!(wh.sched.metrics().queries_sent, 1);
            assert_eq!((wh.installs().len(), wh.view()), (1, &initial.into()));
        }

        #[test]
        fn a_single_relation_chain_installs_without_queries() {
            let view = ViewDefBuilder::new()
                .relation(Schema::new("R1", ["A", "B"]).unwrap())
                .project(["R1.B"])
                .build()
                .unwrap();
            let mut wh = OneView::new(view, Bag::new(), EngineOptions::FIGURE_4);
            wh.on(0, update(0, 0, Bag::from_tuples([tup![1, 7]])))
                .unwrap();
            assert_eq!(wh.view(), &Bag::from_pairs([(tup![7], 1)]));
            assert_eq!(wh.sched.metrics().queries_sent, 0);
            assert!(wh.sched.is_quiescent());
        }

        #[test]
        fn an_answer_to_a_query_never_sent_is_refused() {
            for opts in [EngineOptions::FIGURE_4, EngineOptions::FIGURE_6] {
                let mut wh = OneView::new(paper_view(), Bag::new(), opts);
                let idle = wh.on(0, answer(0, 0, 0, Bag::new()));
                assert!(matches!(
                    idle,
                    Err(MvError::Warehouse(WarehouseError::UnknownQuery { qid: 0 }))
                ));
                wh.on(1, update(1, 0, Bag::from_tuples([tup![3, 5]])))
                    .unwrap();
                let res = wh.on(2, answer(999, 0, 1, Bag::new()));
                assert!(matches!(
                    res,
                    Err(MvError::Warehouse(WarehouseError::UnknownQuery {
                        qid: 999
                    }))
                ));
            }
        }

        #[test]
        fn without_concurrency_nesting_is_sweep() {
            let mut wh = OneView::new(
                paper_view(),
                Bag::from_pairs([(tup![7, 8], 2)]),
                EngineOptions::FIGURE_6,
            );
            wh.on(0, update(1, 0, Bag::from_tuples([tup![3, 5]])))
                .unwrap();
            let (to, q1) = query(&mut wh.net);
            assert_eq!((to, q1.side), (0, JoinSide::Left));
            let left = Bag::from_tuples([tup![1, 3, 3, 5], tup![2, 3, 3, 5]]);
            wh.on(5, answer(q1.qid, 0, 1, left)).unwrap();
            let (to, q2) = query(&mut wh.net);
            assert_eq!(to, 2);
            let full = Bag::from_tuples([tup![1, 3, 3, 5, 5, 6], tup![2, 3, 3, 5, 5, 6]]);
            wh.on(6, answer(q2.qid, 0, 2, full)).unwrap();
            let want = Bag::from_pairs([(tup![5, 6], 2), (tup![7, 8], 2)]);
            assert_eq!(wh.view(), &want);
            let m = wh.sched.metrics();
            assert_eq!((m.queries_sent, m.max_recursion_depth), (2, 1));
            assert!(wh.sched.is_quiescent());
        }

        /// ΔR2 = +(3,5) is in flight; ΔR1 = −(2,3) arrives before R1's
        /// answer. Figure 6: the hop compensates for it, absorbs it into
        /// a child run over the covered segment, and one install
        /// consumes both.
        #[test]
        fn a_hop_absorbs_a_queued_update_into_a_child_run() {
            let mut wh = OneView::new(
                paper_view(),
                Bag::from_pairs([(tup![7, 8], 2)]),
                EngineOptions::FIGURE_6,
            );
            wh.on(0, update(1, 0, Bag::from_tuples([tup![3, 5]])))
                .unwrap();
            let (_, q1) = query(&mut wh.net);
            wh.on(1, update(0, 0, Bag::from_pairs([(tup![2, 3], -1)])))
                .unwrap();
            // R1 answers on its post-delete state.
            let left = Bag::from_tuples([tup![1, 3, 3, 5]]);
            wh.on(5, answer(q1.qid, 0, 1, left)).unwrap();
            assert_eq!(wh.sched.metrics().local_compensations, 1);
            assert_eq!(wh.sched.lanes[0].children.len(), 1, "child frame pushed");
            assert!(wh.sched.core.queue.is_empty(), "ΔR1 left the queue");

            // The child evaluates ΔR1's missing right part: a query to
            // source 1 (covered range [0, 0] → extend right), carrying ΔR1.
            let (to, qr) = query(&mut wh.net);
            assert_eq!((to, qr.side), (1, JoinSide::Right));
            assert_eq!(qr.partial.bag, Bag::from_pairs([(tup![2, 3], -1)]));
            // R2 = {(3,7), (3,5)} answers −(2,3) ⋈ R2.
            let joined = Bag::from_pairs([(tup![2, 3, 3, 7], -1), (tup![2, 3, 3, 5], -1)]);
            wh.on(6, answer(qr.qid, 0, 1, joined)).unwrap();
            // The child covered the parent's segment and folded into it;
            // the combined partial sweeps on to source 2.
            assert!(wh.sched.lanes[0].children.is_empty());
            let (to, q2) = query(&mut wh.net);
            assert_eq!(to, 2);
            // (1,3,3,5) + (2,3,3,5) − (2,3,3,5) − (2,3,3,7).
            let combined = Bag::from_pairs([(tup![1, 3, 3, 5], 1), (tup![2, 3, 3, 7], -1)]);
            assert_eq!(q2.partial.bag, combined);
            let full = Bag::from_pairs([(tup![1, 3, 3, 5, 5, 6], 1), (tup![2, 3, 3, 7, 7, 8], -1)]);
            wh.on(7, answer(q2.qid, 0, 2, full)).unwrap();

            assert_eq!(wh.installs().len(), 1);
            let both = vec![
                UpdateId { source: 1, seq: 0 },
                UpdateId { source: 0, seq: 0 },
            ];
            assert_eq!(wh.installs()[0].consumed, both);
            // V = {(7,8)[2]} + (5,6) − (7,8).
            let want = Bag::from_pairs([(tup![5, 6], 1), (tup![7, 8], 1)]);
            assert_eq!(wh.view(), &want);
            assert_eq!(wh.sched.metrics().max_recursion_depth, 2);
            assert!(wh.sched.is_quiescent());
        }

        /// Two queued updates from one source that cancel outright are
        /// absorbed whole — both consumed, neither skipped — while the
        /// hop subtracts nothing: their merged `ΔR_j` is empty.
        #[test]
        fn a_cancelling_pair_is_absorbed_without_a_compensation() {
            let mut wh = OneView::new(paper_view(), Bag::new(), EngineOptions::FIGURE_6);
            wh.on(0, update(1, 0, Bag::from_tuples([tup![3, 5]])))
                .unwrap();
            let (_, q1) = query(&mut wh.net);
            wh.on(1, update(0, 0, Bag::from_tuples([tup![2, 3]])))
                .unwrap();
            wh.on(2, update(0, 1, Bag::from_pairs([(tup![2, 3], -1)])))
                .unwrap();
            let left = Bag::from_tuples([tup![1, 3, 3, 5]]);
            wh.on(5, answer(q1.qid, 0, 1, left)).unwrap();
            assert_eq!(wh.sched.metrics().local_compensations, 0);
            let (to, qr) = query(&mut wh.net);
            assert_eq!(to, 1);
            assert!(qr.partial.bag.is_empty(), "the pair seeds an empty child");
            wh.on(6, answer(qr.qid, 0, 1, Bag::new())).unwrap();
            let (_, q2) = query(&mut wh.net);
            wh.on(7, answer(q2.qid, 0, 2, Bag::new())).unwrap();
            let seqs: Vec<(usize, u64)> = (wh.installs()[0].consumed.iter())
                .map(|id| (id.source, id.seq))
                .collect();
            assert_eq!(seqs, vec![(1, 0), (0, 0), (0, 1)]);
            assert!(wh.sched.is_quiescent());
        }

        /// §6.2's forced termination: at depth 2 a child's own hop may
        /// not nest again — it compensates SWEEP-style, leaves the update
        /// queued and counts a bound hit. Depth 1 (SWEEP) counts none.
        #[test]
        fn at_the_depth_bound_a_hop_stays_sweep_style() {
            for (depth, hits) in [(2, 1), (1, 0)] {
                let opts = EngineOptions {
                    depth,
                    ..EngineOptions::FIGURE_6
                };
                let initial = Bag::from_pairs([(tup![7, 8], 2)]);
                let mut wh = OneView::new(paper_view(), initial, opts);
                wh.on(0, update(1, 0, Bag::from_tuples([tup![3, 5]])))
                    .unwrap();
                let (_, q1) = query(&mut wh.net);
                wh.on(1, update(0, 0, Bag::from_pairs([(tup![2, 3], -1)])))
                    .unwrap();
                let left = Bag::from_tuples([tup![1, 3, 3, 5]]);
                wh.on(5, answer(q1.qid, 0, 1, left)).unwrap();
                let (to, q) = query(&mut wh.net);
                if depth == 1 {
                    // SWEEP: ΔR1 stays queued, the walk goes on right.
                    assert_eq!((to, wh.sched.core.queue.len()), (2, 1));
                    assert_eq!(wh.sched.metrics().depth_bound_hits, hits);
                    continue;
                }
                // The child asks R2, which meanwhile applied ΔR2' = +(3,9).
                wh.on(6, update(1, 1, Bag::from_tuples([tup![3, 9]])))
                    .unwrap();
                let joined = Bag::from_pairs([
                    (tup![2, 3, 3, 7], -1),
                    (tup![2, 3, 3, 5], -1),
                    (tup![2, 3, 3, 9], -1),
                ]);
                wh.on(7, answer(q.qid, 0, 1, joined)).unwrap();
                let m = wh.sched.metrics();
                assert_eq!((m.depth_bound_hits, m.max_recursion_depth), (hits, 2));
                assert_eq!(wh.sched.core.queue.len(), 1, "ΔR2' stays queued");
                assert!(wh.sched.lanes[0].children.is_empty());
                let (to, q2) = query(&mut wh.net);
                assert_eq!(to, 2);
                // ΔR2' compensated out of the child's partial.
                let combined = Bag::from_pairs([(tup![1, 3, 3, 5], 1), (tup![2, 3, 3, 7], -1)]);
                assert_eq!(q2.partial.bag, combined);
            }
        }

        /// Drive a one-view scheduler and real sources over its view to
        /// quiescence through `txns`.
        fn through_sources(
            opts: EngineOptions,
            latency: LatencyModel,
            txns: &[(Time, usize, Bag)],
        ) -> (Logged, ViewId, Vec<Bag>) {
            let initial = vec![
                Bag::from_tuples([tup![1, 3], tup![2, 3]]),
                Bag::from_tuples([tup![3, 7]]),
                Bag::from_tuples([tup![5, 6], tup![7, 8]]),
            ];
            let view = paper_view();
            let refs: Vec<&Bag> = initial.iter().collect();
            let start = eval_view(&view, &refs).unwrap();
            let (mut sched, id) = sweep_over(&view, start, opts);
            let mut net: Network<Message> = Network::new(11);
            net.set_default_latency(latency);
            let mut srcs = sources(&view, &initial);
            let mut rels = initial;
            for &(at, src, ref delta) in txns {
                rels[src].merge(delta);
                net.inject(at, source_node(src), txn(src, delta.clone()));
            }
            pump_network(&mut net, &mut sched, &mut srcs, |_, _, _| {});
            assert!(sched.is_quiescent());
            let refs: Vec<&Bag> = rels.iter().collect();
            let truth = eval_view(&view, &refs).unwrap();
            assert_eq!(sched.views().view_bag(id).unwrap(), &truth);
            (sched, id, rels)
        }

        #[test]
        fn figure_5_through_real_sources_matches_truth() {
            // The paper's three updates, nearly simultaneous.
            let txns = [
                (0, 1, Bag::from_pairs([(tup![3, 5], 1)])),
                (500, 2, Bag::from_pairs([(tup![7, 8], -1)])),
                (900, 0, Bag::from_pairs([(tup![2, 3], -1)])),
            ];
            let latency = LatencyModel::Uniform(500, 5_000);
            let (sched, id, _) = through_sources(EngineOptions::FIGURE_4, latency, &txns);
            let view = sched.views().view_bag(id).unwrap();
            assert_eq!(view, &Bag::from_pairs([(tup![5, 6], 1)]));
            assert_eq!(sched.installs(id).len(), 3);
        }

        #[test]
        fn nested_sweep_through_real_sources_matches_truth() {
            let txns = [
                (0, 1, Bag::from_pairs([(tup![3, 5], 1)])),
                (700, 0, Bag::from_pairs([(tup![1, 3], -1)])),
                (1_400, 2, Bag::from_pairs([(tup![5, 6], -1)])),
                (2_100, 1, Bag::from_pairs([(tup![3, 7], -1)])),
            ];
            let latency = LatencyModel::Constant(2_000);
            let (sched, id, _) = through_sources(EngineOptions::FIGURE_6, latency, &txns);
            let log = consumed_log(&sched, id);
            // Every update consumed exactly once, some of them dovetailed.
            let mut seen: Vec<UpdateId> = log.iter().flatten().copied().collect();
            seen.sort_by_key(|u| (u.source, u.seq));
            seen.dedup();
            assert_eq!(seen.len(), txns.len());
            assert!(log.len() < txns.len(), "nothing dovetailed: {log:?}");
        }

        #[test]
        fn pipelined_and_two_legged_agree_with_figure_4_through_real_sources() {
            let txns = [
                (0, 1, Bag::from_pairs([(tup![3, 5], 1)])),
                (700, 0, Bag::from_pairs([(tup![1, 3], -1)])),
                (1_400, 2, Bag::from_pairs([(tup![5, 6], -1)])),
                (2_100, 1, Bag::from_pairs([(tup![3, 7], -1)])),
            ];
            let fig4 = EngineOptions::FIGURE_4;
            let variants = [
                fig4,
                EngineOptions { window: 0, ..fig4 },
                EngineOptions::default(),
            ];
            let logs = variants.map(|opts| {
                let latency = LatencyModel::Constant(2_000);
                let (sched, id, _) = through_sources(opts, latency, &txns);
                consumed_log(&sched, id)
            });
            // One install per update, in arrival order, every way.
            assert!(logs.iter().all(|log| log == &logs[0] && log.len() == 4));
        }
    }
}
