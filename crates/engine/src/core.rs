//! The canonical sweep mechanism, once:
//!
//! * [`EngineCore`] — qid allocation, query emission, the on-line error
//!   correction `ΔV ← ΔV − ΔR_j ⋈ TempView` (§4) against the FIFO update
//!   queue, sweep/hop span bookkeeping, and aggregate metrics;
//! * [`SweepRun`] — the hop walk itself: seeded at `R_j`, extend the
//!   partial over `[lo, hi]` sequentially (Figure 4, a Figure 6 frame) or
//!   with two legs (§5.3, the multiview lane), handing each answered
//!   [`Hop`] to the strategy for compensation;
//! * the support seed and pivot merge behind [`SweepRun::two_legs`] and
//!   [`SweepRun::merge`] — §5.3's parallel-sweep merge, generalized to
//!   arbitrary spans;
//! * [`InstallSink`] — atomic install with staleness accounting, the
//!   install log the consistency checker reads, and the publish hook;
//! * [`SweepPolicy`]/[`dispatch`] — the strategy hook: adapters decide
//!   *which* concurrent updates a hop compensates for and *when* the
//!   result installs, the engine routes deliveries and keeps the shared
//!   counters honest.
//!
//! Observability: the engine emits its own `engine.hop` span nested under
//! the adapter's hop span, bumps `engine.compensations` next to the
//! adapter's counter, and records fold widths into the
//! `engine.batch_size` histogram. Adapter-visible span names are
//! caller-supplied through [`SpanLabels`], so existing trace snapshots
//! stay stable.

use crate::error::WarehouseError;
use crate::install::InstallRecord;
use crate::metrics::PolicyMetrics;
use crate::queue::{PendingUpdate, UpdateQueue};
use crate::view::MaterializedView;
use dw_obs::{Obs, SpanId};
use dw_protocol::{source_node, Message, SourceUpdate, SweepQuery, UpdateId, WAREHOUSE_NODE};
use dw_relational::{
    extend_hop, merge_pivot, Bag, JoinSide, Neighbor, PartialDelta, Predicate, SharedBag, ViewDef,
};
use dw_simnet::{Delivery, NetHandle, Time};

/// The span and counter names an adapter wants the engine to emit on its
/// behalf, so each executor keeps its historical trace vocabulary
/// (`sweep.hop`, `nested_sweep.hop`, `mv.hop`, …) while the mechanism
/// lives in one place.
#[derive(Clone, Copy, Debug)]
pub struct SpanLabels {
    /// Top-level span opened per unit of sweep work (`"sweep"`,
    /// `"nested_sweep"`, `"mv.sweep"`).
    pub sweep: &'static str,
    /// Per-hop span (`"sweep.hop"`, …), parented under [`SpanLabels::sweep`].
    pub hop: &'static str,
    /// Counter bumped on every local compensation.
    pub compensations: &'static str,
    /// Optional histogram of outgoing query payload rows.
    pub query_rows: Option<&'static str>,
    /// Optional histogram of compensation error-term rows.
    pub comp_rows: Option<&'static str>,
    /// Optional counter bumped once per query sent (the scheduler's
    /// `mv.shared_queries`).
    pub query_counter: Option<&'static str>,
}

/// A hop's span pair: the adapter-named outer span and the engine's own
/// `engine.hop` span nested inside it.
#[derive(Clone, Copy, Debug)]
pub struct HopSpan {
    /// The adapter-visible hop span ([`SpanLabels::hop`]).
    pub outer: SpanId,
    /// The engine's `engine.hop` span, child of `outer`.
    pub inner: SpanId,
}

impl HopSpan {
    /// A hop span that records nothing.
    pub const NONE: HopSpan = HopSpan {
        outer: SpanId::NONE,
        inner: SpanId::NONE,
    };
}

/// The ambient state of **one** sweep: what every query of that sweep is
/// stamped with and what its compensations must mirror. Owned by
/// whoever owns the sweep — the single-view executors keep one, the
/// multiview scheduler keeps one per in-flight lane — so any number of
/// sweeps can share an [`EngineCore`] without stepping on each other.
#[derive(Clone, Debug)]
pub struct SweepCtx {
    /// The open top-level sweep span ([`SpanLabels::sweep`]), parent of
    /// the sweep's hop spans; [`SpanId::NONE`] when idle.
    pub span: SpanId,
    /// Per-relation σ pushed to the sources, indexed by chain position
    /// (empty when pushdown is off). [`EngineCore::send_query`] attaches
    /// `push_preds[j]` to the outgoing query, and both compensation
    /// paths apply the *same* predicate to the queued `ΔR_j` — the error
    /// term must match what the source actually answered with, or the
    /// subtraction removes tuples the answer never contained.
    pub push_preds: Vec<Option<Predicate>>,
}

impl Default for SweepCtx {
    fn default() -> Self {
        SweepCtx {
            span: SpanId::NONE,
            push_preds: Vec::new(),
        }
    }
}

impl SweepCtx {
    /// The σ pushed to source `j` in this sweep, if any.
    pub fn push_pred(&self, j: usize) -> Option<&Predicate> {
        self.push_preds.get(j).and_then(|p| p.as_ref())
    }
}

/// The shared sweep mechanism: query plumbing, compensation, metrics,
/// and span bookkeeping. Strategies ([`SweepPolicy`] impls) own one.
pub struct EngineCore {
    /// The (base) view definition sweeps evaluate against.
    pub view: ViewDef,
    /// The paper's `UpdateMessageQueue`.
    pub queue: UpdateQueue,
    /// Aggregate counters shared by every strategy.
    pub metrics: PolicyMetrics,
    /// Observability handle (no-op unless a recorder is attached).
    pub obs: Obs,
    /// Adapter-visible span/counter names.
    pub labels: SpanLabels,
    /// The warehouse incarnation: 0 until a crash-recovery replay enters
    /// the next one ([`EngineCore::bump_epoch`]). Stamped onto every
    /// outgoing [`SweepQuery`] — sources remember the highest epoch they
    /// have served and drop queries from older ones — and into the high
    /// bits of every qid, so the warehouse drops answers to an older
    /// incarnation's queries by the same number
    /// ([`EngineCore::is_current`]): a sweep re-seeded after a state
    /// crash never races its aborted predecessor, in either direction.
    pub epoch: u64,
    /// Queries sent by this incarnation (a qid's low bits).
    next_qid: u64,
}

/// A qid's low bits count one incarnation's queries; the bits above
/// carry that incarnation's [`EngineCore::epoch`]. Epoch 0 leaves a qid
/// equal to its count.
const QID_SEQ_BITS: u32 = 48;

impl EngineCore {
    /// A fresh core over `view` emitting `labels`.
    pub fn new(view: ViewDef, labels: SpanLabels) -> Self {
        EngineCore {
            view,
            queue: UpdateQueue::new(),
            metrics: PolicyMetrics::default(),
            obs: Obs::off(),
            labels,
            epoch: 0,
            next_qid: 0,
        }
    }

    /// Was `qid` issued by the current incarnation? An answer to any
    /// other qid is a straggler: the sweep that asked died with its
    /// warehouse and was re-seeded under fresh qids.
    pub fn is_current(&self, qid: u64) -> bool {
        qid >> QID_SEQ_BITS == self.epoch
    }

    /// Enter the next incarnation (crash recovery). Queries sent from
    /// here on carry the new epoch, on the wire and in their qid; the
    /// query count died with the old incarnation and restarts.
    pub fn bump_epoch(&mut self) {
        self.epoch += 1;
        self.next_qid = 0;
    }

    /// Chain length.
    pub fn n(&self) -> usize {
        self.view.num_relations()
    }

    /// Attach an observability recorder.
    pub fn set_observer(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Open the top-level sweep span for a new unit of work and hand
    /// back its (otherwise default) context.
    pub fn begin_sweep(&mut self, now: Time) -> SweepCtx {
        SweepCtx {
            span: self.obs.span_start(self.labels.sweep, now, SpanId::NONE),
            ..SweepCtx::default()
        }
    }

    /// Close a sweep's top-level span.
    pub fn end_sweep(&mut self, ctx: &SweepCtx, now: Time) {
        self.obs.span_end(ctx.span, now);
    }

    /// Allocate a qid, account the query, open its hop spans, and send
    /// `dv` to source `j` for a one-hop join extension on `side`, stamped
    /// with the sweep's context.
    pub fn send_query(
        &mut self,
        ctx: &SweepCtx,
        net: &mut dyn NetHandle<Message>,
        dv: &PartialDelta,
        j: usize,
        side: JoinSide,
    ) -> (u64, HopSpan) {
        let qid = self.epoch << QID_SEQ_BITS | self.next_qid;
        self.next_qid += 1;
        self.metrics.queries_sent += 1;
        if let Some(counter) = self.labels.query_counter {
            self.obs.add(counter, 1);
        }
        let outer = self.obs.span_start(self.labels.hop, net.now(), ctx.span);
        let inner = self.obs.span_start("engine.hop", net.now(), outer);
        if let Some(hist) = self.labels.query_rows {
            self.obs.observe(hist, dv.bag.distinct_len() as u64);
        }
        net.send(
            WAREHOUSE_NODE,
            source_node(j),
            Message::SweepQuery(SweepQuery {
                qid,
                partial: dv.clone(),
                side,
                pred: ctx.push_pred(j).cloned(),
                epoch: self.epoch,
            }),
        );
        (qid, HopSpan { outer, inner })
    }

    /// Close a hop's span pair (inner first, then the adapter span).
    pub fn end_hop(&mut self, hop: HopSpan, now: Time) {
        self.obs.span_end(hop.inner, now);
        self.obs.span_end(hop.outer, now);
    }

    /// The paper's on-line error correction (§4): subtract
    /// `ΔR_j ⋈ TempView` for every queued concurrent update from the hop
    /// source, **without removing** them from the queue (plain SWEEP —
    /// the interfering updates still get their own sweeps later).
    /// `later` adds the deltas of updates from `j` that already left the
    /// queue for a sweep of their own but arrived *after* this sweep's
    /// update (pipelining): one merged `ΔR_j`, one compensation.
    pub fn compensate(
        &mut self,
        ctx: &SweepCtx,
        hop: &mut Hop<'_>,
        later: &[&Bag],
    ) -> Result<(), WarehouseError> {
        let mut merged = self.queue.merged_from_source(hop.j);
        for delta in later {
            merged.merge(delta);
        }
        self.subtract_error(ctx, hop, &merged)
    }

    /// Nested SWEEP's variant (Figure 6): compensate **and remove** the
    /// interfering updates, returning their merged delta and ids so the
    /// caller can fold them into the current composite view change.
    /// Returns `None` when no update from `j` is queued.
    #[allow(clippy::type_complexity)]
    pub fn compensate_consuming(
        &mut self,
        ctx: &SweepCtx,
        hop: &mut Hop<'_>,
    ) -> Result<Option<(Bag, Vec<(UpdateId, Time)>)>, WarehouseError> {
        let j = hop.j;
        if !self.queue.has_from_source(j) {
            return Ok(None);
        }
        let (merged, infos) = self.queue.take_from_source(j);
        // The *unfiltered* merged delta is what the caller folds into the
        // composite change; the consumed ids reach the install record
        // even when no compensation is accounted.
        self.subtract_error(ctx, hop, &merged)?;
        Ok(Some((merged, infos)))
    }

    /// `ΔV ← ΔV − ΔR_j ⋈ TempView` for one merged `ΔR_j`. The error term
    /// sees the σ the source answered under, applied while the join
    /// hashes `merged` (no filtered copy, no `source.*` counter). When no
    /// row of `merged` qualifies — the interfering inserts and deletes
    /// cancelled outright, or σ turns every one away — there is nothing
    /// to subtract: no join runs and no compensation is accounted.
    fn subtract_error(
        &mut self,
        ctx: &SweepCtx,
        hop: &mut Hop<'_>,
        merged: &Bag,
    ) -> Result<(), WarehouseError> {
        let pred = ctx.push_pred(hop.j);
        if !merged.iter().any(|(t, _)| pred.is_none_or(|p| p.eval(t))) {
            return Ok(());
        }
        let neighbor = Neighbor::Bag(merged);
        let err = extend_hop(&self.view, &hop.temp, neighbor, hop.side, pred, &Obs::off())?;
        self.apply_compensation(hop.dv, &err);
        Ok(())
    }

    fn apply_compensation(&mut self, dv: &mut PartialDelta, err: &PartialDelta) {
        dv.compensate(err);
        self.metrics.local_compensations += 1;
        self.obs.add(self.labels.compensations, 1);
        self.obs.add("engine.compensations", 1);
        if let Some(hist) = self.labels.comp_rows {
            self.obs.observe(hist, err.bag.distinct_len() as u64);
        }
    }

    /// Record how many queued updates one completed unit of sweep work
    /// serviced (1 for plain SWEEP; k when batching folded k updates).
    pub fn record_batch(&mut self, k: usize) {
        self.obs.observe("engine.batch_size", k as u64);
    }

    /// Cross-update batching entry point: remove up to `extra` queued
    /// updates that directly succeed update `after` at its source and
    /// return their merged delta plus `(id, arrival time)` pairs, for
    /// folding into the sweep for `after` that is about to start. The
    /// fold ends at the first successor that is no longer queued or that
    /// `admit` refuses (never skipping one). With `extra == 0` this is a
    /// no-op — plain one-update-per-sweep behavior.
    pub fn fold_same_source(
        &mut self,
        after: UpdateId,
        extra: usize,
        admit: impl FnMut(&PendingUpdate) -> bool,
    ) -> (Bag, Vec<(UpdateId, Time)>) {
        self.queue.take_from_source_bounded(after, extra, admit)
    }
}

/// One walker of a run: the partial it has built so far, the chain
/// segment it must cover, and its query in flight.
#[derive(Debug)]
struct Walker {
    dv: PartialDelta,
    lo: usize,
    hi: usize,
    pending: Option<Pending>,
}

/// A query in flight: where it went, and the pre-hop partial it carried
/// (the compensation `TempView`).
#[derive(Debug)]
struct Pending {
    qid: u64,
    j: usize,
    side: JoinSide,
    temp: PartialDelta,
    span: HopSpan,
}

impl Walker {
    fn new(dv: PartialDelta, lo: usize, hi: usize) -> Walker {
        Walker {
            dv,
            lo,
            hi,
            pending: None,
        }
    }

    /// The next source to query — leftward until `lo` is covered, then
    /// rightward (Figure 4's two for-loops) — or `None` once `[lo, hi]`
    /// is covered.
    fn next_hop(&self) -> Option<(usize, JoinSide)> {
        if self.dv.lo > self.lo {
            Some((self.dv.lo - 1, JoinSide::Left))
        } else if self.dv.hi < self.hi {
            Some((self.dv.hi + 1, JoinSide::Right))
        } else {
            None
        }
    }
}

/// A hop whose answer just arrived ([`SweepRun::absorb`]): the strategy
/// applies *its* compensation rule to `dv` against `temp`, and may
/// observe the compensated partial before the run moves on.
pub struct Hop<'a> {
    /// The source that answered.
    pub j: usize,
    /// The side the hop extended.
    pub side: JoinSide,
    /// The partial the query carried — the paper's `TempView`.
    pub temp: PartialDelta,
    /// The answer, to be compensated in place.
    pub dv: &'a mut PartialDelta,
}

/// The one hop walk every sweep-family policy drives: seeded with `ΔR_j`,
/// extend the partial source by source until it covers `[lo, hi]`.
///
/// * [`SweepRun::sequential`] — leftward then rightward with one query in
///   flight: Figure 4's `ViewChange`, one frame of Figure 6's recursion,
///   one Strobe insert;
/// * [`SweepRun::two_legs`] — both directions at once, the right leg
///   seeded with the *support* of `ΔR_j` (every distinct tuple at
///   multiplicity 1) and the halves glued by [`SweepRun::merge`] at the
///   end: §5.3's parallel sweep and the multiview scheduler's lane.
///
/// The protocol per answer is [`SweepRun::absorb`] (close the hop, hand
/// the strategy the [`Hop`] to compensate), then [`SweepRun::advance`]
/// (send what can be sent); when nothing is in flight any more
/// ([`SweepRun::is_done`]) the run is covered and
/// [`SweepRun::into_partial`] yields the result. *Which* concurrent
/// updates a hop compensates for, and *when* the result installs, stay
/// with the strategy.
#[derive(Debug)]
pub struct SweepRun {
    /// The seeded relation — the pivot a two-leg run merges on.
    j: usize,
    /// One sequential walker, or the left and right legs.
    legs: Vec<Walker>,
}

impl SweepRun {
    /// A sequential run of `seed` (a partial over the single relation
    /// `R_j`) over `[lo, hi]`.
    pub fn sequential(seed: PartialDelta, lo: usize, hi: usize) -> SweepRun {
        SweepRun {
            j: seed.lo,
            legs: vec![Walker::new(seed, lo, hi)],
        }
    }

    /// A two-leg run of `seed` over `[lo, hi]`: the left leg carries the
    /// true delta over `[lo, j]`, the right leg its support over
    /// `[j, hi]`, so multiplicities are counted once at merge time.
    pub fn two_legs(seed: PartialDelta, lo: usize, hi: usize) -> SweepRun {
        let j = seed.lo;
        let right = PartialDelta {
            lo: j,
            hi: j,
            bag: support(&seed.bag),
        };
        SweepRun {
            j,
            legs: vec![Walker::new(seed, lo, j), Walker::new(right, j, hi)],
        }
    }

    /// The partial built so far on `side` (a sequential run has one
    /// partial, whichever side is asked for).
    pub fn leg(&self, side: JoinSide) -> &PartialDelta {
        &self.legs[(side as usize).min(self.legs.len() - 1)].dv
    }

    /// Is this run waiting on the answer to `qid`?
    pub fn waiting_on(&self, qid: u64) -> bool {
        let mut pending = self.legs.iter().filter_map(|leg| leg.pending.as_ref());
        pending.any(|p| p.qid == qid)
    }

    /// Nothing in flight: after [`SweepRun::advance`], the run has
    /// covered its range.
    pub fn is_done(&self) -> bool {
        self.legs.iter().all(|leg| leg.pending.is_none())
    }

    /// The answer to `qid` arrived: close the hop's spans, make the
    /// answer the walker's partial and hand the hop to the strategy for
    /// compensation. [`WarehouseError::UnknownQuery`] when this run is
    /// not waiting on `qid`.
    pub fn absorb(
        &mut self,
        core: &mut EngineCore,
        qid: u64,
        answer: PartialDelta,
        now: Time,
    ) -> Result<Hop<'_>, WarehouseError> {
        let waiting = self.legs.iter_mut().find_map(|leg| {
            let p = leg.pending.take_if(|p| p.qid == qid)?;
            Some((leg, p))
        });
        let Some((leg, p)) = waiting else {
            return Err(WarehouseError::UnknownQuery { qid });
        };
        core.end_hop(p.span, now);
        leg.dv = answer;
        Ok(Hop {
            j: p.j,
            side: p.side,
            temp: p.temp,
            dv: &mut leg.dv,
        })
    }

    /// Send the next query of every walker that has none in flight and
    /// range left to cover — the first call fires the run's first
    /// queries (left leg first). Nothing in flight afterwards
    /// ([`SweepRun::is_done`]) means the run is covered.
    pub fn advance(
        &mut self,
        core: &mut EngineCore,
        ctx: &SweepCtx,
        net: &mut dyn NetHandle<Message>,
    ) {
        for leg in &mut self.legs {
            if let (None, Some((j, side))) = (&leg.pending, leg.next_hop()) {
                let (qid, span) = core.send_query(ctx, net, &leg.dv, j, side);
                let temp = leg.dv.clone();
                leg.pending = Some(Pending {
                    qid,
                    j,
                    side,
                    temp,
                    span,
                });
            }
        }
    }

    /// Add a completed child run's partial (Figure 6: the recursive
    /// `ViewChange` over exactly the segment this run has covered) into
    /// this run's.
    pub fn fold(&mut self, child: &PartialDelta) {
        let dv = &mut self.legs[0].dv;
        debug_assert_eq!(
            (dv.lo, dv.hi),
            (child.lo, child.hi),
            "child range must match suspended parent range"
        );
        dv.bag.merge(&child.bag);
    }

    /// Glue a left-leg and a right-leg partial of this run on its pivot
    /// relation's columns — the final merge, or a view's span-endpoint
    /// snapshots of the two legs. The left partial carries true
    /// multiplicities, the right the support, so the product is the true
    /// count of the glued tuple.
    pub fn merge(&self, view: &ViewDef, left: &PartialDelta, right: &PartialDelta) -> PartialDelta {
        debug_assert_eq!((left.hi, right.lo), (self.j, self.j));
        merge_pivot(view, left, right)
    }

    /// The covered run's partial over `[lo, hi]`: the sequential
    /// walker's, or the two legs merged at the pivot.
    pub fn into_partial(mut self, view: &ViewDef) -> PartialDelta {
        match self.legs.as_slice() {
            [left, right] => self.merge(view, &left.dv, &right.dv),
            _ => self.legs.swap_remove(0).dv,
        }
    }
}

/// The support of a delta: every distinct tuple at multiplicity `+1`
/// (§5.3 — the right leg counts join multiplicities only; the true
/// counts re-enter at merge time from the left leg).
fn support(bag: &Bag) -> Bag {
    Bag::from_pairs(bag.iter().map(|(t, _)| (t.clone(), 1)))
}

/// What a checkpoint keeps of an [`InstallSink`]: the view contents as a
/// shared handle, and the install log's *length*. The log is append-only
/// history, so an image costs the same however long the run has been,
/// and recovery truncates the log rather than restoring a copy of it.
pub struct SinkImage {
    view: MaterializedView,
    log_len: usize,
}

impl SinkImage {
    /// The view contents the image captured.
    pub fn bag(&self) -> &SharedBag {
        self.view.bag()
    }
}

/// The install side of the engine: the materialized view, its install
/// log, and the staleness accounting every install owes the metrics.
pub struct InstallSink {
    view: MaterializedView,
    log: Vec<InstallRecord>,
    /// Whether install records capture full view snapshots (needed by
    /// the consistency checker; costly for big runs).
    pub record_snapshots: bool,
    /// The coordinate install events are published under: the view's
    /// registry slot (0 for a single-view policy).
    pub view_index: usize,
    /// Optional serving-layer hook: every committed install is also
    /// published as an epoch-stamped [`crate::InstallEvent`].
    publisher: Option<crate::SharedInstallPublisher>,
}

impl InstallSink {
    /// A sink over the correct initial view contents.
    pub fn new(initial: Bag) -> Result<Self, WarehouseError> {
        Ok(InstallSink {
            view: MaterializedView::new(initial)?,
            log: Vec::new(),
            record_snapshots: true,
            view_index: 0,
            publisher: None,
        })
    }

    /// Attach a serving-layer publisher; installs committed from now on
    /// are published as epoch-stamped events. The epoch is the install
    /// log's length *after* the push — a 1-based install ordinal, epoch 0
    /// being the initial contents — so a crash-recovery replay of the
    /// same install carries the same epoch and consumers can deduplicate
    /// (a cloned sink keeps feeding the same consumer).
    pub fn set_publisher(&mut self, p: crate::SharedInstallPublisher) {
        self.publisher = Some(p);
    }

    /// The current view contents.
    pub fn bag(&self) -> &SharedBag {
        self.view.bag()
    }

    /// Capture this sink for a checkpoint (no tuple and no install
    /// record is copied).
    pub fn image(&self) -> SinkImage {
        SinkImage {
            view: self.view.clone(),
            log_len: self.log.len(),
        }
    }

    /// Crash recovery: back to `image` — its view contents, and the log
    /// cut to the length it had then (replay re-appends what follows).
    pub fn restore(&mut self, image: &SinkImage) {
        self.view = image.view.clone();
        self.log.truncate(image.log_len);
    }

    /// The install history.
    pub fn log(&self) -> &[InstallRecord] {
        &self.log
    }

    /// Atomically install `delta`, account one install plus staleness
    /// for every consumed update, and append the install record.
    pub fn install(
        &mut self,
        metrics: &mut PolicyMetrics,
        delta: &Bag,
        consumed: &[(UpdateId, Time)],
        now: Time,
    ) -> Result<(), WarehouseError> {
        self.view.install(delta)?;
        metrics.installs += 1;
        for &(_, delivered_at) in consumed {
            metrics.record_staleness(delivered_at, now);
        }
        let ids: Vec<UpdateId> = consumed.iter().map(|&(id, _)| id).collect();
        let event = self.publisher.as_ref().map(|p| {
            let event = crate::InstallEvent {
                view_index: self.view_index,
                epoch: self.log.len() as u64 + 1,
                at: now,
                consumed: ids.clone(),
                delta: std::sync::Arc::new(delta.clone()),
            };
            (p, event)
        });
        self.log.push(InstallRecord {
            at: now,
            consumed: ids,
            view_after: self.record_snapshots.then(|| self.view.bag().clone()),
        });
        if let Some((p, event)) = event {
            // A reader thread that panicked holding the store's lock must
            // not take the warehouse thread down with it.
            let mut publisher = p.lock().map_err(|_| WarehouseError::PublisherPoisoned)?;
            publisher.publish(event);
        }
        Ok(())
    }
}

/// The strategy hook: what distinguishes plain SWEEP, Nested SWEEP, and
/// the multiview shared sweep once the mechanism lives in
/// [`EngineCore`]. Implementors decide which hops to take and when to
/// install; [`dispatch`] routes deliveries and keeps the shared counters.
pub trait SweepPolicy {
    /// The adapter's error type (`WarehouseError`, or a wrapper of it).
    type Err: From<WarehouseError>;

    /// Short policy name for error reports.
    fn name(&self) -> &'static str;

    /// The mechanism this strategy drives.
    fn core(&mut self) -> &mut EngineCore;

    /// Strategy-specific bookkeeping on update arrival (global-txn tags,
    /// per-view counters, durability journaling), before the update is
    /// queued. `at` is the delivery time the update will be queued under.
    fn note_update(&mut self, _u: &SourceUpdate, _at: Time) -> Result<(), Self::Err> {
        Ok(())
    }

    /// An update was queued: start work if the strategy is idle.
    fn kick(&mut self, net: &mut dyn NetHandle<Message>) -> Result<(), Self::Err>;

    /// A sweep answer arrived.
    fn on_answer(
        &mut self,
        qid: u64,
        partial: PartialDelta,
        net: &mut dyn NetHandle<Message>,
    ) -> Result<(), Self::Err>;
}

/// Route one warehouse delivery into a strategy: updates are counted,
/// noted, queued, and the strategy kicked; answers are counted and
/// forwarded; anything else is rejected.
pub fn dispatch<P: SweepPolicy + ?Sized>(
    policy: &mut P,
    delivery: Delivery<Message>,
    net: &mut dyn NetHandle<Message>,
) -> Result<(), P::Err> {
    match delivery.msg {
        Message::Update(u) => {
            policy.core().metrics.updates_received += 1;
            policy.note_update(&u, delivery.at)?;
            policy.core().queue.push(u, delivery.at);
            policy.kick(net)
        }
        Message::SweepAnswer(a) => {
            policy.core().metrics.answers_received += 1;
            policy.on_answer(a.qid, a.partial, net)
        }
        other => Err(WarehouseError::UnexpectedMessage {
            policy: policy.name(),
            label: dw_simnet::Payload::label(&other),
        }
        .into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dw_relational::{tup, Schema, ViewDefBuilder};
    use dw_simnet::Network;

    const LABELS: SpanLabels = SpanLabels {
        sweep: "t.sweep",
        hop: "t.hop",
        compensations: "t.comp",
        query_rows: None,
        comp_rows: None,
        query_counter: None,
    };

    /// A just-answered left hop at source 0, as `SweepRun::absorb` hands
    /// it out.
    fn left_hop<'a>(temp: &PartialDelta, dv: &'a mut PartialDelta) -> Hop<'a> {
        Hop {
            j: 0,
            side: JoinSide::Left,
            temp: temp.clone(),
            dv,
        }
    }

    fn chain3() -> ViewDef {
        ViewDefBuilder::new()
            .relation(Schema::new("R1", ["A", "B"]).unwrap())
            .relation(Schema::new("R2", ["C", "D"]).unwrap())
            .relation(Schema::new("R3", ["E", "F"]).unwrap())
            .join("R1.B", "R2.C")
            .join("R2.D", "R3.E")
            .build()
            .unwrap()
    }

    #[test]
    fn send_query_stamps_qid_and_side() {
        let mut net: Network<Message> = Network::new(0);
        let mut core = EngineCore::new(chain3(), LABELS);
        let ctx = SweepCtx::default();
        let dv =
            PartialDelta::seed(&core.view.clone(), 1, &Bag::from_tuples([tup![3, 5]])).unwrap();
        let (qid, _) = core.send_query(&ctx, &mut net, &dv, 0, JoinSide::Left);
        assert_eq!(qid, 0);
        let (qid, _) = core.send_query(&ctx, &mut net, &dv, 2, JoinSide::Right);
        assert_eq!(qid, 1);
        assert_eq!(core.metrics.queries_sent, 2);
        let Message::SweepQuery(q) = net.next().unwrap().msg else {
            panic!()
        };
        assert_eq!((q.qid, q.side, q.pred), (0, JoinSide::Left, None));
    }

    #[test]
    fn compensate_subtracts_queued_interference() {
        let mut core = EngineCore::new(chain3(), LABELS);
        // ΔR2 = +(3,5) swept left; TempView carries it. A queued
        // concurrent ΔR1 = +(2,3) must be cancelled out of the answer.
        let temp =
            PartialDelta::seed(&core.view.clone(), 1, &Bag::from_tuples([tup![3, 5]])).unwrap();
        core.queue.push(
            SourceUpdate {
                id: UpdateId { source: 0, seq: 0 },
                delta: Bag::from_tuples([tup![2, 3]]),
                global: None,
            },
            0,
        );
        let mut dv = PartialDelta {
            lo: 0,
            hi: 1,
            bag: Bag::from_tuples([tup![1, 3, 3, 5], tup![2, 3, 3, 5]]),
        };
        core.compensate(&SweepCtx::default(), &mut left_hop(&temp, &mut dv), &[])
            .unwrap();
        assert_eq!(dv.bag, Bag::from_tuples([tup![1, 3, 3, 5]]));
        assert_eq!(core.metrics.local_compensations, 1);
        assert_eq!(core.queue.len(), 1, "plain compensation must not remove");
    }

    #[test]
    fn compensate_consuming_removes_and_returns() {
        let mut core = EngineCore::new(chain3(), LABELS);
        let temp =
            PartialDelta::seed(&core.view.clone(), 1, &Bag::from_tuples([tup![3, 5]])).unwrap();
        core.queue.push(
            SourceUpdate {
                id: UpdateId { source: 0, seq: 0 },
                delta: Bag::from_tuples([tup![2, 3]]),
                global: None,
            },
            7,
        );
        let mut dv = PartialDelta {
            lo: 0,
            hi: 1,
            bag: Bag::from_tuples([tup![1, 3, 3, 5], tup![2, 3, 3, 5]]),
        };
        let taken = core
            .compensate_consuming(&SweepCtx::default(), &mut left_hop(&temp, &mut dv))
            .unwrap()
            .expect("update was queued");
        assert_eq!(taken.1, vec![(UpdateId { source: 0, seq: 0 }, 7)]);
        assert!(core.queue.is_empty());
        // A second call finds nothing.
        assert!(core
            .compensate_consuming(&SweepCtx::default(), &mut left_hop(&temp, &mut dv))
            .unwrap()
            .is_none());
    }

    #[test]
    fn compensate_consuming_cancelling_pair_consumes_without_compensating() {
        let mut core = EngineCore::new(chain3(), LABELS);
        let temp =
            PartialDelta::seed(&core.view.clone(), 1, &Bag::from_tuples([tup![3, 5]])).unwrap();
        // Queued insert/delete of the same tuple cancel to an empty
        // merged delta: nothing to subtract, no compensation accounted,
        // but both ids must still come back for the install record.
        core.queue.push(
            SourceUpdate {
                id: UpdateId { source: 0, seq: 0 },
                delta: Bag::from_tuples([tup![2, 3]]),
                global: None,
            },
            1,
        );
        core.queue.push(
            SourceUpdate {
                id: UpdateId { source: 0, seq: 1 },
                delta: Bag::from_pairs([(tup![2, 3], -1)]),
                global: None,
            },
            2,
        );
        let mut dv = PartialDelta {
            lo: 0,
            hi: 1,
            bag: Bag::from_tuples([tup![1, 3, 3, 5], tup![2, 3, 3, 5]]),
        };
        let before = dv.bag.clone();
        let (merged, infos) = core
            .compensate_consuming(&SweepCtx::default(), &mut left_hop(&temp, &mut dv))
            .unwrap()
            .expect("updates were queued");
        assert!(merged.is_empty());
        assert_eq!(infos.len(), 2);
        assert_eq!(dv.bag, before, "empty merged delta must not touch dv");
        assert_eq!(core.metrics.local_compensations, 0);
        assert!(core.queue.is_empty());
    }

    #[test]
    fn pushed_predicate_rides_the_query_and_filters_compensation() {
        use dw_relational::{CmpOp, Predicate, Value};
        let mut net: Network<Message> = Network::new(0);
        let mut core = EngineCore::new(chain3(), LABELS);
        // σ_{B >= 3} pushed for R1 (chain position 0).
        let sigma = Predicate::Cmp {
            attr: 1,
            op: CmpOp::Ge,
            value: Value::Int(3),
        };
        let ctx = SweepCtx {
            push_preds: vec![Some(sigma.clone()), None, None],
            ..SweepCtx::default()
        };
        let dv =
            PartialDelta::seed(&core.view.clone(), 1, &Bag::from_tuples([tup![3, 5]])).unwrap();
        let (_, _) = core.send_query(&ctx, &mut net, &dv, 0, JoinSide::Left);
        let Message::SweepQuery(q) = net.next().unwrap().msg else {
            panic!()
        };
        assert_eq!(q.pred, Some(sigma));
        // Queried source 1 instead would carry no predicate.
        let (_, _) = core.send_query(&ctx, &mut net, &dv, 1, JoinSide::Right);
        let Message::SweepQuery(q) = net.next().unwrap().msg else {
            panic!()
        };
        assert_eq!(q.pred, None);

        // Compensation symmetry: a queued ΔR1 tuple failing the pushed σ
        // must NOT be subtracted — the filtered source answer never
        // contained its extensions.
        let temp = dv.clone();
        core.queue.push(
            SourceUpdate {
                id: UpdateId { source: 0, seq: 0 },
                delta: Bag::from_tuples([tup![2, 2]]), // B=2 fails σ
                global: None,
            },
            0,
        );
        core.queue.push(
            SourceUpdate {
                id: UpdateId { source: 0, seq: 1 },
                delta: Bag::from_tuples([tup![2, 3]]), // B=3 passes σ
                global: None,
            },
            0,
        );
        let mut dv = PartialDelta {
            lo: 0,
            hi: 1,
            bag: Bag::from_tuples([tup![1, 3, 3, 5], tup![2, 3, 3, 5]]),
        };
        core.compensate(&ctx, &mut left_hop(&temp, &mut dv), &[])
            .unwrap();
        // Only the qualifying interferer was cancelled; (2,2) joins
        // nothing here anyway, but the point is the subtraction used the
        // σ-filtered merged delta.
        assert_eq!(dv.bag, Bag::from_tuples([tup![1, 3, 3, 5]]));
        assert_eq!(core.metrics.local_compensations, 1);
    }

    #[test]
    fn support_flattens_counts() {
        let b = Bag::from_pairs([(tup![1], 4), (tup![2], 1)]);
        assert_eq!(support(&b), Bag::from_pairs([(tup![1], 1), (tup![2], 1)]));
    }

    #[test]
    fn install_sink_accounts_staleness_per_consumed_update() {
        let mut sink = InstallSink::new(Bag::new()).unwrap();
        let mut metrics = PolicyMetrics::default();
        sink.install(
            &mut metrics,
            &Bag::from_tuples([tup![1]]),
            &[
                (UpdateId { source: 0, seq: 0 }, 10),
                (UpdateId { source: 1, seq: 0 }, 30),
            ],
            100,
        )
        .unwrap();
        assert_eq!(metrics.installs, 1);
        assert_eq!(metrics.max_staleness(), 90);
        assert_eq!(sink.log().len(), 1);
        assert_eq!(sink.log()[0].consumed.len(), 2);
        assert_eq!(sink.bag(), &Bag::from_tuples([tup![1]]));
    }

    #[test]
    fn a_poisoned_publisher_fails_the_install_typed() {
        struct Deaf;
        impl crate::InstallPublisher for Deaf {
            fn note_delivery(&mut self, _: usize, _: UpdateId, _: Time) {}
            fn publish(&mut self, _: crate::InstallEvent) {}
        }
        let publisher: crate::SharedInstallPublisher =
            std::sync::Arc::new(std::sync::Mutex::new(Deaf));
        let held = publisher.clone();
        let reader = std::thread::spawn(move || {
            let _guard = held.lock().unwrap();
            panic!("reader dies holding the store's lock");
        });
        assert!(reader.join().is_err());
        let mut sink = InstallSink::new(Bag::new()).unwrap();
        sink.set_publisher(publisher);
        let mut metrics = PolicyMetrics::default();
        let res = sink.install(&mut metrics, &Bag::from_tuples([tup![1]]), &[], 5);
        assert_eq!(res, Err(WarehouseError::PublisherPoisoned));
    }
}
