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
//! * [`InstallSink`] — atomic install with staleness accounting and the
//!   publish hook: an install is published, not kept.
//!
//! The strategy stays with the adapters: the scheduler's lanes and the
//! Strobe family each match their own messages and decide *which*
//! concurrent updates a hop compensates for and *when* the result
//! installs.
//!
//! Observability: the engine names its own events, whichever strategy
//! drives it — one `engine.sweep` span per unit of sweep work, one
//! `engine.hop` span per [`SweepQuery`] (a child of its sweep span), one
//! `engine.compensations` bump per local compensation, and the fold
//! widths in the `engine.batch_size` histogram.

use crate::error::WarehouseError;
use crate::metrics::PolicyMetrics;
use crate::publish::InstallEvent;
use crate::queue::{PendingUpdate, UpdateQueue};
use crate::view::MaterializedView;
use dw_obs::{Obs, SpanId};
use dw_protocol::{source_node, Message, SweepQuery, UpdateId, WAREHOUSE_NODE};
use dw_relational::{
    extend_hop, merge_pivot, Bag, JoinSide, PartialDelta, Predicate, SharedBag, ViewDef,
};
use dw_simnet::{NetHandle, Time};
use std::sync::Arc;

/// The ambient state of **one** sweep: what every query of that sweep is
/// stamped with and what its compensations must mirror. Owned by
/// whoever owns the sweep — the scheduler keeps one per in-flight lane,
/// shared by every Figure 6 frame the lane stacks — so any number of
/// sweeps can share an [`EngineCore`] without stepping on each other.
#[derive(Clone, Debug)]
pub struct SweepCtx {
    /// The open `engine.sweep` span, parent of the sweep's `engine.hop`
    /// spans; [`SpanId::NONE`] when idle.
    pub span: SpanId,
    /// Per-relation σ pushed to the sources, indexed by chain position
    /// (empty when pushdown is off). [`EngineCore::send_query`] attaches
    /// `push_preds[j]` to the outgoing query, and both compensation
    /// the compensation applies the *same* predicate to the queued `ΔR_j` — the error
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
/// and span bookkeeping. Each strategy (the scheduler, Strobe, C-strobe)
/// owns one.
pub struct EngineCore {
    /// The (base) view definition sweeps evaluate against.
    pub view: ViewDef,
    /// The paper's `UpdateMessageQueue`.
    pub queue: UpdateQueue,
    /// Aggregate counters shared by every strategy.
    pub metrics: PolicyMetrics,
    /// Observability handle (no-op unless a recorder is attached).
    pub obs: Obs,
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
    /// A fresh core over `view`.
    pub fn new(view: ViewDef) -> Self {
        EngineCore {
            view,
            queue: UpdateQueue::new(),
            metrics: PolicyMetrics::default(),
            obs: Obs::off(),
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

    /// Open the `engine.sweep` span for a new unit of work and hand back
    /// its (otherwise default) context.
    pub fn begin_sweep(&mut self, now: Time) -> SweepCtx {
        SweepCtx {
            span: self.obs.span_start("engine.sweep", now, SpanId::NONE),
            ..SweepCtx::default()
        }
    }

    /// Close a sweep's `engine.sweep` span.
    pub fn end_sweep(&mut self, ctx: &SweepCtx, now: Time) {
        self.obs.span_end(ctx.span, now);
    }

    /// Allocate a qid, account the query, open its `engine.hop` span, and
    /// send `dv` to source `j` for a one-hop join extension on `side`,
    /// stamped with the sweep's context.
    pub fn send_query(
        &mut self,
        ctx: &SweepCtx,
        net: &mut dyn NetHandle<Message>,
        dv: &PartialDelta,
        j: usize,
        side: JoinSide,
    ) -> (u64, SpanId) {
        let qid = self.epoch << QID_SEQ_BITS | self.next_qid;
        self.next_qid += 1;
        self.metrics.queries_sent += 1;
        let span = self.obs.span_start("engine.hop", net.now(), ctx.span);
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
        (qid, span)
    }

    /// The paper's on-line error correction (§4): subtract
    /// `ΔR_j ⋈ TempView` for every queued update from the hop source,
    /// **leaving them queued** (Figure 6 takes what it nests out itself),
    /// plus `later`: deltas from `j` that left the queue for a sweep of
    /// their own but install *after* this one (pipelining) — one merged
    /// `ΔR_j`, one compensation. The error term sees the σ the source
    /// answered under, applied while the join hashes the merged delta.
    /// When no row qualifies — inserts and deletes cancelled outright, or
    /// σ turns every one away — no join runs and no compensation counts.
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
        let pred = ctx.push_pred(hop.j);
        if !merged.iter().any(|(t, _)| pred.is_none_or(|p| p.eval(t))) {
            return Ok(());
        }
        let err = extend_hop(&self.view, &hop.temp, &merged, hop.side, pred, &Obs::off())?;
        hop.dv.compensate(&err);
        self.metrics.local_compensations += 1;
        self.obs.add("engine.compensations", 1);
        Ok(())
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
    span: SpanId,
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

    /// Does this run walk one leg ([`SweepRun::sequential`])?
    pub fn is_sequential(&self) -> bool {
        self.legs.len() == 1
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

    /// The answer to `qid` arrived: close the hop's span, make the
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
        core.obs.span_end(p.span, now);
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

/// View tuples taking or restoring checkpoint images of a view copied.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ImageCost {
    /// Copied copy-on-write advancing an image: 0 while only the durable
    /// store holds it.
    pub copied: u64,
    /// Copied seeding a lineage: a view's first image, or the live view a
    /// recovery rebuilds from one — `|V|` each.
    pub seeded: u64,
}

impl std::ops::AddAssign for ImageCost {
    fn add_assign(&mut self, other: ImageCost) {
        self.copied += other.copied;
        self.seeded += other.seeded;
    }
}

/// The install side of the engine: the materialized view, the staleness
/// accounting every install owes the metrics, and the publish hook —
/// each install's event goes to the publisher and nowhere else.
pub struct InstallSink {
    view: MaterializedView,
    /// The coordinate install events are published under: the view's
    /// registry slot (0 for a single-view policy).
    pub view_index: usize,
    /// Optional serving-layer hook: every committed install's event is
    /// also published.
    publisher: Option<crate::SharedInstallPublisher>,
    /// The signed sum of what was installed since the last image, which
    /// advances that image at the next one — `None` until this sink has
    /// an image, so a view nobody checkpoints keeps no sum.
    since_image: Option<Bag>,
    /// Tuples installs copied because a clone of the view shared them.
    copied_tuples: u64,
}

impl InstallSink {
    /// A sink over the correct initial view contents.
    pub fn new(initial: Bag) -> Result<Self, WarehouseError> {
        Ok(InstallSink {
            view: MaterializedView::new(initial)?,
            view_index: 0,
            publisher: None,
            since_image: None,
            copied_tuples: 0,
        })
    }

    /// Attach a publisher; installs committed from now on are published
    /// to it, each under the view's install count after it — restored
    /// from the checkpoint image, so a replay of the same install carries
    /// the same epoch (a restored sink keeps feeding the same consumer).
    pub fn set_publisher(&mut self, p: crate::SharedInstallPublisher) {
        self.publisher = Some(p);
    }

    /// The current view contents.
    pub fn bag(&self) -> &SharedBag {
        self.view.bag()
    }

    /// Tuples this sink's installs copied copy-on-write: the chunks a
    /// delta touched that a clone of the view (a handle given out) still
    /// shared. 0 while nothing else holds the view — never because of a
    /// checkpoint image.
    pub fn copied_tuples(&self) -> u64 {
        self.copied_tuples
    }

    /// Capture this sink for a checkpoint. `prev` is the image the last
    /// checkpoint took of it: merged in place with the signed sum of the
    /// installs since, it becomes the new one. Without one, the first
    /// image is seeded by one deep copy of the view (contents and install
    /// count: no history, so its cost does not grow with the run).
    pub fn image(&mut self, prev: Option<MaterializedView>) -> (MaterializedView, ImageCost) {
        let since = self.since_image.replace(Bag::new());
        match (prev, since) {
            (Some(mut image), Some(sum)) => {
                let copied = image.catch_up(&sum, self.view.installs()) as u64;
                (image, ImageCost { copied, seeded: 0 })
            }
            _ => {
                let image = self.view.deep_copy();
                let seeded = image.bag().distinct_len() as u64;
                (image, ImageCost { copied: 0, seeded })
            }
        }
    }

    /// Crash recovery: back to `image`, rebuilt by one deep copy so the
    /// image stays a lineage of its own. Returns the tuples it seeded.
    pub fn restore(&mut self, image: &MaterializedView) -> u64 {
        self.view = image.deep_copy();
        self.since_image = Some(Bag::new());
        self.view.bag().distinct_len() as u64
    }

    /// Atomically install `delta`, account one install plus staleness
    /// for every consumed update, and publish the install's event (the
    /// delta behind its `Arc`). A poisoned publisher fails the install
    /// before anything changes.
    pub fn install(
        &mut self,
        metrics: &mut PolicyMetrics,
        delta: impl Into<Arc<Bag>>,
        consumed: &[(UpdateId, Time)],
        now: Time,
    ) -> Result<(), WarehouseError> {
        // A reader thread that panicked holding the store's lock must
        // not take the warehouse thread down with it.
        let publisher = self.publisher.as_ref().map(|p| p.lock()).transpose().ok();
        let publisher = publisher.filter(|p| !p.as_ref().is_some_and(|p| p.is_poisoned()));
        let mut publisher = publisher.ok_or(WarehouseError::PublisherPoisoned)?;
        let delta = delta.into();
        self.copied_tuples += self.view.install(&delta)? as u64;
        if let Some(sum) = &mut self.since_image {
            sum.merge(&delta);
        }
        metrics.installs += 1;
        for &(_, delivered_at) in consumed {
            metrics.record_staleness(delivered_at, now);
        }
        if let Some(publisher) = &mut publisher {
            publisher.publish(InstallEvent {
                view_index: self.view_index,
                epoch: self.view.installs(),
                at: now,
                consumed: consumed.iter().map(|&(id, _)| id).collect(),
                delta,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dw_protocol::SourceUpdate;
    use dw_relational::{tup, Schema, ViewDefBuilder};
    use dw_simnet::Network;

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
        let mut core = EngineCore::new(chain3());
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
        let mut core = EngineCore::new(chain3());
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
    fn pushed_predicate_rides_the_query_and_filters_compensation() {
        use dw_relational::{CmpOp, Predicate, Value};
        let mut net: Network<Message> = Network::new(0);
        let mut core = EngineCore::new(chain3());
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

    /// Attach a fresh install log to `sink`.
    fn logged(sink: &mut InstallSink) -> Arc<std::sync::Mutex<crate::InstallLog>> {
        let log = Arc::new(std::sync::Mutex::new(crate::InstallLog::new(None)));
        sink.set_publisher(log.clone());
        log
    }

    #[test]
    fn install_sink_accounts_staleness_per_consumed_update() {
        let mut sink = InstallSink::new(Bag::new()).unwrap();
        let log = logged(&mut sink);
        let mut metrics = PolicyMetrics::default();
        sink.install(
            &mut metrics,
            Bag::from_tuples([tup![1]]),
            &[
                (UpdateId { source: 0, seq: 0 }, 10),
                (UpdateId { source: 1, seq: 0 }, 30),
            ],
            100,
        )
        .unwrap();
        assert_eq!(metrics.installs, 1);
        assert_eq!(metrics.max_staleness(), 90);
        let log = log.lock().unwrap();
        assert_eq!(log.installs(0).len(), 1);
        assert_eq!(log.installs(0)[0].consumed.len(), 2);
        assert_eq!(sink.bag(), &Bag::from_tuples([tup![1]]));
    }

    /// Over seeded signed-delta streams — inserts, deletes of held
    /// tuples, and empty installs — the published events folded from the
    /// initial bag are the live view after every install, one event per
    /// install, epochs 1, 2, ….
    #[test]
    fn the_log_folded_from_the_initial_bag_is_the_view() {
        for case in 0..24u64 {
            let mut rng = dw_rng::Rng64::new(0xF01D_0000 + case);
            let initial = Bag::from_tuples([tup![1, 1], tup![2, 3]]);
            let mut sink = InstallSink::new(initial.clone()).unwrap();
            let log = logged(&mut sink);
            let mut metrics = PolicyMetrics::default();
            for k in 0..40u64 {
                let mut delta = Bag::new();
                for _ in 0..rng.usize_below(4) {
                    let held: Vec<_> = sink.bag().iter().map(|(t, _)| t.clone()).collect();
                    if !held.is_empty() && rng.chance(0.4) {
                        let t = held[rng.usize_below(held.len())].clone();
                        if delta.count(&t) + sink.bag().count(&t) > 0 {
                            delta.add(t, -1);
                        }
                    } else {
                        delta.add(tup![rng.i64_in(1, 4), rng.i64_in(1, 4)], 1);
                    }
                }
                let id = UpdateId { source: 0, seq: k };
                sink.install(&mut metrics, delta, &[(id, k)], k).unwrap();
                let log = log.lock().unwrap();
                let log = log.installs(0);
                assert_eq!(log.len() as u64, metrics.installs, "case {case}");
                assert_eq!(log.last().map(|e| e.epoch), Some(k + 1), "case {case}");
                let folded = crate::view_states(initial.clone().into(), log).last();
                assert_eq!(
                    folded.as_ref(),
                    Some(sink.bag()),
                    "case {case}, install {k}"
                );
            }
        }
    }

    /// The store's lock poisoned, attached directly or behind an
    /// `InstallLog`: the install fails typed and changes nothing.
    #[test]
    fn a_poisoned_publisher_fails_the_install_typed() {
        struct Deaf;
        impl crate::InstallPublisher for Deaf {
            fn note_delivery(&mut self, _: usize, _: UpdateId, _: Time) {}
            fn publish(&mut self, _: crate::InstallEvent) {}
        }
        for behind_log in [false, true] {
            let store: crate::SharedInstallPublisher =
                std::sync::Arc::new(std::sync::Mutex::new(Deaf));
            let publisher: crate::SharedInstallPublisher = match behind_log {
                false => store.clone(),
                true => std::sync::Arc::new(std::sync::Mutex::new(crate::InstallLog::new(Some(
                    store.clone(),
                )))),
            };
            let mut sink = InstallSink::new(Bag::from_tuples([tup![7]])).unwrap();
            sink.set_publisher(publisher);
            let mut metrics = PolicyMetrics::default();
            let first = UpdateId { source: 0, seq: 0 };
            sink.install(&mut metrics, Bag::from_tuples([tup![1]]), &[(first, 1)], 2)
                .unwrap();
            let reader = std::thread::spawn(move || {
                let _guard = store.lock().unwrap();
                panic!("reader dies holding the store's lock");
            });
            assert!(reader.join().is_err());
            let before = (sink.bag().to_bag(), metrics.installs);
            let second = UpdateId { source: 0, seq: 1 };
            let res = sink.install(&mut metrics, Bag::from_tuples([tup![2]]), &[(second, 3)], 5);
            assert_eq!(res, Err(WarehouseError::PublisherPoisoned), "{behind_log}");
            // The failed install changed nothing: view and count.
            let after = (sink.bag().to_bag(), metrics.installs);
            assert_eq!(after, before);
            assert_eq!(metrics.max_staleness(), 1);
        }
    }
}
