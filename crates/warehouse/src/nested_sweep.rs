//! **Nested SWEEP** — the paper's §6 algorithm (Figure 6).
//!
//! Like SWEEP, but when the answer from source `j` reveals a concurrent
//! update `ΔR_j`, the update is *removed from the queue*, its error term is
//! compensated locally, and its **missing view-change components are
//! evaluated by a recursive `ViewChange` call** whose bounds cover exactly
//! the chain segment the outer sweep has already passed:
//!
//! * detected on the **left** sweep at `j` (while processing `ΔR_i`):
//!   recursive bounds `(Left=j, Source=j, Right=i)` — evaluate
//!   `ΔR_j ⋈ R_{j+1} ⋈ … ⋈ R_i^new`;
//! * detected on the **right** sweep at `k`: recursive bounds
//!   `(Left, Source=k, Right=k)` — evaluate `R_Left ⋈ … ⋈ ΔR_k`.
//!
//! The recursive result is *added into* the suspended outer `ΔV`, whose
//! remaining sweep then serves both updates at once (dovetailing). One
//! install covers the whole batch, so the view skips intermediate states —
//! **strong** (not complete) consistency — and message cost is amortized
//! over the batch.
//!
//! The §6.2 termination caveat is real: alternating interfering updates at
//! two sources make the recursion oscillate. [`NestedSweepOptions::max_depth`]
//! implements the paper's "easily modified to force termination" switch:
//! at the bound, the update is compensated SWEEP-style (left in the queue,
//! no recursion) and [`PolicyMetrics::depth_bound_hits`] is incremented.
//!
//! The mechanism — hop plumbing, both compensation flavors, install — is
//! [`dw_engine`]'s; this module keeps only the strategy: the [`Frame`]
//! stack discipline and the dovetailing decision.

use crate::error::WarehouseError;
use crate::install::InstallRecord;
use crate::metrics::PolicyMetrics;
use crate::policy::MaintenancePolicy;
use crate::queue::PendingUpdate;
pub use dw_engine::NestedSweepOptions;
use dw_engine::{dispatch, EngineCore, Frame, InstallSink, SpanLabels, SweepCtx, SweepPolicy};
use dw_obs::Obs;
use dw_protocol::{Message, UpdateId};
use dw_relational::{Bag, JoinSide, PartialDelta, ViewDef};
use dw_simnet::{Delivery, NetHandle, Time};

/// Nested SWEEP's historical trace vocabulary.
const LABELS: SpanLabels = SpanLabels {
    sweep: "nested_sweep",
    hop: "nested_sweep.hop",
    compensations: "nested_sweep.compensations",
    query_rows: Some("nested_sweep.query_rows"),
    comp_rows: None,
    query_counter: None,
};

#[derive(Debug)]
struct Active {
    stack: Vec<Frame>,
    consumed: Vec<(UpdateId, Time)>,
}

/// The Nested SWEEP warehouse policy.
pub struct NestedSweep {
    core: EngineCore,
    /// The in-flight sweep's context (its span; no batching, σ or scope).
    ctx: SweepCtx,
    sink: InstallSink,
    opts: NestedSweepOptions,
    active: Option<Active>,
}

impl NestedSweep {
    /// Create the policy with the correct initial view.
    pub fn new(view_def: ViewDef, initial_view: Bag) -> Result<Self, WarehouseError> {
        Self::with_options(view_def, initial_view, NestedSweepOptions::default())
    }

    /// Create with an explicit depth bound.
    pub fn with_options(
        view_def: ViewDef,
        initial_view: Bag,
        opts: NestedSweepOptions,
    ) -> Result<Self, WarehouseError> {
        Ok(NestedSweep {
            core: EngineCore::new(view_def, LABELS),
            ctx: SweepCtx::default(),
            sink: InstallSink::new(initial_view)?,
            opts,
            active: None,
        })
    }

    /// Current recursion depth (0 when idle) — observability for the
    /// oscillation experiment.
    pub fn depth(&self) -> usize {
        self.active.as_ref().map_or(0, |a| a.stack.len())
    }

    /// Pop the queue head and start the outer `ViewChange(ΔR, 1, i, n)`.
    fn start_next(&mut self, net: &mut dyn NetHandle<Message>) -> Result<(), WarehouseError> {
        debug_assert!(self.active.is_none());
        let Some(PendingUpdate { update, arrived_at }) = self.core.queue.pop() else {
            return Ok(());
        };
        let i = update.id.source;
        self.ctx = self.core.begin_sweep(net.now());
        self.core.obs.observe(
            "nested_sweep.delta_rows",
            update.delta.distinct_len() as u64,
        );
        let frame = Frame::new(&self.core.view, i, 0, self.core.n() - 1, &update.delta)?;
        let mut active = Active {
            stack: vec![frame],
            consumed: vec![(update.id, arrived_at)],
        };
        self.core.metrics.max_recursion_depth = self.core.metrics.max_recursion_depth.max(1);
        self.pump(net, &mut active)?;
        self.finish_or_park(net, active)
    }

    /// Drive the top frame: issue its next query, or unwind completed
    /// frames (merging each child into its parent) until a query is issued
    /// or the stack empties.
    fn pump(
        &mut self,
        net: &mut dyn NetHandle<Message>,
        active: &mut Active,
    ) -> Result<(), WarehouseError> {
        loop {
            let Some(top) = active.stack.last() else {
                return Ok(());
            };
            debug_assert!(top.pending.is_none());
            match top.next_target() {
                Some((j, side)) => {
                    let dv = top.dv.clone();
                    let (qid, hop) = self.core.send_query(&self.ctx, net, &dv, j, side);
                    let top = active.stack.last_mut().expect("frame present");
                    top.pending = Some((qid, j, side, dv, hop));
                    return Ok(());
                }
                None => {
                    // Frame complete: merge into parent or finish.
                    let done = active.stack.pop().expect("frame present");
                    match active.stack.last_mut() {
                        Some(parent) => {
                            debug_assert_eq!(
                                (parent.dv.lo, parent.dv.hi),
                                (done.dv.lo, done.dv.hi),
                                "child range must match suspended parent range"
                            );
                            parent.dv.bag.merge(&done.dv.bag);
                        }
                        None => {
                            // Outer call finished: leave the final dv in a
                            // sentinel frame for `finish_or_park`.
                            active.stack.push(done);
                            return Ok(());
                        }
                    }
                }
            }
        }
    }

    /// If the single remaining frame is complete, install; otherwise the
    /// sweep continues (a query is in flight).
    fn finish_or_park(
        &mut self,
        net: &mut dyn NetHandle<Message>,
        active: Active,
    ) -> Result<(), WarehouseError> {
        let is_done = active.stack.len() == 1
            && active.stack[0].pending.is_none()
            && active.stack[0].next_target().is_none();
        if !is_done {
            self.active = Some(active);
            return Ok(());
        }
        let frame = active.stack.into_iter().next().expect("one frame");
        let final_bag = frame.dv.finalize(&self.core.view)?;
        self.core
            .obs
            .observe("nested_sweep.install_rows", final_bag.distinct_len() as u64);
        self.core
            .obs
            .observe("nested_sweep.batch_updates", active.consumed.len() as u64);
        self.core.end_sweep(&self.ctx, net.now());
        self.core.record_batch(active.consumed.len());
        self.sink.install(
            &mut self.core.metrics,
            &final_bag,
            &active.consumed,
            net.now(),
        )?;
        self.active = None;
        self.start_next(net)
    }

    fn answer(
        &mut self,
        net: &mut dyn NetHandle<Message>,
        qid: u64,
        partial: PartialDelta,
    ) -> Result<(), WarehouseError> {
        let Some(mut active) = self.active.take() else {
            return Err(WarehouseError::UnknownQuery { qid });
        };
        let top = active.stack.last_mut().expect("active implies frames");
        match &top.pending {
            Some((want_qid, ..)) if *want_qid == qid => {}
            _ => {
                self.active = Some(active);
                return Err(WarehouseError::UnknownQuery { qid });
            }
        }
        let (_, j, side, temp, hop) = top.pending.take().expect("checked above");
        self.core.end_hop(hop, net.now());
        top.dv = partial;
        let depth = active.stack.len();
        let top = active.stack.last_mut().expect("active implies frames");

        if self.core.queue.has_from_source(j) {
            let depth_ok = self.opts.max_depth.is_none_or(|d| depth < d);
            if depth_ok {
                // Figure 6: remove, compensate, recurse.
                let (merged, infos) = self
                    .core
                    .compensate_consuming(&self.ctx, &mut top.dv, &temp, j, side)?
                    .expect("has_from_source checked above");
                self.core.obs.add("nested_sweep.recursions", 1);
                active.consumed.extend(infos);
                let (left, source, right) = match side {
                    JoinSide::Left => (j, j, top.source),
                    JoinSide::Right => (top.left, j, j),
                };
                let child = Frame::new(&self.core.view, source, left, right, &merged)?;
                active.stack.push(child);
                self.core.metrics.max_recursion_depth = self
                    .core
                    .metrics
                    .max_recursion_depth
                    .max(active.stack.len() as u64);
            } else {
                // Forced termination: SWEEP-style compensation, update
                // stays queued for its own (bounded) round later.
                self.core
                    .compensate(&self.ctx, &mut top.dv, &temp, j, side)?;
                self.core.metrics.depth_bound_hits += 1;
                self.core.obs.add("nested_sweep.depth_bound_hits", 1);
            }
        }
        self.core
            .obs
            .observe("nested_sweep.depth", active.stack.len() as u64);

        self.pump(net, &mut active)?;
        self.finish_or_park(net, active)
    }
}

impl SweepPolicy for NestedSweep {
    type Err = WarehouseError;

    fn name(&self) -> &'static str {
        "nested-sweep"
    }

    fn core(&mut self) -> &mut EngineCore {
        &mut self.core
    }

    fn kick(&mut self, net: &mut dyn NetHandle<Message>) -> Result<(), WarehouseError> {
        if self.active.is_none() {
            self.start_next(net)?;
        }
        Ok(())
    }

    fn on_answer(
        &mut self,
        qid: u64,
        partial: PartialDelta,
        net: &mut dyn NetHandle<Message>,
    ) -> Result<(), WarehouseError> {
        self.answer(net, qid, partial)
    }
}

impl MaintenancePolicy for NestedSweep {
    fn name(&self) -> &'static str {
        "nested-sweep"
    }

    fn on_message(
        &mut self,
        delivery: Delivery<Message>,
        net: &mut dyn NetHandle<Message>,
    ) -> Result<(), WarehouseError> {
        dispatch(self, delivery, net)
    }

    fn view(&self) -> &Bag {
        self.sink.bag()
    }

    fn installs(&self) -> &[InstallRecord] {
        self.sink.log()
    }

    fn metrics(&self) -> &PolicyMetrics {
        &self.core.metrics
    }

    fn is_quiescent(&self) -> bool {
        self.active.is_none() && self.core.queue.is_empty()
    }

    fn set_record_snapshots(&mut self, record: bool) {
        self.sink.record_snapshots = record;
    }

    fn set_observer(&mut self, obs: Obs) {
        self.core.set_observer(obs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dw_protocol::{source_node, SourceUpdate, SweepAnswer, WAREHOUSE_NODE};
    use dw_relational::{tup, Schema, ViewDefBuilder};
    use dw_simnet::{Network, ENV};

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

    fn deliver(msg: Message) -> Delivery<Message> {
        Delivery {
            at: 0,
            from: ENV,
            to: WAREHOUSE_NODE,
            msg,
        }
    }

    fn update(source: usize, seq: u64, delta: Bag) -> Message {
        Message::Update(SourceUpdate {
            id: UpdateId { source, seq },
            delta,
            global: None,
        })
    }

    fn answer(qid: u64, lo: usize, hi: usize, bag: Bag) -> Message {
        Message::SweepAnswer(SweepAnswer {
            qid,
            partial: PartialDelta { lo, hi, bag },
        })
    }

    #[test]
    fn without_concurrency_identical_to_sweep() {
        let mut net: Network<Message> = Network::new(0);
        let mut wh = NestedSweep::new(paper_view(), Bag::from_pairs([(tup![7, 8], 2)])).unwrap();
        wh.on_message(
            deliver(update(1, 0, Bag::from_tuples([tup![3, 5]]))),
            &mut net,
        )
        .unwrap();
        let Message::SweepQuery(q1) = net.next().unwrap().msg else {
            panic!()
        };
        assert_eq!(q1.side, JoinSide::Left);
        wh.on_message(
            deliver(answer(
                q1.qid,
                0,
                1,
                Bag::from_tuples([tup![1, 3, 3, 5], tup![2, 3, 3, 5]]),
            )),
            &mut net,
        )
        .unwrap();
        let Message::SweepQuery(q2) = net.next().unwrap().msg else {
            panic!()
        };
        wh.on_message(
            deliver(answer(
                q2.qid,
                0,
                2,
                Bag::from_tuples([tup![1, 3, 3, 5, 5, 6], tup![2, 3, 3, 5, 5, 6]]),
            )),
            &mut net,
        )
        .unwrap();
        assert_eq!(
            wh.view(),
            &Bag::from_pairs([(tup![5, 6], 2), (tup![7, 8], 2)])
        );
        assert_eq!(wh.metrics().queries_sent, 2);
        assert!(wh.is_quiescent());
    }

    #[test]
    fn concurrent_update_is_absorbed_into_one_install() {
        // ΔR2 = +(3,5) is being processed; ΔR1 = −(2,3) arrives before
        // R1's answer. Nested SWEEP must consume BOTH in a single install.
        let mut net: Network<Message> = Network::new(0);
        let mut wh = NestedSweep::new(paper_view(), Bag::from_pairs([(tup![7, 8], 2)])).unwrap();
        wh.on_message(
            deliver(update(1, 0, Bag::from_tuples([tup![3, 5]]))),
            &mut net,
        )
        .unwrap();
        let Message::SweepQuery(q1) = net.next().unwrap().msg else {
            panic!()
        };
        // Concurrent ΔR1 delivered.
        wh.on_message(
            deliver(update(0, 0, Bag::from_pairs([(tup![2, 3], -1)]))),
            &mut net,
        )
        .unwrap();
        // R1 answers on its post-delete state.
        wh.on_message(
            deliver(answer(q1.qid, 0, 1, Bag::from_tuples([tup![1, 3, 3, 5]]))),
            &mut net,
        )
        .unwrap();
        assert_eq!(wh.metrics().local_compensations, 1);
        assert_eq!(wh.depth(), 2, "recursive frame for ΔR1 pushed");

        // The recursive call evaluates ΔR1's missing right part: a query
        // to source 1 (range [0,0] → extend right), carrying ΔR1.
        let d = net.next().unwrap();
        assert_eq!(d.to, source_node(1));
        let Message::SweepQuery(qr) = d.msg else {
            panic!()
        };
        assert_eq!(qr.side, JoinSide::Right);
        assert_eq!(qr.partial.bag, Bag::from_pairs([(tup![2, 3], -1)]));
        // R2 (with (3,7) and (3,5)) answers: −(2,3)⋈{(3,7),(3,5)}.
        wh.on_message(
            deliver(answer(
                qr.qid,
                0,
                1,
                Bag::from_pairs([(tup![2, 3, 3, 7], -1), (tup![2, 3, 3, 5], -1)]),
            )),
            &mut net,
        )
        .unwrap();
        // Child range now [0,1] = parent's suspended range: merged, and the
        // combined dv sweeps right to source 2.
        assert_eq!(wh.depth(), 1);
        let d = net.next().unwrap();
        assert_eq!(d.to, source_node(2));
        let Message::SweepQuery(q2) = d.msg else {
            panic!()
        };
        // Combined dv: (1,3,3,5) + (2,3,3,5) − (2,3,3,5) − (2,3,3,7)
        //            = (1,3,3,5) − (2,3,3,7).
        assert_eq!(
            q2.partial.bag,
            Bag::from_pairs([(tup![1, 3, 3, 5], 1), (tup![2, 3, 3, 7], -1)])
        );
        // R3 = {(5,6),(7,8)}: joins D=E.
        wh.on_message(
            deliver(answer(
                q2.qid,
                0,
                2,
                Bag::from_pairs([(tup![1, 3, 3, 5, 5, 6], 1), (tup![2, 3, 3, 7, 7, 8], -1)]),
            )),
            &mut net,
        )
        .unwrap();

        // One install consuming both updates.
        assert_eq!(wh.installs().len(), 1);
        assert_eq!(
            wh.installs()[0].consumed,
            vec![
                UpdateId { source: 1, seq: 0 },
                UpdateId { source: 0, seq: 0 }
            ]
        );
        // V = {(7,8)[2]} + (5,6) − (7,8) = {(7,8)[1], (5,6)[1]}.
        assert_eq!(
            wh.view(),
            &Bag::from_pairs([(tup![5, 6], 1), (tup![7, 8], 1)])
        );
        assert!(wh.is_quiescent());
    }

    #[test]
    fn depth_bound_falls_back_to_sweep_semantics() {
        let mut net: Network<Message> = Network::new(0);
        let mut wh = NestedSweep::with_options(
            paper_view(),
            Bag::from_pairs([(tup![7, 8], 2)]),
            NestedSweepOptions { max_depth: Some(1) },
        )
        .unwrap();
        wh.on_message(
            deliver(update(1, 0, Bag::from_tuples([tup![3, 5]]))),
            &mut net,
        )
        .unwrap();
        let Message::SweepQuery(q1) = net.next().unwrap().msg else {
            panic!()
        };
        wh.on_message(
            deliver(update(0, 0, Bag::from_pairs([(tup![2, 3], -1)]))),
            &mut net,
        )
        .unwrap();
        wh.on_message(
            deliver(answer(q1.qid, 0, 1, Bag::from_tuples([tup![1, 3, 3, 5]]))),
            &mut net,
        )
        .unwrap();
        // Depth bound: no recursion, update still queued.
        assert_eq!(wh.depth(), 1);
        assert_eq!(wh.metrics().depth_bound_hits, 1);
        assert!(!wh.core.queue.is_empty());
    }

    #[test]
    fn answer_with_wrong_qid_rejected() {
        let mut net: Network<Message> = Network::new(0);
        let mut wh = NestedSweep::new(paper_view(), Bag::new()).unwrap();
        wh.on_message(
            deliver(update(1, 0, Bag::from_tuples([tup![3, 5]]))),
            &mut net,
        )
        .unwrap();
        let res = wh.on_message(deliver(answer(77, 0, 1, Bag::new())), &mut net);
        assert!(matches!(res, Err(WarehouseError::UnknownQuery { qid: 77 })));
    }

    #[test]
    fn idle_answer_rejected() {
        let mut net: Network<Message> = Network::new(0);
        let mut wh = NestedSweep::new(paper_view(), Bag::new()).unwrap();
        let res = wh.on_message(deliver(answer(0, 0, 0, Bag::new())), &mut net);
        assert!(matches!(res, Err(WarehouseError::UnknownQuery { .. })));
    }
}
