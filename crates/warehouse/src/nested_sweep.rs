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
//! The mechanism — the hop walk, both compensation flavors, install — is
//! [`dw_engine`]'s; this module keeps only the strategy: the stack of
//! [`SweepRun`]s (one per `ViewChange` call) and the dovetailing decision.

use crate::InstallRecord;
use crate::MaintenancePolicy;
use crate::PendingUpdate;
use crate::PolicyMetrics;
use crate::WarehouseError;
use dw_engine::{dispatch, EngineCore, InstallSink, SpanLabels, SweepCtx, SweepPolicy, SweepRun};
use dw_obs::Obs;
use dw_protocol::{Message, UpdateId};
use dw_relational::{Bag, PartialDelta, SharedBag, ViewDef};
use dw_simnet::{Delivery, NetHandle, Time};

/// Nested SWEEP's historical trace vocabulary.
const LABELS: SpanLabels = SpanLabels {
    sweep: "nested_sweep",
    hop: "nested_sweep.hop",
    compensations: "nested_sweep.compensations",
    query_rows: Some("nested_sweep.query_rows"),
    query_counter: None,
};

#[derive(Debug)]
struct Active {
    /// Suspended `ViewChange` calls, innermost last; only the top has a
    /// query in flight.
    stack: Vec<SweepRun>,
    consumed: Vec<(UpdateId, Time)>,
}

/// Options for Nested SWEEP.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NestedSweepOptions {
    /// Maximum dovetailing depth (frame-stack height) before interfering
    /// updates fall back to SWEEP-style compensation-without-removal.
    /// `None` means unbounded.
    pub max_depth: Option<usize>,
}

/// The Nested SWEEP warehouse policy.
pub struct NestedSweep {
    core: EngineCore,
    /// The in-flight sweep's context (its span; no pushed σ).
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
        while let Some(PendingUpdate { update, arrived_at }) = self.core.queue.pop() {
            self.ctx = self.core.begin_sweep(net.now());
            self.core.obs.observe(
                "nested_sweep.delta_rows",
                update.delta.distinct_len() as u64,
            );
            let seed = PartialDelta::seed(&self.core.view, update.id.source, &update.delta)?;
            self.active = Some(Active {
                stack: vec![SweepRun::sequential(seed, 0, self.core.n() - 1)],
                consumed: vec![(update.id, arrived_at)],
            });
            self.core.metrics.max_recursion_depth = self.core.metrics.max_recursion_depth.max(1);
            if self.pump(net)? {
                break;
            }
        }
        Ok(())
    }

    /// Drive the top run: issue its next query (`true`: the sweep stays
    /// in flight), or unwind covered runs — each child's partial folding
    /// into its suspended parent — until a query is issued or the outer
    /// call itself is covered and its composite view change installs
    /// (`false`: idle again).
    fn pump(&mut self, net: &mut dyn NetHandle<Message>) -> Result<bool, WarehouseError> {
        let Some(mut active) = self.active.take() else {
            return Ok(false);
        };
        while let Some(mut top) = active.stack.pop() {
            top.advance(&mut self.core, &self.ctx, net);
            if !top.is_done() {
                active.stack.push(top);
                self.active = Some(active);
                return Ok(true);
            }
            let done = top.into_partial(&self.core.view);
            if let Some(parent) = active.stack.last_mut() {
                parent.fold(&done);
                continue;
            }
            let final_bag = done.finalize(&self.core.view)?;
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
        }
        Ok(false)
    }

    fn answer(
        &mut self,
        net: &mut dyn NetHandle<Message>,
        qid: u64,
        partial: PartialDelta,
    ) -> Result<(), WarehouseError> {
        let unknown = WarehouseError::UnknownQuery { qid };
        let Some(active) = self.active.as_mut() else {
            return Err(unknown);
        };
        let depth = active.stack.len();
        let top = active.stack.last_mut().ok_or(unknown)?;
        let mut hop = top.absorb(&mut self.core, qid, partial, net.now())?;
        if self.opts.max_depth.is_none_or(|d| depth < d) {
            // Figure 6: remove, compensate, recurse — the recursive call
            // covers exactly the segment this run has covered so far.
            if let Some((merged, infos)) = self.core.compensate_consuming(&self.ctx, &mut hop)? {
                self.core.obs.add("nested_sweep.recursions", 1);
                active.consumed.extend(infos);
                let (j, lo, hi) = (hop.j, hop.dv.lo, hop.dv.hi);
                let seed = PartialDelta::seed(&self.core.view, j, &merged)?;
                active.stack.push(SweepRun::sequential(seed, lo, hi));
                self.core.metrics.max_recursion_depth = self
                    .core
                    .metrics
                    .max_recursion_depth
                    .max(active.stack.len() as u64);
            }
        } else if self.core.queue.has_from_source(hop.j) {
            // Forced termination: SWEEP-style compensation, update
            // stays queued for its own (bounded) round later.
            self.core.compensate(&self.ctx, &mut hop, &[])?;
            self.core.metrics.depth_bound_hits += 1;
            self.core.obs.add("nested_sweep.depth_bound_hits", 1);
        }
        self.core
            .obs
            .observe("nested_sweep.depth", active.stack.len() as u64);
        if !self.pump(net)? {
            self.start_next(net)?;
        }
        Ok(())
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

    fn view(&self) -> &SharedBag {
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
    use crate::testkit::{answer, deliver, paper_view, update};
    use dw_protocol::source_node;
    use dw_relational::{tup, JoinSide};
    use dw_simnet::Network;

    #[test]
    fn without_concurrency_identical_to_sweep() {
        let mut net: Network<Message> = Network::new(0);
        let mut wh = NestedSweep::new(paper_view(), Bag::from_pairs([(tup![7, 8], 2)])).unwrap();
        wh.on_message(
            deliver(0, update(1, 0, Bag::from_tuples([tup![3, 5]]))),
            &mut net,
        )
        .unwrap();
        let Message::SweepQuery(q1) = net.next().unwrap().msg else {
            panic!()
        };
        assert_eq!(q1.side, JoinSide::Left);
        wh.on_message(
            deliver(
                0,
                answer(
                    q1.qid,
                    0,
                    1,
                    Bag::from_tuples([tup![1, 3, 3, 5], tup![2, 3, 3, 5]]),
                ),
            ),
            &mut net,
        )
        .unwrap();
        let Message::SweepQuery(q2) = net.next().unwrap().msg else {
            panic!()
        };
        wh.on_message(
            deliver(
                0,
                answer(
                    q2.qid,
                    0,
                    2,
                    Bag::from_tuples([tup![1, 3, 3, 5, 5, 6], tup![2, 3, 3, 5, 5, 6]]),
                ),
            ),
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
            deliver(0, update(1, 0, Bag::from_tuples([tup![3, 5]]))),
            &mut net,
        )
        .unwrap();
        let Message::SweepQuery(q1) = net.next().unwrap().msg else {
            panic!()
        };
        // Concurrent ΔR1 delivered.
        wh.on_message(
            deliver(0, update(0, 0, Bag::from_pairs([(tup![2, 3], -1)]))),
            &mut net,
        )
        .unwrap();
        // R1 answers on its post-delete state.
        wh.on_message(
            deliver(
                0,
                answer(q1.qid, 0, 1, Bag::from_tuples([tup![1, 3, 3, 5]])),
            ),
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
            deliver(
                0,
                answer(
                    qr.qid,
                    0,
                    1,
                    Bag::from_pairs([(tup![2, 3, 3, 7], -1), (tup![2, 3, 3, 5], -1)]),
                ),
            ),
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
            deliver(
                0,
                answer(
                    q2.qid,
                    0,
                    2,
                    Bag::from_pairs([(tup![1, 3, 3, 5, 5, 6], 1), (tup![2, 3, 3, 7, 7, 8], -1)]),
                ),
            ),
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
            deliver(0, update(1, 0, Bag::from_tuples([tup![3, 5]]))),
            &mut net,
        )
        .unwrap();
        let Message::SweepQuery(q1) = net.next().unwrap().msg else {
            panic!()
        };
        wh.on_message(
            deliver(0, update(0, 0, Bag::from_pairs([(tup![2, 3], -1)]))),
            &mut net,
        )
        .unwrap();
        wh.on_message(
            deliver(
                0,
                answer(q1.qid, 0, 1, Bag::from_tuples([tup![1, 3, 3, 5]])),
            ),
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
            deliver(0, update(1, 0, Bag::from_tuples([tup![3, 5]]))),
            &mut net,
        )
        .unwrap();
        let res = wh.on_message(deliver(0, answer(77, 0, 1, Bag::new())), &mut net);
        assert!(matches!(res, Err(WarehouseError::UnknownQuery { qid: 77 })));
    }

    #[test]
    fn idle_answer_rejected() {
        let mut net: Network<Message> = Network::new(0);
        let mut wh = NestedSweep::new(paper_view(), Bag::new()).unwrap();
        let res = wh.on_message(deliver(0, answer(0, 0, 0, Bag::new())), &mut net);
        assert!(matches!(res, Err(WarehouseError::UnknownQuery { .. })));
    }
}
