//! **SWEEP** — the paper's §5 algorithm (Figure 4).
//!
//! One update is processed at a time, in warehouse delivery order. For
//! update `ΔR_i` the view change is evaluated by *sweeping* the chain:
//! first leftward from `R_{i−1}` down to `R_1`, then rightward from
//! `R_{i+1}` up to `R_n`, one source query in flight at a time. When the
//! answer from source `j` arrives, any concurrent update `ΔR_j` already
//! delivered (it *must* have been, by FIFO, if it interfered) is
//! compensated **locally**: `ΔV ← ΔV − ΔR_j ⋈ TempView`. No compensating
//! queries are ever sent, and the update queue is left untouched — the
//! interfering updates get their own view change later.
//!
//! Properties (verified by the consistency checker and the test suite):
//! complete consistency, exactly `n−1` queries (`2(n−1)` messages) per
//! update, no quiescence requirement.
//!
//! Two §5.3 optimizations are implemented behind [`SweepOptions`]:
//!
//! * `parallel` — run the left and right sweeps concurrently and merge
//!   `ΔV = ΔV_left ⋈ ΔV_right` on the shared `ΔR_i` columns (the right
//!   sweep is seeded with the *support* of `ΔR_i` — each distinct tuple at
//!   multiplicity 1 — so multiplicities are not double-counted).
//! * `short_circuit_empty` — when the partial `ΔV` becomes empty the final
//!   view change is necessarily empty, so remaining queries are skipped.
//!   (Off by default: the paper always completes the sweep.)
//!
//! The mechanism — query plumbing, hop spans, compensation, install —
//! lives in [`dw_engine`]; this module is the *strategy*: the
//! one-update-at-a-time state machine plus the global-transaction hold
//! logic, driving an [`EngineCore`] through the [`SweepPolicy`] hook.

use crate::error::WarehouseError;
use crate::install::InstallRecord;
use crate::metrics::PolicyMetrics;
use crate::policy::MaintenancePolicy;
use crate::queue::PendingUpdate;
pub use dw_engine::SweepOptions;
use dw_engine::{
    dispatch, merge_pivot, support, EngineCore, InstallSink, Leg, LegSlot, SpanLabels, SweepCtx,
    SweepPolicy,
};
use dw_obs::Obs;
use dw_protocol::{GlobalPart, Message, SourceUpdate, UpdateId};
use dw_relational::{Bag, JoinSide, PartialDelta};
use dw_simnet::{Delivery, NetHandle, Time};
use std::collections::HashMap;

/// SWEEP's historical trace vocabulary, emitted by the engine on the
/// adapter's behalf.
const LABELS: SpanLabels = SpanLabels {
    sweep: "sweep",
    hop: "sweep.hop",
    compensations: "sweep.compensations",
    query_rows: Some("sweep.query_rows"),
    comp_rows: Some("sweep.comp_rows"),
    query_counter: None,
};

enum State {
    Idle,
    /// Sequential: one leg at a time, left phase then right phase.
    Seq {
        upd: UpdateId,
        delivered_at: Time,
        i: usize,
        leg: Leg,
    },
    /// Parallel: both legs in flight; completed sides parked until merge.
    Par {
        upd: UpdateId,
        delivered_at: Time,
        i: usize,
        left: LegSlot,
        right: LegSlot,
    },
}

/// The SWEEP warehouse policy.
pub struct Sweep {
    core: EngineCore,
    /// The in-flight sweep's context (its span; no batching, σ or scope).
    ctx: SweepCtx,
    sink: InstallSink,
    opts: SweepOptions,
    state: State,
    /// Global-transaction tags of queued/processing updates (type 3).
    global_tags: HashMap<UpdateId, GlobalPart>,
    /// Parts still missing per in-progress global transaction.
    pending_globals: HashMap<u64, u32>,
    /// Finalized view changes buffered while a global transaction is
    /// incomplete — flushed as one atomic install.
    hold: Option<Hold>,
}

#[derive(Debug, Default)]
struct Hold {
    accum: Bag,
    consumed: Vec<(UpdateId, Time)>,
}

impl Sweep {
    /// Create the policy over `view_def` with the correct initial view.
    pub fn new(
        view_def: dw_relational::ViewDef,
        initial_view: Bag,
    ) -> Result<Self, WarehouseError> {
        Ok(Sweep {
            core: EngineCore::new(view_def, LABELS),
            ctx: SweepCtx::default(),
            sink: InstallSink::new(initial_view)?,
            opts: SweepOptions::default(),
            state: State::Idle,
            global_tags: HashMap::new(),
            pending_globals: HashMap::new(),
            hold: None,
        })
    }

    /// Create with explicit options.
    pub fn with_options(
        view_def: dw_relational::ViewDef,
        initial_view: Bag,
        opts: SweepOptions,
    ) -> Result<Self, WarehouseError> {
        let mut s = Sweep::new(view_def, initial_view)?;
        s.opts = opts;
        Ok(s)
    }

    /// Pending update queue length (observability hook).
    pub fn queue_len(&self) -> usize {
        self.core.queue.len()
    }

    /// Begin the view change for the queue head.
    fn start_next(&mut self, net: &mut dyn NetHandle<Message>) -> Result<(), WarehouseError> {
        let Some(PendingUpdate { update, arrived_at }) = self.core.queue.pop() else {
            self.state = State::Idle;
            return Ok(());
        };
        let i = update.id.source;
        self.ctx = self.core.begin_sweep(net.now());
        self.core
            .obs
            .observe("sweep.delta_rows", update.delta.distinct_len() as u64);
        let seeded = PartialDelta::seed(&self.core.view, i, &update.delta)?;

        // Degenerate chains and filtered-out updates need no queries.
        if self.core.n() == 1 {
            let final_bag = seeded.finalize(&self.core.view)?;
            return self.install(net, update.id, arrived_at, final_bag);
        }
        if self.opts.short_circuit_empty && seeded.bag.is_empty() {
            return self.install(net, update.id, arrived_at, Bag::new());
        }

        let has_left = i > 0;
        let has_right = i + 1 < self.core.n();

        if self.opts.parallel && has_left && has_right {
            // Left leg carries the true delta; right leg carries the
            // support so multiplicities are counted once at merge time.
            let right_dv = PartialDelta {
                lo: i,
                hi: i,
                bag: support(&seeded.bag),
            };
            let left = Leg::launch(
                &mut self.core,
                &self.ctx,
                net,
                seeded,
                i - 1,
                JoinSide::Left,
            );
            let right = Leg::launch(
                &mut self.core,
                &self.ctx,
                net,
                right_dv,
                i + 1,
                JoinSide::Right,
            );
            self.state = State::Par {
                upd: update.id,
                delivered_at: arrived_at,
                i,
                left: LegSlot::Running(left),
                right: LegSlot::Running(right),
            };
            return Ok(());
        }

        // Sequential: left sweep first when it exists, else right.
        let (j, side) = if has_left {
            (i - 1, JoinSide::Left)
        } else {
            (i + 1, JoinSide::Right)
        };
        let leg = Leg::launch(&mut self.core, &self.ctx, net, seeded, j, side);
        self.state = State::Seq {
            upd: update.id,
            delivered_at: arrived_at,
            i,
            leg,
        };
        Ok(())
    }

    fn install(
        &mut self,
        net: &mut dyn NetHandle<Message>,
        upd: UpdateId,
        delivered_at: Time,
        final_bag: Bag,
    ) -> Result<(), WarehouseError> {
        self.core
            .obs
            .observe("sweep.install_rows", final_bag.distinct_len() as u64);
        self.core.end_sweep(&self.ctx, net.now());
        self.core.record_batch(1);
        // Global-transaction bookkeeping (type 3 updates, per the paper's
        // §2 pointer to [ZGMW96]): a part's view change is computed like
        // any other update's, but installs are *held* until every part of
        // every in-progress global transaction has been processed, then
        // flushed as one atomic state transition.
        if let Some(g) = self.global_tags.remove(&upd) {
            let remaining = self.pending_globals.entry(g.gid).or_insert(g.parts);
            *remaining -= 1;
            if *remaining == 0 {
                self.pending_globals.remove(&g.gid);
            }
        }
        let must_hold = !self.pending_globals.is_empty();
        if must_hold || self.hold.is_some() {
            let hold = self.hold.get_or_insert_with(Hold::default);
            hold.accum.merge(&final_bag);
            hold.consumed.push((upd, delivered_at));
            if !must_hold {
                let hold = self.hold.take().expect("just inserted");
                self.sink.install(
                    &mut self.core.metrics,
                    &hold.accum,
                    &hold.consumed,
                    net.now(),
                )?;
            }
        } else {
            self.sink.install(
                &mut self.core.metrics,
                &final_bag,
                &[(upd, delivered_at)],
                net.now(),
            )?;
        }
        self.state = State::Idle;
        // Immediately begin the next queued update (no quiescence needed).
        self.start_next(net)
    }

    /// Handle an answer in sequential mode.
    fn seq_answer(
        &mut self,
        net: &mut dyn NetHandle<Message>,
        partial: PartialDelta,
    ) -> Result<(), WarehouseError> {
        let State::Seq {
            upd,
            delivered_at,
            i,
            mut leg,
        } = std::mem::replace(&mut self.state, State::Idle)
        else {
            unreachable!("seq_answer outside Seq state");
        };
        self.core.end_hop(leg.hop, net.now());
        leg.dv = partial;
        let (j, side) = (leg.j, leg.side);
        let temp = leg.temp.clone();
        self.core
            .compensate(&self.ctx, &mut leg.dv, &temp, j, side)?;

        if self.opts.short_circuit_empty && leg.dv.bag.is_empty() {
            return self.install(net, upd, delivered_at, Bag::new());
        }

        // Advance the sweep: continue left, then switch to right, then done.
        let next = match side {
            JoinSide::Left if j > 0 => Some((j - 1, JoinSide::Left)),
            JoinSide::Left if i + 1 < self.core.n() => Some((i + 1, JoinSide::Right)),
            JoinSide::Left => None,
            JoinSide::Right if j + 1 < self.core.n() => Some((j + 1, JoinSide::Right)),
            JoinSide::Right => None,
        };
        match next {
            Some((nj, nside)) => {
                leg.advance(&mut self.core, &self.ctx, net, nj, nside);
                self.state = State::Seq {
                    upd,
                    delivered_at,
                    i,
                    leg,
                };
                Ok(())
            }
            None => {
                let final_bag = leg.dv.finalize(&self.core.view)?;
                self.install(net, upd, delivered_at, final_bag)
            }
        }
    }

    /// Handle an answer in parallel mode.
    fn par_answer(
        &mut self,
        net: &mut dyn NetHandle<Message>,
        qid: u64,
        partial: PartialDelta,
    ) -> Result<(), WarehouseError> {
        let State::Par {
            upd,
            delivered_at,
            i,
            mut left,
            mut right,
        } = std::mem::replace(&mut self.state, State::Idle)
        else {
            unreachable!("par_answer outside Par state");
        };

        let use_left = matches!(&left, LegSlot::Running(l) if l.qid == qid);
        let use_right = matches!(&right, LegSlot::Running(r) if r.qid == qid);
        if !use_left && !use_right {
            // Restore state before surfacing the error.
            self.state = State::Par {
                upd,
                delivered_at,
                i,
                left,
                right,
            };
            return Err(WarehouseError::UnknownQuery { qid });
        }
        // Pull the leg out by value to avoid nested mutable borrows.
        let slot_ref = if use_left { &mut left } else { &mut right };
        let LegSlot::Running(mut leg) = std::mem::replace(slot_ref, LegSlot::Done(partial.clone()))
        else {
            unreachable!()
        };
        self.core.end_hop(leg.hop, net.now());
        leg.dv = partial;
        let (j, side) = (leg.j, leg.side);
        let temp = leg.temp.clone();
        self.core
            .compensate(&self.ctx, &mut leg.dv, &temp, j, side)?;
        // Advance this leg only.
        let next = match side {
            JoinSide::Left if j > 0 => Some(j - 1),
            JoinSide::Left => None,
            JoinSide::Right if j + 1 < self.core.n() => Some(j + 1),
            JoinSide::Right => None,
        };
        match next {
            Some(nj) => {
                leg.advance(&mut self.core, &self.ctx, net, nj, side);
                let slot_ref = if use_left { &mut left } else { &mut right };
                *slot_ref = LegSlot::Running(leg);
            }
            None => {
                let slot_ref = if use_left { &mut left } else { &mut right };
                *slot_ref = LegSlot::Done(leg.dv);
            }
        }

        if let (LegSlot::Done(l), LegSlot::Done(r)) = (&left, &right) {
            // §5.3's merge is the span-generalized pivot merge with the
            // pivot at the updated relation.
            let merged = merge_pivot(&self.core.view, i, l, r);
            let final_bag = merged.finalize(&self.core.view)?;
            return self.install(net, upd, delivered_at, final_bag);
        }
        self.state = State::Par {
            upd,
            delivered_at,
            i,
            left,
            right,
        };
        Ok(())
    }
}

impl SweepPolicy for Sweep {
    type Err = WarehouseError;

    fn name(&self) -> &'static str {
        "sweep"
    }

    fn core(&mut self) -> &mut EngineCore {
        &mut self.core
    }

    fn note_update(&mut self, u: &SourceUpdate, _at: Time) -> Result<(), WarehouseError> {
        if let Some(g) = u.global {
            self.global_tags.insert(u.id, g);
        }
        Ok(())
    }

    fn kick(&mut self, net: &mut dyn NetHandle<Message>) -> Result<(), WarehouseError> {
        if matches!(self.state, State::Idle) {
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
        match &self.state {
            State::Seq { leg, .. } => {
                if leg.qid != qid {
                    return Err(WarehouseError::UnknownQuery { qid });
                }
                self.seq_answer(net, partial)
            }
            State::Par { .. } => self.par_answer(net, qid, partial),
            State::Idle => Err(WarehouseError::UnknownQuery { qid }),
        }
    }
}

impl MaintenancePolicy for Sweep {
    fn name(&self) -> &'static str {
        "sweep"
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
        matches!(self.state, State::Idle)
            && self.core.queue.is_empty()
            && self.hold.is_none()
            && self.pending_globals.is_empty()
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
    use dw_protocol::{source_node, SweepAnswer, WAREHOUSE_NODE};
    use dw_relational::{tup, Schema, ViewDef, ViewDefBuilder};
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

    /// Drive the state machine by hand: answers crafted as a source would.
    #[test]
    fn single_update_sweeps_left_then_right() {
        let mut net: Network<Message> = Network::new(0);
        let mut wh = Sweep::new(paper_view(), Bag::from_pairs([(tup![7, 8], 2)])).unwrap();

        // ΔR2 = +(3,5) (the paper's first update).
        wh.on_message(
            deliver(update(1, 0, Bag::from_tuples([tup![3, 5]]))),
            &mut net,
        )
        .unwrap();

        // The policy should have sent a left query to source 0.
        let q1 = net.next().unwrap();
        assert_eq!(q1.to, source_node(0));
        let Message::SweepQuery(q1) = q1.msg else {
            panic!()
        };
        assert_eq!(q1.side, JoinSide::Left);
        assert_eq!(q1.partial.bag, Bag::from_tuples([tup![3, 5]]));

        // Answer as R1 = {(1,3),(2,3)} would.
        wh.on_message(
            deliver(Message::SweepAnswer(SweepAnswer {
                qid: q1.qid,
                partial: PartialDelta {
                    lo: 0,
                    hi: 1,
                    bag: Bag::from_tuples([tup![1, 3, 3, 5], tup![2, 3, 3, 5]]),
                },
            })),
            &mut net,
        )
        .unwrap();

        // Now a right query to source 2.
        let q2 = net.next().unwrap();
        assert_eq!(q2.to, source_node(2));
        let Message::SweepQuery(q2) = q2.msg else {
            panic!()
        };
        assert_eq!(q2.side, JoinSide::Right);

        // Answer as R3 = {(5,6),(7,8)} would.
        wh.on_message(
            deliver(Message::SweepAnswer(SweepAnswer {
                qid: q2.qid,
                partial: PartialDelta {
                    lo: 0,
                    hi: 2,
                    bag: Bag::from_tuples([tup![1, 3, 3, 5, 5, 6], tup![2, 3, 3, 5, 5, 6]]),
                },
            })),
            &mut net,
        )
        .unwrap();

        // Installed: {(5,6)[2]} added.
        assert_eq!(
            wh.view(),
            &Bag::from_pairs([(tup![5, 6], 2), (tup![7, 8], 2)])
        );
        assert!(wh.is_quiescent());
        assert_eq!(wh.metrics().queries_sent, 2);
        assert_eq!(wh.installs().len(), 1);
        assert_eq!(
            wh.installs()[0].consumed,
            vec![UpdateId { source: 1, seq: 0 }]
        );
    }

    #[test]
    fn concurrent_update_compensated_locally() {
        // Reproduce the §5.2 compensation: while the ΔR2 sweep waits for
        // R1's answer, ΔR1 = −(2,3) arrives; the answer (computed on the
        // *new* R1) must be compensated with ΔR1 ⋈ TempView.
        let mut net: Network<Message> = Network::new(0);
        let mut wh = Sweep::new(paper_view(), Bag::from_pairs([(tup![7, 8], 2)])).unwrap();

        wh.on_message(
            deliver(update(1, 0, Bag::from_tuples([tup![3, 5]]))),
            &mut net,
        )
        .unwrap();
        let Message::SweepQuery(q1) = net.next().unwrap().msg else {
            panic!()
        };

        // Concurrent ΔR1 arrives *before* the answer.
        wh.on_message(
            deliver(update(0, 0, Bag::from_pairs([(tup![2, 3], -1)]))),
            &mut net,
        )
        .unwrap();

        // R1 already applied the delete, so its answer has only (1,3,3,5).
        wh.on_message(
            deliver(Message::SweepAnswer(SweepAnswer {
                qid: q1.qid,
                partial: PartialDelta {
                    lo: 0,
                    hi: 1,
                    bag: Bag::from_tuples([tup![1, 3, 3, 5]]),
                },
            })),
            &mut net,
        )
        .unwrap();
        assert_eq!(wh.metrics().local_compensations, 1);

        // The compensated partial must include the restored (2,3,3,5):
        // ΔV = answer − (−(2,3) ⋈ (3,5)) = answer + (2,3,3,5).
        let Message::SweepQuery(q2) = net.next().unwrap().msg else {
            panic!()
        };
        assert_eq!(
            q2.partial.bag,
            Bag::from_tuples([tup![1, 3, 3, 5], tup![2, 3, 3, 5]])
        );

        // Finish the sweep; R3 unchanged.
        wh.on_message(
            deliver(Message::SweepAnswer(SweepAnswer {
                qid: q2.qid,
                partial: PartialDelta {
                    lo: 0,
                    hi: 2,
                    bag: Bag::from_tuples([tup![1, 3, 3, 5, 5, 6], tup![2, 3, 3, 5, 5, 6]]),
                },
            })),
            &mut net,
        )
        .unwrap();

        assert_eq!(
            wh.view(),
            &Bag::from_pairs([(tup![5, 6], 2), (tup![7, 8], 2)])
        );
        // ΔR1 is still queued — SWEEP does not consume it.
        assert!(!wh.is_quiescent());
        // A new sweep for ΔR1 must have started (right query to source 1).
        let d = net.next().unwrap();
        assert_eq!(d.to, source_node(1));
    }

    #[test]
    fn update_at_left_end_sweeps_right_only() {
        let mut net: Network<Message> = Network::new(0);
        let mut wh = Sweep::new(paper_view(), Bag::from_pairs([(tup![7, 8], 2)])).unwrap();
        wh.on_message(
            deliver(update(0, 0, Bag::from_pairs([(tup![9, 3], 1)]))),
            &mut net,
        )
        .unwrap();
        let d = net.next().unwrap();
        assert_eq!(d.to, source_node(1));
        let Message::SweepQuery(q) = d.msg else {
            panic!()
        };
        assert_eq!(q.side, JoinSide::Right);
    }

    #[test]
    fn answer_with_wrong_qid_rejected() {
        let mut net: Network<Message> = Network::new(0);
        let mut wh = Sweep::new(paper_view(), Bag::new()).unwrap();
        wh.on_message(
            deliver(update(1, 0, Bag::from_tuples([tup![3, 5]]))),
            &mut net,
        )
        .unwrap();
        let res = wh.on_message(
            deliver(Message::SweepAnswer(SweepAnswer {
                qid: 999,
                partial: PartialDelta {
                    lo: 0,
                    hi: 1,
                    bag: Bag::new(),
                },
            })),
            &mut net,
        );
        assert!(matches!(
            res,
            Err(WarehouseError::UnknownQuery { qid: 999 })
        ));
    }

    #[test]
    fn answer_while_idle_rejected() {
        let mut net: Network<Message> = Network::new(0);
        let mut wh = Sweep::new(paper_view(), Bag::new()).unwrap();
        let res = wh.on_message(
            deliver(Message::SweepAnswer(SweepAnswer {
                qid: 0,
                partial: PartialDelta {
                    lo: 0,
                    hi: 0,
                    bag: Bag::new(),
                },
            })),
            &mut net,
        );
        assert!(matches!(res, Err(WarehouseError::UnknownQuery { .. })));
    }

    #[test]
    fn single_relation_chain_installs_without_queries() {
        let view = ViewDefBuilder::new()
            .relation(Schema::new("R1", ["A", "B"]).unwrap())
            .project(["R1.B"])
            .build()
            .unwrap();
        let mut net: Network<Message> = Network::new(0);
        let mut wh = Sweep::new(view, Bag::new()).unwrap();
        wh.on_message(
            deliver(update(0, 0, Bag::from_tuples([tup![1, 7]]))),
            &mut net,
        )
        .unwrap();
        assert_eq!(wh.view(), &Bag::from_pairs([(tup![7], 1)]));
        assert_eq!(wh.metrics().queries_sent, 0);
        assert!(wh.is_quiescent());
    }

    #[test]
    fn short_circuit_empty_skips_queries() {
        let view = ViewDefBuilder::new()
            .relation(Schema::new("R1", ["A", "B"]).unwrap())
            .relation(Schema::new("R2", ["C", "D"]).unwrap())
            .join("R1.B", "R2.C")
            .select("R1.A", dw_relational::CmpOp::Gt, 100)
            .build()
            .unwrap();
        let mut net: Network<Message> = Network::new(0);
        let mut wh = Sweep::with_options(
            view,
            Bag::new(),
            SweepOptions {
                parallel: false,
                short_circuit_empty: true,
            },
        )
        .unwrap();
        // Update filtered out by the local selection: no queries at all.
        wh.on_message(
            deliver(update(0, 0, Bag::from_tuples([tup![1, 3]]))),
            &mut net,
        )
        .unwrap();
        assert_eq!(wh.metrics().queries_sent, 0);
        assert_eq!(wh.installs().len(), 1);
        assert!(wh.is_quiescent());
    }

    #[test]
    fn parallel_mode_sends_both_legs_and_merges() {
        let mut net: Network<Message> = Network::new(0);
        let mut wh = Sweep::with_options(
            paper_view(),
            Bag::from_pairs([(tup![7, 8], 2)]),
            SweepOptions {
                parallel: true,
                short_circuit_empty: false,
            },
        )
        .unwrap();
        // ΔR2 = +(3,5) with multiplicity 3 to exercise count handling.
        wh.on_message(
            deliver(update(1, 0, Bag::from_pairs([(tup![3, 5], 3)]))),
            &mut net,
        )
        .unwrap();
        // Two queries in flight.
        let d1 = net.next().unwrap();
        let d2 = net.next().unwrap();
        let (mut lq, mut rq) = (None, None);
        for d in [d1, d2] {
            let to = d.to;
            let Message::SweepQuery(q) = d.msg else {
                panic!()
            };
            match q.side {
                JoinSide::Left => {
                    assert_eq!(to, source_node(0));
                    // true delta: count 3
                    assert_eq!(q.partial.bag.count(&tup![3, 5]), 3);
                    lq = Some(q);
                }
                JoinSide::Right => {
                    assert_eq!(to, source_node(2));
                    // support: count 1
                    assert_eq!(q.partial.bag.count(&tup![3, 5]), 1);
                    rq = Some(q);
                }
            }
        }
        let (lq, rq) = (lq.unwrap(), rq.unwrap());

        // Right answer first (R3 matches (5,6)).
        wh.on_message(
            deliver(Message::SweepAnswer(SweepAnswer {
                qid: rq.qid,
                partial: PartialDelta {
                    lo: 1,
                    hi: 2,
                    bag: Bag::from_tuples([tup![3, 5, 5, 6]]),
                },
            })),
            &mut net,
        )
        .unwrap();
        assert_eq!(wh.installs().len(), 0, "must wait for the left leg");

        // Left answer: R1 has two matches, counts ×3.
        wh.on_message(
            deliver(Message::SweepAnswer(SweepAnswer {
                qid: lq.qid,
                partial: PartialDelta {
                    lo: 0,
                    hi: 1,
                    bag: Bag::from_pairs([(tup![1, 3, 3, 5], 3), (tup![2, 3, 3, 5], 3)]),
                },
            })),
            &mut net,
        )
        .unwrap();

        // Final: Π[D,F] gives (5,6) with count 2 matches × 3 = 6.
        assert_eq!(
            wh.view(),
            &Bag::from_pairs([(tup![5, 6], 6), (tup![7, 8], 2)])
        );
        assert!(wh.is_quiescent());
    }

    #[test]
    fn negative_install_surfaces_inconsistency() {
        // Deleting a view tuple that is not there must error loudly.
        let view = ViewDefBuilder::new()
            .relation(Schema::new("R1", ["A"]).unwrap())
            .build()
            .unwrap();
        let mut net: Network<Message> = Network::new(0);
        let mut wh = Sweep::new(view, Bag::new()).unwrap();
        let res = wh.on_message(
            deliver(update(0, 0, Bag::from_pairs([(tup![1], -1)]))),
            &mut net,
        );
        assert!(matches!(
            res,
            Err(WarehouseError::InconsistentInstall { .. })
        ));
    }

    #[test]
    fn updates_processed_in_delivery_order() {
        let view = ViewDefBuilder::new()
            .relation(Schema::new("R1", ["A"]).unwrap())
            .build()
            .unwrap();
        let mut net: Network<Message> = Network::new(0);
        let mut wh = Sweep::new(view, Bag::new()).unwrap();
        wh.on_message(
            deliver(update(0, 0, Bag::from_pairs([(tup![1], 1)]))),
            &mut net,
        )
        .unwrap();
        wh.on_message(
            deliver(update(0, 1, Bag::from_pairs([(tup![2], 1)]))),
            &mut net,
        )
        .unwrap();
        let consumed: Vec<u64> = wh.installs().iter().map(|r| r.consumed[0].seq).collect();
        assert_eq!(consumed, vec![0, 1]);
    }
}
