//! **SWEEP** — the paper's §5 algorithm (Figure 4).
//!
//! Updates are processed in warehouse delivery order. For update `ΔR_i`
//! the view change is evaluated by *sweeping* the chain: first leftward
//! from `R_{i−1}` down to `R_1`, then rightward from `R_{i+1}` up to
//! `R_n`, one source query in flight at a time. When the answer from
//! source `j` arrives, any concurrent update `ΔR_j` already delivered (it
//! *must* have been, by FIFO, if it interfered) is compensated
//! **locally**: `ΔV ← ΔV − ΔR_j ⋈ TempView`. No compensating queries are
//! ever sent, and the update queue is left untouched — the interfering
//! updates get their own view change later.
//!
//! Properties (verified by the consistency checker and the test suite):
//! complete consistency, exactly `n−1` queries (`2(n−1)` messages) per
//! update, no quiescence requirement.
//!
//! The §5.3 optimizations are implemented behind [`SweepOptions`]:
//!
//! * `parallel` — run the left and right sweeps concurrently and merge
//!   `ΔV = ΔV_left ⋈ ΔV_right` on the shared `ΔR_i` columns (the right
//!   sweep is seeded with the *support* of `ΔR_i` — each distinct tuple at
//!   multiplicity 1 — so multiplicities are not double-counted).
//! * `short_circuit_empty` — when the partial `ΔV` becomes empty the final
//!   view change is necessarily empty, so remaining queries are skipped.
//!   (Off by default: the paper always completes the sweep.)
//! * `window` — **pipelining**: "pipeline the view construction for
//!   multiple updates … the view changes should be incorporated in the
//!   order of the arrival of the updates and a more elaborate mechanism
//!   will be needed to detect concurrent updates." Up to `window` sweeps
//!   run at once (`1`, the default, is Figure 4; `0` is unbounded). The
//!   elaborate mechanism is the same rule restricted to later arrivals:
//!   the sweep for update `k` compensates, at source `j`, for exactly the
//!   delivered updates from `j` that arrived **after** `k` — the queued
//!   ones plus those already sweeping. FIFO makes that precise: an update
//!   from `j` delivered before the answer is *in* the answer, and belongs
//!   to `ΔV_k`'s target state only if it arrived before `k`; one delivered
//!   after the answer cannot be in it. Finished view changes are released
//!   strictly in arrival order, so complete consistency is preserved while
//!   the per-update sweep latencies overlap (experiments E9, E10).
//!
//! The mechanism — the hop walk, spans, compensation, install — lives in
//! [`dw_engine`]; this module is the *strategy*: which arrivals a hop
//! compensates for, the window, in-order release and the
//! global-transaction hold, driving [`SweepRun`]s over one [`EngineCore`]
//! through the [`SweepPolicy`] hook.

use crate::InstallRecord;
use crate::MaintenancePolicy;
use crate::PendingUpdate;
use crate::PolicyMetrics;
use crate::WarehouseError;
pub use dw_engine::SweepOptions;
use dw_engine::{
    dispatch, EngineCore, InstallSequencer, InstallSink, SequencedInstall, SpanLabels, SweepCtx,
    SweepPolicy, SweepRun,
};
use dw_obs::Obs;
use dw_protocol::{GlobalPart, Message, SourceUpdate, UpdateId};
use dw_relational::{Bag, PartialDelta, SharedBag};
use dw_simnet::{Delivery, NetHandle, Time};
use std::collections::{HashMap, VecDeque};

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

/// One update's sweep, from leaving the queue until its view change is
/// released.
struct Flight {
    /// Install ticket, issued in queue (= arrival) order.
    ticket: u64,
    update: SourceUpdate,
    arrived_at: Time,
    /// The walk and its context while it runs. Once it has finished, the
    /// view change waits in the sequencer and the flight stays on only as
    /// a concurrent update the older sweeps compensate for.
    run: Option<(SweepRun, SweepCtx)>,
}

fn bad_global_tag(g: GlobalPart, id: UpdateId) -> WarehouseError {
    WarehouseError::Precondition {
        reason: format!(
            "update {id:?} tags itself part of global transaction {} of {} parts: \
             a transaction has at least one part, every part announces the same count, \
             and no more parts than that arrive",
            g.gid, g.parts
        ),
    }
}

/// The SWEEP warehouse policy.
pub struct Sweep {
    core: EngineCore,
    sink: InstallSink,
    opts: SweepOptions,
    /// Started, unreleased sweeps in arrival order.
    flights: VecDeque<Flight>,
    /// Releases finished view changes in arrival order.
    sequencer: InstallSequencer,
    /// Per global transaction ever announced: `(parts, parts delivered)`.
    /// Entries outlive their transaction, so a part arriving after the
    /// last one is refused instead of re-opening it.
    global_seen: HashMap<u64, (u32, u32)>,
    /// Parts still missing per in-progress global transaction.
    pending_globals: HashMap<u64, u32>,
    /// Released view changes buffered while a global transaction is
    /// incomplete — flushed as one atomic install.
    hold: Hold,
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
        Self::with_options(view_def, initial_view, SweepOptions::default())
    }

    /// Create with explicit options.
    pub fn with_options(
        view_def: dw_relational::ViewDef,
        initial_view: Bag,
        opts: SweepOptions,
    ) -> Result<Self, WarehouseError> {
        Ok(Sweep {
            core: EngineCore::new(view_def, LABELS),
            sink: InstallSink::new(initial_view)?,
            opts,
            flights: VecDeque::new(),
            sequencer: InstallSequencer::new(),
            global_seen: HashMap::new(),
            pending_globals: HashMap::new(),
            hold: Hold::default(),
        })
    }

    /// Number of sweeps currently in flight (observability).
    pub fn in_flight(&self) -> usize {
        self.flights.iter().filter(|f| f.run.is_some()).count()
    }

    /// Does an update at source `i` sweep with two legs? Only when
    /// `parallel` is on and both directions have sources to visit.
    fn two_legs(&self, i: usize) -> bool {
        self.opts.parallel && 0 < i && i + 1 < self.core.n()
    }

    /// Begin the view change of queued updates, oldest first, while the
    /// window allows (no quiescence needed).
    fn fill_window(&mut self, net: &mut dyn NetHandle<Message>) -> Result<(), WarehouseError> {
        while self.opts.window == 0 || self.in_flight() < self.opts.window {
            let Some(PendingUpdate { update, arrived_at }) = self.core.queue.pop() else {
                break;
            };
            let i = update.id.source;
            let ctx = self.core.begin_sweep(net.now());
            self.core
                .obs
                .observe("sweep.delta_rows", update.delta.distinct_len() as u64);
            let seeded = PartialDelta::seed(&self.core.view, i, &update.delta)?;
            // A filtered-out update needs no queries.
            let dead = self.opts.short_circuit_empty && seeded.bag.is_empty();
            let hi = self.core.n() - 1;
            let run = match self.two_legs(i) {
                true => SweepRun::two_legs(seeded, 0, hi),
                false => SweepRun::sequential(seeded, 0, hi),
            };
            self.flights.push_back(Flight {
                ticket: self.sequencer.issue(),
                update,
                arrived_at,
                run: None,
            });
            self.proceed(net, self.flights.len() - 1, run, ctx, dead)?;
        }
        Ok(())
    }

    /// Move flight `pos`'s run on: send its next queries, or — covered,
    /// or `dead` (short-circuited: the view change is provably empty) —
    /// hand the finished view change to the sequencer and install
    /// whatever that releases.
    fn proceed(
        &mut self,
        net: &mut dyn NetHandle<Message>,
        pos: usize,
        mut run: SweepRun,
        ctx: SweepCtx,
        dead: bool,
    ) -> Result<(), WarehouseError> {
        if !dead {
            run.advance(&mut self.core, &ctx, net);
            if !run.is_done() {
                self.flights[pos].run = Some((run, ctx));
                return Ok(());
            }
        }
        let final_bag = match dead {
            true => Bag::new(),
            false => run
                .into_partial(&self.core.view)
                .finalize(&self.core.view)?,
        };
        self.core
            .obs
            .observe("sweep.install_rows", final_bag.distinct_len() as u64);
        self.core.end_sweep(&ctx, net.now());
        self.core.record_batch(1);
        let flight = &self.flights[pos];
        let install = SequencedInstall {
            consumed: vec![(flight.update.id, flight.arrived_at)],
            deltas: vec![(0, final_bag)],
        };
        self.sequencer.complete(flight.ticket, Some(install));
        for SequencedInstall { consumed, deltas } in self.sequencer.drain() {
            // Tickets follow arrival order, so the released change is the
            // front flight's; its update still carries the type-3 tag.
            if let Some(flight) = self.flights.pop_front() {
                self.count_part_released(&flight.update)?;
            }
            for (_, final_bag) in deltas {
                self.release(&consumed, &final_bag, net.now())?;
            }
        }
        Ok(())
    }

    /// Count a released update against its global transaction, if it is
    /// a part of one: the transaction stops holding installs once its
    /// last part is released.
    fn count_part_released(&mut self, u: &SourceUpdate) -> Result<(), WarehouseError> {
        let Some(g) = u.global else {
            return Ok(());
        };
        let remaining = self.pending_globals.entry(g.gid).or_insert(g.parts);
        *remaining = remaining
            .checked_sub(1)
            .ok_or_else(|| bad_global_tag(g, u.id))?;
        if *remaining == 0 {
            self.pending_globals.remove(&g.gid);
        }
        Ok(())
    }

    /// Install a released view change — or hold it. Global-transaction
    /// bookkeeping (type 3 updates, per the paper's §2 pointer to
    /// [ZGMW96]): a part's view change is computed like any other
    /// update's, but installs are *held* until every part of every
    /// in-progress global transaction has been released, then flushed as
    /// one atomic state transition.
    fn release(
        &mut self,
        consumed: &[(UpdateId, Time)],
        final_bag: &Bag,
        now: Time,
    ) -> Result<(), WarehouseError> {
        let must_hold = !self.pending_globals.is_empty();
        if !must_hold && self.hold.consumed.is_empty() {
            return self
                .sink
                .install(&mut self.core.metrics, final_bag, consumed, now);
        }
        self.hold.accum.merge(final_bag);
        self.hold.consumed.extend_from_slice(consumed);
        if !must_hold {
            let hold = std::mem::take(&mut self.hold);
            self.sink
                .install(&mut self.core.metrics, &hold.accum, &hold.consumed, now)?;
        }
        Ok(())
    }

    /// The policy's report name: with a window other than Figure 4's it
    /// is Pipelined SWEEP (the label of the E9/E10 rows).
    fn label(&self) -> &'static str {
        match self.opts.window {
            1 => "sweep",
            _ => "pipelined-sweep",
        }
    }
}

impl SweepPolicy for Sweep {
    type Err = WarehouseError;

    fn name(&self) -> &'static str {
        self.label()
    }

    fn core(&mut self) -> &mut EngineCore {
        &mut self.core
    }

    fn note_update(&mut self, u: &SourceUpdate, _at: Time) -> Result<(), WarehouseError> {
        // The tag comes straight off the wire: `release` counts a
        // transaction's parts down, so a count that cannot be met (zero,
        // disagreeing, exceeded) would hold every later install forever.
        if let Some(g) = u.global {
            let (parts, seen) = self.global_seen.entry(g.gid).or_insert((g.parts, 0));
            if g.parts == 0 || g.parts != *parts || *seen == *parts {
                return Err(bad_global_tag(g, u.id));
            }
            *seen += 1;
        }
        Ok(())
    }

    fn kick(&mut self, net: &mut dyn NetHandle<Message>) -> Result<(), WarehouseError> {
        self.fill_window(net)
    }

    fn on_answer(
        &mut self,
        qid: u64,
        partial: PartialDelta,
        net: &mut dyn NetHandle<Message>,
    ) -> Result<(), WarehouseError> {
        let waiting = self.flights.iter_mut().enumerate().find_map(|(pos, f)| {
            let run = f.run.take_if(|(run, _)| run.waiting_on(qid))?;
            Some((pos, run))
        });
        let Some((pos, (mut run, ctx))) = waiting else {
            return Err(WarehouseError::UnknownQuery { qid });
        };
        let mut hop = run.absorb(&mut self.core, qid, partial, net.now())?;
        // The compensation set: what is still queued from the hop source
        // (all of it arrived later), plus the later arrivals from it that
        // already sweep — one merged ΔR_j, one compensation.
        let later = self.flights.range(pos + 1..);
        let later: Vec<&Bag> = later
            .filter(|f| f.update.id.source == hop.j)
            .map(|f| &f.update.delta)
            .collect();
        self.core.compensate(&ctx, &mut hop, &later)?;
        // A two-leg run always completes: its other leg's query is out.
        let dead = self.opts.short_circuit_empty
            && hop.dv.bag.is_empty()
            && !self.two_legs(self.flights[pos].update.id.source);
        self.proceed(net, pos, run, ctx, dead)?;
        self.fill_window(net)
    }
}

impl MaintenancePolicy for Sweep {
    fn name(&self) -> &'static str {
        self.label()
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
        self.flights.is_empty()
            && self.core.queue.is_empty()
            && self.hold.consumed.is_empty()
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
    use crate::testkit::{answer, deliver, paper_view, two_chain, update};
    use dw_protocol::{source_node, SweepAnswer};
    use dw_relational::{tup, JoinSide, Schema, ViewDefBuilder};
    use dw_simnet::Network;

    /// Drive the state machine by hand: answers crafted as a source would.
    #[test]
    fn single_update_sweeps_left_then_right() {
        let mut net: Network<Message> = Network::new(0);
        let mut wh = Sweep::new(paper_view(), Bag::from_pairs([(tup![7, 8], 2)])).unwrap();

        // ΔR2 = +(3,5) (the paper's first update).
        wh.on_message(
            deliver(0, update(1, 0, Bag::from_tuples([tup![3, 5]]))),
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
            deliver(
                0,
                Message::SweepAnswer(SweepAnswer {
                    qid: q1.qid,
                    partial: PartialDelta {
                        lo: 0,
                        hi: 1,
                        bag: Bag::from_tuples([tup![1, 3, 3, 5], tup![2, 3, 3, 5]]),
                    },
                }),
            ),
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
            deliver(
                0,
                Message::SweepAnswer(SweepAnswer {
                    qid: q2.qid,
                    partial: PartialDelta {
                        lo: 0,
                        hi: 2,
                        bag: Bag::from_tuples([tup![1, 3, 3, 5, 5, 6], tup![2, 3, 3, 5, 5, 6]]),
                    },
                }),
            ),
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
            deliver(0, update(1, 0, Bag::from_tuples([tup![3, 5]]))),
            &mut net,
        )
        .unwrap();
        let Message::SweepQuery(q1) = net.next().unwrap().msg else {
            panic!()
        };

        // Concurrent ΔR1 arrives *before* the answer.
        wh.on_message(
            deliver(0, update(0, 0, Bag::from_pairs([(tup![2, 3], -1)]))),
            &mut net,
        )
        .unwrap();

        // R1 already applied the delete, so its answer has only (1,3,3,5).
        wh.on_message(
            deliver(
                0,
                Message::SweepAnswer(SweepAnswer {
                    qid: q1.qid,
                    partial: PartialDelta {
                        lo: 0,
                        hi: 1,
                        bag: Bag::from_tuples([tup![1, 3, 3, 5]]),
                    },
                }),
            ),
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
            deliver(
                0,
                Message::SweepAnswer(SweepAnswer {
                    qid: q2.qid,
                    partial: PartialDelta {
                        lo: 0,
                        hi: 2,
                        bag: Bag::from_tuples([tup![1, 3, 3, 5, 5, 6], tup![2, 3, 3, 5, 5, 6]]),
                    },
                }),
            ),
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
            deliver(0, update(0, 0, Bag::from_pairs([(tup![9, 3], 1)]))),
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
            deliver(0, update(1, 0, Bag::from_tuples([tup![3, 5]]))),
            &mut net,
        )
        .unwrap();
        let res = wh.on_message(
            deliver(
                0,
                Message::SweepAnswer(SweepAnswer {
                    qid: 999,
                    partial: PartialDelta {
                        lo: 0,
                        hi: 1,
                        bag: Bag::new(),
                    },
                }),
            ),
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
            deliver(
                0,
                Message::SweepAnswer(SweepAnswer {
                    qid: 0,
                    partial: PartialDelta {
                        lo: 0,
                        hi: 0,
                        bag: Bag::new(),
                    },
                }),
            ),
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
            deliver(0, update(0, 0, Bag::from_tuples([tup![1, 7]]))),
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
                ..Default::default()
            },
        )
        .unwrap();
        // Update filtered out by the local selection: no queries at all.
        wh.on_message(
            deliver(0, update(0, 0, Bag::from_tuples([tup![1, 3]]))),
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
                ..Default::default()
            },
        )
        .unwrap();
        // ΔR2 = +(3,5) with multiplicity 3 to exercise count handling.
        wh.on_message(
            deliver(0, update(1, 0, Bag::from_pairs([(tup![3, 5], 3)]))),
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
            deliver(
                0,
                Message::SweepAnswer(SweepAnswer {
                    qid: rq.qid,
                    partial: PartialDelta {
                        lo: 1,
                        hi: 2,
                        bag: Bag::from_tuples([tup![3, 5, 5, 6]]),
                    },
                }),
            ),
            &mut net,
        )
        .unwrap();
        assert_eq!(wh.installs().len(), 0, "must wait for the left leg");

        // Left answer: R1 has two matches, counts ×3.
        wh.on_message(
            deliver(
                0,
                Message::SweepAnswer(SweepAnswer {
                    qid: lq.qid,
                    partial: PartialDelta {
                        lo: 0,
                        hi: 1,
                        bag: Bag::from_pairs([(tup![1, 3, 3, 5], 3), (tup![2, 3, 3, 5], 3)]),
                    },
                }),
            ),
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
            deliver(0, update(0, 0, Bag::from_pairs([(tup![1], -1)]))),
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
            deliver(0, update(0, 0, Bag::from_pairs([(tup![1], 1)]))),
            &mut net,
        )
        .unwrap();
        wh.on_message(
            deliver(0, update(0, 1, Bag::from_pairs([(tup![2], 1)]))),
            &mut net,
        )
        .unwrap();
        let consumed: Vec<u64> = wh.installs().iter().map(|r| r.consumed[0].seq).collect();
        assert_eq!(consumed, vec![0, 1]);
    }

    fn unbounded() -> Sweep {
        let opts = SweepOptions {
            window: 0,
            ..Default::default()
        };
        Sweep::with_options(two_chain(), Bag::new(), opts).unwrap()
    }

    #[test]
    fn window_overlaps_two_sweeps_and_installs_in_order() {
        let mut net: Network<Message> = Network::new(0);
        let mut wh = unbounded();
        assert_eq!(MaintenancePolicy::name(&wh), "pipelined-sweep");
        // Two updates at source 0 arrive back to back.
        wh.on_message(
            deliver(0, update(0, 0, Bag::from_tuples([tup![1, 3]]))),
            &mut net,
        )
        .unwrap();
        wh.on_message(
            deliver(1, update(0, 1, Bag::from_tuples([tup![2, 4]]))),
            &mut net,
        )
        .unwrap();
        assert_eq!(wh.in_flight(), 2, "both sweeps in flight at once");
        // Grab both queries; answer the SECOND first.
        let q1 = net.next().unwrap();
        let q2 = net.next().unwrap();
        let (Message::SweepQuery(q1), Message::SweepQuery(q2)) = (q1.msg, q2.msg) else {
            panic!()
        };
        let a2 = answer(q2.qid, 0, 1, Bag::from_tuples([tup![2, 4, 4, 9]]));
        wh.on_message(deliver(10, a2), &mut net).unwrap();
        // Out-of-order completion: nothing installed yet.
        assert_eq!(wh.installs().len(), 0);
        let a1 = answer(q1.qid, 0, 1, Bag::from_tuples([tup![1, 3, 3, 7]]));
        wh.on_message(deliver(11, a1), &mut net).unwrap();
        // Both install, in arrival order.
        assert_eq!(wh.installs().len(), 2);
        assert_eq!(wh.installs()[0].consumed[0].seq, 0);
        assert_eq!(wh.installs()[1].consumed[0].seq, 1);
        assert!(wh.is_quiescent());
    }

    #[test]
    fn window_compensates_only_for_later_arrivals() {
        // Update A (first, source 1) sweeps toward source 0; update B
        // (second, source 0) arrives before A's answer → compensate A.
        // Then B's own sweep toward source 1 must NOT compensate for A
        // (A arrived earlier), even though A is from source 1 and its
        // sweep is still in the window.
        let mut net: Network<Message> = Network::new(0);
        let mut wh = unbounded();
        wh.on_message(
            deliver(0, update(1, 0, Bag::from_tuples([tup![3, 9]]))),
            &mut net,
        )
        .unwrap();
        let Message::SweepQuery(qa) = net.next().unwrap().msg else {
            panic!()
        };
        assert_eq!(qa.side, JoinSide::Left);
        wh.on_message(
            deliver(1, update(0, 0, Bag::from_tuples([tup![7, 3]]))),
            &mut net,
        )
        .unwrap();
        let Message::SweepQuery(qb) = net.next().unwrap().msg else {
            panic!()
        };
        assert_eq!(qb.side, JoinSide::Right);

        // A's answer includes B's tuple (source already applied it).
        let joined = Bag::from_tuples([tup![7, 3, 3, 9]]);
        wh.on_message(deliver(5, answer(qa.qid, 0, 1, joined.clone())), &mut net)
            .unwrap();
        assert_eq!(wh.metrics().local_compensations, 1);
        // A's install: the error term (7,3)⋈(3,9) removed → empty ΔV.
        assert_eq!(wh.installs().len(), 1);
        assert!(wh.installs()[0].view_after.as_ref().unwrap().is_empty());

        // B's answer from source 1 includes A's tuple (3,9) — which is
        // CORRECT for B's target state (A precedes B), so no compensation.
        wh.on_message(deliver(6, answer(qb.qid, 0, 1, joined.clone())), &mut net)
            .unwrap();
        assert_eq!(wh.metrics().local_compensations, 1, "no extra compensation");
        assert_eq!(wh.installs().len(), 2);
        assert_eq!(
            wh.view(),
            &joined,
            "final view has the joined tuple exactly once"
        );
    }

    #[test]
    fn window_one_serializes() {
        let mut net: Network<Message> = Network::new(0);
        let mut wh = Sweep::new(two_chain(), Bag::new()).unwrap();
        assert_eq!(MaintenancePolicy::name(&wh), "sweep");
        wh.on_message(
            deliver(0, update(0, 0, Bag::from_tuples([tup![1, 3]]))),
            &mut net,
        )
        .unwrap();
        wh.on_message(
            deliver(1, update(0, 1, Bag::from_tuples([tup![2, 4]]))),
            &mut net,
        )
        .unwrap();
        assert_eq!(wh.in_flight(), 1, "a window of 1 is Figure 4");
    }

    #[test]
    fn window_rejects_unknown_qid() {
        let mut net: Network<Message> = Network::new(0);
        let mut wh = unbounded();
        let res = wh.on_message(deliver(0, answer(1, 0, 0, Bag::new())), &mut net);
        assert!(matches!(res, Err(WarehouseError::UnknownQuery { .. })));
    }
}
