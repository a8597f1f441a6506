//! **Pipelined SWEEP** — the second §5.3 optimization, fully worked out.
//!
//! > "Another optimization … is to pipeline the view construction for
//! > multiple updates. This will introduce some complexity in the data
//! > warehouse software module but will result in a rapid installation of
//! > view changes … the view changes should be incorporated in the order
//! > of the arrival of the updates and a more elaborate mechanism will be
//! > needed to detect concurrent updates."
//!
//! The elaborate mechanism: every delivered update gets a global *arrival
//! index*; the sweep for update `k` runs concurrently with sweeps for other
//! updates, and when its answer from source `j` arrives it compensates for
//! exactly the updates from `j` **with arrival index greater than `k`**
//! (delivered so far). FIFO makes that precise:
//!
//! * an update from `j` delivered *before* the answer was applied at the
//!   source before the query was evaluated, so it is in the answer; it
//!   belongs in `ΔV_k`'s target state only if its index is `< k`;
//! * an update delivered *after* the answer cannot be in the answer and
//!   always has index `> k` — nothing to do.
//!
//! Completed view changes are parked and installed strictly in arrival
//! order, so the policy preserves SWEEP's **complete consistency** while
//! overlapping the per-update sweep latency — the staleness win is
//! measured in experiment E10.

use crate::error::WarehouseError;
use crate::install::InstallRecord;
use crate::metrics::PolicyMetrics;
use crate::policy::MaintenancePolicy;
use dw_engine::InstallSink;
use dw_protocol::{source_node, Message, SweepQuery, UpdateId, WAREHOUSE_NODE};
use dw_relational::{extend_partial, Bag, JoinSide, PartialDelta, ViewDef};
use dw_simnet::{Delivery, NetHandle, Time};
use std::collections::{BTreeMap, HashMap};

/// Tunables for pipelined SWEEP.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct PipelinedSweepOptions {
    /// Maximum sweeps in flight at once. `0` means unbounded. A window of
    /// 1 degenerates to classic SWEEP.
    pub window: usize,
}

/// One logged update (kept until every older sweep has completed).
#[derive(Clone, Debug)]
struct LoggedUpdate {
    id: UpdateId,
    delta: Bag,
    arrived_at: Time,
}

/// One in-flight sweep.
#[derive(Clone, Debug)]
struct Flight {
    /// Arrival index of the update this sweep serves.
    index: u64,
    dv: PartialDelta,
    /// `TempView` of the outstanding query.
    temp: PartialDelta,
    j: usize,
    side: JoinSide,
}

/// The pipelined-SWEEP warehouse policy.
pub struct PipelinedSweep {
    view_def: ViewDef,
    sink: InstallSink,
    metrics: PolicyMetrics,
    opts: PipelinedSweepOptions,
    next_qid: u64,
    /// All delivered updates by arrival index.
    log: BTreeMap<u64, LoggedUpdate>,
    next_index: u64,
    /// Sweeps awaiting an answer, by outstanding query id.
    flights: HashMap<u64, Flight>,
    /// Updates delivered but not yet started (window backpressure).
    waiting: Vec<u64>,
    /// Completed view changes parked for in-order install.
    ready: BTreeMap<u64, Bag>,
    /// Next arrival index to install.
    next_install: u64,
}

impl PipelinedSweep {
    /// Create the policy with the correct initial view.
    pub fn new(view_def: ViewDef, initial_view: Bag) -> Result<Self, WarehouseError> {
        Self::with_options(view_def, initial_view, PipelinedSweepOptions::default())
    }

    /// Create with an explicit pipeline window.
    pub fn with_options(
        view_def: ViewDef,
        initial_view: Bag,
        opts: PipelinedSweepOptions,
    ) -> Result<Self, WarehouseError> {
        Ok(PipelinedSweep {
            view_def,
            sink: InstallSink::new(initial_view)?,
            metrics: PolicyMetrics::default(),
            opts,
            next_qid: 0,
            log: BTreeMap::new(),
            next_index: 0,
            flights: HashMap::new(),
            waiting: Vec::new(),
            ready: BTreeMap::new(),
            next_install: 0,
        })
    }

    /// Number of sweeps currently in flight (observability).
    pub fn in_flight(&self) -> usize {
        self.flights.len()
    }

    fn n(&self) -> usize {
        self.view_def.num_relations()
    }

    fn in_progress(&self) -> usize {
        // Started but not yet parked/installed.
        self.flights.len()
    }

    fn send_query(&mut self, net: &mut dyn NetHandle<Message>, flight: Flight) -> u64 {
        let qid = self.next_qid;
        self.next_qid += 1;
        self.metrics.queries_sent += 1;
        net.send(
            WAREHOUSE_NODE,
            source_node(flight.j),
            Message::SweepQuery(SweepQuery {
                qid,
                partial: flight.dv.clone(),
                side: flight.side,
                batch: 1,
                epoch: 0,
                scope: None,
                pred: None,
            }),
        );
        self.flights.insert(qid, flight);
        qid
    }

    /// First query target for a seeded sweep (left first, like Figure 4).
    fn first_target(&self, pd: &PartialDelta) -> Option<(usize, JoinSide)> {
        if pd.lo > 0 {
            Some((pd.lo - 1, JoinSide::Left))
        } else if pd.hi + 1 < self.n() {
            Some((pd.hi + 1, JoinSide::Right))
        } else {
            None
        }
    }

    fn start_sweep(
        &mut self,
        net: &mut dyn NetHandle<Message>,
        index: u64,
    ) -> Result<(), WarehouseError> {
        let upd = self.log.get(&index).expect("logged").clone();
        let seeded = PartialDelta::seed(&self.view_def, upd.id.source, &upd.delta)?;
        match self.first_target(&seeded) {
            Some((j, side)) => {
                self.send_query(
                    net,
                    Flight {
                        index,
                        temp: seeded.clone(),
                        dv: seeded,
                        j,
                        side,
                    },
                );
            }
            None => {
                // Single-relation chain: complete immediately.
                let final_bag = seeded.finalize(&self.view_def)?;
                self.ready.insert(index, final_bag);
                self.drain_installs(net)?;
            }
        }
        Ok(())
    }

    /// Start waiting sweeps while the window allows.
    fn fill_window(&mut self, net: &mut dyn NetHandle<Message>) -> Result<(), WarehouseError> {
        while !self.waiting.is_empty()
            && (self.opts.window == 0 || self.in_progress() < self.opts.window)
        {
            let index = self.waiting.remove(0);
            self.start_sweep(net, index)?;
        }
        Ok(())
    }

    /// Merge the deltas of every logged update from source `j` with
    /// arrival index greater than `k` — the pipelined compensation set.
    fn later_updates_from(&self, j: usize, k: u64) -> Bag {
        let mut out = Bag::new();
        for (&idx, u) in self.log.range(k + 1..) {
            debug_assert!(idx > k);
            if u.id.source == j {
                out.merge(&u.delta);
            }
        }
        out
    }

    fn on_answer(
        &mut self,
        net: &mut dyn NetHandle<Message>,
        qid: u64,
        partial: PartialDelta,
    ) -> Result<(), WarehouseError> {
        let mut flight = self
            .flights
            .remove(&qid)
            .ok_or(WarehouseError::UnknownQuery { qid })?;
        flight.dv = partial;
        // Pipelined on-line error correction: only updates *ordered after*
        // this sweep's update are foreign to its target state.
        let merged = self.later_updates_from(flight.j, flight.index);
        if !merged.is_empty() {
            let err = extend_partial(&self.view_def, &flight.temp, &merged, flight.side)?;
            flight.dv.bag.subtract(&err.bag);
            self.metrics.local_compensations += 1;
        }
        // Advance.
        match self.first_target(&flight.dv) {
            Some((j, side)) => {
                flight.temp = flight.dv.clone();
                flight.j = j;
                flight.side = side;
                self.send_query(net, flight);
            }
            None => {
                let final_bag = flight.dv.finalize(&self.view_def)?;
                self.ready.insert(flight.index, final_bag);
                self.drain_installs(net)?;
                self.fill_window(net)?;
            }
        }
        Ok(())
    }

    /// Install parked view changes in arrival order.
    fn drain_installs(&mut self, net: &mut dyn NetHandle<Message>) -> Result<(), WarehouseError> {
        while let Some(bag) = self.ready.remove(&self.next_install) {
            let upd = self.log.get(&self.next_install).expect("logged").clone();
            self.sink.install(
                &mut self.metrics,
                &bag,
                &[(upd.id, upd.arrived_at)],
                net.now(),
            )?;
            self.next_install += 1;
        }
        // Prune log entries no in-flight or future sweep can reference:
        // everything older than the oldest unfinished index.
        let oldest_active = self
            .flights
            .values()
            .map(|f| f.index)
            .chain(self.waiting.iter().copied())
            .min()
            .unwrap_or(self.next_index);
        let keep_from = oldest_active.min(self.next_install);
        let stale: Vec<u64> = self.log.range(..keep_from).map(|(&i, _)| i).collect();
        for i in stale {
            // Installed AND older than every active sweep — safe to drop.
            if i < self.next_install {
                self.log.remove(&i);
            }
        }
        Ok(())
    }
}

impl MaintenancePolicy for PipelinedSweep {
    fn name(&self) -> &'static str {
        "pipelined-sweep"
    }

    fn on_message(
        &mut self,
        delivery: Delivery<Message>,
        net: &mut dyn NetHandle<Message>,
    ) -> Result<(), WarehouseError> {
        match delivery.msg {
            Message::Update(u) => {
                self.metrics.updates_received += 1;
                let index = self.next_index;
                self.next_index += 1;
                self.log.insert(
                    index,
                    LoggedUpdate {
                        id: u.id,
                        delta: u.delta,
                        arrived_at: delivery.at,
                    },
                );
                self.waiting.push(index);
                self.fill_window(net)
            }
            Message::SweepAnswer(a) => {
                self.metrics.answers_received += 1;
                self.on_answer(net, a.qid, a.partial)
            }
            other => Err(WarehouseError::UnexpectedMessage {
                policy: self.name(),
                label: dw_simnet::Payload::label(&other),
            }),
        }
    }

    fn view(&self) -> &Bag {
        self.sink.bag()
    }

    fn installs(&self) -> &[InstallRecord] {
        self.sink.log()
    }

    fn metrics(&self) -> &PolicyMetrics {
        &self.metrics
    }

    fn is_quiescent(&self) -> bool {
        self.flights.is_empty() && self.waiting.is_empty() && self.ready.is_empty()
    }

    fn set_record_snapshots(&mut self, record: bool) {
        self.sink.record_snapshots = record;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dw_protocol::{SourceUpdate, SweepAnswer};
    use dw_relational::{tup, Schema, ViewDefBuilder};
    use dw_simnet::{Network, ENV};

    fn two_chain() -> ViewDef {
        ViewDefBuilder::new()
            .relation(Schema::new("R1", ["A", "B"]).unwrap())
            .relation(Schema::new("R2", ["C", "D"]).unwrap())
            .join("R1.B", "R2.C")
            .build()
            .unwrap()
    }

    fn deliver(at: Time, msg: Message) -> Delivery<Message> {
        Delivery {
            at,
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

    #[test]
    fn two_sweeps_overlap_and_install_in_order() {
        let mut net: Network<Message> = Network::new(0);
        let mut wh = PipelinedSweep::new(two_chain(), Bag::new()).unwrap();
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
        wh.on_message(
            deliver(
                10,
                Message::SweepAnswer(SweepAnswer {
                    qid: q2.qid,
                    partial: PartialDelta {
                        lo: 0,
                        hi: 1,
                        bag: Bag::from_tuples([tup![2, 4, 4, 9]]),
                    },
                }),
            ),
            &mut net,
        )
        .unwrap();
        // Out-of-order completion: nothing installed yet.
        assert_eq!(wh.installs().len(), 0);
        wh.on_message(
            deliver(
                11,
                Message::SweepAnswer(SweepAnswer {
                    qid: q1.qid,
                    partial: PartialDelta {
                        lo: 0,
                        hi: 1,
                        bag: Bag::from_tuples([tup![1, 3, 3, 7]]),
                    },
                }),
            ),
            &mut net,
        )
        .unwrap();
        // Both install, in arrival order.
        assert_eq!(wh.installs().len(), 2);
        assert_eq!(wh.installs()[0].consumed[0].seq, 0);
        assert_eq!(wh.installs()[1].consumed[0].seq, 1);
        assert!(wh.is_quiescent());
    }

    #[test]
    fn compensation_only_for_later_indexed_updates() {
        // Update A (index 0, source 1) sweeps toward source 0; update B
        // (index 1, source 0) arrives before A's answer → compensate A.
        // Then B's own sweep toward source 1 must NOT compensate for A
        // (index 0 < 1), even though A is from source 1 and still logged.
        let mut net: Network<Message> = Network::new(0);
        let mut wh = PipelinedSweep::new(two_chain(), Bag::new()).unwrap();
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
        wh.on_message(
            deliver(
                5,
                Message::SweepAnswer(SweepAnswer {
                    qid: qa.qid,
                    partial: PartialDelta {
                        lo: 0,
                        hi: 1,
                        bag: Bag::from_tuples([tup![7, 3, 3, 9]]),
                    },
                }),
            ),
            &mut net,
        )
        .unwrap();
        assert_eq!(wh.metrics().local_compensations, 1);
        // A's install: the error term (7,3)⋈(3,9) removed → empty ΔV.
        assert_eq!(wh.installs().len(), 1);
        assert!(wh.installs()[0].view_after.as_ref().unwrap().is_empty());

        // B's answer from source 1 includes A's tuple (3,9) — which is
        // CORRECT for B's target state (A precedes B), so no compensation.
        wh.on_message(
            deliver(
                6,
                Message::SweepAnswer(SweepAnswer {
                    qid: qb.qid,
                    partial: PartialDelta {
                        lo: 0,
                        hi: 1,
                        bag: Bag::from_tuples([tup![7, 3, 3, 9]]),
                    },
                }),
            ),
            &mut net,
        )
        .unwrap();
        assert_eq!(wh.metrics().local_compensations, 1, "no extra compensation");
        assert_eq!(wh.installs().len(), 2);
        assert_eq!(
            wh.view(),
            &Bag::from_tuples([tup![7, 3, 3, 9]]),
            "final view has the joined tuple exactly once"
        );
    }

    #[test]
    fn window_one_serializes() {
        let mut net: Network<Message> = Network::new(0);
        let mut wh = PipelinedSweep::with_options(
            two_chain(),
            Bag::new(),
            PipelinedSweepOptions { window: 1 },
        )
        .unwrap();
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
        assert_eq!(wh.in_flight(), 1, "window of 1 behaves like SWEEP");
    }

    #[test]
    fn unknown_qid_rejected() {
        let mut net: Network<Message> = Network::new(0);
        let mut wh = PipelinedSweep::new(two_chain(), Bag::new()).unwrap();
        let res = wh.on_message(
            deliver(
                0,
                Message::SweepAnswer(SweepAnswer {
                    qid: 1,
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
}
