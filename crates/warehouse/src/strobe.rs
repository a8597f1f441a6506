//! **Strobe** — the multi-source baseline (§3, \[ZGMW96]).
//!
//! Strobe assumes every base relation has a unique key and that the view
//! projection retains the key attributes of *every* relation. Updates are
//! processed as they arrive:
//!
//! * a **delete** is handled entirely locally: a `key_delete` action is
//!   appended to the action list `AL`, and a delete-marker is attached to
//!   every query still in flight (whose answer may contain the doomed
//!   tuple);
//! * an **insert** triggers a query `V⟨ΔR⟩` evaluated source by source —
//!   *without* any compensation. Error terms from concurrent inserts become
//!   duplicates, which the key assumption lets the install suppress.
//!
//! The action list is applied to the materialized view **only when the
//! unanswered query set `UQS` drains** — Strobe requires quiescence; under
//! sustained updates the view trails arbitrarily (experiment E9). It
//! provides strong consistency: every install lands exactly on the
//! ground-truth state of a delivery prefix.

use crate::InstallRecord;
use crate::MaintenancePolicy;
use crate::PendingUpdate;
use crate::PolicyMetrics;
use crate::WarehouseError;
use dw_engine::{dispatch, EngineCore, InstallSink, SpanLabels, SweepCtx, SweepPolicy, SweepRun};
use dw_obs::Obs;
use dw_protocol::{Message, UpdateId};
use dw_relational::key::ViewKeyMap;
use dw_relational::{Bag, KeySpec, PartialDelta, SharedBag, Value, ViewDef};
use dw_simnet::{Delivery, NetHandle, Time};
use std::collections::HashMap;

/// Strobe's trace vocabulary (nothing opens the per-sweep span: a query
/// belongs to one inserted tuple, not to a unit of install).
const LABELS: SpanLabels = SpanLabels {
    sweep: "strobe",
    hop: "strobe.hop",
    compensations: "strobe.compensations",
    query_rows: None,
    comp_rows: None,
    query_counter: None,
};

/// One entry of the action list.
#[derive(Clone, Debug)]
enum Action {
    /// Insert these view tuples (duplicates suppressed at apply time).
    Insert(Bag),
    /// Delete every view tuple whose `rel`-key equals `key`.
    KeyDelete { rel: usize, key: Vec<Value> },
}

struct InFlight {
    /// The query `V⟨ΔR⟩`: a sequential run that never compensates.
    run: SweepRun,
    update: UpdateId,
    /// Delete-markers to apply to this query's final answer.
    pending_deletes: Vec<(usize, Vec<Value>)>,
}

/// The Strobe warehouse policy.
pub struct Strobe {
    core: EngineCore,
    keys: KeySpec,
    vkm: ViewKeyMap,
    sink: InstallSink,
    uqs: Vec<InFlight>,
    al: Vec<Action>,
    /// Updates with parts still being processed: id → (outstanding, time).
    outstanding: HashMap<UpdateId, (usize, Time)>,
    /// Fully processed updates awaiting the next install.
    ready: Vec<(UpdateId, Time)>,
}

impl Strobe {
    /// Create the policy. Fails unless the view retains every relation's
    /// key attributes (the Strobe assumption).
    pub fn new(
        view_def: ViewDef,
        keys: KeySpec,
        initial_view: Bag,
    ) -> Result<Self, WarehouseError> {
        let vkm = keys.view_key_map(&view_def)?;
        Ok(Strobe {
            core: EngineCore::new(view_def, LABELS),
            keys,
            vkm,
            sink: InstallSink::new(initial_view)?,
            uqs: Vec::new(),
            al: Vec::new(),
            outstanding: HashMap::new(),
            ready: Vec::new(),
        })
    }

    fn part_done(&mut self, id: UpdateId) {
        if let Some((left, at)) = self.outstanding.get_mut(&id) {
            *left -= 1;
            if *left == 0 {
                let at = *at;
                self.outstanding.remove(&id);
                self.ready.push((id, at));
            }
        }
    }

    fn on_update(
        &mut self,
        net: &mut dyn NetHandle<Message>,
        id: UpdateId,
        delta: Bag,
        at: Time,
    ) -> Result<(), WarehouseError> {
        let rel = id.source;
        let parts: Vec<(dw_relational::Tuple, i64)> =
            delta.iter().map(|(t, c)| (t.clone(), c)).collect();
        if parts.is_empty() {
            self.ready.push((id, at));
            return self.try_install(net);
        }
        self.outstanding.insert(id, (parts.len(), at));
        for (t, c) in parts {
            if c.abs() != 1 {
                return Err(WarehouseError::Precondition {
                    reason: format!(
                        "Strobe requires unit-multiplicity keyed updates, got count {c} for {t}"
                    ),
                });
            }
            if c < 0 {
                // Delete: handled locally.
                let key = self.keys.key_of_tuple(rel, &t);
                for q in &mut self.uqs {
                    q.pending_deletes.push((rel, key.clone()));
                }
                self.al.push(Action::KeyDelete { rel, key });
                self.part_done(id);
            } else {
                // Insert: launch a query sweep.
                let seed = PartialDelta::seed(&self.core.view, rel, &Bag::singleton(t, 1))?;
                self.uqs.push(InFlight {
                    run: SweepRun::sequential(seed, 0, self.core.n() - 1),
                    update: id,
                    pending_deletes: Vec::new(),
                });
                self.step(net, self.uqs.len() - 1)?;
            }
        }
        self.try_install(net)
    }

    /// Move query `pos` on: send its next hop — *without* any
    /// compensation — or, the chain covered, turn its answer into an
    /// insert action.
    fn step(&mut self, net: &mut dyn NetHandle<Message>, pos: usize) -> Result<(), WarehouseError> {
        let run = &mut self.uqs[pos].run;
        run.advance(&mut self.core, &SweepCtx::default(), net);
        if !run.is_done() {
            return Ok(());
        }
        let q = self.uqs.remove(pos);
        let view = &self.core.view;
        let mut ans = q.run.into_partial(view).finalize(view)?;
        // Apply delete-markers accumulated while in flight.
        for (rel, key) in &q.pending_deletes {
            ans = ans.filter(|t| &self.vkm.key_of_view_tuple(*rel, t) != key);
        }
        self.al.push(Action::Insert(ans));
        self.part_done(q.update);
        Ok(())
    }

    /// Apply the action list when UQS is empty (the quiescence condition).
    fn try_install(&mut self, net: &mut dyn NetHandle<Message>) -> Result<(), WarehouseError> {
        if !self.uqs.is_empty() || (self.al.is_empty() && self.ready.is_empty()) {
            return Ok(());
        }
        // Build one delta from the ordered action list, with duplicate
        // suppression against the evolving view state.
        let mut working = self.sink.bag().clone();
        let mut delta = Bag::new();
        for action in self.al.drain(..) {
            match action {
                Action::Insert(bag) => {
                    for (t, _) in bag.iter() {
                        if working.count(t) == 0 {
                            working.add(t.clone(), 1);
                            delta.add(t.clone(), 1);
                        }
                    }
                }
                Action::KeyDelete { rel, key } => {
                    let doomed: Vec<_> = working
                        .iter()
                        .filter(|(t, _)| self.vkm.key_of_view_tuple(rel, t) == key)
                        .map(|(t, c)| (t.clone(), c))
                        .collect();
                    for (t, c) in doomed {
                        working.add(t.clone(), -c);
                        delta.add(t, -c);
                    }
                }
            }
        }
        self.sink
            .install(&mut self.core.metrics, &delta, &self.ready, net.now())?;
        self.ready.clear();
        Ok(())
    }
}

impl SweepPolicy for Strobe {
    type Err = WarehouseError;

    fn name(&self) -> &'static str {
        "strobe"
    }

    fn core(&mut self) -> &mut EngineCore {
        &mut self.core
    }

    /// Updates are processed as they arrive — nothing waits in the queue.
    fn kick(&mut self, net: &mut dyn NetHandle<Message>) -> Result<(), WarehouseError> {
        while let Some(PendingUpdate { update, arrived_at }) = self.core.queue.pop() {
            self.on_update(net, update.id, update.delta, arrived_at)?;
        }
        Ok(())
    }

    fn on_answer(
        &mut self,
        qid: u64,
        partial: PartialDelta,
        net: &mut dyn NetHandle<Message>,
    ) -> Result<(), WarehouseError> {
        let waiting = self.uqs.iter().position(|q| q.run.waiting_on(qid));
        let pos = waiting.ok_or(WarehouseError::UnknownQuery { qid })?;
        // Error terms from concurrent inserts become duplicates, which
        // the key assumption lets the install suppress: no compensation.
        self.uqs[pos]
            .run
            .absorb(&mut self.core, qid, partial, net.now())?;
        self.step(net, pos)?;
        self.try_install(net)
    }
}

impl MaintenancePolicy for Strobe {
    fn name(&self) -> &'static str {
        "strobe"
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
        self.uqs.is_empty() && self.al.is_empty() && self.outstanding.is_empty()
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
    use crate::testkit::{deliver, update};
    use dw_protocol::SweepAnswer;
    use dw_relational::{tup, JoinSide, Schema, ViewDefBuilder};
    use dw_simnet::Network;

    /// Keyed two-relation view: keys R1.A and R2.C, both projected.
    fn keyed_view() -> (ViewDef, KeySpec) {
        let v = ViewDefBuilder::new()
            .relation(Schema::new("R1", ["A", "B"]).unwrap())
            .relation(Schema::new("R2", ["C", "D"]).unwrap())
            .join("R1.B", "R2.C")
            .project(["R1.A", "R2.C", "R2.D"])
            .build()
            .unwrap();
        let k = KeySpec::from_names(&v, [vec!["R1.A"], vec!["R2.C"]]).unwrap();
        (v, k)
    }

    #[test]
    fn missing_keys_rejected_at_construction() {
        let v = ViewDefBuilder::new()
            .relation(Schema::new("R1", ["A", "B"]).unwrap())
            .relation(Schema::new("R2", ["C", "D"]).unwrap())
            .join("R1.B", "R2.C")
            .project(["R2.D"])
            .build()
            .unwrap();
        let k = KeySpec::from_names(&v, [vec!["R1.A"], vec!["R2.C"]]).unwrap();
        assert!(Strobe::new(v, k, Bag::new()).is_err());
    }

    #[test]
    fn delete_is_local_and_installs_at_quiescence() {
        let (v, k) = keyed_view();
        let mut net: Network<Message> = Network::new(0);
        // View contains (A=1, C=3, D=7).
        let mut wh = Strobe::new(v, k, Bag::from_tuples([tup![1, 3, 7]])).unwrap();
        wh.on_message(
            deliver(0, update(0, 0, Bag::from_pairs([(tup![1, 3], -1)]))),
            &mut net,
        )
        .unwrap();
        // No messages sent; tuple gone.
        assert!(net.next().is_none());
        assert!(wh.view().is_empty());
        assert_eq!(wh.metrics().queries_sent, 0);
        assert_eq!(wh.installs().len(), 1);
        assert!(wh.is_quiescent());
    }

    #[test]
    fn insert_sweeps_without_compensation_and_waits_for_quiescence() {
        let (v, k) = keyed_view();
        let mut net: Network<Message> = Network::new(0);
        let mut wh = Strobe::new(v, k, Bag::new()).unwrap();
        wh.on_message(
            deliver(0, update(0, 0, Bag::from_tuples([tup![1, 3]]))),
            &mut net,
        )
        .unwrap();
        let Message::SweepQuery(q) = net.next().unwrap().msg else {
            panic!()
        };
        assert_eq!(q.side, JoinSide::Right);
        assert_eq!(wh.installs().len(), 0);
        wh.on_message(
            deliver(
                5,
                Message::SweepAnswer(SweepAnswer {
                    qid: q.qid,
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
        assert_eq!(wh.view().count(&tup![1, 3, 7]), 1);
        assert_eq!(wh.installs().len(), 1);
    }

    #[test]
    fn concurrent_delete_marker_scrubs_in_flight_answer() {
        let (v, k) = keyed_view();
        let mut net: Network<Message> = Network::new(0);
        let mut wh = Strobe::new(v, k, Bag::new()).unwrap();
        // Insert at R1 launches a query.
        wh.on_message(
            deliver(0, update(0, 0, Bag::from_tuples([tup![1, 3]]))),
            &mut net,
        )
        .unwrap();
        let Message::SweepQuery(q) = net.next().unwrap().msg else {
            panic!()
        };
        // Concurrent delete of R2 key 3 arrives while the query is out.
        wh.on_message(
            deliver(1, update(1, 0, Bag::from_pairs([(tup![3, 7], -1)]))),
            &mut net,
        )
        .unwrap();
        // The (stale) answer still contains the joined tuple.
        wh.on_message(
            deliver(
                5,
                Message::SweepAnswer(SweepAnswer {
                    qid: q.qid,
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
        // The marker scrubbed it; the view must NOT contain it.
        assert_eq!(wh.view().count(&tup![1, 3, 7]), 0);
        assert!(wh.is_quiescent());
    }

    #[test]
    fn duplicate_suppression_on_double_derivation() {
        let (v, k) = keyed_view();
        let mut net: Network<Message> = Network::new(0);
        let mut wh = Strobe::new(v, k, Bag::new()).unwrap();
        // Two concurrent inserts whose answers both contain the join tuple.
        wh.on_message(
            deliver(0, update(0, 0, Bag::from_tuples([tup![1, 3]]))),
            &mut net,
        )
        .unwrap();
        wh.on_message(
            deliver(1, update(1, 0, Bag::from_tuples([tup![3, 7]]))),
            &mut net,
        )
        .unwrap();
        let Message::SweepQuery(q1) = net.next().unwrap().msg else {
            panic!()
        };
        let Message::SweepQuery(q2) = net.next().unwrap().msg else {
            panic!()
        };
        // Both answers contain (1,3,3,7): the error term included twice.
        for q in [q1, q2] {
            wh.on_message(
                deliver(
                    5,
                    Message::SweepAnswer(SweepAnswer {
                        qid: q.qid,
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
        }
        // Suppressed to a single copy.
        assert_eq!(wh.view().count(&tup![1, 3, 7]), 1);
        assert_eq!(wh.installs().len(), 1);
        assert_eq!(wh.installs()[0].consumed.len(), 2);
    }

    #[test]
    fn non_unit_multiplicity_rejected() {
        let (v, k) = keyed_view();
        let mut net: Network<Message> = Network::new(0);
        let mut wh = Strobe::new(v, k, Bag::new()).unwrap();
        let res = wh.on_message(
            deliver(0, update(0, 0, Bag::from_pairs([(tup![1, 3], 2)]))),
            &mut net,
        );
        assert!(matches!(res, Err(WarehouseError::Precondition { .. })));
    }

    #[test]
    fn no_install_while_queries_outstanding() {
        let (v, k) = keyed_view();
        let mut net: Network<Message> = Network::new(0);
        let mut wh = Strobe::new(v, k, Bag::from_tuples([tup![9, 5, 6]])).unwrap();
        // Insert (query outstanding), then a local delete: the delete's AL
        // entry must NOT be applied yet.
        wh.on_message(
            deliver(0, update(0, 0, Bag::from_tuples([tup![1, 3]]))),
            &mut net,
        )
        .unwrap();
        wh.on_message(
            deliver(1, update(0, 1, Bag::from_pairs([(tup![9, 5], -1)]))),
            &mut net,
        )
        .unwrap();
        assert_eq!(
            wh.view().count(&tup![9, 5, 6]),
            1,
            "delete must wait for quiescence"
        );
        assert_eq!(wh.al.len(), 1);
        assert!(!wh.is_quiescent());
    }
}
