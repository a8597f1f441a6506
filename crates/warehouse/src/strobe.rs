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

use crate::error::WarehouseError;
use crate::install::InstallRecord;
use crate::metrics::PolicyMetrics;
use crate::policy::MaintenancePolicy;
use dw_engine::InstallSink;
use dw_protocol::{source_node, Message, SweepQuery, UpdateId, WAREHOUSE_NODE};
use dw_relational::key::ViewKeyMap;
use dw_relational::{Bag, JoinSide, KeySpec, PartialDelta, Value, ViewDef};
use dw_simnet::{Delivery, NetHandle, Time};
use std::collections::HashMap;

/// One entry of the action list.
#[derive(Clone, Debug)]
enum Action {
    /// Insert these view tuples (duplicates suppressed at apply time).
    Insert(Bag),
    /// Delete every view tuple whose `rel`-key equals `key`.
    KeyDelete { rel: usize, key: Vec<Value> },
}

struct InFlight {
    qid: u64,
    update: UpdateId,
    pd: PartialDelta,
    /// Delete-markers to apply to this query's final answer.
    pending_deletes: Vec<(usize, Vec<Value>)>,
}

/// The Strobe warehouse policy.
pub struct Strobe {
    view_def: ViewDef,
    keys: KeySpec,
    vkm: ViewKeyMap,
    sink: InstallSink,
    metrics: PolicyMetrics,
    next_qid: u64,
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
            view_def,
            keys,
            vkm,
            sink: InstallSink::new(initial_view)?,
            metrics: PolicyMetrics::default(),
            next_qid: 0,
            uqs: Vec::new(),
            al: Vec::new(),
            outstanding: HashMap::new(),
            ready: Vec::new(),
        })
    }

    /// Number of actions waiting for quiescence (observability — this is
    /// the "view trails the sources" backlog).
    pub fn action_backlog(&self) -> usize {
        self.al.len()
    }

    fn n(&self) -> usize {
        self.view_def.num_relations()
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

    fn next_target(&self, pd: &PartialDelta) -> Option<(usize, JoinSide)> {
        if pd.lo > 0 {
            Some((pd.lo - 1, JoinSide::Left))
        } else if pd.hi + 1 < self.n() {
            Some((pd.hi + 1, JoinSide::Right))
        } else {
            None
        }
    }

    fn send(
        &mut self,
        net: &mut dyn NetHandle<Message>,
        pd: &PartialDelta,
        j: usize,
        side: JoinSide,
    ) -> u64 {
        let qid = self.next_qid;
        self.next_qid += 1;
        self.metrics.queries_sent += 1;
        net.send(
            WAREHOUSE_NODE,
            source_node(j),
            Message::SweepQuery(SweepQuery {
                qid,
                partial: pd.clone(),
                side,
                batch: 1,
                epoch: 0,
                scope: None,
                pred: None,
            }),
        );
        qid
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
                let pd = PartialDelta::seed(&self.view_def, rel, &Bag::singleton(t, 1))?;
                match self.next_target(&pd) {
                    Some((j, side)) => {
                        let qid = self.send(net, &pd, j, side);
                        self.uqs.push(InFlight {
                            qid,
                            update: id,
                            pd,
                            pending_deletes: Vec::new(),
                        });
                    }
                    None => {
                        // Single-relation chain: complete immediately.
                        let ans = pd.finalize(&self.view_def)?;
                        self.al.push(Action::Insert(ans));
                        self.part_done(id);
                    }
                }
            }
        }
        self.try_install(net)
    }

    fn on_answer(
        &mut self,
        net: &mut dyn NetHandle<Message>,
        qid: u64,
        partial: PartialDelta,
    ) -> Result<(), WarehouseError> {
        let pos = self
            .uqs
            .iter()
            .position(|q| q.qid == qid)
            .ok_or(WarehouseError::UnknownQuery { qid })?;
        self.uqs[pos].pd = partial;
        match self.next_target(&self.uqs[pos].pd) {
            Some((j, side)) => {
                let pd = self.uqs[pos].pd.clone();
                let new_qid = self.send(net, &pd, j, side);
                self.uqs[pos].qid = new_qid;
                Ok(())
            }
            None => {
                let q = self.uqs.remove(pos);
                let mut ans = q.pd.finalize(&self.view_def)?;
                // Apply delete-markers accumulated while in flight.
                for (rel, key) in &q.pending_deletes {
                    ans = ans.filter(|t| &self.vkm.key_of_view_tuple(*rel, t) != key);
                }
                self.al.push(Action::Insert(ans));
                self.part_done(q.update);
                self.try_install(net)
            }
        }
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
            .install(&mut self.metrics, &delta, &self.ready, net.now())?;
        self.ready.clear();
        Ok(())
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
        match delivery.msg {
            Message::Update(u) => {
                self.metrics.updates_received += 1;
                self.on_update(net, u.id, u.delta, delivery.at)
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
        self.uqs.is_empty() && self.al.is_empty() && self.outstanding.is_empty()
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
        assert_eq!(wh.action_backlog(), 1);
        assert!(!wh.is_quiescent());
    }
}
