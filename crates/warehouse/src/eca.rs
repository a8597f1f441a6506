//! **ECA** — the Eager Compensating Algorithm baseline (§3, \[ZGMHW95]).
//!
//! ECA assumes a *single* source site holding all base relations
//! (the `dw-source` crate's `EcaSite`). When update `u_i` arrives, the
//! warehouse issues one query
//!
//! ```text
//! Q_i = V⟨u_i⟩ − Σ_{Q_j ∈ UQS} Q_j⟨u_i⟩
//! ```
//!
//! where `Q_j⟨u_i⟩` substitutes `u_i`'s delta into every term of the still
//! pending query `Q_j` whose slot for `u_i`'s relation is not already
//! pinned. The recursion over pending queries generates the
//! inclusion–exclusion of higher-order error terms automatically, and it is
//! why the paper calls ECA's message size **quadratic in the number of
//! interfering updates** — each interfering update's query carries
//! compensation terms for all the others ([`dw_simnet::Payload::size_bytes`]
//! on [`dw_protocol::EcaQuery`] measures this directly; experiment E4).
//!
//! Answers accumulate in `COLLECT` and are installed only when the
//! unanswered-query set drains — ECA **requires quiescence** to advance the
//! view (Table 1), in contrast to SWEEP.

use crate::InstallRecord;
use crate::MaintenancePolicy;
use crate::PolicyMetrics;
use crate::WarehouseError;
use dw_engine::InstallSink;
use dw_protocol::{source_node, EcaQuery, EcaSlot, EcaTerm, Message, UpdateId, WAREHOUSE_NODE};
use dw_relational::{Bag, SharedBag, ViewDef};
use dw_simnet::{Delivery, NetHandle, Time};

struct PendingQuery {
    qid: u64,
    update: UpdateId,
    delivered_at: Time,
    /// The terms this query carries (needed to build later compensations).
    terms: Vec<EcaTerm>,
}

/// The ECA warehouse policy (single-source-site architecture).
pub struct Eca {
    view_def: ViewDef,
    sink: InstallSink,
    metrics: PolicyMetrics,
    next_qid: u64,
    uqs: Vec<PendingQuery>,
    collect: Bag,
    collected: Vec<(UpdateId, Time)>,
}

impl Eca {
    /// Create the policy with the correct initial view.
    pub fn new(view_def: ViewDef, initial_view: Bag) -> Result<Self, WarehouseError> {
        Ok(Eca {
            view_def,
            sink: InstallSink::new(initial_view)?,
            metrics: PolicyMetrics::default(),
            next_qid: 0,
            uqs: Vec::new(),
            collect: Bag::new(),
            collected: Vec::new(),
        })
    }

    fn base_term(&self, rel: usize, delta: &Bag) -> EcaTerm {
        EcaTerm {
            sign: 1,
            slots: (0..self.view_def.num_relations())
                .map(|k| {
                    if k == rel {
                        EcaSlot::Delta(delta.clone())
                    } else {
                        EcaSlot::Base
                    }
                })
                .collect(),
        }
    }

    fn on_update(
        &mut self,
        net: &mut dyn NetHandle<Message>,
        id: UpdateId,
        delta: Bag,
        delivered_at: Time,
    ) {
        let rel = id.source;
        let mut terms = vec![self.base_term(rel, &delta)];
        // Compensate every pending query's still-unpinned occurrence of
        // this relation: Q_i −= Q_j⟨u_i⟩.
        for pq in &self.uqs {
            for t in &pq.terms {
                if matches!(t.slots[rel], EcaSlot::Base) {
                    let mut slots = t.slots.clone();
                    slots[rel] = EcaSlot::Delta(delta.clone());
                    terms.push(EcaTerm {
                        sign: -t.sign,
                        slots,
                    });
                    self.metrics.compensation_queries += 1;
                }
            }
        }
        let qid = self.next_qid;
        self.next_qid += 1;
        self.metrics.queries_sent += 1;
        net.send(
            WAREHOUSE_NODE,
            source_node(0),
            Message::EcaQuery(EcaQuery {
                qid,
                terms: terms.clone(),
            }),
        );
        self.uqs.push(PendingQuery {
            qid,
            update: id,
            delivered_at,
            terms,
        });
    }

    fn on_answer(
        &mut self,
        net: &mut dyn NetHandle<Message>,
        qid: u64,
        result: Bag,
    ) -> Result<(), WarehouseError> {
        let pos = self
            .uqs
            .iter()
            .position(|p| p.qid == qid)
            .ok_or(WarehouseError::UnknownQuery { qid })?;
        let pq = self.uqs.remove(pos);
        self.collect.merge(&result);
        self.collected.push((pq.update, pq.delivered_at));
        if self.uqs.is_empty() {
            // Quiescence reached: install the accumulated change.
            let delta = std::mem::take(&mut self.collect);
            self.sink
                .install(&mut self.metrics, &delta, &self.collected, net.now())?;
            self.collected.clear();
        }
        Ok(())
    }
}

impl MaintenancePolicy for Eca {
    fn name(&self) -> &'static str {
        "eca"
    }

    fn on_message(
        &mut self,
        delivery: Delivery<Message>,
        net: &mut dyn NetHandle<Message>,
    ) -> Result<(), WarehouseError> {
        match delivery.msg {
            Message::Update(u) => {
                self.metrics.updates_received += 1;
                self.on_update(net, u.id, u.delta, delivery.at);
                Ok(())
            }
            Message::EcaAnswer(a) => {
                self.metrics.answers_received += 1;
                self.on_answer(net, a.qid, a.result)
            }
            other => Err(WarehouseError::UnexpectedMessage {
                policy: self.name(),
                label: dw_simnet::Payload::label(&other),
            }),
        }
    }

    fn view(&self) -> &SharedBag {
        self.sink.bag()
    }

    fn installs(&self) -> &[InstallRecord] {
        self.sink.log()
    }

    fn metrics(&self) -> &PolicyMetrics {
        &self.metrics
    }

    fn is_quiescent(&self) -> bool {
        self.uqs.is_empty()
    }

    fn set_record_snapshots(&mut self, record: bool) {
        self.sink.record_snapshots = record;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{deliver, two_chain, update};
    use dw_protocol::EcaAnswer;
    use dw_relational::tup;
    use dw_simnet::{Network, Payload};

    #[test]
    fn lone_update_single_term_query() {
        let mut net: Network<Message> = Network::new(0);
        let mut wh = Eca::new(two_chain(), Bag::new()).unwrap();
        wh.on_message(
            deliver(0, update(0, 0, Bag::from_tuples([tup![1, 3]]))),
            &mut net,
        )
        .unwrap();
        let Message::EcaQuery(q) = net.next().unwrap().msg else {
            panic!()
        };
        assert_eq!(q.terms.len(), 1);
        assert_eq!(q.terms[0].sign, 1);
        // Answer and install.
        wh.on_message(
            deliver(
                5,
                Message::EcaAnswer(EcaAnswer {
                    qid: q.qid,
                    result: Bag::from_tuples([tup![1, 3, 3, 7]]),
                }),
            ),
            &mut net,
        )
        .unwrap();
        assert_eq!(wh.view().count(&tup![1, 3, 3, 7]), 1);
        assert_eq!(wh.installs().len(), 1);
        assert!(wh.is_quiescent());
    }

    #[test]
    fn interfering_update_adds_compensation_terms() {
        let mut net: Network<Message> = Network::new(0);
        let mut wh = Eca::new(two_chain(), Bag::new()).unwrap();
        // u1 at relation 0 — query pending.
        wh.on_message(
            deliver(0, update(0, 0, Bag::from_tuples([tup![1, 3]]))),
            &mut net,
        )
        .unwrap();
        let Message::EcaQuery(q1) = net.next().unwrap().msg else {
            panic!()
        };
        // u2 at relation 1 arrives before q1's answer: its query must carry
        // a negative compensation term V⟨u1,u2⟩.
        wh.on_message(
            deliver(1, update(1, 0, Bag::from_tuples([tup![3, 9]]))),
            &mut net,
        )
        .unwrap();
        let Message::EcaQuery(q2) = net.next().unwrap().msg else {
            panic!()
        };
        assert_eq!(q2.terms.len(), 2);
        assert_eq!(q2.terms[1].sign, -1);
        assert!(matches!(q2.terms[1].slots[0], EcaSlot::Delta(_)));
        assert!(matches!(q2.terms[1].slots[1], EcaSlot::Delta(_)));
        assert_eq!(wh.metrics().compensation_queries, 1);
        // Message size grows.
        assert!(
            Message::EcaQuery(q2.clone()).size_bytes() > Message::EcaQuery(q1.clone()).size_bytes()
        );
        // No install until both answers arrive (quiescence requirement).
        wh.on_message(
            deliver(
                3,
                Message::EcaAnswer(EcaAnswer {
                    qid: q1.qid,
                    result: Bag::from_tuples([tup![1, 3, 3, 7]]),
                }),
            ),
            &mut net,
        )
        .unwrap();
        assert_eq!(wh.installs().len(), 0);
        assert!(!wh.is_quiescent());
        wh.on_message(
            deliver(
                4,
                Message::EcaAnswer(EcaAnswer {
                    qid: q2.qid,
                    result: Bag::from_tuples([tup![1, 3, 3, 9]]),
                }),
            ),
            &mut net,
        )
        .unwrap();
        assert_eq!(wh.installs().len(), 1);
        assert_eq!(wh.installs()[0].consumed.len(), 2);
    }

    #[test]
    fn same_relation_updates_do_not_compensate() {
        let mut net: Network<Message> = Network::new(0);
        let mut wh = Eca::new(two_chain(), Bag::new()).unwrap();
        wh.on_message(
            deliver(0, update(0, 0, Bag::from_tuples([tup![1, 3]]))),
            &mut net,
        )
        .unwrap();
        net.next();
        // Second update at the SAME relation: the pending query's slot for
        // relation 0 is pinned, so no compensation term is needed.
        wh.on_message(
            deliver(1, update(0, 1, Bag::from_tuples([tup![2, 3]]))),
            &mut net,
        )
        .unwrap();
        let Message::EcaQuery(q2) = net.next().unwrap().msg else {
            panic!()
        };
        assert_eq!(q2.terms.len(), 1);
        assert_eq!(wh.metrics().compensation_queries, 0);
    }

    #[test]
    fn quadratic_term_growth_under_k_interfering_updates() {
        // Alternate relations so every new query compensates all pending
        // ones: term counts 1, 2, 3, … — total size quadratic in K.
        let mut net: Network<Message> = Network::new(0);
        let mut wh = Eca::new(two_chain(), Bag::new()).unwrap();
        let mut term_counts = Vec::new();
        for k in 0..6i64 {
            let rel = (k % 2) as usize;
            let t = if rel == 0 { tup![k, 3] } else { tup![3, k] };
            wh.on_message(
                deliver(k as u64, update(rel, (k / 2) as u64, Bag::from_tuples([t]))),
                &mut net,
            )
            .unwrap();
            let Message::EcaQuery(q) = net.next().unwrap().msg else {
                panic!()
            };
            term_counts.push(q.terms.len());
        }
        // Every earlier pending query contributes one term (opposite
        // relation each time → compensable every other round at least).
        assert!(term_counts.windows(2).all(|w| w[1] >= w[0]));
        assert!(*term_counts.last().unwrap() >= 4);
    }

    #[test]
    fn unknown_answer_rejected() {
        let mut net: Network<Message> = Network::new(0);
        let mut wh = Eca::new(two_chain(), Bag::new()).unwrap();
        let res = wh.on_message(
            deliver(
                0,
                Message::EcaAnswer(EcaAnswer {
                    qid: 9,
                    result: Bag::new(),
                }),
            ),
            &mut net,
        );
        assert!(matches!(res, Err(WarehouseError::UnknownQuery { qid: 9 })));
    }
}
