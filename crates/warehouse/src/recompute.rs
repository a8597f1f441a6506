//! **Recompute** — the convergence-only full-refresh baseline.
//!
//! The paper (§3) calls per-update recomputation "unrealistic"; commercial
//! systems of the era (Red Brick, §2) offered only convergence. This policy
//! models that floor of the design space: whenever updates arrive it dumps
//! every base relation (`n` dump queries + `n` answers = `2n` messages),
//! re-evaluates the view from the snapshots, and installs the difference
//! to the warehouse contents — the whole view changes in one install,
//! through the same [`InstallSink`] every policy installs through.
//! Snapshots from different sources are taken at
//! different instants, so intermediate views can correspond to *no* global
//! source state — only the final state after quiescence is guaranteed
//! (convergence), which the consistency checker classifies accordingly.

use crate::MaintenancePolicy;
use crate::PolicyMetrics;
use crate::WarehouseError;
use dw_engine::InstallSink;
use dw_protocol::{source_node, Message, UpdateId, WAREHOUSE_NODE};
use dw_relational::{eval_view, Bag, SharedBag, ViewDef};
use dw_simnet::{Delivery, NetHandle, Time};

struct Refresh {
    /// `qid` of the dump sent to source `i` is `base + i`.
    base_qid: u64,
    dumps: Vec<Option<Bag>>,
    /// Updates received before this refresh started (surely reflected).
    covers: Vec<(UpdateId, Time)>,
}

/// The full-recompute warehouse policy.
pub struct Recompute {
    view_def: ViewDef,
    sink: InstallSink,
    metrics: PolicyMetrics,
    next_qid: u64,
    refresh: Option<Refresh>,
    /// Updates received and not yet covered by a started refresh.
    pending: Vec<(UpdateId, Time)>,
}

impl Recompute {
    /// Create the policy with the correct initial view.
    pub fn new(view_def: ViewDef, initial_view: Bag) -> Result<Self, WarehouseError> {
        Ok(Recompute {
            view_def,
            sink: InstallSink::new(initial_view)?,
            metrics: PolicyMetrics::default(),
            next_qid: 0,
            refresh: None,
            pending: Vec::new(),
        })
    }

    fn start_refresh(&mut self, net: &mut dyn NetHandle<Message>) {
        let n = self.view_def.num_relations();
        let base_qid = self.next_qid;
        self.next_qid += n as u64;
        for i in 0..n {
            self.metrics.queries_sent += 1;
            net.send(
                WAREHOUSE_NODE,
                source_node(i),
                Message::DumpQuery {
                    qid: base_qid + i as u64,
                },
            );
        }
        self.refresh = Some(Refresh {
            base_qid,
            dumps: vec![None; n],
            covers: std::mem::take(&mut self.pending),
        });
    }
}

impl MaintenancePolicy for Recompute {
    fn name(&self) -> &'static str {
        "recompute"
    }

    fn on_message(
        &mut self,
        delivery: Delivery<Message>,
        net: &mut dyn NetHandle<Message>,
    ) -> Result<(), WarehouseError> {
        match delivery.msg {
            Message::Update(u) => {
                self.metrics.updates_received += 1;
                self.pending.push((u.id, delivery.at));
                if self.refresh.is_none() {
                    self.start_refresh(net);
                }
                Ok(())
            }
            Message::DumpAnswer { qid, relation } => {
                self.metrics.answers_received += 1;
                let r = self
                    .refresh
                    .as_mut()
                    .ok_or(WarehouseError::UnknownQuery { qid })?;
                let idx =
                    qid.checked_sub(r.base_qid)
                        .filter(|&i| (i as usize) < r.dumps.len())
                        .ok_or(WarehouseError::UnknownQuery { qid })? as usize;
                if r.dumps[idx].replace(relation).is_some() {
                    return Err(WarehouseError::UnknownQuery { qid });
                }
                let dumps: Option<Vec<&Bag>> = r.dumps.iter().map(Option::as_ref).collect();
                let Some(dumps) = dumps else {
                    return Ok(()); // more dumps to come
                };
                // The whole view changes in one install: fresh − current.
                let mut delta = eval_view(&self.view_def, &dumps)?;
                for (t, c) in self.sink.bag().iter() {
                    delta.add(t.clone(), -c);
                }
                let covers = std::mem::take(&mut r.covers);
                self.refresh = None;
                self.sink
                    .install(&mut self.metrics, delta, &covers, net.now())?;
                // Updates arrived mid-refresh? Chase convergence.
                if !self.pending.is_empty() {
                    self.start_refresh(net);
                }
                Ok(())
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

    fn set_install_publisher(&mut self, p: dw_engine::SharedInstallPublisher) {
        self.sink.set_publisher(p);
    }

    fn metrics(&self) -> &PolicyMetrics {
        &self.metrics
    }

    fn is_quiescent(&self) -> bool {
        self.refresh.is_none() && self.pending.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{deliver, two_chain};
    use dw_protocol::SourceUpdate;
    use dw_relational::tup;
    use dw_simnet::Network;

    #[test]
    fn update_triggers_dump_fanout_and_replacement() {
        let mut net: Network<Message> = Network::new(0);
        let mut wh = Recompute::new(two_chain(), Bag::new()).unwrap();
        wh.on_message(
            deliver(
                0,
                Message::Update(SourceUpdate {
                    id: UpdateId { source: 0, seq: 0 },
                    delta: Bag::from_tuples([tup![1, 3]]),
                    global: None,
                }),
            ),
            &mut net,
        )
        .unwrap();
        // Two dump queries out.
        let mut qids = Vec::new();
        for _ in 0..2 {
            match net.next().unwrap().msg {
                Message::DumpQuery { qid } => qids.push(qid),
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(wh.metrics().queries_sent, 2);
        // Answers arrive: R1 = {(1,3)}, R2 = {(3,7)}.
        wh.on_message(
            deliver(
                5,
                Message::DumpAnswer {
                    qid: qids[0],
                    relation: Bag::from_tuples([tup![1, 3]]),
                },
            ),
            &mut net,
        )
        .unwrap();
        assert_eq!(wh.metrics().installs, 0);
        wh.on_message(
            deliver(
                6,
                Message::DumpAnswer {
                    qid: qids[1],
                    relation: Bag::from_tuples([tup![3, 7]]),
                },
            ),
            &mut net,
        )
        .unwrap();
        assert_eq!(wh.view().count(&tup![1, 3, 3, 7]), 1);
        assert_eq!(wh.metrics().installs, 1);
        assert!(wh.is_quiescent());
    }

    #[test]
    fn updates_during_refresh_chase_convergence() {
        let mut net: Network<Message> = Network::new(0);
        let mut wh = Recompute::new(two_chain(), Bag::new()).unwrap();
        let upd = |seq| {
            Message::Update(SourceUpdate {
                id: UpdateId { source: 0, seq },
                delta: Bag::from_tuples([tup![seq as i64, 3]]),
                global: None,
            })
        };
        wh.on_message(deliver(0, upd(0)), &mut net).unwrap();
        let mut qids = Vec::new();
        for _ in 0..2 {
            if let Message::DumpQuery { qid } = net.next().unwrap().msg {
                qids.push(qid);
            }
        }
        // A second update lands mid-refresh.
        wh.on_message(deliver(1, upd(1)), &mut net).unwrap();
        for (i, qid) in qids.into_iter().enumerate() {
            wh.on_message(
                deliver(
                    5 + i as u64,
                    Message::DumpAnswer {
                        qid,
                        relation: Bag::new(),
                    },
                ),
                &mut net,
            )
            .unwrap();
        }
        // First refresh installed, second refresh already launched.
        assert_eq!(wh.metrics().installs, 1);
        assert!(!wh.is_quiescent());
        assert_eq!(wh.metrics().queries_sent, 4);
    }

    #[test]
    fn duplicate_dump_answer_rejected() {
        let mut net: Network<Message> = Network::new(0);
        let mut wh = Recompute::new(two_chain(), Bag::new()).unwrap();
        wh.on_message(
            deliver(
                0,
                Message::Update(SourceUpdate {
                    id: UpdateId { source: 0, seq: 0 },
                    delta: Bag::from_tuples([tup![1, 3]]),
                    global: None,
                }),
            ),
            &mut net,
        )
        .unwrap();
        let Message::DumpQuery { qid } = net.next().unwrap().msg else {
            panic!()
        };
        wh.on_message(
            deliver(
                1,
                Message::DumpAnswer {
                    qid,
                    relation: Bag::new(),
                },
            ),
            &mut net,
        )
        .unwrap();
        let res = wh.on_message(
            deliver(
                2,
                Message::DumpAnswer {
                    qid,
                    relation: Bag::new(),
                },
            ),
            &mut net,
        );
        assert!(matches!(res, Err(WarehouseError::UnknownQuery { .. })));
    }

    #[test]
    fn unexpected_answer_when_idle() {
        let mut net: Network<Message> = Network::new(0);
        let mut wh = Recompute::new(two_chain(), Bag::new()).unwrap();
        let res = wh.on_message(
            deliver(
                0,
                Message::DumpAnswer {
                    qid: 0,
                    relation: Bag::new(),
                },
            ),
            &mut net,
        );
        assert!(matches!(res, Err(WarehouseError::UnknownQuery { .. })));
    }
}
