//! The single source site the ECA baseline assumes.
//!
//! ECA (Zhuge et al., SIGMOD '95) is defined for a warehouse fed by **one**
//! source site that stores *all* base relations (paper §3: "the number of
//! data sources is limited to a single data source; however, the data
//! source may store several base relations"). This node plays that site: it
//! applies transactions against any chain relation and evaluates whole
//! substitution queries (`Σ sign · Π σ(slots)`) atomically against its
//! current state.

use crate::node::SourceError;
use dw_protocol::{
    EcaAnswer, EcaSlot, Message, SourceIndex, SourceUpdate, UpdateId, WAREHOUSE_NODE,
};
use dw_relational::{eval_view, Bag, BaseRelation, ViewDef};
use dw_simnet::{NetHandle, NodeId};

/// The centralized multi-relation source site.
pub struct EcaSite {
    node: NodeId,
    view: ViewDef,
    relations: Vec<BaseRelation>,
    next_seq: Vec<u64>,
}

impl EcaSite {
    /// Build the site with initial contents for every chain relation.
    ///
    /// `node` is this site's simulator node id (conventionally
    /// `source_node(0)`).
    pub fn new(node: NodeId, view: ViewDef, relations: Vec<BaseRelation>) -> Self {
        assert_eq!(
            relations.len(),
            view.num_relations(),
            "one relation per chain position"
        );
        let n = relations.len();
        EcaSite {
            node,
            view,
            relations,
            next_seq: vec![0; n],
        }
    }

    /// Current contents of chain relation `i` (inspection hook).
    pub fn relation(&self, i: SourceIndex) -> &BaseRelation {
        &self.relations[i]
    }

    /// Evaluate one signed substitution term against current state: the
    /// view over each slot's bag — the relation itself or the delta that
    /// stands in for it.
    fn eval_term(&self, slots: &[EcaSlot]) -> Result<Bag, SourceError> {
        let bags: Vec<&Bag> = (slots.iter().zip(&self.relations))
            .map(|(slot, rel)| match slot {
                EcaSlot::Base => rel.bag(),
                EcaSlot::Delta(b) => b,
            })
            .collect();
        Ok(eval_view(&self.view, &bags)?)
    }

    /// Service one delivered event.
    pub fn handle(
        &mut self,
        _from: NodeId,
        msg: Message,
        net: &mut dyn NetHandle<Message>,
    ) -> Result<(), SourceError> {
        match msg {
            Message::ApplyTxn { rel, delta, global } => {
                if rel >= self.relations.len() {
                    return Err(SourceError::WrongRelation {
                        source: self.relations.len(),
                        target: rel,
                    });
                }
                self.relations[rel].apply_delta(&delta)?;
                let id = UpdateId {
                    source: rel,
                    seq: self.next_seq[rel],
                };
                self.next_seq[rel] += 1;
                net.send(
                    self.node,
                    WAREHOUSE_NODE,
                    Message::Update(SourceUpdate { id, delta, global }),
                );
                Ok(())
            }
            Message::EcaQuery(q) => {
                let mut result = Bag::new();
                for term in &q.terms {
                    if term.slots.len() != self.view.num_relations() {
                        return Err(SourceError::Relational(
                            dw_relational::RelationalError::InvalidViewDef {
                                reason: format!(
                                    "ECA term has {} slots for a {}-relation view",
                                    term.slots.len(),
                                    self.view.num_relations()
                                ),
                            },
                        ));
                    }
                    let t = self.eval_term(&term.slots)?;
                    if term.sign >= 0 {
                        result.merge_owned(t);
                    } else {
                        result.subtract(&t);
                    }
                }
                net.send(
                    self.node,
                    WAREHOUSE_NODE,
                    Message::EcaAnswer(EcaAnswer { qid: q.qid, result }),
                );
                Ok(())
            }
            other => Err(SourceError::UnexpectedMessage {
                source: usize::MAX,
                label: dw_simnet::Payload::label(&other),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dw_protocol::{source_node, EcaQuery, EcaTerm};
    use dw_relational::{tup, Schema, ViewDefBuilder};
    use dw_simnet::{Network, ENV};

    fn view() -> ViewDef {
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

    fn site() -> EcaSite {
        let rels = vec![
            BaseRelation::from_tuples(
                Schema::new("R1", ["A", "B"]).unwrap(),
                [tup![1, 3], tup![2, 3]],
            )
            .unwrap(),
            BaseRelation::from_tuples(Schema::new("R2", ["C", "D"]).unwrap(), [tup![3, 7]])
                .unwrap(),
            BaseRelation::from_tuples(
                Schema::new("R3", ["E", "F"]).unwrap(),
                [tup![5, 6], tup![7, 8]],
            )
            .unwrap(),
        ];
        EcaSite::new(source_node(0), view(), rels)
    }

    #[test]
    fn all_base_term_evaluates_whole_view() {
        let mut net: Network<Message> = Network::new(0);
        let mut s = site();
        let q = EcaQuery {
            qid: 1,
            terms: vec![EcaTerm {
                sign: 1,
                slots: vec![EcaSlot::Base, EcaSlot::Base, EcaSlot::Base],
            }],
        };
        s.handle(WAREHOUSE_NODE, Message::EcaQuery(q), &mut net)
            .unwrap();
        match net.next().unwrap().msg {
            Message::EcaAnswer(a) => {
                assert_eq!(a.result, Bag::from_pairs([(tup![7, 8], 2)]));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn delta_substitution_term() {
        let mut net: Network<Message> = Network::new(0);
        let mut s = site();
        // ΔR2 = +(3,5): term ΔR2 joined with base R1 and R3.
        let q = EcaQuery {
            qid: 2,
            terms: vec![EcaTerm {
                sign: 1,
                slots: vec![
                    EcaSlot::Base,
                    EcaSlot::Delta(Bag::from_tuples([tup![3, 5]])),
                    EcaSlot::Base,
                ],
            }],
        };
        s.handle(WAREHOUSE_NODE, Message::EcaQuery(q), &mut net)
            .unwrap();
        match net.next().unwrap().msg {
            // (1,3)&(2,3) ⋈ (3,5) ⋈ (5,6) → projected (5,6) ×2.
            Message::EcaAnswer(a) => assert_eq!(a.result, Bag::from_pairs([(tup![5, 6], 2)])),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn signed_terms_subtract() {
        let mut net: Network<Message> = Network::new(0);
        let mut s = site();
        let base = EcaTerm {
            sign: 1,
            slots: vec![EcaSlot::Base, EcaSlot::Base, EcaSlot::Base],
        };
        let neg = EcaTerm {
            sign: -1,
            slots: vec![EcaSlot::Base, EcaSlot::Base, EcaSlot::Base],
        };
        let q = EcaQuery {
            qid: 3,
            terms: vec![base, neg],
        };
        s.handle(WAREHOUSE_NODE, Message::EcaQuery(q), &mut net)
            .unwrap();
        match net.next().unwrap().msg {
            Message::EcaAnswer(a) => assert!(a.result.is_empty()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn txn_routes_to_any_relation() {
        let mut net: Network<Message> = Network::new(0);
        let mut s = site();
        s.handle(
            ENV,
            Message::ApplyTxn {
                rel: 2,
                delta: Bag::from_pairs([(tup![7, 8], -1)]),
                global: None,
            },
            &mut net,
        )
        .unwrap();
        assert_eq!(s.relation(2).bag().count(&tup![7, 8]), 0);
        match net.next().unwrap().msg {
            Message::Update(u) => assert_eq!(u.id, UpdateId { source: 2, seq: 0 }),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn per_relation_seq_numbers() {
        let mut net: Network<Message> = Network::new(0);
        let mut s = site();
        for _ in 0..2 {
            s.handle(
                ENV,
                Message::ApplyTxn {
                    rel: 1,
                    delta: Bag::from_pairs([(tup![3, 5], 1)]),
                    global: None,
                },
                &mut net,
            )
            .unwrap();
        }
        let seqs: Vec<UpdateId> = std::iter::from_fn(|| net.next())
            .filter_map(|d| match d.msg {
                Message::Update(u) => Some(u.id),
                _ => None,
            })
            .collect();
        assert_eq!(
            seqs,
            vec![
                UpdateId { source: 1, seq: 0 },
                UpdateId { source: 1, seq: 1 }
            ]
        );
    }

    #[test]
    fn bad_term_width_rejected() {
        let mut net: Network<Message> = Network::new(0);
        let mut s = site();
        let q = EcaQuery {
            qid: 9,
            terms: vec![EcaTerm {
                sign: 1,
                slots: vec![EcaSlot::Base],
            }],
        };
        assert!(s
            .handle(WAREHOUSE_NODE, Message::EcaQuery(q), &mut net)
            .is_err());
    }

    #[test]
    fn sweep_query_not_serviced_here() {
        let mut net: Network<Message> = Network::new(0);
        let mut s = site();
        let res = s.handle(WAREHOUSE_NODE, Message::DumpQuery { qid: 0 }, &mut net);
        assert!(matches!(res, Err(SourceError::UnexpectedMessage { .. })));
    }
}
