//! The per-source update & query server (paper Figure 3).

use dw_obs::Obs;
use dw_protocol::{source_node, Message, SourceIndex, SourceUpdate, UpdateId, WAREHOUSE_NODE};
use dw_relational::{
    extend_hop, BaseRelation, JoinIndex, JoinSide, Neighbor, RelationalError, ViewDef,
};
use dw_simnet::{NetHandle, NodeId};
use std::fmt;

/// Errors a data source can raise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceError {
    /// Underlying relational failure (bad transaction, arity mismatch…).
    Relational(RelationalError),
    /// A message arrived that this node cannot service.
    UnexpectedMessage {
        /// Which source.
        source: SourceIndex,
        /// Label of the offending message.
        label: &'static str,
    },
    /// A transaction was routed to the wrong source.
    WrongRelation {
        /// This source's chain position.
        source: SourceIndex,
        /// The relation the transaction targeted.
        target: SourceIndex,
    },
}

impl fmt::Display for SourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceError::Relational(e) => write!(f, "relational error at source: {e}"),
            SourceError::UnexpectedMessage { source, label } => {
                write!(f, "source {source} cannot service message {label:?}")
            }
            SourceError::WrongRelation { source, target } => {
                write!(
                    f,
                    "transaction for relation {target} routed to source {source}"
                )
            }
        }
    }
}

impl std::error::Error for SourceError {}

impl From<RelationalError> for SourceError {
    fn from(e: RelationalError) -> Self {
        SourceError::Relational(e)
    }
}

/// One autonomous data source holding base relation `R_i`.
///
/// The two processes of the paper's Figure 3 (`SendUpdates`,
/// `ProcessQuery`) collapse into one event handler because the simulator
/// already serializes the node's events — which is exactly the paper's
/// sequential-service assumption.
pub struct DataSource {
    index: SourceIndex,
    view: ViewDef,
    relation: BaseRelation,
    next_seq: u64,
    txns_applied: u64,
    /// Incrementally maintained join indexes, by the `JoinSide` of the
    /// queries each serves: `[Left]` answers leftward extensions into this
    /// relation, `[Right]` rightward ones. `None` when not enabled, and at
    /// the chain end no query can come from.
    indexes: [Option<JoinIndex>; 2],
    /// Highest sweep epoch seen on any query. A warehouse state-crash
    /// recovery bumps the epoch of every query it issues; a query from
    /// an *older* epoch belongs to a sweep the warehouse already
    /// aborted, so answering it would only feed the recovered scheduler
    /// an orphan. Dropping it here makes re-issued queries idempotent
    /// end to end. Epoch 0 queries (the pre-recovery protocol) are never
    /// dropped.
    max_epoch_seen: u64,
    /// Stale-epoch queries dropped (test/inspection hook; also counted
    /// on `source.stale_epoch_dropped`).
    stale_queries_dropped: u64,
    /// Observability handle (no-op unless a recorder is attached).
    obs: Obs,
}

impl DataSource {
    /// Create source `index` with its initial relation contents.
    pub fn new(index: SourceIndex, view: ViewDef, relation: BaseRelation) -> Self {
        DataSource {
            index,
            view,
            relation,
            next_seq: 0,
            txns_applied: 0,
            indexes: [None, None],
            max_epoch_seen: 0,
            stale_queries_dropped: 0,
            obs: Obs::off(),
        }
    }

    /// Attach an observability recorder: per-query join build/probe sizes
    /// are recorded when answering sweep queries. `Obs::off()` detaches.
    pub fn set_observer(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Create with maintained join indexes: queries are answered by
    /// probing incrementally maintained hash indexes instead of re-hashing
    /// the relation per request. The indexes cover the whole relation; the
    /// view's local selection and a query's pushed-down σ filter the probed
    /// matches, so the answers equal [`DataSource::new`]'s.
    pub fn with_indexes(index: SourceIndex, view: ViewDef, relation: BaseRelation) -> Self {
        let indexes = [JoinSide::Left, JoinSide::Right].map(|side| {
            let mut ix = JoinIndex::for_neighbor(&view, index, side)?;
            ix.apply_delta(relation.bag());
            Some(ix)
        });
        DataSource {
            indexes,
            ..DataSource::new(index, view, relation)
        }
    }

    /// Are maintained join indexes active?
    pub fn is_indexed(&self) -> bool {
        self.indexes.iter().any(Option::is_some)
    }

    /// Chain position of this source.
    pub fn index(&self) -> SourceIndex {
        self.index
    }

    /// Current relation contents (test/inspection hook).
    pub fn relation(&self) -> &BaseRelation {
        &self.relation
    }

    /// Number of transactions applied so far.
    pub fn txns_applied(&self) -> u64 {
        self.txns_applied
    }

    /// Queries dropped because they carried a stale sweep epoch.
    pub fn stale_queries_dropped(&self) -> u64 {
        self.stale_queries_dropped
    }

    /// Service one delivered event.
    ///
    /// * `ApplyTxn` — execute the transaction atomically against `R_i` and
    ///   forward the delta to the warehouse (process `SendUpdates`).
    /// * `SweepQuery` — `ΔV ← ComputeJoin(ΔV, R_i)`, reply to the
    ///   warehouse (process `ProcessQuery`).
    /// * `DumpQuery` — ship the current contents (recompute baseline).
    pub fn handle(
        &mut self,
        _from: NodeId,
        msg: Message,
        net: &mut dyn NetHandle<Message>,
    ) -> Result<(), SourceError> {
        match msg {
            Message::ApplyTxn { rel, delta, global } => {
                if rel != self.index {
                    return Err(SourceError::WrongRelation {
                        source: self.index,
                        target: rel,
                    });
                }
                self.relation.apply_delta(&delta)?;
                for ix in self.indexes.iter_mut().flatten() {
                    ix.apply_delta(&delta);
                }
                self.txns_applied += 1;
                let id = UpdateId {
                    source: self.index,
                    seq: self.next_seq,
                };
                self.next_seq += 1;
                net.send(
                    source_node(self.index),
                    WAREHOUSE_NODE,
                    Message::Update(SourceUpdate { id, delta, global }),
                );
                Ok(())
            }
            Message::SweepQuery(q) => {
                if q.epoch < self.max_epoch_seen {
                    // A sweep the warehouse aborted in a crash: its
                    // recovery already re-seeded the work under a newer
                    // epoch, so this straggler must not produce an
                    // answer. Dropping is safe — nothing at the
                    // warehouse is waiting on the stale qid.
                    self.stale_queries_dropped += 1;
                    self.obs.add("source.stale_epoch_dropped", 1);
                    return Ok(());
                }
                self.max_epoch_seen = q.epoch;
                // One hop join either way; a pushed-down σ rides into it,
                // so only the qualifying tuples travel back.
                let neighbor = match &self.indexes[q.side as usize] {
                    Some(ix) => Neighbor::Index(ix),
                    None => Neighbor::Bag(self.relation.bag()),
                };
                let pushed = q.pred.as_ref();
                let widened =
                    extend_hop(&self.view, &q.partial, neighbor, q.side, pushed, &self.obs)?;
                self.obs.add("source.queries_served", 1);
                self.obs
                    .observe("source.answer_rows", widened.bag.distinct_len() as u64);
                net.send(
                    source_node(self.index),
                    WAREHOUSE_NODE,
                    Message::SweepAnswer(dw_protocol::SweepAnswer {
                        qid: q.qid,
                        partial: widened,
                    }),
                );
                Ok(())
            }
            Message::DumpQuery { qid } => {
                net.send(
                    source_node(self.index),
                    WAREHOUSE_NODE,
                    Message::DumpAnswer {
                        qid,
                        relation: self.relation.bag().clone(),
                    },
                );
                Ok(())
            }
            other => Err(SourceError::UnexpectedMessage {
                source: self.index,
                label: dw_simnet::Payload::label(&other),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dw_protocol::SweepQuery;
    use dw_relational::{tup, Bag, JoinSide, PartialDelta, Schema, ViewDefBuilder};
    use dw_simnet::{Network, ENV};

    fn view() -> ViewDef {
        ViewDefBuilder::new()
            .relation(Schema::new("R1", ["A", "B"]).unwrap())
            .relation(Schema::new("R2", ["C", "D"]).unwrap())
            .join("R1.B", "R2.C")
            .build()
            .unwrap()
    }

    fn source1() -> DataSource {
        let rel = BaseRelation::from_tuples(
            Schema::new("R2", ["C", "D"]).unwrap(),
            [tup![3, 7], tup![4, 8]],
        )
        .unwrap();
        DataSource::new(1, view(), rel)
    }

    #[test]
    fn txn_applies_and_forwards_update() {
        let mut net: Network<Message> = Network::new(0);
        let mut src = source1();
        let delta = Bag::from_pairs([(tup![9, 9], 1)]);
        src.handle(
            ENV,
            Message::ApplyTxn {
                rel: 1,
                delta: delta.clone(),
                global: None,
            },
            &mut net,
        )
        .unwrap();
        assert_eq!(src.relation().bag().count(&tup![9, 9]), 1);
        assert_eq!(src.txns_applied(), 1);
        let d = net.next().unwrap();
        assert_eq!(d.to, WAREHOUSE_NODE);
        match d.msg {
            Message::Update(u) => {
                assert_eq!(u.id, UpdateId { source: 1, seq: 0 });
                assert_eq!(u.delta, delta);
            }
            other => panic!("expected Update, got {other:?}"),
        }
    }

    #[test]
    fn seq_numbers_increment() {
        let mut net: Network<Message> = Network::new(0);
        let mut src = source1();
        for i in 0..3i64 {
            src.handle(
                ENV,
                Message::ApplyTxn {
                    rel: 1,
                    delta: Bag::from_pairs([(tup![100 + i, 0], 1)]),
                    global: None,
                },
                &mut net,
            )
            .unwrap();
        }
        let seqs: Vec<u64> = std::iter::from_fn(|| net.next())
            .filter_map(|d| match d.msg {
                Message::Update(u) => Some(u.id.seq),
                _ => None,
            })
            .collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn invalid_txn_rejected_and_not_forwarded() {
        let mut net: Network<Message> = Network::new(0);
        let mut src = source1();
        let res = src.handle(
            ENV,
            Message::ApplyTxn {
                rel: 1,
                delta: Bag::from_pairs([(tup![1, 1], -1)]), // absent tuple
                global: None,
            },
            &mut net,
        );
        assert!(matches!(res, Err(SourceError::Relational(_))));
        assert!(net.next().is_none());
    }

    #[test]
    fn wrong_relation_rejected() {
        let mut net: Network<Message> = Network::new(0);
        let mut src = source1();
        let res = src.handle(
            ENV,
            Message::ApplyTxn {
                rel: 0,
                delta: Bag::new(),
                global: None,
            },
            &mut net,
        );
        assert!(matches!(res, Err(SourceError::WrongRelation { .. })));
    }

    #[test]
    fn sweep_query_computes_join_and_replies() {
        let mut net: Network<Message> = Network::new(0);
        let mut src = source1();
        // ΔV over R1 = {+(1,3)}; extend right into R2.
        let q = SweepQuery {
            qid: 42,
            partial: PartialDelta {
                lo: 0,
                hi: 0,
                bag: Bag::from_tuples([tup![1, 3]]),
            },
            side: JoinSide::Right,
            epoch: 0,
            pred: None,
        };
        src.handle(WAREHOUSE_NODE, Message::SweepQuery(q), &mut net)
            .unwrap();
        let d = net.next().unwrap();
        match d.msg {
            Message::SweepAnswer(a) => {
                assert_eq!(a.qid, 42);
                assert_eq!(a.partial.bag, Bag::from_tuples([tup![1, 3, 3, 7]]));
                assert_eq!((a.partial.lo, a.partial.hi), (0, 1));
            }
            other => panic!("expected SweepAnswer, got {other:?}"),
        }
    }

    #[test]
    fn pushed_predicate_filters_the_join_and_counts_drops() {
        use dw_relational::{CmpOp, Predicate, Value};
        let mut net: Network<Message> = Network::new(0);
        let mut src = source1(); // R2 = {(3,7), (4,8)}
        let (obs, rec) = dw_obs::Obs::trace();
        src.set_observer(obs);
        // Same partial as the unfiltered test, but σ_{D >= 8} drops the
        // only join partner (3,7) — the answer must come back empty.
        let q = SweepQuery {
            qid: 43,
            partial: PartialDelta {
                lo: 0,
                hi: 0,
                bag: Bag::from_tuples([tup![1, 3]]),
            },
            side: JoinSide::Right,
            epoch: 0,
            pred: Some(Predicate::Cmp {
                attr: 1,
                op: CmpOp::Ge,
                value: Value::Int(8),
            }),
        };
        src.handle(WAREHOUSE_NODE, Message::SweepQuery(q), &mut net)
            .unwrap();
        match net.next().unwrap().msg {
            Message::SweepAnswer(a) => {
                assert_eq!(a.qid, 43);
                assert!(a.partial.bag.is_empty());
                assert_eq!((a.partial.lo, a.partial.hi), (0, 1));
            }
            other => panic!("expected SweepAnswer, got {other:?}"),
        }
        let rec = rec.lock().unwrap();
        assert_eq!(rec.counter("source.pushdown_filtered"), 1);
        assert_eq!(rec.counter("source.queries_served"), 1);
    }

    #[test]
    fn pushed_true_equivalent_when_all_tuples_qualify() {
        use dw_relational::{CmpOp, Predicate, Value};
        let mut net: Network<Message> = Network::new(0);
        let mut src = source1();
        let q = SweepQuery {
            qid: 44,
            partial: PartialDelta {
                lo: 0,
                hi: 0,
                bag: Bag::from_tuples([tup![1, 3]]),
            },
            side: JoinSide::Right,
            epoch: 0,
            pred: Some(Predicate::Cmp {
                attr: 1,
                op: CmpOp::Ge,
                value: Value::Int(0),
            }),
        };
        src.handle(WAREHOUSE_NODE, Message::SweepQuery(q), &mut net)
            .unwrap();
        match net.next().unwrap().msg {
            Message::SweepAnswer(a) => {
                assert_eq!(a.partial.bag, Bag::from_tuples([tup![1, 3, 3, 7]]));
            }
            other => panic!("expected SweepAnswer, got {other:?}"),
        }
    }

    #[test]
    fn dump_query_ships_contents() {
        let mut net: Network<Message> = Network::new(0);
        let mut src = source1();
        src.handle(WAREHOUSE_NODE, Message::DumpQuery { qid: 7 }, &mut net)
            .unwrap();
        match net.next().unwrap().msg {
            Message::DumpAnswer { qid, relation } => {
                assert_eq!(qid, 7);
                assert_eq!(relation, src.relation().bag().clone());
            }
            other => panic!("expected DumpAnswer, got {other:?}"),
        }
    }

    #[test]
    fn unexpected_message_is_an_error() {
        let mut net: Network<Message> = Network::new(0);
        let mut src = source1();
        let res = src.handle(
            WAREHOUSE_NODE,
            Message::DumpAnswer {
                qid: 0,
                relation: Bag::new(),
            },
            &mut net,
        );
        assert!(matches!(res, Err(SourceError::UnexpectedMessage { .. })));
    }
}

#[cfg(test)]
mod indexed_tests {
    use super::*;
    use dw_protocol::SweepQuery;
    use dw_relational::{
        eval_view, tup, Bag, CmpOp, PartialDelta, Predicate, Schema, Tuple, Value, ViewDefBuilder,
    };
    use dw_simnet::{Network, ENV};

    fn view3() -> ViewDef {
        ViewDefBuilder::new()
            .relation(Schema::new("R1", ["A", "B"]).unwrap())
            .relation(Schema::new("R2", ["C", "D"]).unwrap())
            .relation(Schema::new("R3", ["E", "F"]).unwrap())
            .join("R1.B", "R2.C")
            .join("R2.D", "R3.E")
            .build()
            .unwrap()
    }

    fn mid_source(indexed: bool) -> DataSource {
        let rel = BaseRelation::from_tuples(
            Schema::new("R2", ["C", "D"]).unwrap(),
            [tup![3, 5], tup![3, 7], tup![4, 5]],
        )
        .unwrap();
        if indexed {
            DataSource::with_indexes(1, view3(), rel)
        } else {
            DataSource::new(1, view3(), rel)
        }
    }

    fn answer_of(src: &mut DataSource, q: SweepQuery) -> PartialDelta {
        let mut net: Network<Message> = Network::new(0);
        src.handle(WAREHOUSE_NODE, Message::SweepQuery(q), &mut net)
            .unwrap();
        match net.next().unwrap().msg {
            Message::SweepAnswer(a) => a.partial,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn indexed_answers_match_plain_both_sides() {
        let mut plain = mid_source(false);
        let mut fast = mid_source(true);
        assert!(fast.is_indexed());
        // Rightward into R2 (R2 is right neighbor of R1).
        let q_right = SweepQuery {
            qid: 1,
            partial: PartialDelta {
                lo: 0,
                hi: 0,
                bag: Bag::from_tuples([tup![1, 3], tup![9, 4]]),
            },
            side: JoinSide::Right,
            epoch: 0,
            pred: None,
        };
        assert_eq!(
            answer_of(&mut plain, q_right.clone()),
            answer_of(&mut fast, q_right)
        );
        // Leftward into R2 (R2 is left neighbor of R3).
        let q_left = SweepQuery {
            qid: 2,
            partial: PartialDelta {
                lo: 2,
                hi: 2,
                bag: Bag::from_tuples([tup![5, 6]]),
            },
            side: JoinSide::Left,
            epoch: 0,
            pred: None,
        };
        assert_eq!(
            answer_of(&mut plain, q_left.clone()),
            answer_of(&mut fast, q_left)
        );
    }

    #[test]
    fn indexes_track_transactions() {
        let mut plain = mid_source(false);
        let mut fast = mid_source(true);
        let delta = Bag::from_pairs([(tup![3, 5], -1), (tup![8, 5], 1)]);
        for src in [&mut plain, &mut fast] {
            let mut net: Network<Message> = Network::new(0);
            src.handle(
                ENV,
                Message::ApplyTxn {
                    rel: 1,
                    delta: delta.clone(),
                    global: None,
                },
                &mut net,
            )
            .unwrap();
        }
        let q = SweepQuery {
            qid: 3,
            partial: PartialDelta {
                lo: 0,
                hi: 0,
                bag: Bag::from_tuples([tup![1, 3], tup![2, 8]]),
            },
            side: JoinSide::Right,
            epoch: 0,
            pred: None,
        };
        assert_eq!(answer_of(&mut plain, q.clone()), answer_of(&mut fast, q));
    }

    /// Feed both sources the same message stream; every message either
    /// yields nothing at both or the same reply at both.
    fn assert_same_replies(plain: &mut DataSource, fast: &mut DataSource, stream: &[Message]) {
        for msg in stream {
            let replies = [&mut *plain, &mut *fast].map(|src| {
                let mut net: Network<Message> = Network::new(0);
                src.handle(WAREHOUSE_NODE, msg.clone(), &mut net).unwrap();
                net.next().map(|d| d.msg)
            });
            assert_eq!(replies[0], replies[1], "replies to {msg:?} differ");
        }
    }

    fn query(qid: u64, lo: usize, side: JoinSide, rows: Bag, pred: Option<Predicate>) -> Message {
        let partial = PartialDelta {
            lo,
            hi: lo,
            bag: rows,
        };
        Message::SweepQuery(SweepQuery {
            qid,
            partial,
            side,
            epoch: 0,
            pred,
        })
    }

    #[test]
    fn indexed_source_honours_the_local_selection() {
        let v = ViewDefBuilder::new()
            .relation(Schema::new("R1", ["A", "B"]).unwrap())
            .relation(Schema::new("R2", ["C", "D"]).unwrap())
            .relation(Schema::new("R3", ["E", "F"]).unwrap())
            .join("R1.B", "R2.C")
            .join("R2.D", "R3.E")
            .select("R2.D", CmpOp::Gt, 5)
            .build()
            .unwrap();
        let rel = || {
            BaseRelation::from_tuples(
                Schema::new("R2", ["C", "D"]).unwrap(),
                [tup![3, 5], tup![3, 7], tup![4, 5], tup![4, 9]],
            )
            .unwrap()
        };
        let mut plain = DataSource::new(1, v.clone(), rel());
        let mut fast = DataSource::with_indexes(1, v, rel());
        assert!(fast.is_indexed());
        let probe = Bag::from_pairs([(tup![1, 3], 1), (tup![9, 4], -2)]);
        let stream = [
            query(1, 0, JoinSide::Right, probe.clone(), None),
            query(
                2,
                2,
                JoinSide::Left,
                Bag::from_tuples([tup![5, 6], tup![9, 1]]),
                None,
            ),
            Message::ApplyTxn {
                rel: 1,
                delta: Bag::from_pairs([(tup![3, 7], -1), (tup![3, 8], 1), (tup![3, 2], 1)]),
                global: None,
            },
            query(3, 0, JoinSide::Right, probe, None),
        ];
        assert_same_replies(&mut plain, &mut fast, &stream);
        // σ_{D > 5} really bit: (3,5) and (4,5) never travel.
        let mut net: Network<Message> = Network::new(0);
        let q = query(4, 0, JoinSide::Right, Bag::from_tuples([tup![1, 3]]), None);
        fast.handle(WAREHOUSE_NODE, q, &mut net).unwrap();
        let Message::SweepAnswer(a) = net.next().unwrap().msg else {
            panic!("expected an answer")
        };
        assert_eq!(a.partial.bag, Bag::from_tuples([tup![1, 3, 3, 8]]));
    }

    #[test]
    fn indexed_source_honours_a_pushed_predicate() {
        let sigma = |bound: i64| {
            Some(Predicate::Cmp {
                attr: 1,
                op: CmpOp::Ge,
                value: Value::Int(bound),
            })
        };
        let mut plain = mid_source(false);
        let mut fast = mid_source(true);
        let probe = Bag::from_tuples([tup![1, 3], tup![9, 4]]);
        let stream = [
            query(1, 0, JoinSide::Right, probe.clone(), sigma(7)),
            query(
                2,
                2,
                JoinSide::Left,
                Bag::from_tuples([tup![5, 6]]),
                sigma(6),
            ),
            Message::ApplyTxn {
                rel: 1,
                delta: Bag::from_pairs([(tup![3, 7], -1), (tup![4, 9], 1)]),
                global: None,
            },
            query(3, 0, JoinSide::Right, probe.clone(), sigma(7)),
            query(4, 0, JoinSide::Right, probe, sigma(0)),
        ];
        assert_same_replies(&mut plain, &mut fast, &stream);
    }

    /// SQL's `R1.B = R2.C` never holds for a NULL, however it is spelled:
    /// as the join condition it selects exactly what the same equality
    /// selects as a residual (three-valued logic) — through `eval_view`
    /// and through either source's answer, scanning or indexed.
    #[test]
    fn null_join_keys_match_nothing_in_either_spelling() {
        let schemas = || {
            ViewDefBuilder::new()
                .relation(Schema::new("R1", ["A", "B"]).unwrap())
                .relation(Schema::new("R2", ["C", "D"]).unwrap())
        };
        let joined = schemas().join("R1.B", "R2.C").build().unwrap();
        let residual = schemas()
            .select_across("R1.B", CmpOp::Eq, "R2.C")
            .build()
            .unwrap();
        let row = |a: Value, b: Value| Tuple::new(vec![a, b]);
        let r1 = [
            tup![1, 3],
            row(Value::Int(5), Value::Null),
            row(Value::Int(6), Value::Null),
        ];
        let r2 = [
            tup![3, 7],
            row(Value::Null, Value::Int(8)),
            row(Value::Null, Value::Int(9)),
        ];
        let truth = Bag::from_tuples([tup![1, 3, 3, 7]]);
        let (b1, b2) = (Bag::from_tuples(r1.clone()), Bag::from_tuples(r2.clone()));
        for view in [&joined, &residual] {
            assert_eq!(eval_view(view, &[&b1, &b2]).unwrap(), truth, "{view:?}");
            // R2's source answers R1's rows, R1's source answers R2's.
            for (at, rows, other, side) in [
                (1, &r2, &b1, JoinSide::Right),
                (0, &r1, &b2, JoinSide::Left),
            ] {
                let schema = view.schema(at).clone();
                let rel = || BaseRelation::from_tuples(schema.clone(), rows.clone()).unwrap();
                for mut src in [
                    DataSource::new(at, view.clone(), rel()),
                    DataSource::with_indexes(at, view.clone(), rel()),
                ] {
                    let q = SweepQuery {
                        qid: 1,
                        partial: PartialDelta {
                            lo: 1 - at,
                            hi: 1 - at,
                            bag: other.clone(),
                        },
                        side,
                        epoch: 0,
                        pred: None,
                    };
                    let answer = answer_of(&mut src, q).finalize(view).unwrap();
                    assert_eq!(answer, truth, "{view:?} at {at}");
                }
            }
        }
    }

    #[test]
    fn end_sources_have_one_index() {
        let rel = BaseRelation::new(Schema::new("R1", ["A", "B"]).unwrap());
        let src = DataSource::with_indexes(0, view3(), rel);
        // Leftmost: only serves leftward extension (as left neighbor).
        assert!(src.is_indexed());
    }
}
