//! # dw-protocol
//!
//! The wire protocol of the warehouse architecture (paper Figure 1): what
//! flows between the `n` data-source sites and the warehouse site.
//!
//! Three conversations exist:
//!
//! * **Update stream** (source → warehouse): every atomic source
//!   transaction is forwarded as one [`SourceUpdate`] — a signed delta bag
//!   over that source's base relation. FIFO delivery of this stream relative
//!   to query answers is what makes SWEEP's *local* compensation sound.
//! * **Sweep queries** (warehouse → source → warehouse): the
//!   `ComputeJoin(ΔV, R)` request/reply of Figure 3. The query carries the
//!   partially evaluated view change and which side to extend; the answer
//!   carries the widened partial. The Strobe family reuses the same shape.
//! * **ECA queries** (warehouse → the single source site): full SPJ
//!   expressions with delta substitutions and signs, evaluated atomically at
//!   the one source site ECA assumes. Their [`Payload::size_bytes`] grows
//!   with the number of compensation terms — the paper's "quadratic message
//!   size" claim is measured directly off this.

#![warn(missing_docs)]

pub mod transport;

use dw_relational::{Bag, PartialDelta, Predicate};
use dw_simnet::{NodeId, Payload};

pub use transport::{Endpoint, TransportConfig, TransportConfigError, TransportNet};

/// Chain position of a data source, `0..n` (the paper's subscript `i`).
pub type SourceIndex = usize;

/// The warehouse is always node 0 in the simulation topology.
pub const WAREHOUSE_NODE: NodeId = 0;

/// Node id of source `i` (sources occupy nodes `1..=n`).
pub fn source_node(i: SourceIndex) -> NodeId {
    i + 1
}

/// Inverse of [`source_node`].
pub fn node_source(node: NodeId) -> SourceIndex {
    debug_assert!(node >= 1);
    node - 1
}

/// Globally unique identifier of an atomic source transaction: the source's
/// chain position plus a per-source sequence number (sources number their
/// own transactions; FIFO channels keep them ordered).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct UpdateId {
    /// Originating source.
    pub source: SourceIndex,
    /// Per-source sequence number, starting at 0.
    pub seq: u64,
}

/// Membership tag for a *global transaction* (update type 3 of §2): a
/// transaction whose parts execute at several sources. Each part's update
/// message carries the transaction id and the total part count, so the
/// warehouse can incorporate the whole transaction atomically — the
/// \[ZGMW96]-style extension the paper points to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct GlobalPart {
    /// Global transaction id (unique across sources).
    pub gid: u64,
    /// Total number of parts in the transaction.
    pub parts: u32,
}

/// An atomic update forwarded from a source to the warehouse: a *single
/// update transaction* (one tuple), a *source local transaction* (several
/// tuples, one source) — update types 1 and 2 of §2 — or one part of a
/// *global transaction* (type 3) when `global` is set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SourceUpdate {
    /// Unique id.
    pub id: UpdateId,
    /// Signed delta over the source's base relation (`+` insert, `−`
    /// delete; a *modify* is a delete plus an insert in one transaction).
    pub delta: Bag,
    /// Global-transaction membership, if any.
    pub global: Option<GlobalPart>,
}

pub use dw_relational::JoinSide;

/// A `ComputeJoin` request: "join your base relation onto this partial view
/// change and send it back".
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SweepQuery {
    /// Correlates the answer with the in-flight sweep step.
    pub qid: u64,
    /// The partially evaluated `ΔV` (range + bag).
    pub partial: PartialDelta,
    /// Side on which the receiving source's relation joins.
    pub side: JoinSide,
    /// Optional σ pushed down to the receiving source: apply this
    /// predicate to the local base relation *before* joining, so only
    /// qualifying tuples travel back. `None` means join against the
    /// full relation (the pre-pushdown wire behavior). The predicate
    /// references attributes by position within the receiving relation.
    pub pred: Option<Predicate>,
    /// Sweep epoch of the issuing warehouse. `0` until the warehouse
    /// recovers from a state-crash for the first time; each recovery
    /// bumps it. Sources remember the highest epoch they have served and
    /// drop queries from older epochs, so a re-seeded sweep never races
    /// the stale in-flight queries of its aborted predecessor. Counted
    /// inside the query's fixed header ([`Payload::size_bytes`]), so the
    /// wire accounting is unchanged from the pre-recovery protocol.
    pub epoch: u64,
}

/// Answer to a [`SweepQuery`]: the widened partial delta.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SweepAnswer {
    /// Echoed query id.
    pub qid: u64,
    /// The widened `ΔV`.
    pub partial: PartialDelta,
}

/// One slot of an ECA term: either the current base relation or an
/// explicit delta carried in the query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EcaSlot {
    /// Use the site's current contents of this chain relation.
    Base,
    /// Substitute this delta.
    Delta(Bag),
}

/// One signed product term `± (S_1 ⋈ … ⋈ S_n)` of an ECA query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EcaTerm {
    /// `+1` or `−1`.
    pub sign: i8,
    /// One slot per chain relation.
    pub slots: Vec<EcaSlot>,
}

/// An ECA query: a sum of signed substitution terms, evaluated atomically
/// at the single source site and returned as a projected view delta.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EcaQuery {
    /// Correlates the answer.
    pub qid: u64,
    /// The signed terms.
    pub terms: Vec<EcaTerm>,
}

/// Answer to an [`EcaQuery`]: the projected view delta `Σ sign·Π σ(term)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EcaAnswer {
    /// Echoed query id.
    pub qid: u64,
    /// Projected view delta.
    pub result: Bag,
}

/// Everything that can travel in the simulation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Message {
    /// ENV → source: execute this transaction atomically (workload driver).
    /// `rel` selects the chain relation — always the source's own for
    /// distributed topologies, any relation for the single-site ECA model.
    ApplyTxn {
        /// Target chain relation.
        rel: SourceIndex,
        /// Signed transaction delta.
        delta: Bag,
        /// Global-transaction membership, if any.
        global: Option<GlobalPart>,
    },
    /// Source → warehouse: an atomic update happened.
    Update(SourceUpdate),
    /// Warehouse → source: sweep/Strobe incremental query.
    SweepQuery(SweepQuery),
    /// Source → warehouse: incremental answer.
    SweepAnswer(SweepAnswer),
    /// Warehouse → source site: ECA substitution query.
    EcaQuery(EcaQuery),
    /// Source site → warehouse: ECA answer.
    EcaAnswer(EcaAnswer),
    /// Warehouse → source: send your full current relation (used by the
    /// full-recompute baseline).
    DumpQuery {
        /// Correlates the answer.
        qid: u64,
    },
    /// Source → warehouse: full relation contents.
    DumpAnswer {
        /// Echoed query id.
        qid: u64,
        /// Current relation contents (all counts positive).
        relation: Bag,
    },
    /// Transport: a sequenced envelope around an application message.
    /// Frames are what actually crosses an unreliable link; the receiver
    /// unwraps them exactly-once and in-order (see [`transport`]).
    Frame {
        /// Per-directed-link monotone sequence number.
        seq: u64,
        /// True on retransmission — counted as physical, not logical
        /// traffic.
        retransmit: bool,
        /// The application message being carried.
        inner: Box<Message>,
    },
    /// Transport: cumulative acknowledgement — "I have received every
    /// frame with `seq < cum` from you".
    Ack {
        /// The receiver's next expected sequence number.
        cum: u64,
    },
    /// Transport: crash-recovery handshake. The sender (typically a
    /// restarted source) tells the peer its receive cursor so both sides
    /// can prune acknowledged frames and retransmit the rest.
    Resync {
        /// The sender's next expected sequence number for the peer's
        /// stream.
        recv_cum: u64,
    },
    /// Transport: reply to [`Message::Resync`], carrying the responder's
    /// own receive cursor.
    ResyncAck {
        /// The responder's next expected sequence number for the
        /// requester's stream.
        recv_cum: u64,
    },
    /// Transport: self-addressed retransmission timer (never crosses a
    /// link).
    RetxTick {
        /// The peer whose outbox this timer guards.
        peer: NodeId,
    },
    /// Transport: self-addressed resync retry timer (never crosses a
    /// link).
    ResyncTick {
        /// The peer whose resync handshake this timer guards.
        peer: NodeId,
    },
    /// ENV → node: the node restarts after a crash window. The transport
    /// re-arms its timers and initiates resync with every peer.
    Restart,
}

impl Payload for Message {
    fn size_bytes(&self) -> usize {
        const HDR: usize = 16;
        HDR + match self {
            Message::ApplyTxn { delta, .. } => delta.size_bytes(),
            Message::Update(u) => u.delta.size_bytes(),
            // The fixed 16-byte query header covers qid/side/epoch.
            Message::SweepQuery(q) => {
                q.partial.bag.size_bytes() + 16 + q.pred.as_ref().map_or(0, Predicate::size_bytes)
            }
            Message::SweepAnswer(a) => a.partial.bag.size_bytes() + 16,
            Message::EcaQuery(q) => q
                .terms
                .iter()
                .map(|t| {
                    1 + t
                        .slots
                        .iter()
                        .map(|s| match s {
                            EcaSlot::Base => 1,
                            EcaSlot::Delta(b) => b.size_bytes(),
                        })
                        .sum::<usize>()
                })
                .sum::<usize>(),
            Message::EcaAnswer(a) => a.result.size_bytes(),
            Message::DumpQuery { .. } => 8,
            Message::DumpAnswer { relation, .. } => relation.size_bytes(),
            // seq + flag on top of the carried message (its own header
            // included — a frame is a real second header on the wire).
            Message::Frame { inner, .. } => 12 + inner.size_bytes(),
            Message::Ack { .. } => 8,
            Message::Resync { .. } => 8,
            Message::ResyncAck { .. } => 8,
            // Timer ticks and restarts never cross a link.
            Message::RetxTick { .. } | Message::ResyncTick { .. } | Message::Restart => 0,
        }
    }

    fn label(&self) -> &'static str {
        match self {
            Message::ApplyTxn { .. } => "txn",
            Message::Update(_) => "update",
            Message::SweepQuery(_) => "query",
            Message::SweepAnswer(_) => "answer",
            Message::EcaQuery(_) => "eca_query",
            Message::EcaAnswer(_) => "eca_answer",
            Message::DumpQuery { .. } => "dump_query",
            Message::DumpAnswer { .. } => "dump_answer",
            // Frames keep the carried message's bucket so per-label
            // statistics stay meaningful with the transport on.
            Message::Frame { inner, .. } => inner.label(),
            Message::Ack { .. } => "ack",
            Message::Resync { .. } => "resync",
            Message::ResyncAck { .. } => "resync_ack",
            Message::RetxTick { .. } | Message::ResyncTick { .. } => "tick",
            Message::Restart => "restart",
        }
    }

    fn is_retransmit(&self) -> bool {
        matches!(
            self,
            Message::Frame {
                retransmit: true,
                ..
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dw_relational::tup;

    #[test]
    fn node_mapping_roundtrips() {
        for i in 0..10 {
            assert_eq!(node_source(source_node(i)), i);
            assert_ne!(source_node(i), WAREHOUSE_NODE);
        }
    }

    #[test]
    fn update_ids_order_by_source_then_seq() {
        let a = UpdateId { source: 0, seq: 5 };
        let b = UpdateId { source: 1, seq: 0 };
        assert!(a < b);
    }

    #[test]
    fn labels_distinguish_kinds() {
        let m = Message::ApplyTxn {
            rel: 0,
            delta: Bag::new(),
            global: None,
        };
        assert_eq!(m.label(), "txn");
        let u = Message::Update(SourceUpdate {
            id: UpdateId { source: 0, seq: 0 },
            delta: Bag::new(),
            global: None,
        });
        assert_eq!(u.label(), "update");
    }

    #[test]
    fn eca_query_size_grows_with_terms() {
        let delta = Bag::from_tuples([tup![1, 2], tup![3, 4]]);
        let term = |k: usize| EcaTerm {
            sign: 1,
            slots: (0..3)
                .map(|i| {
                    if i < k {
                        EcaSlot::Delta(delta.clone())
                    } else {
                        EcaSlot::Base
                    }
                })
                .collect(),
        };
        let small = Message::EcaQuery(EcaQuery {
            qid: 0,
            terms: vec![term(1)],
        });
        let big = Message::EcaQuery(EcaQuery {
            qid: 0,
            terms: vec![term(1), term(2), term(2), term(2)],
        });
        assert!(big.size_bytes() > small.size_bytes());
    }

    #[test]
    fn sweep_query_size_tracks_partial() {
        let empty = Message::SweepQuery(SweepQuery {
            qid: 0,
            partial: PartialDelta {
                lo: 0,
                hi: 0,
                bag: Bag::new(),
            },
            side: JoinSide::Right,
            pred: None,
            epoch: 0,
        });
        let full = Message::SweepQuery(SweepQuery {
            qid: 0,
            partial: PartialDelta {
                lo: 0,
                hi: 0,
                bag: Bag::from_tuples((0..100).map(|i| tup![i, i])),
            },
            side: JoinSide::Right,
            pred: None,
            epoch: 0,
        });
        assert!(full.size_bytes() > empty.size_bytes() + 1000);
    }
}
