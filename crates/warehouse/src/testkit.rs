//! Shared fixtures of the policies' hand-driven unit tests: the paper's
//! views and the three messages a warehouse receives.

#![cfg(test)]

use dw_protocol::{Message, SourceUpdate, SweepAnswer, UpdateId, WAREHOUSE_NODE};
use dw_relational::{Bag, PartialDelta, Schema, ViewDef, ViewDefBuilder};
use dw_simnet::{Delivery, Time, ENV};

/// The paper's running example: `Π[D,F](R1 ⋈ R2 ⋈ R3)`.
pub(crate) fn paper_view() -> ViewDef {
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

/// `R1(A,B) ⋈ R2(C,D)` with the identity projection.
pub(crate) fn two_chain() -> ViewDef {
    ViewDefBuilder::new()
        .relation(Schema::new("R1", ["A", "B"]).unwrap())
        .relation(Schema::new("R2", ["C", "D"]).unwrap())
        .join("R1.B", "R2.C")
        .build()
        .unwrap()
}

/// `msg` as delivered to the warehouse at time `at`.
pub(crate) fn deliver(at: Time, msg: Message) -> Delivery<Message> {
    Delivery {
        at,
        from: ENV,
        to: WAREHOUSE_NODE,
        msg,
    }
}

/// An untagged update `seq` of source `source`.
pub(crate) fn update(source: usize, seq: u64, delta: Bag) -> Message {
    Message::Update(SourceUpdate {
        id: UpdateId { source, seq },
        delta,
        global: None,
    })
}

/// A source's answer to query `qid`: `bag` over `[lo, hi]`.
pub(crate) fn answer(qid: u64, lo: usize, hi: usize, bag: Bag) -> Message {
    Message::SweepAnswer(SweepAnswer {
        qid,
        partial: PartialDelta { lo, hi, bag },
    })
}
