//! Shared fixtures of the policies' hand-driven unit tests: a two-chain
//! view and the messages a warehouse receives.

#![cfg(test)]

use crate::{InstallLog, MaintenancePolicy};
use dw_protocol::{Message, SourceUpdate, UpdateId, WAREHOUSE_NODE};
use dw_relational::{Bag, Schema, ViewDef, ViewDefBuilder};
use dw_simnet::{Delivery, Time, ENV};
use std::sync::{Arc, Mutex};

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

/// Attach a fresh install log to `wh`: where a test reads its installs.
pub(crate) fn logged(wh: &mut dyn MaintenancePolicy) -> Arc<Mutex<InstallLog>> {
    let log = Arc::new(Mutex::new(InstallLog::new(None)));
    wh.set_install_publisher(log.clone());
    log
}
