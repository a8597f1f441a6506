//! Generated scenarios: a view, initial contents, and a transaction stream.

use crate::multiview::{MultiViewScenario, ViewSpec};
use dw_protocol::{GlobalPart, SourceIndex};
use dw_relational::{Bag, KeySpec, RelationalError, ViewDef};
use dw_simnet::Time;

/// One source-local transaction scheduled for injection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScheduledTxn {
    /// Injection time at the source.
    pub at: Time,
    /// Target source (chain position).
    pub source: SourceIndex,
    /// Signed delta (single update or batched source-local transaction).
    pub delta: Bag,
    /// Global-transaction membership (update type 3), if any.
    pub global: Option<GlobalPart>,
}

/// Everything an experiment needs to run: the chain view, optional keys
/// (for the Strobe family), initial per-relation contents, and the ordered
/// transaction stream.
#[derive(Clone, Debug)]
pub struct GeneratedScenario {
    /// The SPJ chain view.
    pub view: ViewDef,
    /// Key spec (always generated; only the Strobe family needs it, and it
    /// is only *valid* for the view when the scenario was keyed).
    pub keys: KeySpec,
    /// Initial contents of each chain relation.
    pub initial: Vec<Bag>,
    /// Transactions in injection-time order.
    pub txns: Vec<ScheduledTxn>,
}

impl GeneratedScenario {
    /// Total transactions.
    pub fn txn_count(&self) -> usize {
        self.txns.len()
    }

    /// Time of the last injection (0 when empty).
    pub fn horizon(&self) -> Time {
        self.txns.last().map_or(0, |t| t.at)
    }

    /// This scenario as a one-view [`MultiViewScenario`]: the view's bare
    /// chain ([`ViewDef::chain`]) is the base, and the view itself, σ and
    /// Π included, is its one spec ([`ViewSpec::of`], named `"view"`).
    pub fn into_multi_view(self) -> Result<MultiViewScenario, RelationalError> {
        Ok(MultiViewScenario {
            base: self.view.chain(),
            views: vec![ViewSpec::of("view", &self.view)?],
            keys: self.keys,
            initial: self.initial,
            txns: self.txns,
            derived: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dw_relational::{tup, Schema, ViewDefBuilder};

    #[test]
    fn horizon_and_count() {
        let view = ViewDefBuilder::new()
            .relation(Schema::new("R1", ["K", "A", "B"]).unwrap())
            .build()
            .unwrap();
        let keys = KeySpec::new(vec![vec![0]]);
        let s = GeneratedScenario {
            view,
            keys,
            initial: vec![Bag::new()],
            txns: vec![
                ScheduledTxn {
                    at: 5,
                    source: 0,
                    delta: Bag::from_tuples([tup![0, 1, 2]]),
                    global: None,
                },
                ScheduledTxn {
                    at: 9,
                    source: 0,
                    delta: Bag::from_tuples([tup![1, 1, 2]]),
                    global: None,
                },
            ],
        };
        assert_eq!(s.txn_count(), 2);
        assert_eq!(s.horizon(), 9);
    }
}
