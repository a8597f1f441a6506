//! Correctness checks run after every round. Ground truth is `eval_view`
//! over the initial relations plus every transaction, as in the
//! repository's `livenet_agreement` test: a simulator rerun would cost as
//! much as the run it referees.

use crate::cluster::InstallObs;
use dw_protocol::UpdateId;
use dw_relational::{eval_view, Bag, RelationalError, ViewDef};
use dw_workload::{ScheduledTxn, ViewSpec};
use std::collections::HashMap;

/// Final contents every view must hold: its span evaluated over the
/// relations after all transactions.
pub fn expected_views(
    base: &ViewDef,
    initial: &[Bag],
    txns: &[ScheduledTxn],
    views: &[ViewSpec],
) -> Result<Vec<Bag>, RelationalError> {
    let mut rels = initial.to_vec();
    for t in txns {
        rels[t.source].merge(&t.delta);
    }
    views
        .iter()
        .map(|spec| {
            let local = spec.compile(base)?;
            let refs: Vec<&Bag> = rels[spec.lo..=spec.hi].iter().collect();
            eval_view(&local, &refs)
        })
        .collect()
}

/// The ids the sources give the transactions: per source, sequence
/// numbers from 0 in injection order.
pub fn injected_ids(txns: &[ScheduledTxn], n_sources: usize) -> Vec<UpdateId> {
    let mut next = vec![0u64; n_sources];
    txns.iter()
        .map(|t| {
            let id = UpdateId {
                source: t.source,
                seq: next[t.source],
            };
            next[t.source] += 1;
            id
        })
        .collect()
}

/// How one view's install stream deviates from "every injected update
/// consumed exactly once".
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OnceCheck {
    /// Injected updates no install consumed.
    pub missing: u64,
    /// Consumptions beyond the first of an injected update.
    pub duplicated: u64,
    /// Consumed ids that were never injected.
    pub unknown: u64,
}

impl OnceCheck {
    /// Deviations in total (0 = exactly once).
    pub fn failures(&self) -> u64 {
        self.missing + self.duplicated + self.unknown
    }
}

/// Check `view`'s installs in the recorder's stream against `expected`.
pub fn exactly_once(installs: &[InstallObs], view: usize, expected: &[UpdateId]) -> OnceCheck {
    let mut seen: HashMap<UpdateId, u64> = expected.iter().map(|id| (*id, 0)).collect();
    let mut check = OnceCheck::default();
    for id in installs
        .iter()
        .filter(|i| i.view == view)
        .flat_map(|i| &i.consumed)
    {
        match seen.get_mut(id) {
            Some(n) => *n += 1,
            None => check.unknown += 1,
        }
    }
    for n in seen.values() {
        match n {
            0 => check.missing += 1,
            n => check.duplicated += n - 1,
        }
    }
    check
}

/// Does the subscription stream a reader polled for `view` equal the
/// recorder's install stream for it, install by install?
pub fn stream_matches(
    installs: &[InstallObs],
    view: usize,
    stream: &[(u64, Vec<UpdateId>)],
) -> bool {
    let ours = installs.iter().filter(|i| i.view == view);
    ours.clone().count() == stream.len()
        && ours
            .zip(stream)
            .all(|(i, (epoch, consumed))| i.epoch == *epoch && &i.consumed == consumed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn id(source: usize, seq: u64) -> UpdateId {
        UpdateId { source, seq }
    }

    fn install(view: usize, epoch: u64, consumed: Vec<UpdateId>) -> InstallObs {
        InstallObs {
            view,
            epoch,
            consumed,
            installed: Instant::now(),
            readable: Instant::now(),
        }
    }

    #[test]
    fn a_complete_stream_passes() {
        let expected = [id(0, 0), id(1, 0), id(0, 1)];
        let installs = [
            install(0, 1, vec![id(0, 0)]),
            install(1, 1, vec![id(0, 0)]),
            install(0, 2, vec![id(1, 0), id(0, 1)]),
        ];
        assert_eq!(exactly_once(&installs, 0, &expected).failures(), 0);
    }

    #[test]
    fn a_dropped_update_is_caught() {
        let expected = [id(0, 0), id(1, 0)];
        let installs = [install(0, 1, vec![id(0, 0)])];
        let check = exactly_once(&installs, 0, &expected);
        assert_eq!(
            check,
            OnceCheck {
                missing: 1,
                ..OnceCheck::default()
            }
        );
    }

    #[test]
    fn a_duplicated_update_is_caught() {
        let expected = [id(0, 0), id(1, 0)];
        let installs = [
            install(0, 1, vec![id(0, 0)]),
            install(0, 2, vec![id(1, 0)]),
            install(0, 3, vec![id(0, 0)]),
        ];
        let check = exactly_once(&installs, 0, &expected);
        assert_eq!(
            check,
            OnceCheck {
                duplicated: 1,
                ..OnceCheck::default()
            }
        );
    }

    #[test]
    fn an_id_nobody_injected_is_caught() {
        let installs = [install(0, 1, vec![id(2, 9)])];
        let check = exactly_once(&installs, 0, &[]);
        assert_eq!(check.unknown, 1);
    }

    #[test]
    fn other_views_installs_are_ignored() {
        let expected = [id(0, 0)];
        let installs = [install(1, 1, vec![id(0, 0)])];
        assert_eq!(exactly_once(&installs, 0, &expected).missing, 1);
    }

    #[test]
    fn subscription_stream_must_equal_the_install_stream() {
        let installs = [
            install(0, 1, vec![id(0, 0)]),
            install(1, 1, vec![id(0, 0)]),
            install(0, 2, vec![id(1, 0)]),
        ];
        let good = vec![(1, vec![id(0, 0)]), (2, vec![id(1, 0)])];
        assert!(stream_matches(&installs, 0, &good));
        assert!(!stream_matches(&installs, 0, &good[..1]));
        let reordered = vec![(1, vec![id(1, 0)]), (2, vec![id(0, 0)])];
        assert!(!stream_matches(&installs, 0, &reordered));
    }

    #[test]
    fn ids_number_each_sources_transactions_from_zero() {
        let txn = |source| ScheduledTxn {
            at: 0,
            source,
            delta: Bag::new(),
            global: None,
        };
        let ids = injected_ids(&[txn(1), txn(0), txn(1)], 2);
        assert_eq!(ids, vec![id(1, 0), id(0, 0), id(1, 1)]);
    }
}
