//! Install-log classification against the ground truth.

use crate::truth::{Recorder, SlotView};
use dw_engine::{view_states, InstallEvent};
use dw_protocol::{SourceIndex, UpdateId};
use dw_relational::SharedBag;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// The paper's consistency hierarchy (§2), plus the failure class.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ConsistencyLevel {
    /// Final view is wrong — the algorithm corrupted the warehouse.
    Inconsistent,
    /// Only the final state is right.
    Convergent,
    /// Every install is a meaningful state but ordering is violated.
    Weak,
    /// Installs walk monotonically through meaningful states.
    Strong,
    /// Installs walk through *every* delivered state, in delivery order.
    Complete,
}

impl fmt::Display for ConsistencyLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ConsistencyLevel::Inconsistent => "INCONSISTENT",
            ConsistencyLevel::Convergent => "convergent",
            ConsistencyLevel::Weak => "weak",
            ConsistencyLevel::Strong => "strong",
            ConsistencyLevel::Complete => "complete",
        };
        f.write_str(s)
    }
}

/// Classification result with supporting detail.
#[derive(Clone, Debug)]
pub struct ConsistencyReport {
    /// The strongest level the run satisfies.
    pub level: ConsistencyLevel,
    /// Number of installs examined.
    pub installs_checked: usize,
    /// Human-readable notes (first violation found for each stronger
    /// level, etc.).
    pub detail: String,
}

/// Classify a policy's install log for `view` against the ground truth.
///
/// Only deliveries from `view`'s span count, and a consumed id no such
/// delivery carries changes no state. `final_view` is the policy's view
/// at the end of the (quiescent) run. The state after each install is
/// the view's initial contents — the truth with nothing consumed, as
/// every harness registers it — plus the log's deltas so far.
pub fn classify(
    recorder: &Recorder,
    view: &SlotView,
    installs: &[InstallEvent],
    final_view: &SharedBag,
) -> ConsistencyReport {
    let truth = |consumed: &dyn Fn(UpdateId) -> bool| recorder.state(view, consumed);
    let (initial, truth_final) = match (truth(&|_| false), truth(&|_| true)) {
        (Ok(initial), Ok(last)) => (initial, last),
        (Err(e), _) | (_, Err(e)) => {
            return ConsistencyReport {
                level: ConsistencyLevel::Inconsistent,
                installs_checked: 0,
                detail: format!("ground truth evaluation failed: {e}"),
            }
        }
    };
    if final_view != &truth_final {
        return ConsistencyReport {
            level: ConsistencyLevel::Inconsistent,
            installs_checked: installs.len(),
            detail: format!(
                "final view diverged: {} tuples vs {} expected",
                final_view.distinct_len(),
                truth_final.distinct_len()
            ),
        };
    }

    // --- Per-install state validity (needed for weak and above). -------
    let in_span: Vec<UpdateId> = recorder
        .deliveries()
        .iter()
        .map(|d| d.id)
        .filter(|id| view.spans(id.source))
        .collect();
    let mut deliveries_of: HashMap<UpdateId, u64> = HashMap::new();
    for id in &in_span {
        *deliveries_of.entry(*id).or_default() += 1;
    }
    let mut consumed_so_far: HashSet<UpdateId> = HashSet::new();
    // Per source: deliveries of its consumed ids, how many distinct ids,
    // one past the highest seq. A meaningful snapshot of an autonomous
    // source consumed exactly its first `k` updates, each delivered once:
    // all three are `k`.
    let mut prefixes: HashMap<SourceIndex, (u64, u64, u64)> = HashMap::new();
    let mut all_states_meaningful = true;
    let mut monotone_prefix_discipline = true;
    let mut first_violation = String::new();
    let states = view_states(initial.into(), installs);
    for (k, (rec, state)) in installs.iter().zip(states).enumerate() {
        let mut touched: Vec<SourceIndex> = Vec::new();
        for id in &rec.consumed {
            if !consumed_so_far.insert(*id) {
                monotone_prefix_discipline = false;
                if first_violation.is_empty() {
                    first_violation = format!("install {k} re-consumed {id:?}");
                }
            } else if let Some(&deliveries) = deliveries_of.get(id) {
                let (seen, distinct, end) = prefixes.entry(id.source).or_default();
                (*seen, *distinct) = (*seen + deliveries, *distinct + 1);
                *end = (*end).max(id.seq + 1);
                touched.push(id.source);
            }
        }
        let expect = match recorder.state(view, &|id| consumed_so_far.contains(&id)) {
            Ok(b) => b,
            Err(e) => {
                return ConsistencyReport {
                    level: ConsistencyLevel::Inconsistent,
                    installs_checked: installs.len(),
                    detail: format!("replay failed at install {k}: {e}"),
                }
            }
        };
        if state != expect {
            all_states_meaningful = false;
            if first_violation.is_empty() {
                first_violation = format!("install {k} does not match its consumed set's state");
            }
        }
        let prefix = |s: &SourceIndex| matches!(prefixes[s], (a, b, c) if a == b && b == c);
        if !touched.iter().all(prefix) {
            monotone_prefix_discipline = false;
            if first_violation.is_empty() {
                first_violation =
                    format!("install {k}'s cumulative consumed set skips a source-local update");
            }
        }
    }
    // Every delivered update must end up consumed for the final state to
    // have matched; tolerate policies (Recompute) that do not track this —
    // they already fell out at the meaningful-state stage.

    if !all_states_meaningful {
        return ConsistencyReport {
            level: ConsistencyLevel::Convergent,
            installs_checked: installs.len(),
            detail: format!("intermediate states are not source states ({first_violation})"),
        };
    }
    if !monotone_prefix_discipline {
        return ConsistencyReport {
            level: ConsistencyLevel::Weak,
            installs_checked: installs.len(),
            detail: first_violation,
        };
    }

    // --- Complete: one install per delivery, in delivery order. --------
    let consumed_concat: Vec<UpdateId> = installs
        .iter()
        .flat_map(|r| r.consumed.iter().copied())
        .collect();
    let one_each = installs.iter().all(|r| r.consumed.len() == 1);
    if one_each && consumed_concat == in_span {
        return ConsistencyReport {
            level: ConsistencyLevel::Complete,
            installs_checked: installs.len(),
            detail: format!(
                "{} installs, one per delivered update, all states verified",
                installs.len()
            ),
        };
    }

    ConsistencyReport {
        level: ConsistencyLevel::Strong,
        installs_checked: installs.len(),
        detail: if one_each {
            "installs reorder deliveries across sources (still meaningful states)".into()
        } else {
            "installs batch multiple updates (states verified, order preserved)".into()
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dw_relational::{tup, Bag, Schema, ViewDefBuilder};

    /// A single-relation identity view: ground truth is trivially the bag
    /// of all applied deltas — perfect for exercising the classifier.
    fn identity(name: &str) -> dw_relational::ViewDef {
        ViewDefBuilder::new()
            .relation(Schema::new(name, ["A"]).unwrap())
            .build()
            .unwrap()
    }

    /// Deliveries `(source, seq, delta)` over `chain` empty relations,
    /// one time unit apart.
    fn recorder_of(chain: usize, deliveries: &[(usize, u64, Bag)]) -> Recorder {
        let mut r = Recorder::new(vec![Bag::new(); chain]);
        for (i, (source, seq, delta)) in deliveries.iter().enumerate() {
            let id = UpdateId {
                source: *source,
                seq: *seq,
            };
            r.record_delivery(id, i as u64, delta.clone());
        }
        r
    }

    fn recorder_with(deliveries: &[(usize, u64, Bag)]) -> (Recorder, SlotView) {
        let view = SlotView::base(identity("R1"), 0);
        (recorder_of(1, deliveries), view)
    }

    /// The install log whose states, from the empty initial view, are
    /// `steps`' bags, each install consuming its ids.
    fn log(steps: &[(Vec<UpdateId>, Bag)]) -> Vec<InstallEvent> {
        let mut prev = Bag::new();
        let events = steps.iter().zip(1..).map(|((consumed, state), epoch)| {
            let delta = state.minus(&prev);
            prev = state.clone();
            InstallEvent {
                view_index: 0,
                epoch,
                at: 0,
                consumed: consumed.clone(),
                delta: std::sync::Arc::new(delta),
            }
        });
        events.collect()
    }

    fn id(seq: u64) -> UpdateId {
        UpdateId { source: 0, seq }
    }

    #[test]
    fn complete_run_detected() {
        let a = Bag::from_tuples([tup![1]]);
        let b = Bag::from_tuples([tup![2]]);
        let (r, v) = recorder_with(&[(0, 0, a.clone()), (0, 1, b.clone())]);
        let installs = log(&[(vec![id(0)], a.clone()), (vec![id(1)], a.plus(&b))]);
        let rep = classify(&r, &v, &installs, &a.plus(&b).into());
        assert_eq!(rep.level, ConsistencyLevel::Complete);
        assert_eq!(rep.installs_checked, 2);
    }

    #[test]
    fn batched_installs_are_strong() {
        let a = Bag::from_tuples([tup![1]]);
        let b = Bag::from_tuples([tup![2]]);
        let (r, v) = recorder_with(&[(0, 0, a.clone()), (0, 1, b.clone())]);
        let installs = log(&[(vec![id(0), id(1)], a.plus(&b))]);
        let rep = classify(&r, &v, &installs, &a.plus(&b).into());
        assert_eq!(rep.level, ConsistencyLevel::Strong);
    }

    #[test]
    fn skipping_a_source_local_update_is_weak() {
        // Two updates from the SAME source; an install consuming only the
        // second is not a meaningful autonomous-source state... unless the
        // state accidentally matches. Use distinct tuples so it does match
        // the eval of {seq 1} alone — prefix check must still flag it.
        let a = Bag::from_tuples([tup![1]]);
        let b = Bag::from_tuples([tup![2]]);
        let (r, v) = recorder_with(&[(0, 0, a.clone()), (0, 1, b.clone())]);
        let installs = log(&[(vec![id(1)], b.clone()), (vec![id(0)], a.plus(&b))]);
        let rep = classify(&r, &v, &installs, &a.plus(&b).into());
        assert_eq!(rep.level, ConsistencyLevel::Weak);
        assert_eq!(
            rep.detail,
            "install 0's cumulative consumed set skips a source-local update"
        );
    }

    #[test]
    fn a_prefix_within_one_install_may_come_in_any_order() {
        // One install consuming seqs 1 then 0 lands on the prefix {0, 1}.
        let a = Bag::from_tuples([tup![1]]);
        let b = Bag::from_tuples([tup![2]]);
        let (r, v) = recorder_with(&[(0, 0, a.clone()), (0, 1, b.clone())]);
        let installs = log(&[(vec![id(1), id(0)], a.plus(&b))]);
        let rep = classify(&r, &v, &installs, &a.plus(&b).into());
        assert_eq!(rep.level, ConsistencyLevel::Strong);
    }

    #[test]
    fn an_update_delivered_twice_is_no_prefix() {
        // The log holds seq 0 twice: its state is a double application,
        // and no autonomous source ever emitted that history.
        let a = Bag::from_tuples([tup![1]]);
        let (r, v) = recorder_with(&[(0, 0, a.clone()), (0, 0, a.clone())]);
        let twice = a.plus(&a);
        let rep = classify(&r, &v, &log(&[(vec![id(0)], twice.clone())]), &twice.into());
        assert_eq!(rep.level, ConsistencyLevel::Weak);
    }

    #[test]
    fn a_span_view_counts_only_its_own_sources() {
        // Base chain R0, R1; the view is R1 alone. Installs name global
        // ids, and R0's interleaved deliveries are none of its business.
        let b = Bag::from_tuples([tup![2]]);
        let d = Bag::from_tuples([tup![4]]);
        let other = Bag::from_tuples([tup![9]]);
        let r = recorder_of(
            2,
            &[
                (0, 0, other.clone()),
                (1, 0, b.clone()),
                (0, 1, other),
                (1, 1, d.clone()),
            ],
        );
        let v = SlotView::base(identity("R1"), 1);
        let on_r1 = |seq| UpdateId { source: 1, seq };
        let installs = log(&[(vec![on_r1(0)], b.clone()), (vec![on_r1(1)], b.plus(&d))]);
        let rep = classify(&r, &v, &installs, &b.plus(&d).into());
        assert_eq!(rep.level, ConsistencyLevel::Complete, "{}", rep.detail);
        assert_eq!(
            rep.detail,
            "2 installs, one per delivered update, all states verified"
        );
        // Skipping R1's first update is still caught in global coordinates.
        let skipped = log(&[(vec![on_r1(1)], d.clone()), (vec![on_r1(0)], b.plus(&d))]);
        let rep = classify(&r, &v, &skipped, &b.plus(&d).into());
        assert_eq!(rep.level, ConsistencyLevel::Weak);
    }

    #[test]
    fn wrong_intermediate_state_is_convergent() {
        let a = Bag::from_tuples([tup![1]]);
        let b = Bag::from_tuples([tup![2]]);
        let (r, v) = recorder_with(&[(0, 0, a.clone()), (0, 1, b.clone())]);
        // First install claims a state that is not eval(consumed).
        let installs = log(&[
            (vec![id(0)], b.clone()), // wrong snapshot
            (vec![id(1)], a.plus(&b)),
        ]);
        let rep = classify(&r, &v, &installs, &a.plus(&b).into());
        assert_eq!(rep.level, ConsistencyLevel::Convergent);
    }

    #[test]
    fn wrong_final_state_is_inconsistent() {
        let a = Bag::from_tuples([tup![1]]);
        let (r, v) = recorder_with(&[(0, 0, a.clone())]);
        let rep = classify(&r, &v, &[], &SharedBag::new());
        assert_eq!(rep.level, ConsistencyLevel::Inconsistent);
    }

    #[test]
    fn levels_are_ordered() {
        assert!(ConsistencyLevel::Complete > ConsistencyLevel::Strong);
        assert!(ConsistencyLevel::Strong > ConsistencyLevel::Weak);
        assert!(ConsistencyLevel::Weak > ConsistencyLevel::Convergent);
        assert!(ConsistencyLevel::Convergent > ConsistencyLevel::Inconsistent);
        assert_eq!(ConsistencyLevel::Complete.to_string(), "complete");
    }

    #[test]
    fn double_consumption_flagged() {
        let a = Bag::from_tuples([tup![1]]);
        let (r, v) = recorder_with(&[(0, 0, a.clone())]);
        let installs = log(&[(vec![id(0)], a.clone()), (vec![id(0)], a.clone())]);
        let rep = classify(&r, &v, &installs, &a.clone().into());
        assert!(rep.level <= ConsistencyLevel::Weak);
    }
}
