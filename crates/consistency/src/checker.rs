//! Install-log classification against the ground truth.

use crate::truth::Recorder;
use dw_engine::InstallRecord;
use dw_protocol::UpdateId;
use dw_relational::SharedBag;
use std::collections::HashSet;
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

/// Classify a policy's install log against the ground truth.
///
/// `final_view` is the policy's view at the end of the (quiescent) run.
/// Install records without snapshots degrade the check to convergence.
pub fn classify(
    recorder: &Recorder,
    installs: &[InstallRecord],
    final_view: &SharedBag,
) -> ConsistencyReport {
    let truth_final = match recorder.final_state() {
        Ok(b) => b,
        Err(e) => {
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

    // Snapshots are needed for anything stronger than convergence.
    if installs.iter().any(|r| r.view_after.is_none()) {
        return ConsistencyReport {
            level: ConsistencyLevel::Convergent,
            installs_checked: installs.len(),
            detail: "snapshots disabled; only convergence verified".into(),
        };
    }

    // --- Per-install state validity (needed for weak and above). -------
    let mut consumed_so_far: HashSet<UpdateId> = HashSet::new();
    let mut all_states_meaningful = true;
    let mut monotone_prefix_discipline = true;
    let mut first_violation = String::new();
    for (k, rec) in installs.iter().enumerate() {
        for id in &rec.consumed {
            if !consumed_so_far.insert(*id) {
                monotone_prefix_discipline = false;
                if first_violation.is_empty() {
                    first_violation = format!("install {k} re-consumed {id:?}");
                }
            }
        }
        let snapshot = rec.view_after.as_ref().expect("checked above");
        let expect = match recorder.eval_after(&|id| consumed_so_far.contains(&id)) {
            Ok(b) => b,
            Err(e) => {
                return ConsistencyReport {
                    level: ConsistencyLevel::Inconsistent,
                    installs_checked: installs.len(),
                    detail: format!("replay failed at install {k}: {e}"),
                }
            }
        };
        if snapshot != &expect {
            all_states_meaningful = false;
            if first_violation.is_empty() {
                first_violation = format!("install {k} does not match its consumed set's state");
            }
        }
        if !recorder.is_source_prefix_set(&|id| consumed_so_far.contains(&id)) {
            monotone_prefix_discipline = false;
            if first_violation.is_empty() {
                first_violation =
                    format!("install {k}'s cumulative consumed set skips a source-local update");
            }
        }
    }
    // Every delivered update must end up consumed for the final state to
    // have matched; tolerate policies (Recompute) that do not track this —
    // they already fell out at the snapshot/meaningful-state stage.

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
    let delivery_order: Vec<UpdateId> = recorder.deliveries().iter().map(|d| d.id).collect();
    let consumed_concat: Vec<UpdateId> = installs
        .iter()
        .flat_map(|r| r.consumed.iter().copied())
        .collect();
    let one_each = installs.iter().all(|r| r.consumed.len() == 1);
    if one_each && consumed_concat == delivery_order {
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

    /// Single-relation identity view: ground truth is trivially the bag of
    /// all applied deltas — perfect for exercising the classifier itself.
    fn recorder_with(deliveries: &[(usize, u64, Bag)]) -> Recorder {
        let view = ViewDefBuilder::new()
            .relation(Schema::new("R1", ["A"]).unwrap())
            .build()
            .unwrap();
        let mut r = Recorder::new(view, vec![Bag::new()]);
        for (i, (source, seq, delta)) in deliveries.iter().enumerate() {
            r.record_delivery(
                UpdateId {
                    source: *source,
                    seq: *seq,
                },
                i as u64,
                delta.clone(),
            );
        }
        r
    }

    fn install(consumed: Vec<UpdateId>, view: Bag) -> InstallRecord {
        InstallRecord {
            at: 0,
            consumed,
            view_after: Some(view.into()),
        }
    }

    fn id(seq: u64) -> UpdateId {
        UpdateId { source: 0, seq }
    }

    #[test]
    fn complete_run_detected() {
        let a = Bag::from_tuples([tup![1]]);
        let b = Bag::from_tuples([tup![2]]);
        let r = recorder_with(&[(0, 0, a.clone()), (0, 1, b.clone())]);
        let installs = vec![
            install(vec![id(0)], a.clone()),
            install(vec![id(1)], a.plus(&b)),
        ];
        let rep = classify(&r, &installs, &a.plus(&b).into());
        assert_eq!(rep.level, ConsistencyLevel::Complete);
    }

    #[test]
    fn batched_installs_are_strong() {
        let a = Bag::from_tuples([tup![1]]);
        let b = Bag::from_tuples([tup![2]]);
        let r = recorder_with(&[(0, 0, a.clone()), (0, 1, b.clone())]);
        let installs = vec![install(vec![id(0), id(1)], a.plus(&b))];
        let rep = classify(&r, &installs, &a.plus(&b).into());
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
        let r = recorder_with(&[(0, 0, a.clone()), (0, 1, b.clone())]);
        let installs = vec![
            install(vec![id(1)], b.clone()),
            install(vec![id(0)], a.plus(&b)),
        ];
        let rep = classify(&r, &installs, &a.plus(&b).into());
        assert_eq!(rep.level, ConsistencyLevel::Weak);
    }

    #[test]
    fn wrong_intermediate_state_is_convergent() {
        let a = Bag::from_tuples([tup![1]]);
        let b = Bag::from_tuples([tup![2]]);
        let r = recorder_with(&[(0, 0, a.clone()), (0, 1, b.clone())]);
        // First install claims a state that is not eval(consumed).
        let installs = vec![
            install(vec![id(0)], b.clone()), // wrong snapshot
            install(vec![id(1)], a.plus(&b)),
        ];
        let rep = classify(&r, &installs, &a.plus(&b).into());
        assert_eq!(rep.level, ConsistencyLevel::Convergent);
    }

    #[test]
    fn wrong_final_state_is_inconsistent() {
        let a = Bag::from_tuples([tup![1]]);
        let r = recorder_with(&[(0, 0, a.clone())]);
        let rep = classify(&r, &[], &SharedBag::new());
        assert_eq!(rep.level, ConsistencyLevel::Inconsistent);
    }

    #[test]
    fn missing_snapshots_cap_at_convergent() {
        let a = Bag::from_tuples([tup![1]]);
        let r = recorder_with(&[(0, 0, a.clone())]);
        let installs = vec![InstallRecord {
            at: 0,
            consumed: vec![id(0)],
            view_after: None,
        }];
        let rep = classify(&r, &installs, &a.clone().into());
        assert_eq!(rep.level, ConsistencyLevel::Convergent);
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
        let r = recorder_with(&[(0, 0, a.clone())]);
        let installs = vec![
            install(vec![id(0)], a.clone()),
            install(vec![id(0)], a.clone()),
        ];
        let rep = classify(&r, &installs, &a.clone().into());
        assert!(rep.level <= ConsistencyLevel::Weak);
    }
}
