//! Multi-view consistency: per-view classification plus cross-view
//! *mutual* consistency.
//!
//! The multi-view scheduler (`dw-multiview`) maintains many span views
//! over one base chain. Two questions arise that the single-view
//! checker doesn't answer:
//!
//! 1. **Per-view levels.** Each view's install log uses *global* update
//!    ids (`UpdateId.source` indexes the base chain), and so does the
//!    run's one [`Recorder`](crate::Recorder): [`classify`](crate::classify)
//!    takes the view's [`SlotView`](crate::SlotView) and counts only the
//!    deliveries from its span, so no log is shifted or copied per view.
//! 2. **Mutual consistency.** Views sharing a source should not tell
//!    contradictory stories about it. [`mutual_consistency`] replays
//!    every view's install log on one timeline and measures, for each
//!    shared source, how far apart the views' consumed prefixes drift
//!    (`max_skew`) and whether they agree once the warehouse is
//!    quiescent (`final_agreement`). Transient skew is inherent to
//!    differing cadences (a deferred view lags a per-update view);
//!    *final* disagreement after a drain is a scheduler bug.

use dw_engine::InstallEvent;
use dw_protocol::SourceIndex;
use std::collections::HashMap;

/// One view's install log plus its span, in global chain coordinates.
#[derive(Clone, Debug)]
pub struct ViewLog<'a> {
    /// Display name.
    pub name: &'a str,
    /// First chain relation the view references.
    pub lo: usize,
    /// Last chain relation the view references (inclusive).
    pub hi: usize,
    /// The view's install log, consumed ids in global coordinates.
    pub installs: &'a [InstallEvent],
}

impl ViewLog<'_> {
    fn references(&self, j: SourceIndex) -> bool {
        self.lo <= j && j <= self.hi
    }

    /// Consumed-prefix length per referenced source at the end of the log.
    fn final_counts(&self) -> HashMap<SourceIndex, u64> {
        let mut counts: HashMap<SourceIndex, u64> = HashMap::new();
        for rec in self.installs {
            for id in &rec.consumed {
                *counts.entry(id.source).or_insert(0) += 1;
            }
        }
        counts
    }
}

/// Cross-view mutual-consistency verdict.
#[derive(Clone, Debug)]
pub struct MutualReport {
    /// Number of views compared.
    pub views: usize,
    /// Total consumed update ids examined across all logs.
    pub updates_checked: usize,
    /// Largest observed difference, at any install instant, between two
    /// views' consumed-prefix lengths for a source both reference.
    /// Nonzero skew is normal under mixed cadences.
    pub max_skew: u64,
    /// After all logs are exhausted (a quiescent warehouse), do all
    /// views agree on every shared source's consumed prefix?
    pub final_agreement: bool,
    /// First final-state disagreement found, if any.
    pub detail: String,
}

/// Replay every view's install log on the shared timeline and compare
/// consumed prefixes on shared sources. Install times come from
/// [`InstallEvent::at`]; events are processed in global time order
/// (ties: registry order), and skew is sampled after every install.
pub fn mutual_consistency(logs: &[ViewLog<'_>]) -> MutualReport {
    let updates_checked = logs
        .iter()
        .map(|l| l.installs.iter().map(|r| r.consumed.len()).sum::<usize>())
        .sum();

    // Merged timeline of (install time, view index, record index).
    let mut events: Vec<(u64, usize, usize)> = Vec::new();
    for (v, log) in logs.iter().enumerate() {
        for (k, rec) in log.installs.iter().enumerate() {
            events.push((rec.at, v, k));
        }
    }
    events.sort();

    let mut counts: Vec<HashMap<SourceIndex, u64>> = vec![HashMap::new(); logs.len()];
    let mut max_skew = 0u64;
    for (_, v, k) in events {
        for id in &logs[v].installs[k].consumed {
            *counts[v].entry(id.source).or_insert(0) += 1;
        }
        // Sample skew on every source the just-installed view references.
        for j in logs[v].lo..=logs[v].hi {
            let cv = counts[v].get(&j).copied().unwrap_or(0);
            for (w, other) in logs.iter().enumerate() {
                if w != v && other.references(j) {
                    let cw = counts[w].get(&j).copied().unwrap_or(0);
                    max_skew = max_skew.max(cv.abs_diff(cw));
                }
            }
        }
    }

    let mut final_agreement = true;
    let mut detail = String::new();
    let finals: Vec<HashMap<SourceIndex, u64>> = logs.iter().map(|l| l.final_counts()).collect();
    'outer: for (v, log) in logs.iter().enumerate() {
        for other_idx in v + 1..logs.len() {
            let other = &logs[other_idx];
            for j in log.lo..=log.hi {
                if !other.references(j) {
                    continue;
                }
                let a = finals[v].get(&j).copied().unwrap_or(0);
                let b = finals[other_idx].get(&j).copied().unwrap_or(0);
                if a != b {
                    final_agreement = false;
                    detail = format!(
                        "views '{}' and '{}' disagree on R{}: consumed {} vs {} updates",
                        log.name, other.name, j, a, b
                    );
                    break 'outer;
                }
            }
        }
    }

    MutualReport {
        views: logs.len(),
        updates_checked,
        max_skew,
        final_agreement,
        detail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dw_protocol::UpdateId;

    fn rec(at: u64, ids: &[(usize, u64)]) -> InstallEvent {
        InstallEvent {
            view_index: 0,
            epoch: 0,
            at,
            consumed: ids
                .iter()
                .map(|&(source, seq)| UpdateId { source, seq })
                .collect(),
            delta: std::sync::Arc::new(dw_relational::Bag::new()),
        }
    }

    #[test]
    fn agreeing_logs_have_zero_final_skew() {
        let a = vec![rec(10, &[(0, 0)]), rec(20, &[(1, 0)])];
        let b = vec![rec(15, &[(0, 0)]), rec(25, &[(1, 0)])];
        let report = mutual_consistency(&[
            ViewLog {
                name: "a",
                lo: 0,
                hi: 1,
                installs: &a,
            },
            ViewLog {
                name: "b",
                lo: 0,
                hi: 1,
                installs: &b,
            },
        ]);
        assert!(report.final_agreement, "{}", report.detail);
        assert_eq!(report.updates_checked, 4);
        // 'a' installs R0's update before 'b' does: transient skew of 1.
        assert_eq!(report.max_skew, 1);
    }

    #[test]
    fn batched_cadence_skews_transiently_but_agrees_finally() {
        // View 'eager' installs per update; 'lazy' batches both at drain.
        let eager = vec![rec(10, &[(0, 0)]), rec(20, &[(0, 1)])];
        let lazy = vec![rec(30, &[(0, 0), (0, 1)])];
        let report = mutual_consistency(&[
            ViewLog {
                name: "eager",
                lo: 0,
                hi: 0,
                installs: &eager,
            },
            ViewLog {
                name: "lazy",
                lo: 0,
                hi: 0,
                installs: &lazy,
            },
        ]);
        assert_eq!(report.max_skew, 2);
        assert!(report.final_agreement);
    }

    #[test]
    fn lost_update_breaks_final_agreement() {
        let a = vec![rec(10, &[(1, 0)]), rec(20, &[(1, 1)])];
        let b = vec![rec(15, &[(1, 0)])]; // never consumed seq 1
        let report = mutual_consistency(&[
            ViewLog {
                name: "a",
                lo: 0,
                hi: 2,
                installs: &a,
            },
            ViewLog {
                name: "b",
                lo: 1,
                hi: 2,
                installs: &b,
            },
        ]);
        assert!(!report.final_agreement);
        assert!(report.detail.contains("R1"));
    }

    #[test]
    fn disjoint_spans_are_vacuously_mutual() {
        let a = vec![rec(10, &[(0, 0)])];
        let b = vec![rec(10, &[(2, 0)])];
        let report = mutual_consistency(&[
            ViewLog {
                name: "a",
                lo: 0,
                hi: 0,
                installs: &a,
            },
            ViewLog {
                name: "b",
                lo: 2,
                hi: 2,
                installs: &b,
            },
        ]);
        assert!(report.final_agreement);
        assert_eq!(report.max_skew, 0);
    }
}
