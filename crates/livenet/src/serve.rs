//! Thread-per-reader live runtime: OS-thread readers against the
//! snapshot store while maintenance runs on real threads.
//!
//! The serving layer's claim is that readers share frozen epochs with
//! the engine without copies, locks held across sweeps, or torn states.
//! The simulator proves the deterministic half (reads equal oracle
//! recompute at the pinned epoch); this arm proves the claim survives
//! *real* concurrency: the warehouse publishes installs from its own
//! thread while N reader threads pin, scan, and unpin as fast as the OS
//! lets them. Delivery and read interleavings are nondeterministic, so
//! the right assertions are (a) every scan observed exactly some
//! committed install's contents — never a blend of two — checked
//! post-hoc against the install log's snapshots, (b) subscription
//! streams replay the install fingerprint, and (c) the final epoch
//! equals the ground-truth evaluation.

use crate::cluster::{injections, setup_failed as fail};
use crate::multiview::LiveWarehouse;
use dw_engine::{InstallRecord, PolicyMetrics};
use dw_relational::{SharedBag, Value};
use dw_rng::Rng64;
use dw_serve::{ReadFrontend, ServeStats};
use dw_workload::MultiViewScenario;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

pub use dw_engine::LiveError;

/// One live read's record, kept for post-hoc torn-state auditing.
struct LiveRead {
    view: usize,
    epoch: u64,
    /// Scans keep the whole frozen bag (a shared handle, no copy);
    /// points keep their matches.
    observed: Observed,
}

enum Observed {
    Scan(SharedBag),
    Point {
        column: usize,
        key: i64,
        matches: Vec<(dw_relational::Tuple, i64)>,
    },
}

/// Result of a live serve run.
#[derive(Debug)]
pub struct LiveServeReport {
    /// Final contents and install log of every registry slot — base
    /// views, then derived ones.
    pub views: Vec<crate::LiveViewOutcome>,
    /// Aggregate engine counters.
    pub metrics: PolicyMetrics,
    /// Snapshot-store counters.
    pub serve_stats: ServeStats,
    /// Whether the scheduler drained before shutdown.
    pub quiescent: bool,
    /// Reads resolved across all reader threads.
    pub reads_answered: u64,
    /// Scans whose observed bag matched no committed install of their
    /// pinned epoch — must be zero (torn or phantom states).
    pub torn_reads: u64,
    /// Whether every subscription stream replayed its view's install
    /// fingerprint exactly.
    pub subs_match_installs: bool,
    /// Wall-clock duration of the maintenance run.
    pub wall: Duration,
}

/// Run a multi-view scenario on real threads with `readers` concurrent
/// reader threads hammering the snapshot store throughout.
///
/// `time_scale` compresses injection timestamps; `deadline` bounds the
/// maintenance run (readers are stopped when it drains).
pub fn run_live_serve(
    scenario: &MultiViewScenario,
    readers: usize,
    time_scale: f64,
    deadline: Duration,
) -> Result<LiveServeReport, LiveError> {
    let front = ReadFrontend::new();
    let warehouse = LiveWarehouse::new(scenario, None, Some(&front))?;
    let initial_bags = warehouse.bags()?;
    let n_views = initial_bags.len();

    // One subscription per slot, from epoch 0: drained post-run and
    // compared against the install fingerprint.
    let mut subs = Vec::with_capacity(n_views);
    for v in 0..n_views {
        subs.push(front.subscribe(v).map_err(fail)?);
    }

    // Reader threads: pin → read → unpin in a tight loop until the
    // maintenance cluster drains. Each thread records what it saw.
    let stop = Arc::new(AtomicBool::new(false));
    let mut reader_handles = Vec::with_capacity(readers);
    for r in 0..readers {
        let front = front.clone();
        let stop = stop.clone();
        reader_handles.push(std::thread::spawn(
            move || -> Result<Vec<LiveRead>, String> {
                let mut rng = Rng64::new(0x5E12E).fork(r as u64);
                let mut seen = Vec::new();
                while !stop.load(Ordering::Relaxed) && n_views > 0 {
                    let view = rng.usize_below(n_views);
                    let pin = front.pin(view).map_err(|e| e.to_string())?;
                    let epoch = pin.epoch();
                    if rng.chance(0.7) {
                        let a = front.read_scan(&pin, None).map_err(|e| e.to_string())?;
                        seen.push(LiveRead {
                            view,
                            epoch,
                            observed: Observed::Scan(a.bag),
                        });
                    } else {
                        let column = 0;
                        let key = rng.u64_below(16) as i64;
                        let a = front
                            .read_point(&pin, column, key, None)
                            .map_err(|e| e.to_string())?;
                        seen.push(LiveRead {
                            view,
                            epoch,
                            observed: Observed::Point {
                                column,
                                key,
                                matches: (*a.matches).clone(),
                            },
                        });
                    }
                    front.unpin(pin).map_err(|e| e.to_string())?;
                    std::thread::sleep(Duration::from_micros(200));
                }
                Ok(seen)
            },
        ));
    }

    let (base, initial, txns) = (
        &scenario.base,
        &scenario.initial,
        injections(&scenario.txns),
    );
    let run = warehouse.run(base, initial, txns, time_scale, deadline);
    stop.store(true, Ordering::Relaxed);
    let mut reads: Vec<LiveRead> = Vec::new();
    let mut reader_err: Option<String> = None;
    for h in reader_handles {
        match h.join() {
            Ok(Ok(seen)) => reads.extend(seen),
            Ok(Err(e)) => reader_err = Some(e),
            Err(_) => reader_err = Some("reader thread panicked".to_string()),
        }
    }
    let (sched, views, wall) = run?;
    if let Some(e) = reader_err {
        return Err(LiveError::NodeFailed { what: e });
    }

    // Torn-state audit: every read's pinned epoch must reproduce the
    // committed contents at that install exactly.
    let committed = |view: usize, epoch: u64| -> Option<&SharedBag> {
        if epoch == 0 {
            return Some(&initial_bags[view]);
        }
        views[view].installs[epoch as usize - 1].view_after.as_ref()
    };
    let mut torn = 0u64;
    for read in &reads {
        let Some(truth) = committed(read.view, read.epoch) else {
            torn += 1;
            continue;
        };
        let ok = match &read.observed {
            Observed::Scan(bag) => bag == truth,
            Observed::Point {
                column,
                key,
                matches,
            } => {
                let want: Vec<(dw_relational::Tuple, i64)> = truth
                    .to_sorted_vec()
                    .into_iter()
                    .filter(|(t, _)| t.at(*column) == &Value::Int(*key))
                    .collect();
                matches == &want
            }
        };
        if !ok {
            torn += 1;
        }
    }

    // Subscription streams must replay the install fingerprint.
    let mut subs_match = true;
    for (v, sub) in subs.into_iter().enumerate() {
        let stream = front.poll(sub).map_err(fail)?;
        let expected: &[InstallRecord] = &views[v].installs;
        subs_match &= stream.len() == expected.len()
            && stream
                .iter()
                .zip(expected)
                .enumerate()
                .all(|(i, (d, inst))| {
                    d.epoch == i as u64 + 1 && d.view == v && d.consumed == inst.consumed
                });
    }

    Ok(LiveServeReport {
        quiescent: sched.is_quiescent(),
        metrics: sched.metrics().clone(),
        serve_stats: front.stats(),
        views,
        reads_answered: reads.len() as u64,
        torn_reads: torn,
        subs_match_installs: subs_match,
        wall,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dw_relational::{eval_view, AggFn, AggregateSpec, Bag, CmpOp};
    use dw_workload::{DerivedOp, DerivedSpec, MultiViewConfig, StreamConfig};

    /// Every slot's final contents: each base view over the fully updated
    /// relations, then each derived view's operator over its parent's
    /// (parents listed first).
    fn ground_truth(s: &MultiViewScenario) -> Vec<Bag> {
        let mut rels = s.initial.clone();
        for t in &s.txns {
            rels[t.source].merge(&t.delta);
        }
        let mut truth: Vec<(&str, Bag)> = s
            .views
            .iter()
            .map(|spec| {
                let local = spec.compile(&s.base).unwrap();
                let refs: Vec<&Bag> = rels[spec.lo..=spec.hi].iter().collect();
                (spec.name.as_str(), eval_view(&local, &refs).unwrap())
            })
            .collect();
        for d in &s.derived {
            let parent = truth.iter().find(|(name, _)| *name == d.parent).unwrap();
            let bag = d.op.eval(&parent.1).unwrap();
            truth.push((d.name.as_str(), bag));
        }
        truth.into_iter().map(|(_, bag)| bag).collect()
    }

    fn scenario() -> MultiViewScenario {
        MultiViewConfig {
            stream: StreamConfig {
                n_sources: 3,
                updates: 16,
                initial_per_source: 10,
                domain: 8,
                mean_gap: 800,
                seed: 31,
                ..Default::default()
            },
            n_views: 3,
            view_seed: 31 ^ 0xABCD,
            full_span: false,
            n_derived: 0,
            derived_seed: 0,
        }
        .generate()
        .unwrap()
    }

    #[test]
    fn concurrent_readers_never_see_torn_epochs() {
        let scenario = scenario();
        let report = run_live_serve(&scenario, 4, 20.0, Duration::from_secs(30)).unwrap();
        assert!(report.quiescent);
        assert_eq!(report.torn_reads, 0, "torn read observed");
        assert!(report.reads_answered > 0, "readers never got a read in");
        assert!(report.subs_match_installs);
        for (outcome, truth) in report.views.iter().zip(ground_truth(&scenario)) {
            assert_eq!(outcome.view, truth, "view '{}'", outcome.name);
        }
    }

    #[test]
    fn derived_views_are_maintained_and_served_on_threads() {
        // One σ and one Σ view over V0: the live warehouse maintains them
        // through the cascade, and the readers and subscriptions see their
        // slots like any other.
        let mut scenario = scenario();
        scenario.derived = vec![
            DerivedSpec {
                name: "hot".into(),
                parent: "V0".into(),
                op: DerivedOp::Select {
                    selects: vec![(0, CmpOp::Ge, Value::Int(2))],
                    projection: None,
                },
            },
            DerivedSpec {
                name: "counts".into(),
                parent: "V0".into(),
                op: DerivedOp::Aggregate(AggregateSpec {
                    group_by: vec![0],
                    aggs: vec![AggFn::CountRows],
                }),
            },
        ];
        let report = run_live_serve(&scenario, 4, 20.0, Duration::from_secs(30)).unwrap();
        assert!(report.quiescent);
        assert_eq!(report.torn_reads, 0, "torn read observed");
        assert!(report.subs_match_installs);
        let truth = ground_truth(&scenario);
        assert_eq!(report.views.len(), truth.len());
        for (outcome, truth) in report.views.iter().zip(truth) {
            assert_eq!(outcome.view, truth, "view '{}'", outcome.name);
        }
        let names: Vec<&str> = report.views.iter().map(|v| v.name.as_str()).collect();
        assert_eq!(names[3..], ["hot", "counts"]);
        // Each child installs once per parent install.
        assert_eq!(
            report.views[3].installs.len(),
            report.views[0].installs.len()
        );
    }
}
