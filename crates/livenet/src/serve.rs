//! Reader threads for [`run_live_views`](crate::run_live_views):
//! OS-thread readers against the snapshot store while maintenance runs
//! on real threads.
//!
//! The serving layer's claim is that readers share frozen epochs with
//! the engine without copies, locks held across sweeps, or torn states.
//! The simulator proves the deterministic half (reads equal oracle
//! recompute at the pinned epoch); this arm proves the claim survives
//! *real* concurrency: the warehouse publishes installs from its own
//! thread while N reader threads pin, scan, and unpin as fast as the OS
//! lets them. Delivery and read interleavings are nondeterministic, so
//! the right assertions are (a) every read observed exactly the
//! committed contents of its pinned epoch — never a blend of two —
//! checked post-hoc against the install log folded from the slot's
//! initial contents, (b) subscription
//! streams replay the install log ([`dw_serve::replays_installs`]), and
//! (c) the final epoch equals the ground-truth evaluation.

use crate::cluster::setup_failed as fail;
use crate::multiview::Drained;
use dw_engine::{view_states, InstallEvent, LiveError};
use dw_relational::{SharedBag, Tuple, Value};
use dw_rng::Rng64;
use dw_serve::{ReadFrontend, ServeStats};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// One live read's record, kept for post-hoc torn-state auditing: the
/// slot, the pinned epoch, and what the read saw there.
struct LiveRead {
    view: usize,
    epoch: u64,
    observed: Observed,
}

/// A scan keeps the whole frozen bag (a shared handle, no copy); a point
/// read on column 0 keeps its key and matches.
enum Observed {
    Scan(SharedBag),
    Point(i64, Vec<(Tuple, i64)>),
}

impl Observed {
    /// Is this what a read of `state` answers: the whole bag, or the
    /// sorted tuples with column 0 equal to the key?
    fn reads(&self, state: &SharedBag) -> bool {
        match self {
            Observed::Scan(bag) => bag == state,
            Observed::Point(key, matches) => {
                let mut want = state.to_sorted_vec();
                want.retain(|(t, _)| t.at(0) == &Value::Int(*key));
                *matches == want
            }
        }
    }
}

/// Reads that observed no committed state of their slot at their pinned
/// epoch — a scan blending two epochs, a point answer from another
/// epoch, an epoch past the slot's install log, a slot that does not
/// exist. Slot `v`'s state at epoch `e` is `initial[v]` plus the first
/// `e` deltas of `logs[v]`, folded once per slot in epoch order.
fn torn_reads(reads: &[LiveRead], initial: &[SharedBag], logs: &[&[InstallEvent]]) -> u64 {
    let mut sorted: Vec<&LiveRead> = reads.iter().collect();
    sorted.sort_by_key(|r| (r.view, r.epoch));
    let mut sorted = sorted.into_iter().peekable();
    let mut torn = 0;
    for (v, (start, log)) in initial.iter().zip(logs).enumerate() {
        let mut states = std::iter::once(start.clone()).chain(view_states(start.clone(), log));
        let (mut state, mut epoch) = (states.next(), 0);
        while let Some(read) = sorted.next_if(|r| r.view == v) {
            while epoch < read.epoch && state.is_some() {
                (state, epoch) = (states.next(), epoch + 1);
            }
            torn += u64::from(!state.as_ref().is_some_and(|s| read.observed.reads(s)));
        }
    }
    torn + sorted.count() as u64
}

/// What the reader threads of a served live run observed.
#[derive(Debug)]
pub struct LiveServeOutcome {
    /// Snapshot-store counters.
    pub serve_stats: ServeStats,
    /// Reads resolved across all reader threads.
    pub reads_answered: u64,
    /// Reads whose observation matched no committed install of their
    /// pinned epoch — must be zero (torn or phantom states).
    pub torn_reads: u64,
    /// Whether every slot's subscription stream replayed its install log
    /// exactly.
    pub subs_match_installs: bool,
}

/// Run `maintain` while `n` reader threads pin, read and unpin the slots
/// of `front` — whose epoch-0 contents are `initial`, in slot order — in
/// a tight loop, one subscription per slot open from epoch 0. When it
/// drains, stop the readers and audit what they saw against its slot
/// outcomes: every read's pinned epoch must reproduce the committed
/// contents at that install, and every stream must replay its slot's
/// install log.
pub(crate) fn with_readers(
    front: &ReadFrontend,
    initial: &[SharedBag],
    n: usize,
    maintain: impl FnOnce() -> Result<Drained, LiveError>,
) -> Result<(Drained, LiveServeOutcome), LiveError> {
    let subs: Vec<u64> = (0..initial.len())
        .map(|v| front.subscribe(v).map_err(fail))
        .collect::<Result<_, _>>()?;
    let (stop, n_views) = (&AtomicBool::new(false), initial.len());
    let (run, joined) = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..n as u64)
            .map(|r| scope.spawn(move || read_until(front, stop, n_views, r)))
            .collect();
        let run = maintain();
        stop.store(true, Ordering::Relaxed);
        let joined: Vec<_> = threads.into_iter().map(|h| h.join()).collect();
        (run, joined)
    });
    let drained = run?;
    let views = &drained.1;
    let mut reads = Vec::new();
    for seen in joined {
        let seen = seen.map_err(|_| fail("reader thread panicked"))?;
        reads.extend(seen.map_err(fail)?);
    }

    let logs: Vec<&[InstallEvent]> = views.iter().map(|v| v.installs.as_slice()).collect();
    let torn_reads = torn_reads(&reads, initial, &logs);
    let mut subs_match_installs = true;
    for (&sub, log) in subs.iter().zip(&logs) {
        let stream = front.poll(sub).map_err(fail)?;
        subs_match_installs &= dw_serve::replays_installs(&stream, 0, log);
    }
    let served = LiveServeOutcome {
        serve_stats: front.stats(),
        reads_answered: reads.len() as u64,
        torn_reads,
        subs_match_installs,
    };
    Ok((drained, served))
}

/// One reader thread's loop until `stop`: a random slot, pinned, then
/// scanned (70 %) or point-read on column 0, then unpinned.
fn read_until(
    front: &ReadFrontend,
    stop: &AtomicBool,
    n_views: usize,
    seed: u64,
) -> Result<Vec<LiveRead>, String> {
    let mut rng = Rng64::new(0x5E12E).fork(seed);
    let mut seen = Vec::new();
    while !stop.load(Ordering::Relaxed) && n_views > 0 {
        let view = rng.usize_below(n_views);
        let pin = front.pin(view).map_err(|e| e.to_string())?;
        let observed = if rng.chance(0.7) {
            let a = front.read_scan(&pin, None).map_err(|e| e.to_string())?;
            Observed::Scan(a.bag)
        } else {
            let key = rng.u64_below(16) as i64;
            let a = front.read_point(&pin, 0, key, None);
            Observed::Point(key, (*a.map_err(|e| e.to_string())?.matches).clone())
        };
        let epoch = pin.epoch();
        seen.push(LiveRead {
            view,
            epoch,
            observed,
        });
        front.unpin(pin).map_err(|e| e.to_string())?;
        std::thread::sleep(Duration::from_micros(200));
    }
    Ok(seen)
}

#[cfg(test)]
mod tests {
    use crate::run_live_views;
    use crate::testkit::{assert_converged, derived_on_v0};
    use dw_workload::{MultiViewConfig, MultiViewScenario, StreamConfig};
    use std::time::Duration;

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

    /// The post-hoc audit passes exactly the reads of a committed state
    /// at their own epoch: a blend of two epochs, a point answer from
    /// another epoch and an epoch past the log each count once.
    #[test]
    fn the_audit_counts_blends_wrong_epochs_and_epochs_past_the_log() {
        use super::{torn_reads, LiveRead, Observed};
        use dw_engine::InstallEvent;
        use dw_relational::{tup, Bag, SharedBag};
        use std::sync::Arc;
        let event = |epoch, delta: Bag| InstallEvent {
            view_index: 0,
            epoch,
            at: epoch,
            consumed: Vec::new(),
            delta: Arc::new(delta),
        };
        // Epoch 0: {(1,1)}; epoch 1: +(2,2); epoch 2: (1,1) → (1,3).
        let initial = [SharedBag::from(Bag::from_tuples([tup![1, 1]]))];
        let log = [
            event(1, Bag::from_tuples([tup![2, 2]])),
            event(2, Bag::from_pairs([(tup![1, 1], -1), (tup![1, 3], 1)])),
        ];
        let logs = [log.as_slice()];
        let scan = |epoch, tuples: Vec<_>| LiveRead {
            view: 0,
            epoch,
            observed: Observed::Scan(Bag::from_tuples(tuples).into()),
        };
        let point = |epoch, key, matches| LiveRead {
            view: 0,
            epoch,
            observed: Observed::Point(key, matches),
        };
        let clean = || {
            [
                scan(2, vec![tup![2, 2], tup![1, 3]]),
                scan(0, vec![tup![1, 1]]),
                point(1, 1, vec![(tup![1, 1], 1)]),
                point(2, 1, vec![(tup![1, 3], 1)]),
                scan(1, vec![tup![1, 1], tup![2, 2]]),
                point(0, 2, Vec::new()),
            ]
        };
        assert_eq!(torn_reads(&clean(), &initial, &logs), 0);
        let torn = || {
            [
                // Epoch 2's (1,3) beside epoch 1's (1,1).
                scan(2, vec![tup![1, 1], tup![2, 2], tup![1, 3]]),
                // Epoch 1's answer for key 1, pinned at epoch 2.
                point(2, 1, vec![(tup![1, 1], 1)]),
                // Epoch 2's contents, pinned at an epoch the log never had.
                scan(3, vec![tup![2, 2], tup![1, 3]]),
            ]
        };
        for read in torn() {
            assert_eq!(torn_reads(&[read], &initial, &logs), 1);
        }
        let mixed: Vec<LiveRead> = torn().into_iter().chain(clean()).collect();
        assert_eq!(torn_reads(&mixed, &initial, &logs), 3);
        // A slot with no initial contents is no committed state either.
        assert_eq!(torn_reads(&clean(), &[], &[]), 6);
    }

    #[test]
    fn concurrent_readers_never_see_torn_epochs() {
        let s = scenario();
        let report = run_live_views(&s, None, 4, 20.0, Duration::from_secs(30)).unwrap();
        assert!(report.quiescent);
        let served = report.serve.as_ref().unwrap();
        assert_eq!(served.torn_reads, 0, "torn read observed");
        assert!(served.reads_answered > 0, "readers never got a read in");
        assert!(served.subs_match_installs);
        assert_converged(&report, &s);
    }

    #[test]
    fn derived_views_are_maintained_and_served_on_threads() {
        // One σ and one Σ view over V0: the live warehouse maintains them
        // through the cascade, and the readers and subscriptions see their
        // slots like any other.
        let mut s = scenario();
        s.derived = derived_on_v0();
        let report = run_live_views(&s, None, 4, 20.0, Duration::from_secs(30)).unwrap();
        assert!(report.quiescent);
        let served = report.serve.as_ref().unwrap();
        assert_eq!(served.torn_reads, 0, "torn read observed");
        assert!(served.subs_match_installs);
        assert_converged(&report, &s);
        let names: Vec<&str> = report.views.iter().map(|v| v.name.as_str()).collect();
        assert_eq!(names[3..], ["hot", "counts"]);
        // Each child installs once per parent install.
        assert_eq!(
            report.views[3].installs.len(),
            report.views[0].installs.len()
        );
    }
}
