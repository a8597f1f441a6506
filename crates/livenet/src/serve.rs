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
//! the right assertions are (a) every scan observed exactly some
//! committed install's contents — never a blend of two — checked
//! post-hoc against the install log's snapshots, (b) subscription
//! streams replay the install log ([`dw_serve::replays_installs`]), and
//! (c) the final epoch equals the ground-truth evaluation.

use crate::cluster::setup_failed as fail;
use crate::multiview::Drained;
use dw_engine::LiveError;
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

    let committed = |view: usize, epoch: u64| match epoch.checked_sub(1) {
        None => Some(&initial[view]),
        Some(i) => views[view].installs[i as usize].view_after.as_ref(),
    };
    let torn = reads.iter().filter(|read| {
        let Some(truth) = committed(read.view, read.epoch) else {
            return true;
        };
        match &read.observed {
            Observed::Scan(bag) => bag != truth,
            Observed::Point(key, matches) => {
                let mut want = truth.to_sorted_vec();
                want.retain(|(t, _)| t.at(0) == &Value::Int(*key));
                *matches != want
            }
        }
    });
    let torn_reads = torn.count() as u64;
    let mut subs_match_installs = true;
    for (v, &sub) in subs.iter().enumerate() {
        let stream = front.poll(sub).map_err(fail)?;
        subs_match_installs &= dw_serve::replays_installs(&stream, v, 0, &views[v].installs);
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
