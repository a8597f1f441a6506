//! The quiet-time estimate: replay the same scenario several times and
//! keep, for every unit of work, the replay in which it ran fastest.
//!
//! The host the numbers are taken on is shared. Its interference comes in
//! bursts of a few hundred ms that slow memory-heavy work by 40 % while
//! plain arithmetic moves 3 % (README, "Why replays"): over 150 s a
//! fixed hash-building probe had 10-second medians between 18.9 and
//! 27.3 ms and 10-second minima between 18.3 and 18.8 ms. The noise only
//! ever adds time, so the fastest of several identical executions is the
//! steady number and the median is not. A whole replay is too long to fall
//! between two bursts; an update (paced) or 25 installs (backlog) is not.
//!
//! * A **paced** replay is open loop below capacity, so an update's lag
//!   depends on the host during those few ms only: the estimate is, per
//!   (view, update), the smallest lag over the replays.
//! * In a **backlog** replay every install waits for all before it, so a
//!   burst delays everything after it and lags cannot be compared one by
//!   one. The install stream of view 0 is cut into segments of a fixed
//!   number of updates; per segment position the shortest duration over
//!   the replays is kept; the kept durations, end to end, are the quiet
//!   replay. Throughput and lags are read off that timeline.

use std::collections::HashMap;
use std::hash::Hash;

/// Per key, the smallest value any replay has for it.
pub fn quietest_by_key<K: Eq + Hash + Copy>(replays: &[&HashMap<K, f64>]) -> HashMap<K, f64> {
    let mut out: HashMap<K, f64> = HashMap::new();
    for replay in replays {
        for (key, value) in replay.iter() {
            out.entry(*key)
                .and_modify(|v| *v = v.min(*value))
                .or_insert(*value);
        }
    }
    out
}

/// Durations of the segments of one replay. `at[k]` is when the
/// `k+1`-th update (in install order) was installed; the replay started
/// at `start`. Segment `j` ends with update `(j+1)·segment` (the last one
/// with the last update) and begins where segment `j−1` ended.
pub fn segment_durations(at: &[f64], start: f64, segment: usize) -> Vec<f64> {
    let mut prev = start;
    at.chunks(segment.max(1))
        .map(|chunk| {
            let end = chunk[chunk.len() - 1];
            let d = end - prev;
            prev = end;
            d
        })
        .collect()
}

/// Per segment position, the shortest duration any replay has for it.
pub fn quietest_by_position(replays: &[&[f64]]) -> Vec<f64> {
    let len = replays.iter().map(|r| r.len()).max().unwrap_or(0);
    (0..len)
        .map(|j| {
            replays
                .iter()
                .filter_map(|r| r.get(j))
                .copied()
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// The lag of each of `n` updates, all due at the start, on the timeline
/// made of `durations` end to end: an update is installed when its
/// segment ends.
pub fn timeline_lags(durations: &[f64], n: usize, segment: usize) -> Vec<f64> {
    let mut lags = Vec::with_capacity(n);
    let mut now = 0.0;
    for d in durations {
        now += d;
        let left = n - lags.len();
        lags.extend(std::iter::repeat_n(now, segment.max(1).min(left)));
    }
    lags
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_quietest_replay_wins_key_by_key() {
        let a: HashMap<u8, f64> = [(1, 4.0), (2, 9.0)].into();
        let b: HashMap<u8, f64> = [(1, 6.0), (2, 5.0), (3, 7.0)].into();
        let q = quietest_by_key(&[&a, &b]);
        assert_eq!(q, [(1, 4.0), (2, 5.0), (3, 7.0)].into());
    }

    #[test]
    fn segments_tile_the_replay() {
        // Seven updates, segments of three: ends at updates 3, 6 and 7.
        let at = [1.0, 2.0, 4.0, 5.0, 6.0, 9.0, 9.5];
        let d = segment_durations(&at, 0.5, 3);
        assert_eq!(d, vec![3.5, 5.0, 0.5]);
        assert_eq!(d.iter().sum::<f64>(), 9.5 - 0.5);
        assert!(segment_durations(&[], 0.0, 3).is_empty());
    }

    /// A burst in another place in each replay leaves no trace.
    #[test]
    fn bursts_in_different_places_cancel() {
        let quiet = [2.0, 2.0, 2.0, 1.0];
        let mut a = quiet;
        a[1] += 3.0;
        let mut b = quiet;
        b[3] += 0.7;
        b[0] += 0.1;
        assert_eq!(quietest_by_position(&[&a, &b]), quiet.to_vec());
        // A replay that lost its tail does not shorten the result.
        assert_eq!(quietest_by_position(&[&a[..2], &b]).len(), 4);
    }

    #[test]
    fn timeline_lags_end_with_the_drain_time() {
        let lags = timeline_lags(&[2.0, 2.0, 1.0], 7, 3);
        assert_eq!(lags, vec![2.0, 2.0, 2.0, 4.0, 4.0, 4.0, 5.0]);
    }
}
