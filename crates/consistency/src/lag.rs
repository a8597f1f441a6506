//! View lag over time: how many delivered updates the materialized view is
//! *behind* at each instant — the measurable form of the paper's "the
//! materialized view trails the updated state of the data sources"
//! (§3, on Strobe's quiescence requirement).

use dw_engine::InstallEvent;
use dw_protocol::UpdateId;
use dw_simnet::Time;

/// A step series of `(time, lag)` points, where `lag` is the number of
/// updates delivered to the warehouse but not yet reflected by an install.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LagSeries {
    points: Vec<(Time, i64)>,
    horizon: Time,
}

impl LagSeries {
    /// Build from a delivery log and an install log (both time-ordered).
    /// Each delivery raises the lag by one at its delivery time; each
    /// install lowers it by the number of updates it consumed.
    pub fn new(deliveries: &[(UpdateId, Time)], installs: &[InstallEvent]) -> Self {
        let mut events: Vec<(Time, i64)> = Vec::new();
        for &(_, at) in deliveries {
            events.push((at, 1));
        }
        for rec in installs {
            events.push((rec.at, -(rec.consumed.len() as i64)));
        }
        // Installs at the same instant as deliveries settle after them
        // (stable sort keeps +1s first — conservative).
        events.sort_by_key(|&(t, _)| t);
        let mut points = Vec::with_capacity(events.len());
        let mut lag = 0i64;
        let mut horizon = 0;
        for (t, d) in events {
            lag += d;
            horizon = t;
            match points.last_mut() {
                Some((pt, pl)) if *pt == t => *pl = lag,
                _ => points.push((t, lag)),
            }
        }
        LagSeries { points, horizon }
    }

    /// The raw step points.
    pub fn points(&self) -> &[(Time, i64)] {
        &self.points
    }

    /// Peak lag (0 for an empty run).
    pub fn max_lag(&self) -> i64 {
        self.points.iter().map(|&(_, l)| l).max().unwrap_or(0)
    }

    /// Lag at the end of the run (0 means the view caught up).
    pub fn final_lag(&self) -> i64 {
        self.points.last().map_or(0, |&(_, l)| l)
    }

    /// Time-weighted mean lag over the run.
    pub fn mean_lag(&self) -> f64 {
        if self.points.len() < 2 || self.horizon == 0 {
            return self.final_lag() as f64;
        }
        let mut area = 0.0;
        for w in self.points.windows(2) {
            let ((t0, l0), (t1, _)) = (w[0], w[1]);
            area += l0 as f64 * (t1 - t0) as f64;
        }
        area / (self.horizon - self.points[0].0) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dw_relational::Bag;
    use std::sync::Arc;

    fn id(seq: u64) -> UpdateId {
        UpdateId { source: 0, seq }
    }

    fn install(at: Time, consumed: Vec<UpdateId>) -> InstallEvent {
        InstallEvent {
            view_index: 0,
            epoch: 0,
            at,
            consumed,
            delta: Arc::new(Bag::new()),
        }
    }

    #[test]
    fn per_update_installs_keep_lag_at_one() {
        let deliveries = vec![(id(0), 10), (id(1), 30)];
        let installs = vec![install(20, vec![id(0)]), install(40, vec![id(1)])];
        let s = LagSeries::new(&deliveries, &installs);
        assert_eq!(s.max_lag(), 1);
        assert_eq!(s.final_lag(), 0);
    }

    #[test]
    fn batched_install_builds_lag() {
        let deliveries = vec![(id(0), 10), (id(1), 20), (id(2), 30)];
        let installs = vec![install(100, vec![id(0), id(1), id(2)])];
        let s = LagSeries::new(&deliveries, &installs);
        assert_eq!(s.max_lag(), 3);
        assert_eq!(s.final_lag(), 0);
        assert!(s.mean_lag() > 1.5, "mean lag {}", s.mean_lag());
    }

    #[test]
    fn uninstalled_tail_is_final_lag() {
        let deliveries = vec![(id(0), 5), (id(1), 6)];
        let s = LagSeries::new(&deliveries, &[]);
        assert_eq!(s.final_lag(), 2);
        assert_eq!(s.max_lag(), 2);
    }

    #[test]
    fn empty_run() {
        let s = LagSeries::new(&[], &[]);
        assert_eq!(s.max_lag(), 0);
        assert_eq!(s.mean_lag(), 0.0);
    }
}
