//! Per-policy counters and staleness accounting.

use dw_obs::Histogram;
use dw_simnet::Time;

/// Counters every policy maintains. Message *totals* live in
/// [`dw_simnet::NetStats`]; these are the algorithm-level quantities the
/// paper's analysis talks about (queries per update, compensations,
/// recursion depth, staleness).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PolicyMetrics {
    /// Updates delivered to the warehouse.
    pub updates_received: u64,
    /// Incremental queries sent to sources.
    pub queries_sent: u64,
    /// Answers received from sources.
    pub answers_received: u64,
    /// View installs performed.
    pub installs: u64,
    /// Times a concurrent update's error term was compensated *locally*
    /// (SWEEP family — the paper's headline mechanism).
    pub local_compensations: u64,
    /// Compensating *queries* sent to sources (ECA / C-strobe — what SWEEP
    /// avoids).
    pub compensation_queries: u64,
    /// Deepest recursion reached (Nested SWEEP frame stack; 1 = no
    /// recursion).
    pub max_recursion_depth: u64,
    /// Times recursion was refused because the depth bound was hit
    /// (Nested SWEEP forced-termination switch).
    pub depth_bound_hits: u64,
    /// Per-update staleness: install time − delivery time, in simulation
    /// microseconds. Log-linear buckets; `count`/`sum`/`min`/`max` exact.
    staleness: Histogram,
}

impl PolicyMetrics {
    /// Record that an update delivered at `delivered` was incorporated into
    /// the view at `installed`.
    pub fn record_staleness(&mut self, delivered: Time, installed: Time) {
        self.staleness.record(installed.saturating_sub(delivered));
    }

    /// The full staleness distribution.
    pub fn staleness_histogram(&self) -> &Histogram {
        &self.staleness
    }

    /// Mean staleness in microseconds (0 when no samples). Exact: the
    /// histogram tracks the sample sum outside its buckets.
    pub fn mean_staleness(&self) -> f64 {
        self.staleness.mean().unwrap_or(0.0)
    }

    /// Maximum staleness observed (exact).
    pub fn max_staleness(&self) -> Time {
        self.staleness.max().unwrap_or(0)
    }

    /// Staleness percentile `p ∈ [0, 100]` (nearest rank over histogram
    /// buckets — values below 128 µs exact, ≤1/64 low otherwise; 0 when
    /// empty).
    pub fn staleness_percentile(&self, p: f64) -> Time {
        self.staleness.percentile(p).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staleness_stats() {
        let mut m = PolicyMetrics::default();
        m.record_staleness(10, 30);
        m.record_staleness(20, 30);
        assert_eq!(m.staleness_histogram().count(), 2);
        assert_eq!(m.mean_staleness(), 15.0);
        assert_eq!(m.max_staleness(), 20);
    }

    #[test]
    fn empty_staleness_is_zero() {
        let m = PolicyMetrics::default();
        assert_eq!(m.mean_staleness(), 0.0);
        assert_eq!(m.max_staleness(), 0);
    }

    #[test]
    fn saturating_on_clock_skew() {
        let mut m = PolicyMetrics::default();
        m.record_staleness(50, 40); // install "before" delivery: clamp to 0
        assert_eq!(m.max_staleness(), 0);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let mut m = PolicyMetrics::default();
        for v in [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 100] {
            m.record_staleness(0, v);
        }
        assert_eq!(m.staleness_percentile(50.0), 50);
        assert_eq!(m.staleness_percentile(95.0), 100);
        assert_eq!(m.staleness_percentile(100.0), 100);
        assert_eq!(m.staleness_percentile(0.0), 10);
        assert_eq!(PolicyMetrics::default().staleness_percentile(50.0), 0);
    }
}
