//! Run results.

use dw_consistency::{ConsistencyReport, LagSeries};
use dw_protocol::UpdateId;
use dw_relational::Bag;
use dw_simnet::{NetStats, Time, TraceEvent};
use dw_warehouse::{InstallRecord, PolicyMetrics};

/// Everything observable from one experiment run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Policy that ran ("sweep", "strobe", …).
    pub policy: &'static str,
    /// Final materialized view.
    pub view: Bag,
    /// Every install, in order.
    pub installs: Vec<InstallRecord>,
    /// Algorithm-level counters (queries, compensations, staleness, …).
    pub metrics: PolicyMetrics,
    /// Network-level accounting (per link / per label messages and bytes).
    pub net: NetStats,
    /// Consistency classification (when checking was enabled).
    pub consistency: Option<ConsistencyReport>,
    /// Whether the policy reported quiescence at the end of the run.
    pub quiescent: bool,
    /// Simulation time at the end of the run (µs).
    pub end_time: Time,
    /// Deliveries processed.
    pub events: u64,
    /// Network trace (when tracing was enabled).
    pub trace: Vec<TraceEvent>,
    /// Warehouse delivery log `(update, delivery time)` in delivery order.
    pub delivery_log: Vec<(UpdateId, Time)>,
}

impl RunReport {
    /// Query/answer round-trip messages only (excludes the update stream).
    pub fn query_messages(&self) -> u64 {
        [
            "query",
            "answer",
            "eca_query",
            "eca_answer",
            "dump_query",
            "dump_answer",
        ]
        .iter()
        .map(|l| self.net.label(l).messages)
        .sum()
    }

    /// Query/answer messages per processed update — the Table 1 column.
    pub fn messages_per_update(&self) -> f64 {
        if self.metrics.updates_received == 0 {
            return 0.0;
        }
        self.query_messages() as f64 / self.metrics.updates_received as f64
    }

    /// Query/answer round trips counted *logically* — each message once at
    /// send time, however often the fault layer and the transport made the
    /// wire repeat it. Under faults this is the number the paper's
    /// `2(n−1)` claim (E6) is about; on a clean run it equals
    /// [`RunReport::query_messages`].
    pub fn logical_query_messages(&self) -> u64 {
        [
            "query",
            "answer",
            "eca_query",
            "eca_answer",
            "dump_query",
            "dump_answer",
        ]
        .iter()
        .map(|l| self.net.label_logical(l).messages)
        .sum()
    }

    /// Logical query/answer messages per processed update — the Table 1
    /// column, robust to retransmission inflation.
    pub fn logical_messages_per_update(&self) -> f64 {
        if self.metrics.updates_received == 0 {
            return 0.0;
        }
        self.logical_query_messages() as f64 / self.metrics.updates_received as f64
    }

    /// Bytes the reliability transport added to the wire: retransmitted
    /// frames plus ack/resync control traffic. Zero when the transport is
    /// off or the network is clean enough to never retransmit.
    pub fn transport_overhead_bytes(&self) -> u64 {
        self.net.retransmitted().bytes
            + ["ack", "resync", "resync_ack"]
                .iter()
                .map(|l| self.net.label(l).bytes)
                .sum::<u64>()
    }

    /// View lag over time — how far the view trails the delivered updates
    /// (the §3 "trailing" phenomenon, quantified).
    pub fn lag_series(&self) -> LagSeries {
        LagSeries::new(&self.delivery_log, &self.installs)
    }
}

#[cfg(test)]
mod tests {
    use crate::{Experiment, PolicyKind};
    use dw_workload::StreamConfig;

    fn run() -> super::RunReport {
        Experiment::new(
            StreamConfig {
                n_sources: 3,
                updates: 10,
                initial_per_source: 15,
                mean_gap: 500,
                seed: 77,
                ..Default::default()
            }
            .generate()
            .unwrap(),
        )
        .policy(PolicyKind::Sweep(Default::default()))
        .run()
        .unwrap()
    }

    #[test]
    fn message_accounting_consistent() {
        let r = run();
        // Updates + queries + answers == everything except injections.
        let updates = r.net.label("update").messages;
        let maintenance = r.net.total().messages - r.net.label("txn").messages;
        assert_eq!(maintenance, updates + r.query_messages());
        assert_eq!(r.messages_per_update(), 4.0); // 2(n−1)
        assert!(r.net.label("query").bytes > 0);
    }

    #[test]
    fn delivery_log_matches_metrics() {
        let r = run();
        assert_eq!(r.delivery_log.len() as u64, r.metrics.updates_received);
        assert!(r.delivery_log.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn lag_series_from_report() {
        let r = run();
        let lag = r.lag_series();
        assert_eq!(lag.final_lag(), 0, "quiescent run must catch up");
        assert!(lag.max_lag() >= 1);
    }

    #[test]
    fn zero_update_run_divides_safely() {
        let r = Experiment::new(
            StreamConfig {
                updates: 0,
                ..Default::default()
            }
            .generate()
            .unwrap(),
        )
        .run()
        .unwrap();
        assert_eq!(r.messages_per_update(), 0.0);
        assert_eq!(r.net.total().messages, r.net.label("txn").messages);
    }
}
