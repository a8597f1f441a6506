//! Run results, and the message accounting both reports share.

use dw_consistency::{ConsistencyReport, LagSeries, Recorder};
use dw_protocol::UpdateId;
use dw_relational::Bag;
use dw_simnet::{LinkStats, NetStats, Time, TraceEvent};
use dw_warehouse::{InstallEvent, PolicyMetrics};

/// Every policy's query/answer labels: sweep hops, ECA's queries and
/// Recompute's dumps. A scheduler run sends only the first two.
const QUERY_LABELS: [&str; 6] = [
    "query",
    "answer",
    "eca_query",
    "eca_answer",
    "dump_query",
    "dump_answer",
];

/// Query/answer messages in `net`, per label as `count` sees it: on the
/// wire ([`NetStats::label`]) or logically ([`NetStats::label_logical`]:
/// each once at send time, however often the fault layer and the
/// transport made the wire repeat it).
pub(crate) fn query_messages(net: &NetStats, count: fn(&NetStats, &str) -> LinkStats) -> u64 {
    QUERY_LABELS.iter().map(|l| count(net, l).messages).sum()
}

/// `messages` per update (0 for a run that received none).
pub(crate) fn per_update(messages: u64, updates: u64) -> f64 {
    if updates == 0 {
        return 0.0;
    }
    messages as f64 / updates as f64
}

/// The message accounting of a report with a `net: NetStats` field and
/// a `PolicyMetrics` field `$metrics` counting the updates the warehouse
/// received, as inherent methods.
macro_rules! message_accounting {
    ($metrics:ident) => {
        /// Query/answer round-trip messages (excludes the update stream).
        pub fn query_messages(&self) -> u64 {
            $crate::report::query_messages(&self.net, dw_simnet::NetStats::label)
        }

        /// Query/answer messages per warehouse-received update — Table
        /// 1's column, and E14's: `2(n−1)` for SWEEP whatever the view
        /// count.
        pub fn messages_per_update(&self) -> f64 {
            $crate::report::per_update(self.query_messages(), self.$metrics.updates_received)
        }

        /// Query/answer messages counted once at send time — under faults
        /// the number the paper's `2(n−1)` claim (E6) is about.
        pub fn logical_query_messages(&self) -> u64 {
            $crate::report::query_messages(&self.net, dw_simnet::NetStats::label_logical)
        }

        /// Logical query/answer messages per update.
        pub fn logical_messages_per_update(&self) -> f64 {
            let updates = self.$metrics.updates_received;
            $crate::report::per_update(self.logical_query_messages(), updates)
        }
    };
}
pub(crate) use message_accounting;

/// Everything observable from one experiment run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Policy that ran ("sweep", "strobe", …).
    pub policy: &'static str,
    /// Final materialized view.
    pub view: Bag,
    /// Every install, in order.
    pub installs: Vec<InstallEvent>,
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
    /// What the warehouse was delivered: every update once, in delivery
    /// order, over the initial relations — the run's ground truth.
    pub truth: Recorder,
}

impl RunReport {
    message_accounting!(metrics);

    /// Warehouse delivery log `(update, delivery time)` in delivery order.
    pub fn delivery_log(&self) -> Vec<(UpdateId, Time)> {
        self.truth.delivery_log()
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
        LagSeries::new(&self.delivery_log(), &self.installs)
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
        .policy(PolicyKind::Sweep(crate::EngineOptions::FIGURE_4))
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
        let log = r.delivery_log();
        assert_eq!(log.len() as u64, r.metrics.updates_received);
        assert!(log.windows(2).all(|w| w[0].1 <= w[1].1));
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
