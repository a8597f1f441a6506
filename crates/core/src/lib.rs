//! # dw-core
//!
//! The public orchestration API of `dwsweep`: build a scenario (view +
//! initial data + transaction stream), pick a maintenance policy and a
//! network profile, run the deterministic simulation, and get back a
//! [`RunReport`] with the materialized view, install history, message
//! accounting, staleness, and a verified consistency classification.
//!
//! ```
//! use dw_core::{Experiment, PolicyKind};
//! use dw_workload::StreamConfig;
//!
//! let scenario = StreamConfig { updates: 10, ..Default::default() }
//!     .generate()
//!     .unwrap();
//! let report = Experiment::new(scenario)
//!     .policy(PolicyKind::Sweep(Default::default()))
//!     .run()
//!     .unwrap();
//! assert_eq!(report.consistency.as_ref().unwrap().level.to_string(), "complete");
//! ```
//!
//! Many views under one scheduler is [`MultiViewExperiment`]; sharding,
//! durability and serving are options of that one builder. `.reads(..)`
//! resolves a read schedule against per-install snapshots beside
//! maintenance, and the oracles audit what the readers saw:
//!
//! ```
//! use dw_core::{audit_reads, MultiViewExperiment};
//! use dw_workload::{MultiViewConfig, ReadMixConfig};
//!
//! let scenario = MultiViewConfig { n_views: 2, ..Default::default() }
//!     .generate()
//!     .unwrap();
//! let reads = ReadMixConfig { n_views: 2, ..Default::default() }.generate();
//! let report = MultiViewExperiment::new(scenario.clone())
//!     .reads(reads)
//!     .run()
//!     .unwrap();
//! assert!(report.served().unwrap().answered() > 0);
//! assert!(audit_reads(&scenario, &report).unwrap().clean());
//! assert!(report.subscriptions_match_installs());
//! ```

#![warn(missing_docs)]

pub mod experiment;
pub mod multi_experiment;
pub mod report;
mod runner;
pub mod serve;

pub use experiment::{CoreError, Experiment, PolicyKind};
pub use multi_experiment::{DerivedOutcome, MultiViewExperiment, MultiViewReport, ViewOutcome};
pub use report::RunReport;
pub use serve::{
    audit_lag_recoveries, audit_reads, oracle_expects_rejection, oracle_view_at_epoch,
    publish_copied_tuples, LagAudit, LagEvent, LagSubscription, OracleAudit, ReadOutcome,
    ReadResult, ServeOutcome, SubscriptionOutcome,
};
