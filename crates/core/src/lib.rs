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

#![warn(missing_docs)]

pub mod experiment;
pub mod multi_experiment;
pub mod report;
mod runner;
pub mod serve_experiment;

pub use experiment::{CoreError, Experiment, PolicyKind};
pub use multi_experiment::{DerivedOutcome, MultiViewExperiment, MultiViewReport, ViewOutcome};
pub use report::RunReport;
pub use serve_experiment::{
    audit_lag_recoveries, audit_reads, oracle_expects_rejection, oracle_view_at_epoch, LagAudit,
    LagEvent, LagSubscription, OracleAudit, ReadOutcome, ReadResult, ServeExperiment, ServeReport,
    SubscriptionOutcome,
};
