//! # dw-core
//!
//! The public orchestration API of `dwsweep`: build a scenario (view +
//! initial data + transaction stream), pick a maintenance policy and a
//! network profile, run the deterministic simulation, and get back a
//! [`MultiViewReport`] — one slot per view, each with its materialized
//! contents, install history, staleness and verified consistency
//! classification — with the run's message accounting.
//!
//! ```
//! use dw_core::{EngineOptions, Experiment, PolicyKind};
//! use dw_workload::StreamConfig;
//!
//! let scenario = StreamConfig { updates: 10, ..Default::default() }
//!     .generate()
//!     .unwrap();
//! let report = Experiment::new(scenario)
//!     .policy(PolicyKind::Sweep(EngineOptions::FIGURE_4))
//!     .run()
//!     .unwrap();
//! let view = &report.views[0];
//! assert_eq!(view.consistency.as_ref().unwrap().level.to_string(), "complete");
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
//! let report = MultiViewExperiment::new(scenario)
//!     .reads(reads)
//!     .run()
//!     .unwrap();
//! assert!(report.served().unwrap().answered() > 0);
//! assert!(audit_reads(&report).unwrap().clean());
//! assert!(report.subscriptions_match_installs());
//! ```

#![warn(missing_docs)]

pub mod experiment;
pub mod multi_experiment;
mod runner;
pub mod serve;

pub use dw_multiview::EngineOptions;
pub use experiment::{CoreError, Experiment, PolicyKind};
pub use multi_experiment::{MultiViewExperiment, MultiViewReport, ViewOutcome};
pub use serve::{
    audit_lag_recoveries, audit_reads, oracle_expects_rejection, oracle_view_at_epoch,
    publish_copied_tuples, LagAudit, LagEvent, LagSubscription, OracleAudit, ReadOutcome,
    ReadResult, ServeOutcome, SubscriptionOutcome,
};
