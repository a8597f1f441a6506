//! # dwsweep
//!
//! A from-scratch Rust implementation of **“Efficient View Maintenance at
//! Data Warehouses”** (Agrawal, El Abbadi, Singh, Yurek — SIGMOD 1997): the
//! **SWEEP** and **Nested SWEEP** incremental view-maintenance algorithms
//! for a data warehouse fed by multiple autonomous distributed sources,
//! plus the baselines the paper compares against (ECA, Strobe, C-strobe,
//! full recompute), a deterministic distributed-systems simulator, a
//! thread-based live runtime, workload generators, and a consistency
//! checker that classifies every run on the paper's hierarchy
//! (convergent ⊂ weak ⊂ strong ⊂ complete).
//!
//! ## Quickstart
//!
//! ```
//! use dwsweep::prelude::*;
//!
//! // A 3-source chain view with keyed relations and a mixed workload.
//! let scenario = StreamConfig {
//!     n_sources: 3,
//!     updates: 20,
//!     mean_gap: 500,          // dense updates → heavy interference
//!     ..Default::default()
//! }
//! .generate()
//! .unwrap();
//!
//! // Maintain it with SWEEP (Figure 4) over 1 ms links and verify
//! // consistency.
//! let report = Experiment::new(scenario)
//!     .policy(PolicyKind::Sweep(EngineOptions::FIGURE_4))
//!     .run()
//!     .unwrap();
//!
//! assert!(report.quiescent);
//! assert_eq!(report.messages_per_update(), 4.0); // 2(n−1)
//! assert_eq!(report.views[0].consistency.as_ref().unwrap().level, ConsistencyLevel::Complete);
//! ```
//!
//! ## Crate map
//!
//! | Re-export | Crate | Role |
//! |---|---|---|
//! | [`relational`] | `dw-relational` | bag algebra, SPJ chain views, deltas |
//! | [`simnet`] | `dw-simnet` | deterministic FIFO network simulator |
//! | [`protocol`] | `dw-protocol` | source ↔ warehouse messages |
//! | [`source`] | `dw-source` | the update & query server (paper Fig. 3) |
//! | [`warehouse`] | `dw-warehouse` | Table 1's comparison policies: ECA, Strobe, C-strobe, Recompute |
//! | [`engine`] | `dw-engine` | the one transport-blind sweep loop every executor adapts |
//! | [`consistency`] | `dw-consistency` | ground truth + classification |
//! | [`workload`] | `dw-workload` | scenario/stream generators |
//! | [`multiview`] | `dw-multiview` | view registry + the one lane-based scheduler that runs SWEEP and Nested SWEEP (`EngineOptions::depth`) for one view or many (unsharded = one group) + derived-view DAG cascade |
//! | [`serve`] | `dw-serve` | snapshot-pinned read path + subscriptions |
//! | [`livenet`] | `dw-livenet` | thread-per-node live runtime |
//! | [`core`] | `dw-core` | experiments and reports |

#![warn(missing_docs)]

pub use dw_consistency as consistency;
pub use dw_core as core;
pub use dw_engine as engine;
pub use dw_livenet as livenet;
pub use dw_multiview as multiview;
pub use dw_protocol as protocol;
pub use dw_relational as relational;
pub use dw_rng as rng;
pub use dw_serve as serve;
pub use dw_simnet as simnet;
pub use dw_source as source;
pub use dw_warehouse as warehouse;
pub use dw_workload as workload;

/// One-line import for applications.
pub mod prelude {
    pub use dw_consistency::{
        mutual_consistency, verify_fifo, view_states, ConsistencyLevel, ConsistencyReport,
        MutualReport, Recorder, SlotView, ViewLog,
    };
    pub use dw_core::{
        audit_lag_recoveries, audit_reads, oracle_expects_rejection, oracle_view_at_epoch,
        CoreError, Experiment, LagAudit, LagEvent, LagSubscription, MultiViewExperiment,
        MultiViewReport, OracleAudit, PolicyKind, ReadOutcome, ReadResult, ServeOutcome,
        SubscriptionOutcome, ViewOutcome,
    };
    pub use dw_multiview::{
        CascadeStats, EngineOptions, MaintenanceScheduler, SchedulerMode, ShardStats,
        ShardedScheduler, ViewId, ViewRegistry,
    };
    pub use dw_protocol::TransportConfig;
    pub use dw_relational::{
        tup, AggFn, AggregateSpec, AggregateState, Bag, BaseRelation, CmpOp, KeySpec, Schema,
        ShardMap, SharedBag, Tuple, Value, ViewDef, ViewDefBuilder,
    };
    pub use dw_serve::{
        InstallEvent, PinnedEpoch, PointAnswer, ReadFrontend, ScanAnswer, ServeError, ServeStats,
        StalenessBound,
    };
    pub use dw_simnet::{Crash, FaultPlan, LatencyModel, LinkFaults, Network, Outage, Time};
    pub use dw_warehouse::MaintenancePolicy;
    pub use dw_workload::{
        DerivedOp, DerivedSpec, FaultScenarioConfig, GapKind, GeneratedScenario, MultiViewConfig,
        MultiViewScenario, ReadKind, ReadMixConfig, ReadOp, ScheduledTxn, ShardedConfig,
        ShardedScenario, SourcePick, StreamConfig, ViewPolicy, ViewSpec,
    };
}
