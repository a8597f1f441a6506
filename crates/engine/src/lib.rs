//! # dw-engine
//!
//! The single canonical sweep loop of the paper (§4–§5), factored out of
//! the four executors that used to each carry their own copy
//! (`warehouse::sweep`, `warehouse::nested_sweep`, `multiview::scheduler`,
//! `livenet::cluster`). The engine owns the mechanism; the executors own
//! the strategy:
//!
//! * **Mechanism** ([`EngineCore`]): hop iteration over sources
//!   (`ComputeJoin` queries correlated by qid), `TempView` accumulation
//!   ([`Leg`]/[`Frame`]), on-line compensation
//!   `ΔV ← ΔV − ΔR_j ⋈ TempView` against the FIFO update queue, pivot
//!   merging of parallel legs ([`merge_pivot`]), and atomic install with
//!   staleness accounting ([`InstallSink`]).
//! * **Strategy** ([`SweepPolicy`] implementors): plain SWEEP's
//!   one-update-per-sweep state machine, Nested SWEEP's dovetailing frame
//!   stack, and the multiview shared sweep are thin adapters that decide
//!   *which* hops to take and *when* to install, all driving the same
//!   mechanism.
//!
//! The transport is abstracted behind [`dw_simnet::NetHandle`], which both
//! the deterministic simulator ([`dw_simnet::Network`]) and the live
//! thread-per-node runtime ([`ThreadNet`], served by [`run_cluster`])
//! implement — the engine cannot tell virtual channels from real ones,
//! which is what the cross-backend conformance suite asserts.
//!
//! Observability: every hop emits an `engine.hop` span nested under the
//! adapter's own hop span, every compensation bumps the
//! `engine.compensations` counter next to the adapter's counter, and every
//! completed unit of work records its update count into the
//! `engine.batch_size` histogram (1 for plain SWEEP; k when cross-update
//! batching folds k queued updates into one sweep).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod core;
pub mod durable;
pub mod error;
pub mod install;
pub mod live;
pub mod metrics;
pub mod options;
pub mod policy;
pub mod publish;
pub mod queue;
pub mod sequencer;
pub mod view;

pub use crate::core::{
    dispatch, merge_pivot, support, EngineCore, Frame, HopSpan, InstallSink, Leg, LegSlot,
    SpanLabels, SweepCtx, SweepPolicy,
};
pub use durable::{DurabilityConfig, DurableStats, DurableStore, WalRecord};
pub use error::WarehouseError;
pub use install::InstallRecord;
pub use live::{run_cluster, ClusterOutcome, LiveError, NodeRunner, ThreadNet};
pub use metrics::PolicyMetrics;
pub use options::{EngineOptions, NestedSweepOptions, SweepOptions};
pub use policy::MaintenancePolicy;
pub use publish::{InstallEvent, InstallPublisher, SharedInstallPublisher};
pub use queue::{PendingUpdate, UpdateQueue};
pub use sequencer::{InstallSequencer, SequencedInstall};
pub use view::MaterializedView;
