//! # dw-engine
//!
//! The single canonical sweep loop of the paper (§4–§5). The engine owns
//! the mechanism; the executors own the strategy:
//!
//! * **Mechanism** ([`EngineCore`], [`SweepRun`]): hop iteration over
//!   sources (`ComputeJoin` queries correlated by qid), `TempView`
//!   accumulation, on-line compensation `ΔV ← ΔV − ΔR_j ⋈ TempView`
//!   against the FIFO update queue, pivot merging of parallel legs
//!   ([`SweepRun::merge`]), and atomic install with staleness accounting
//!   ([`InstallSink`]).
//! * **Strategy** (the adapters, each matching its own messages): the
//!   scheduler's lanes (SWEEP and Nested SWEEP over one view or many — a
//!   lane stacks Figure 6's child runs up to [`EngineOptions::depth`] —
//!   with in-order release) and the Strobe family's key-based actions are
//!   thin adapters that decide *which* concurrent updates a hop
//!   compensates for and *when* to install, all driving the same
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
pub mod live;
pub mod metrics;
pub mod options;
pub mod policy;
pub mod publish;
pub mod queue;
pub mod sequencer;
pub mod view;

pub use crate::core::{EngineCore, Hop, ImageCost, InstallSink, SweepCtx, SweepRun};
pub use durable::{DurabilityConfig, DurableStats, DurableStore, WalRecord};
pub use error::WarehouseError;
pub use live::{run_cluster, ClusterOutcome, LiveError, NodeRunner, ThreadNet};
pub use metrics::PolicyMetrics;
pub use options::EngineOptions;
pub use policy::MaintenancePolicy;
pub use publish::{view_states, InstallEvent, InstallLog};
pub use publish::{InstallPublisher, SharedInstallPublisher};
pub use queue::{PendingUpdate, UpdateQueue};
pub use sequencer::{InstallSequencer, SequencedInstall};
pub use view::MaterializedView;
