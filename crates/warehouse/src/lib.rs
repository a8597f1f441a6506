//! # dw-warehouse
//!
//! The warehouse site's comparison policies — every view-maintenance
//! algorithm of the paper's Table 1 other than SWEEP itself — each as an
//! explicit event-driven state machine:
//!
//! | Policy | Paper section | Consistency | Message cost / update | Notes |
//! |---|---|---|---|---|
//! | [`Eca`] | §3 (ZGMHW95) | strong | `O(1)` queries, quadratic size | single-site source |
//! | [`Strobe`] | §3 (ZGMW96) | strong | `O(n)` | unique keys, installs at quiescence |
//! | [`CStrobe`] | §3 (ZGMW96) | complete | up to `K^(n−2)` queries | unique keys |
//! | [`Recompute`] | baseline | convergence | `2n` per refresh | full refresh |
//!
//! SWEEP (§5, Fig. 4 — complete consistency, `2(n−1)` messages per
//! update, §5.3's parallel legs, short-circuit and pipelining, type-3
//! global transactions) and Nested SWEEP (§6, Fig. 6 — strong
//! consistency, `O(n)` messages amortized over a dovetailed batch, the
//! §6.2 depth bound) are one-view `dw_multiview::MaintenanceScheduler`s,
//! Nested SWEEP being SWEEP with `EngineOptions::depth ≠ 1`: one
//! scheduler runs the family for one view or many.
//!
//! All policies implement [`MaintenancePolicy`]; the orchestration layer
//! feeds them [`dw_simnet::Delivery`] events and they talk back through the
//! network. Every install is logged with the exact set of consumed update
//! ids so the consistency checker can replay and classify the run.

#![warn(missing_docs)]

pub mod cstrobe;
pub mod eca;
pub mod recompute;
pub mod strobe;
mod testkit;

// The mechanism layer (errors, install events, metrics, the policy trait, the
// update queue, the materialized view) lives in `dw-engine`.
pub use dw_engine::{
    InstallEvent, InstallLog, MaintenancePolicy, MaterializedView, PendingUpdate, PolicyMetrics,
    UpdateQueue, WarehouseError,
};

pub use cstrobe::CStrobe;
pub use eca::Eca;
pub use recompute::Recompute;
pub use strobe::Strobe;
