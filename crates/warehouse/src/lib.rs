//! # dw-warehouse
//!
//! The warehouse site and every view-maintenance policy studied in the
//! paper, each as an explicit event-driven state machine:
//!
//! | Policy | Paper section | Consistency | Message cost / update | Notes |
//! |---|---|---|---|---|
//! | [`Sweep`] | §5, Fig. 4 | complete | `2(n−1)` | local compensation; §5.3 parallel legs, pipelining window |
//! | [`NestedSweep`] | §6, Fig. 6 | strong | `O(n)` amortized | dovetails concurrent updates |
//! | [`Eca`] | §3 (ZGMHW95) | strong | `O(1)` queries, quadratic size | single-site source |
//! | [`Strobe`] | §3 (ZGMW96) | strong | `O(n)` | unique keys, installs at quiescence |
//! | [`CStrobe`] | §3 (ZGMW96) | complete | up to `K^(n−2)` queries | unique keys |
//! | [`Recompute`] | baseline | convergence | `2n` per refresh | full refresh |
//!
//! All policies implement [`MaintenancePolicy`]; the orchestration layer
//! feeds them [`dw_simnet::Delivery`] events and they talk back through the
//! network. Every install is logged with the exact set of consumed update
//! ids so the consistency checker can replay and classify the run.

#![warn(missing_docs)]

pub mod cstrobe;
pub mod eca;
pub mod nested_sweep;
pub mod recompute;
pub mod strobe;
pub mod sweep;
mod testkit;

// The mechanism layer (errors, install log, metrics, the policy trait, the
// update queue, the materialized view) lives in `dw-engine`.
pub use dw_engine::{
    InstallRecord, MaintenancePolicy, MaterializedView, PendingUpdate, PolicyMetrics, UpdateQueue,
    WarehouseError,
};

pub use cstrobe::CStrobe;
pub use eca::Eca;
pub use nested_sweep::{NestedSweep, NestedSweepOptions};
pub use recompute::Recompute;
pub use strobe::Strobe;
pub use sweep::{Sweep, SweepOptions};
