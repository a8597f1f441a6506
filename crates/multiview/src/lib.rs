//! # dw-multiview
//!
//! The multi-view warehouse layer: many SPJ views, one sweep.
//!
//! The paper maintains a single view `V = Π σ (R_1 ⋈ … ⋈ R_n)`. A real
//! warehouse hosts **many** views over overlapping source sets, and
//! maintaining each one independently repeats the same source
//! round-trips. This crate adds:
//!
//! * a [`ViewRegistry`] — register SPJ views at runtime (a registered
//!   view stays for the registry's lifetime), each
//!   a contiguous span `[lo, hi]` of one shared base chain with its own
//!   selections, projection, and maintenance cadence
//!   ([`dw_workload::ViewPolicy`]: SWEEP, or deferred refresh every
//!   `batch` consumed updates — `0`: only at drain — held where global
//!   transactions are held, in the scheduler's install sequencer);
//! * a [`MaintenanceScheduler`] — **one** lane-based scheduler for every
//!   configuration, one view (the paper's SWEEP, a one-view registry
//!   over the view's bare chain, and at any `EngineOptions::depth` but 1
//!   its Nested SWEEP) or many. On arrival of `ΔR_j` it executes one **shared sweep** over the
//!   *union* `[L, R]` of the spans of the views referencing `R_j` — one
//!   incremental query per hop, compensated once (§4) on the shared
//!   partial, each view peeling off its delta where the walk covers its
//!   span — with two legs (§5.3) or Figure 4's one. Lanes claim value-band
//!   masks and installs leave in arrival-ticket order, so sharding,
//!   pipelining, Figure 6's nesting, batching, σ pushdown, global
//!   transactions and crash recovery are options of that one state
//!   machine (module docs of
//!   `scheduler`). Its constructor refuses no configuration — a map over
//!   a cross-product hop starts every band in one group, and `0` is no
//!   bound for batching as for the window and the depth; the one refusal
//!   is a state crash without a durable store. [`ShardedScheduler`] is a
//!   thin newtype for callers that want the sharded configuration as a
//!   type.
//! * a **maintenance DAG** — derived views registered *over* other views
//!   ([`ViewRegistry::register_derived`], specs from
//!   [`dw_workload::DerivedSpec`]): σ/Π and Σ/group-by operators, stacks
//!   over stacks, cycles and unknown parents rejected deterministically
//!   at registration. Derived views are **never swept**: when a parent
//!   commits an install, the signed delta cascades to each child locally
//!   at the warehouse — children ascending by slot, depth-first, each
//!   child's install consuming the *same* update ids as the parent so
//!   the install streams stay 1:1 epoch-aligned. Identical sibling σ/Π
//!   derivations are evaluated once and shared ([`CascadeStats`] counts
//!   the memo hits); aggregate children each fold the delta into their
//!   own accumulators (group state mutates exactly once, so Σ work is
//!   never shared). The cascade rides the sharded engine's sequenced
//!   install releases and the durability WAL replay unchanged.
//!
//! The message-cost win (experiment E14): a shared sweep costs at most
//! `2(n−1)` messages per update **regardless of how many views**
//! reference `R_j`, where maintaining each view alone — V one-view
//! warehouses, the baseline E14 runs — costs `V·2(n−1)`.
//! The DAG extends it (experiment E20): a derived stack of any depth
//! adds **zero** source messages — the `2(n−1)` toll is paid exactly
//! once at the base layer.
//!
//! ## Why span snapshots are sound
//!
//! The base chain carries no selections and an identity projection, so
//! every query/answer and every compensation happens on *unfiltered*
//! join tuples. Selection commutes with join, and bag subtraction
//! distributes over filtering — so filtering the compensated span
//! partial per view yields exactly what a dedicated per-view SWEEP
//! would have computed. The FIFO channel argument (§5) is per-hop and
//! does not care which sweep the hop belongs to.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod registry;
mod scheduler;
mod sharded;

pub use dw_engine::{DurabilityConfig, EngineOptions};
pub use registry::{CascadeStats, MvError, ViewId, ViewRegistry};
pub use scheduler::{
    CompletionLog, MaintenanceScheduler, RecoveryStats, SchedulerMode, ShardStats,
    NEEDS_DURABLE_STORE,
};
pub use sharded::ShardedScheduler;
