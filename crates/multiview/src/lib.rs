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
//!   ([`dw_workload::ViewPolicy`]: SWEEP, Nested-SWEEP-style batching,
//!   or deferred refresh);
//! * a [`MaintenanceScheduler`] — **one** lane-based scheduler for every
//!   configuration. On arrival of `ΔR_j` it fans out to every registered
//!   view referencing `R_j` and executes a **shared sweep**: one two-leg
//!   pass over the *union* `[L, R]` of the affected spans (contiguous,
//!   because every affected span contains `j`), issuing a single
//!   incremental query per source hop:
//!   - the **left leg** carries the true delta and hops `j−1, …, L`;
//!   - the **right leg** carries the delta's *support* (each distinct
//!     tuple at `+1`, §5.3's parallel-sweep trick) and hops `j+1, …, R`;
//!   - after each hop's answer, the paper's on-line error correction
//!     (§4) subtracts `ΔR_k ⋈ Temp` for every queued concurrent update
//!     from the hop source — once, on the shared partial, so every view
//!     inherits it;
//!   - a view with span `[lo, hi]` **snapshots** the left partial the
//!     moment it reaches `lo` and the right partial the moment it
//!     reaches `hi`; its own delta is the pivot-merge of its two
//!     snapshots (equating the shared `ΔR_j` columns, multiplying
//!     counts), filtered by its selections, then finalized through its
//!     residual predicate and projection at the warehouse.
//!
//!   In-flight sweeps live in **lanes**, each claiming the mask of the
//!   value bands its delta can touch, and every install leaves through
//!   an arrival-order ticket. Without a [`dw_relational::ShardMap`]
//!   there is one band — the paper's serial SWEEP; with one, sweeps with
//!   disjoint masks run concurrently while the install order stays
//!   arrival order. Cross-update batching (a lane folds its batch
//!   inside its mask), σ pushdown and checkpoint + WAL crash recovery —
//!   one recovery, lanes in flight or not — are options of that one
//!   state machine and compose with each other and with a map; the two
//!   configurations it refuses (a map over a cross-product hop, a batch
//!   width of 0) are typed errors decided in one place, its constructor.
//!   [`ShardedScheduler`] is a thin newtype for callers that want the
//!   sharded configuration as a type.
//! * a **maintenance DAG** — derived views registered *over* other views
//!   ([`ViewRegistry::register_derived`], specs from
//!   [`dw_workload::DerivedSpec`]): σ/Π and Σ/group-by operators, stacks
//!   over stacks, cycles and unknown parents rejected deterministically
//!   at registration. Derived views are **never swept**: when a parent
//!   commits an install, the signed delta cascades to each child locally
//!   at the warehouse — children ascending by slot, depth-first, each
//!   child's install consuming the *same* update ids as the parent so
//!   the install logs stay 1:1 epoch-aligned. Identical sibling σ/Π
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
    MaintenanceScheduler, RecoveryStats, SchedulerMode, ShardStats, NEEDS_DURABLE_STORE,
};
pub use sharded::ShardedScheduler;
