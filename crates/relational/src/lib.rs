//! # dw-relational
//!
//! The relational substrate used by every other crate in the `dwsweep`
//! workspace. It implements exactly the machinery the SWEEP paper
//! (Agrawal, El Abbadi, Singh, Yurek — *Efficient View Maintenance at Data
//! Warehouses*, SIGMOD '97) assumes of its data model:
//!
//! * **Bag (multiset) relations with tuple counts** — following the counting
//!   algebra of Gupta/Mumick/Subrahmanian \[GMS93], every tuple carries a
//!   multiplicity. Base relations have strictly positive counts; *delta*
//!   relations carry **signed** counts (`+k` inserts, `−k` deletes).
//! * **SPJ chain views** — `Π_proj σ_sel (R_1 ⋈ R_2 ⋈ … ⋈ R_n)` with
//!   equi-join conditions between adjacent relations, per-relation local
//!   selections, an optional residual selection over the joined width, and a
//!   final projection (which need *not* include key attributes — SWEEP does
//!   not require the unique-key assumption that Strobe/C-strobe do).
//! * **Partial sweep states** — the in-flight `ΔV` of a left/right sweep is
//!   a delta over a *contiguous range* `[lo..=hi]` of the chain; extending
//!   it by one relation on either side is the `ComputeJoin` of the paper's
//!   Figure 3, and joining it with a concurrent `ΔR_j` is the *local
//!   compensation* of Figure 4.
//!
//! The algebra is deliberately value-oriented and deterministic: equal inputs
//! produce identical `Bag`s regardless of hash iteration order because all
//! public observations (`to_sorted_vec`, equality, counts) are
//! order-insensitive or canonicalized.

#![warn(missing_docs)]

pub mod aggregate;
pub mod bag;
pub mod error;
pub mod eval;
pub mod index;
pub mod key;
pub mod predicate;
pub mod relation;
pub mod schema;
pub mod shard;
pub mod shared;
pub mod sql;
pub mod tuple;
pub mod value;
pub mod view;

pub use aggregate::{AggFn, AggregateSpec, AggregateState};
pub use bag::Bag;
pub use error::RelationalError;
pub use eval::{
    eval_view, extend_hop, extend_partial, merge_pivot, JoinSide, Neighbor, PartialDelta,
};
pub use index::{extend_partial_indexed, JoinIndex};
pub use key::KeySpec;
pub use predicate::{CmpOp, Predicate};
pub use relation::BaseRelation;
pub use schema::Schema;
pub use shard::ShardMap;
pub use shared::{SharedBag, SharedMap};
pub use sql::parse_view;
pub use tuple::Tuple;
pub use value::Value;
pub use view::{ViewDef, ViewDefBuilder};
