//! # dw-consistency
//!
//! Ground-truth recording and consistency classification for warehouse
//! runs, implementing the paper's §2 hierarchy:
//!
//! > *convergence* ⊂ *weak* ⊂ *strong* ⊂ *complete*
//!
//! The [`Recorder`] shadows the base chain's initial relations and logs
//! every update once, **in warehouse delivery order** (the total order
//! SWEEP installs against). It is the one place a view state is
//! evaluated: [`Recorder::state`] takes a [`SlotView`] — a span of the
//! chain, plus the operator chain of a derived view — and any set of
//! delivered updates. The [`classify`] pass then replays the install log
//! a policy produced:
//!
//! * **Complete** — every install consumes exactly the next update in
//!   delivery order and lands exactly on that prefix's recomputed view:
//!   the warehouse walked through *every* source state (SWEEP, C-strobe).
//! * **Strong** — installs may batch updates, but each install lands on the
//!   recomputed view of its cumulative consumed set, consumed sets grow
//!   monotonically, and per source the consumed sequence numbers always
//!   form a prefix (a meaningful global state of autonomous sources)
//!   (Nested SWEEP, Strobe, ECA).
//! * **Weak** — every install is *some* meaningful state but the
//!   monotonicity/prefix discipline is broken somewhere.
//! * **Convergent** — intermediate installs correspond to no source state,
//!   but the final view equals the final ground truth (Recompute).
//! * **Inconsistent** — the final view is wrong. A maintenance bug.

#![warn(missing_docs)]

pub mod checker;
pub mod fifo;
pub mod lag;
pub mod multi;
pub mod truth;

pub use checker::{classify, ConsistencyLevel, ConsistencyReport};
pub use fifo::{verify_fifo, FifoReport, FifoViolation};
pub use lag::LagSeries;
pub use multi::{mutual_consistency, MutualReport, ViewLog};
pub use truth::{Recorder, SlotView};

/// How every reader of a past view state gets it: the initial contents
/// plus the install log's deltas, folded in order.
pub use dw_engine::view_states;
