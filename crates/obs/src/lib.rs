//! # dw-obs
//!
//! Zero-dependency observability for the deterministic simulator:
//!
//! - **Spans** stamped in *simulated virtual time*, so two runs of the
//!   same seeded scenario produce byte-identical traces.
//! - **Histograms** with a fixed log-linear bucket layout (`p50/p95/p99`
//!   by nearest rank; `count`/`sum`/`min`/`max` exact).
//! - **Counters**, monotonic.
//! - One recorder, the in-memory [`TraceRecorder`], behind the cloneable
//!   [`Obs`] handle: `Obs::trace()` attaches one, `Obs::off()` makes every
//!   call a null-pointer check, so instrumented hot paths cost nothing
//!   when observability is disabled.
//!
//! This crate sits below every other `dw-*` crate and depends only on
//! `std`.

#![warn(missing_docs)]

mod hist;
mod trace;

/// Virtual time in microseconds — mirrors `dw_simnet::Time` (dw-obs sits
/// below dw-simnet in the dependency graph, so the alias lives here too).
pub type Time = u64;

pub use hist::Histogram;
pub use trace::{Obs, SpanId, TraceRecorder};
