//! # dw-bench
//!
//! Shared helpers for the experiment binaries (one binary per reproduced
//! paper table/figure — see `src/bin/`) and the dependency-free
//! micro-benches under `benches/`.

#![warn(missing_docs)]

pub mod cli;
pub mod json;
pub mod model;
pub mod perf;
pub mod table;
pub mod timing;

pub use cli::{pick, BenchArgs};
pub use table::TableWriter;
pub use timing::{Bench, Measurement};
