//! # dw-bench
//!
//! Shared helpers for the experiment binaries (one binary per reproduced
//! paper table/figure — see `src/bin/`), the perf gate, and the
//! dependency-free timing harness the wall-clock benchmark's kernel table
//! uses ([`Bench`]).

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
