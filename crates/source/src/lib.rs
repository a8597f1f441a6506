//! # dw-source
//!
//! Data-source nodes. Two variants exist:
//!
//! * [`DataSource`] — the paper's Figure 3 *Update & Query Server*: one
//!   autonomous site holding one base relation `R_i`. It atomically applies
//!   local transactions (forwarding each as one [`dw_protocol::SourceUpdate`] to the
//!   warehouse) and answers `ComputeJoin(ΔV, R)` requests. The simulator
//!   delivers one event at a time to a node, which realizes the paper's
//!   requirement that "a request is completely serviced before servicing
//!   the next request" and that joins are "synchronized with the local
//!   update transactions".
//! * [`EcaSite`] — the centralized site the ECA baseline assumes: all `n`
//!   chain relations at one node, evaluating whole substitution queries
//!   atomically.

#![warn(missing_docs)]

pub mod eca_site;
pub mod node;

pub use eca_site::EcaSite;
pub use node::{load_sources, DataSource, SourceError};
