//! Warehouse-side errors.

use dw_relational::RelationalError;
use std::fmt;

/// Errors raised by maintenance policies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WarehouseError {
    /// Underlying relational failure.
    Relational(RelationalError),
    /// Installing a view change would drive a tuple count negative — the
    /// runtime signature of an inconsistent maintenance algorithm.
    InconsistentInstall {
        /// Rendered tuple whose count went negative.
        tuple: String,
    },
    /// An answer arrived for a query this policy does not have in flight.
    UnknownQuery {
        /// The orphaned query id.
        qid: u64,
    },
    /// A message kind this policy never expects.
    UnexpectedMessage {
        /// Policy name.
        policy: &'static str,
        /// Message label.
        label: &'static str,
    },
    /// A policy precondition is violated (e.g. Strobe without keys, or a
    /// non-single-tuple update in a key-based policy).
    Precondition {
        /// Human-readable reason.
        reason: String,
    },
    /// The install publisher's lock is poisoned: a thread of the serving
    /// side panicked while holding it, so committed installs can no
    /// longer be announced.
    PublisherPoisoned,
    /// A configuration is invalid at construction time (e.g. a zero
    /// batch width). Raised before any message flows, so a bad knob
    /// fails loudly instead of being silently clamped mid-run.
    Config {
        /// Which knob, and why it is rejected.
        reason: String,
    },
}

impl fmt::Display for WarehouseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WarehouseError::Relational(e) => write!(f, "relational error at warehouse: {e}"),
            WarehouseError::InconsistentInstall { tuple } => {
                write!(f, "inconsistent install: count of {tuple} went negative")
            }
            WarehouseError::UnknownQuery { qid } => write!(f, "answer for unknown query {qid}"),
            WarehouseError::UnexpectedMessage { policy, label } => {
                write!(f, "{policy} cannot service message {label:?}")
            }
            WarehouseError::Precondition { reason } => write!(f, "precondition violated: {reason}"),
            WarehouseError::PublisherPoisoned => write!(f, "install publisher lock poisoned"),
            WarehouseError::Config { reason } => write!(f, "invalid configuration: {reason}"),
        }
    }
}

impl std::error::Error for WarehouseError {}

impl From<RelationalError> for WarehouseError {
    fn from(e: RelationalError) -> Self {
        WarehouseError::Relational(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(WarehouseError::UnknownQuery { qid: 3 }
            .to_string()
            .contains('3'));
        assert!(WarehouseError::InconsistentInstall {
            tuple: "(1)".into()
        }
        .to_string()
        .contains("negative"));
    }

    #[test]
    fn from_relational() {
        let e: WarehouseError = RelationalError::UnknownRelation {
            relation: "R".into(),
        }
        .into();
        assert!(matches!(e, WarehouseError::Relational(_)));
    }
}
