//! Install records — the observable state history of the warehouse.

use dw_protocol::UpdateId;
use dw_relational::SharedBag;
use dw_simnet::Time;

/// One view install: when it happened, which source updates it consumed
/// (in consumption order), and — when snapshotting is enabled — the view
/// contents afterwards.
///
/// This is the interface between the policies and the consistency checker:
/// the checker replays the delivery log and verifies that each install's
/// view equals the ground-truth evaluation over exactly the consumed
/// updates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InstallRecord {
    /// Simulation time of the install.
    pub at: Time,
    /// Updates whose effects this install incorporated (newly, i.e. not
    /// already incorporated by an earlier install).
    pub consumed: Vec<UpdateId>,
    /// View contents after the install — a handle onto the view's shared
    /// structure at that moment, not a copy; `None` when snapshots are
    /// disabled for large benchmark runs.
    pub view_after: Option<SharedBag>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_is_plain_data() {
        let r = InstallRecord {
            at: 5,
            consumed: vec![UpdateId { source: 0, seq: 0 }],
            view_after: Some(SharedBag::new()),
        };
        let s = format!("{r:?}");
        assert!(s.contains("consumed"));
        assert_eq!(r.clone(), r);
    }
}
