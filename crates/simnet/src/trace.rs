//! Event traces for debugging and for the Figure-2 style experiment output.

use crate::network::NodeId;
use crate::Time;
use std::fmt;

/// What happened.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// A message entered the network.
    Send,
    /// A message was delivered to its destination.
    Deliver,
    /// The fault layer randomly dropped a send.
    Drop,
    /// The fault layer scheduled a second copy of a send.
    Duplicate,
    /// A send skipped the FIFO clamp and may arrive out of order.
    Reorder,
    /// A send or delivery was lost to a partition window or crashed node.
    Outage,
}

/// One trace record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulation time of the event.
    pub at: Time,
    /// Send or deliver.
    pub kind: TraceKind,
    /// Sender.
    pub from: NodeId,
    /// Receiver.
    pub to: NodeId,
    /// Payload label.
    pub label: &'static str,
    /// Payload size in bytes.
    pub bytes: usize,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let arrow = match self.kind {
            TraceKind::Send => "->",
            TraceKind::Deliver => "=>",
            TraceKind::Drop => "-x",
            TraceKind::Duplicate => "=2",
            TraceKind::Reorder => "~>",
            TraceKind::Outage => "!x",
        };
        write!(
            f,
            "[{:>10}us] {} {arrow} {} {:<8} {}B",
            self.at,
            fmt_node(self.from),
            fmt_node(self.to),
            self.label,
            self.bytes
        )
    }
}

fn fmt_node(id: NodeId) -> String {
    if id == crate::network::ENV {
        "ENV".to_string()
    } else {
        format!("N{id}")
    }
}

/// A bounded trace buffer; disabled by default so long benches pay nothing.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
    enabled: bool,
    cap: usize,
}

impl Trace {
    /// Enable recording, keeping at most `cap` events (0 = unlimited).
    pub fn enable(&mut self, cap: usize) {
        self.enabled = true;
        self.cap = cap;
    }

    /// Record an event if enabled and under capacity.
    pub fn push(&mut self, ev: TraceEvent) {
        if self.enabled && (self.cap == 0 || self.events.len() < self.cap) {
            self.events.push(ev);
        }
    }

    /// Recorded events in time order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Drop all recorded events.
    pub fn clear(&mut self) {
        self.events.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: Time) -> TraceEvent {
        TraceEvent {
            at,
            kind: TraceKind::Send,
            from: 0,
            to: 1,
            label: "x",
            bytes: 3,
        }
    }

    #[test]
    fn disabled_by_default() {
        let mut t = Trace::default();
        t.push(ev(1));
        assert!(t.events().is_empty());
    }

    #[test]
    fn capacity_respected() {
        let mut t = Trace::default();
        t.enable(2);
        for i in 0..5 {
            t.push(ev(i));
        }
        assert_eq!(t.events().len(), 2);
    }

    #[test]
    fn unlimited_when_cap_zero() {
        let mut t = Trace::default();
        t.enable(0);
        for i in 0..100 {
            t.push(ev(i));
        }
        assert_eq!(t.events().len(), 100);
    }

    #[test]
    fn display_renders() {
        let s = ev(42).to_string();
        assert!(s.contains("42us"));
        assert!(s.contains("N0"));
        assert!(s.contains("N1"));
    }
}
