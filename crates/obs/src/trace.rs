//! The `Recorder` trait, the no-op default, and the in-memory
//! `TraceRecorder` used by tests and the perf tooling.

use crate::hist::Histogram;
use crate::Time;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// Identifier of an open span. Copyable so state machines can stash it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SpanId(u32);

impl SpanId {
    /// "No span" sentinel: the root parent, and what a disabled `Obs`
    /// returns. Ending it is a no-op.
    pub const NONE: SpanId = SpanId(u32::MAX);

    /// Is this the `NONE` sentinel?
    pub fn is_none(self) -> bool {
        self == Self::NONE
    }
}

/// Sink for observability events. Every method has a no-op default, so
/// `impl Recorder for MySink {}` is a valid (if deaf) recorder and the
/// disabled path costs nothing.
///
/// Timestamps are **virtual** times supplied by the caller (the simulated
/// clock), never wall clock — that is what makes traces byte-deterministic.
pub trait Recorder {
    /// Open a hierarchical span. `parent` may be [`SpanId::NONE`].
    fn span_start(&mut self, _name: &'static str, _at: Time, _parent: SpanId) -> SpanId {
        SpanId::NONE
    }

    /// Close a span opened by [`Recorder::span_start`].
    fn span_end(&mut self, _id: SpanId, _at: Time) {}

    /// Bump a monotonic counter.
    fn add(&mut self, _counter: &'static str, _delta: u64) {}

    /// Record one sample into a named histogram.
    fn observe(&mut self, _hist: &'static str, _value: u64) {}
}

/// A recorder that ignores everything (the explicit form of "disabled").
#[derive(Default, Clone, Copy, Debug)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

#[derive(Clone, Debug)]
struct SpanRec {
    name: &'static str,
    start: Time,
    end: Option<Time>,
    depth: u32,
}

/// In-memory recorder: keeps every span, counter, and histogram, and
/// renders them as deterministic text for snapshot tests and reports.
///
/// Closing a span also records its duration into a histogram named after
/// the span, so per-phase latency percentiles come for free.
#[derive(Default, Clone, Debug)]
pub struct TraceRecorder {
    spans: Vec<SpanRec>,
    counters: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, Histogram>,
}

impl TraceRecorder {
    /// A fresh, empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of spans started so far (open or closed).
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Current value of a counter (0 if never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A named histogram, if any samples were recorded under that name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.hists.get(name)
    }

    /// Render the whole trace as deterministic text: spans in start
    /// order (indented by depth), then counters, then histogram
    /// summaries, both in sorted name order.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("== spans ==\n");
        for s in &self.spans {
            let indent = "  ".repeat(s.depth as usize);
            match s.end {
                Some(end) => {
                    let _ = writeln!(out, "{indent}{} [{}..{}]", s.name, s.start, end);
                }
                None => {
                    let _ = writeln!(out, "{indent}{} [{}..)", s.name, s.start);
                }
            }
        }
        out.push_str("== counters ==\n");
        for (name, v) in &self.counters {
            let _ = writeln!(out, "{name} = {v}");
        }
        out.push_str("== histograms ==\n");
        for (name, h) in &self.hists {
            let _ = writeln!(out, "{name}: {}", h.summary());
        }
        out
    }
}

impl Recorder for TraceRecorder {
    fn span_start(&mut self, name: &'static str, at: Time, parent: SpanId) -> SpanId {
        let depth = if parent.is_none() {
            0
        } else {
            self.spans.get(parent.0 as usize).map_or(0, |p| p.depth + 1)
        };
        let id = SpanId(self.spans.len() as u32);
        self.spans.push(SpanRec {
            name,
            start: at,
            end: None,
            depth,
        });
        id
    }

    fn span_end(&mut self, id: SpanId, at: Time) {
        if id.is_none() {
            return;
        }
        if let Some(s) = self.spans.get_mut(id.0 as usize) {
            if s.end.is_none() {
                s.end = Some(at);
                let dur = at.saturating_sub(s.start);
                self.hists.entry(s.name).or_default().record(dur);
            }
        }
    }

    fn add(&mut self, counter: &'static str, delta: u64) {
        *self.counters.entry(counter).or_insert(0) += delta;
    }

    fn observe(&mut self, hist: &'static str, value: u64) {
        self.hists.entry(hist).or_default().record(value);
    }
}

/// Cheap, cloneable handle threaded through the system. `Obs::off()` (the
/// default) is a `None` inside — every call is a branch on a null pointer
/// and nothing else, so instrumentation is free when disabled.
#[derive(Clone, Default)]
pub struct Obs(Option<Arc<Mutex<dyn Recorder + Send>>>);

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.0.is_some() {
            "Obs(on)"
        } else {
            "Obs(off)"
        })
    }
}

impl Obs {
    /// The disabled handle: all methods are no-ops.
    pub fn off() -> Self {
        Obs(None)
    }

    /// Wrap an arbitrary recorder.
    pub fn new(rec: Arc<Mutex<dyn Recorder + Send>>) -> Self {
        Obs(Some(rec))
    }

    /// Convenience: a fresh [`TraceRecorder`] plus the handle feeding it.
    /// Inspect or `render()` the returned recorder after the run.
    pub fn trace() -> (Self, Arc<Mutex<TraceRecorder>>) {
        let rec = Arc::new(Mutex::new(TraceRecorder::new()));
        (Obs(Some(rec.clone())), rec)
    }

    /// Is a recorder attached?
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    fn with<R>(&self, f: impl FnOnce(&mut dyn Recorder) -> R) -> Option<R> {
        self.0.as_ref().map(|rec| {
            let mut guard = rec.lock().unwrap_or_else(|e| e.into_inner());
            f(&mut *guard)
        })
    }

    /// Open a span at virtual time `at`. Returns [`SpanId::NONE`] when
    /// disabled.
    pub fn span_start(&self, name: &'static str, at: Time, parent: SpanId) -> SpanId {
        self.with(|r| r.span_start(name, at, parent))
            .unwrap_or(SpanId::NONE)
    }

    /// Close a span at virtual time `at`.
    pub fn span_end(&self, id: SpanId, at: Time) {
        if !id.is_none() {
            self.with(|r| r.span_end(id, at));
        }
    }

    /// Bump a monotonic counter.
    pub fn add(&self, counter: &'static str, delta: u64) {
        self.with(|r| r.add(counter, delta));
    }

    /// Record one histogram sample.
    pub fn observe(&self, hist: &'static str, value: u64) {
        self.with(|r| r.observe(hist, value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_recorder_returns_none() {
        let mut r = NoopRecorder;
        let id = r.span_start("x", 0, SpanId::NONE);
        assert!(id.is_none());
        r.span_end(id, 5);
        r.add("c", 1);
        r.observe("h", 1);
    }

    #[test]
    fn disabled_obs_is_inert() {
        let obs = Obs::off();
        assert!(!obs.enabled());
        let id = obs.span_start("sweep", 0, SpanId::NONE);
        assert!(id.is_none());
        obs.span_end(id, 10);
        obs.add("c", 3);
        obs.observe("h", 9);
    }

    #[test]
    fn spans_nest_and_render_deterministically() {
        let (obs, rec) = Obs::trace();
        let root = obs.span_start("sweep", 100, SpanId::NONE);
        let hop = obs.span_start("hop", 110, root);
        obs.span_end(hop, 150);
        let hop2 = obs.span_start("hop", 150, root);
        obs.span_end(hop2, 210);
        obs.span_end(root, 220);
        obs.add("installs", 1);
        obs.observe("delta_rows", 3);

        let r = rec.lock().unwrap();
        assert_eq!(r.span_count(), 3);
        assert_eq!(r.counter("installs"), 1);
        // Span durations were auto-recorded: two hops of 40 and 60.
        let hop_hist = r.histogram("hop").unwrap();
        assert_eq!(hop_hist.count(), 2);
        assert_eq!(hop_hist.min(), Some(40));
        assert_eq!(hop_hist.max(), Some(60));
        let text = r.render();
        assert_eq!(
            text,
            "== spans ==\n\
             sweep [100..220]\n\
             \x20 hop [110..150]\n\
             \x20 hop [150..210]\n\
             == counters ==\n\
             installs = 1\n\
             == histograms ==\n\
             delta_rows: count=1 min=3 mean=3.0 p50=3 p95=3 p99=3 max=3\n\
             hop: count=2 min=40 mean=50.0 p50=40 p95=60 p99=60 max=60\n\
             sweep: count=1 min=120 mean=120.0 p50=120 p95=120 p99=120 max=120\n"
        );
    }

    #[test]
    fn double_end_is_idempotent() {
        let (obs, rec) = Obs::trace();
        let id = obs.span_start("s", 0, SpanId::NONE);
        obs.span_end(id, 10);
        obs.span_end(id, 99);
        let r = rec.lock().unwrap();
        assert_eq!(r.histogram("s").unwrap().count(), 1);
        assert_eq!(r.histogram("s").unwrap().max(), Some(10));
    }

    #[test]
    fn open_span_renders_unclosed() {
        let (obs, rec) = Obs::trace();
        obs.span_start("pending", 7, SpanId::NONE);
        let text = rec.lock().unwrap().render();
        assert!(text.contains("pending [7..)"));
    }
}
