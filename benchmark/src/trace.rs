//! In-memory spans recorded by the benchmark's own wrappers around the
//! calls into each layer (spans inside the program are a later change).
//!
//! One [`Tracer`] per thread, all sharing one time origin. A span's
//! parent is the span open on the same thread when it started; its self
//! time is its duration minus its children's. Spans are kept in a
//! pre-sized `Vec` and written out after the referee.
//!
//! A span carries two lengths. Its wall-clock start and end place it in
//! the trace file and among the thread's waits. Its **CPU time** is what
//! the reported durations, self times and busy shares are made of: all
//! threads share one CPU (`os`), so wall time inside a span includes the
//! turns other threads took.

use crate::os::thread_cpu_ns;
use dw_protocol::UpdateId;
use std::io::{self, Write};
use std::time::Instant;

/// One timed call into a layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// `layer.operation`, e.g. `source.query`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin (0 while open).
    pub end_ns: u64,
    /// CPU time the thread used inside the span (the thread's CPU clock at
    /// the start while open); wall time where that clock is missing.
    pub cpu_ns: u64,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<u32>,
    /// The update the message or install carries, when it carries one.
    pub update: Option<UpdateId>,
}

impl Span {
    fn wall_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The spans of one thread.
#[derive(Debug)]
pub struct Tracer {
    /// Thread label in the trace file.
    pub thread: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer for `thread`, timing from `origin`, with room for
    /// `capacity` spans before it has to grow.
    pub fn new(thread: impl Into<String>, origin: Instant, capacity: usize) -> Tracer {
        Tracer {
            thread: thread.into(),
            origin,
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The thread's CPU clock, or the wall clock in its place.
    fn cpu_now_ns(&self) -> u64 {
        thread_cpu_ns().unwrap_or_else(|| self.now_ns())
    }

    /// Start a span; pass the token to [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, update: Option<UpdateId>) -> u32 {
        let idx = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            cpu_ns: self.cpu_now_ns(),
            parent: self.open.last().copied(),
            update,
        });
        self.open.push(idx);
        idx
    }

    /// End the span `token` names (and any span left open inside it).
    pub fn close(&mut self, token: u32) {
        let (end_ns, cpu_end_ns) = (self.now_ns(), self.cpu_now_ns());
        while let Some(idx) = self.open.pop() {
            let span = &mut self.spans[idx as usize];
            span.end_ns = end_ns;
            span.cpu_ns = cpu_end_ns.saturating_sub(span.cpu_ns);
            if idx == token {
                break;
            }
        }
    }

    /// CPU times (µs) of the spans called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.cpu_ns as f64 / 1e3)
            .collect()
    }

    /// Self times (µs) of the spans called `name`: CPU time minus the
    /// part spent in child spans.
    pub fn self_times_us(&self, name: &str) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.cpu_ns;
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| s.cpu_ns.saturating_sub(*c) as f64 / 1e3)
            .collect()
    }

    /// CPU time (ns) inside top-level spans: the thread's busy time.
    pub fn busy_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.cpu_ns)
            .sum()
    }

    /// The parts of `window` (ns since the origin) outside every
    /// top-level span, as `wait` spans: the thread sat in its inbox
    /// `recv` (or the reader slept).
    pub fn waits(&self, window: (u64, u64)) -> Vec<Span> {
        let mut waits = Vec::new();
        let mut cursor = window.0;
        let mut gap = |from: u64, to: u64| {
            if to > from {
                waits.push(Span {
                    name: "wait",
                    start_ns: from,
                    end_ns: to,
                    cpu_ns: 0,
                    parent: None,
                    update: None,
                });
            }
        };
        for s in self.spans.iter().filter(|s| s.parent.is_none()) {
            gap(cursor, s.start_ns.min(window.1));
            cursor = cursor.max(s.end_ns);
        }
        gap(cursor, window.1);
        waits
    }

    /// Share of `window` this thread's named spans (busy + wait) cover:
    /// 1 unless spans were lost or left open.
    pub fn attributed_frac(&self, window: (u64, u64)) -> f64 {
        let clip = |s: &Span| {
            s.end_ns
                .min(window.1)
                .saturating_sub(s.start_ns.max(window.0))
        };
        let busy: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(clip)
            .sum();
        let waits: u64 = self.waits(window).iter().map(Span::wall_ns).sum();
        crate::stats::ratio((busy + waits) as f64, (window.1 - window.0) as f64)
    }

    /// Nanoseconds from this tracer's origin to `at`.
    pub fn ns_at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }
}

/// Write the tracers of one run as one JSON document, a span per line.
pub fn write_json(
    out: &mut impl Write,
    workload: &str,
    seed: u64,
    window: (u64, u64),
    tracers: &[&Tracer],
) -> io::Result<()> {
    writeln!(
        out,
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"threads\": ["
    )?;
    for (t, tracer) in tracers.iter().enumerate() {
        writeln!(out, "{{\"thread\": \"{}\", \"spans\": [", tracer.thread)?;
        let waits = tracer.waits(window);
        let total = tracer.spans.len() + waits.len();
        for (i, s) in tracer.spans.iter().chain(&waits).enumerate() {
            write!(
                out,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"cpu_ns\": {}, \"parent\": ",
                s.name, s.start_ns, s.end_ns, s.cpu_ns
            )?;
            match s.parent {
                Some(p) => write!(out, "{p}")?,
                None => write!(out, "null")?,
            }
            if let Some(u) = s.update {
                write!(out, ", \"update_id\": [{}, {}]", u.source, u.seq)?;
            }
            writeln!(out, "}}{}", if i + 1 < total { "," } else { "" })?;
        }
        writeln!(out, "]}}{}", if t + 1 < tracers.len() { "," } else { "" })?;
    }
    writeln!(out, "]}}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn spin(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn parent_is_the_enclosing_span_and_self_time_excludes_children() {
        let mut t = Tracer::new("w", Instant::now(), 4);
        let outer = t.open("outer", None);
        spin(Duration::from_micros(200));
        let inner = t.open("inner", Some(UpdateId { source: 1, seq: 7 }));
        spin(Duration::from_micros(300));
        t.close(inner);
        t.close(outer);
        let spans = &t.spans;
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        let outer_total = t.durations_us("outer")[0];
        let outer_self = t.self_times_us("outer")[0];
        let inner_total = t.durations_us("inner")[0];
        // Spinning is CPU time (a little less than wall if preempted).
        assert!(inner_total >= 200.0 && inner_total <= spans[1].wall_ns() as f64 / 1e3 + 1.0);
        assert!((outer_total - inner_total - outer_self).abs() < 1.0);
        assert_eq!(t.busy_ns(), spans[0].cpu_ns);
    }

    #[test]
    fn waits_fill_the_window_outside_top_level_spans() {
        let origin = Instant::now();
        let mut t = Tracer::new("s", origin, 4);
        let a = t.open("a", None);
        t.close(a);
        spin(Duration::from_micros(100));
        let b = t.open("b", None);
        t.close(b);
        let window = (t.spans[0].start_ns, t.spans[1].end_ns + 50);
        let waits = t.waits(window);
        assert_eq!(waits.len(), 2, "the gap between the spans and the tail");
        assert_eq!(waits[0].start_ns, t.spans[0].end_ns);
        assert_eq!(waits[0].end_ns, t.spans[1].start_ns);
        assert_eq!(
            (waits[1].start_ns, waits[1].end_ns),
            (t.spans[1].end_ns, window.1)
        );
        assert!((t.attributed_frac(window) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn trace_file_is_valid_json() {
        let mut t = Tracer::new("warehouse", Instant::now(), 2);
        let a = t.open("multiview.on_update", Some(UpdateId { source: 0, seq: 3 }));
        let b = t.open("serve.publish", None);
        t.close(b);
        t.close(a);
        let mut buf = Vec::new();
        write_json(&mut buf, "steady", 1, (0, 0), &[&t]).unwrap();
        let doc = dw_bench::json::parse(std::str::from_utf8(&buf).unwrap()).unwrap();
        let spans = doc.get("threads").and_then(|t| t.as_arr()).unwrap()[0]
            .get("spans")
            .and_then(|s| s.as_arr())
            .unwrap()
            .to_vec();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("parent").and_then(|p| p.as_u64()), Some(0));
        assert_eq!(
            spans[0]
                .get("update_id")
                .and_then(|u| u.as_arr())
                .map(<[_]>::len),
            Some(2)
        );
    }
}
