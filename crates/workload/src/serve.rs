//! Read-mix generation for the serving layer: seeded streams of point
//! lookups, scans, and subscription registrations against maintained
//! views, with zipf-skewed key choice and per-read staleness bounds.
//!
//! The generator is pure scheduling — it decides *when* each reader
//! issues *what* against *which* view; the serve experiment resolves
//! the ops against a live [`ReadFrontend`]. Determinism matters the
//! same way it does for transaction streams: the equivalence suite
//! replays identical read schedules against engine runs and an oracle.
//!
//! [`ReadFrontend`]: ../dw_serve/struct.ReadFrontend.html

use dw_rng::Rng64;
use dw_simnet::Time;

use crate::skew::Zipf;

/// What one read op asks for.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReadKind {
    /// Point lookup: tuples whose `column` equals `key`.
    Point {
        /// Tuple column index to match on.
        column: usize,
        /// The looked-up key value.
        key: i64,
    },
    /// Full snapshot scan of the pinned epoch.
    Scan,
    /// Register a subscription on the view (delivered install deltas are
    /// drained at quiescence by the experiment).
    Subscribe,
    /// Poll the reader's standing bounded subscription on the view for
    /// queued install deltas — the op that can observe `Lagged` when
    /// backpressure dropped the queue.
    Poll,
}

/// One scheduled read operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReadOp {
    /// Virtual time the reader issues the op (the serve experiment
    /// processes it against the warehouse state as of this instant).
    pub at: Time,
    /// Issuing reader (stable per-reader stream index).
    pub reader: usize,
    /// Target view (registry slot index).
    pub view: usize,
    /// What is asked.
    pub kind: ReadKind,
    /// Staleness requirement, as a trailing window: the answer must
    /// reflect every update delivered before `at − window`. `None` reads
    /// whatever the pinned epoch holds.
    pub bound_window: Option<u64>,
}

/// Configuration for one read mix. Fractions for point/scan are taken in
/// order; the remainder subscribes.
#[derive(Clone, Debug)]
pub struct ReadMixConfig {
    /// Concurrent readers.
    pub readers: usize,
    /// Ops per reader.
    pub reads_per_reader: usize,
    /// First op no earlier than this.
    pub start: Time,
    /// Mean exponential gap between one reader's ops (µs).
    pub mean_gap: u64,
    /// Number of registered views to spread reads over.
    pub n_views: usize,
    /// Fraction of ops that are point lookups.
    pub point_frac: f64,
    /// Fraction of ops that are scans.
    pub scan_frac: f64,
    /// Fraction of ops that poll a standing bounded subscription (the
    /// remainder after point + scan + poll subscribes). Zero by default
    /// so existing mixes are byte-identical.
    pub poll_frac: f64,
    /// Fraction of point/scan ops carrying a staleness bound.
    pub bound_frac: f64,
    /// Trailing staleness window (µs) for bounded ops.
    pub bound_window: u64,
    /// Column point lookups match on.
    pub point_column: usize,
    /// Key domain for point lookups, sampled zipf-skewed (hot keys
    /// first).
    pub keys: Vec<i64>,
    /// Zipf θ over `keys` (0 = uniform).
    pub zipf_theta: f64,
    /// Master seed; each reader forks its own stream.
    pub seed: u64,
}

impl Default for ReadMixConfig {
    fn default() -> Self {
        ReadMixConfig {
            readers: 4,
            reads_per_reader: 8,
            start: 500,
            mean_gap: 800,
            n_views: 1,
            point_frac: 0.5,
            scan_frac: 0.4,
            poll_frac: 0.0,
            bound_frac: 0.3,
            bound_window: 2_000,
            point_column: 0,
            keys: vec![1, 2, 3, 5, 7, 9],
            zipf_theta: 0.8,
            seed: 7,
        }
    }
}

impl ReadMixConfig {
    /// Point-heavy, zipf-skewed preset: almost all ops are lookups over
    /// a wide key domain with θ high enough that a handful of hot keys
    /// absorb most of the traffic. This is the mix where the epoch point
    /// index pays off most; E21 holds its work against scanning the
    /// pinned epoch.
    pub fn hot_key_points(readers: usize, reads_per_reader: usize, seed: u64) -> Self {
        ReadMixConfig {
            readers,
            reads_per_reader,
            point_frac: 0.92,
            scan_frac: 0.04,
            poll_frac: 0.0,
            bound_frac: 0.2,
            keys: (0..64).collect(),
            zipf_theta: 1.1,
            seed,
            ..ReadMixConfig::default()
        }
    }

    /// Subscriber-heavy preset with a steady poll pulse: every reader
    /// keeps a standing bounded subscription and polls it between
    /// lookups, so slow pollers under a tight `max_lag` trip the hub's
    /// backpressure and have to recover through a snapshot resume.
    pub fn laggy_subscribers(readers: usize, reads_per_reader: usize, seed: u64) -> Self {
        ReadMixConfig {
            readers,
            reads_per_reader,
            point_frac: 0.3,
            scan_frac: 0.1,
            poll_frac: 0.5,
            seed,
            ..ReadMixConfig::default()
        }
    }

    /// Generate the full schedule, sorted by issue time (ties broken by
    /// reader index so the order is total and deterministic).
    pub fn generate(&self) -> Vec<ReadOp> {
        assert!(self.readers >= 1 && self.n_views >= 1);
        assert!(!self.keys.is_empty(), "point lookups need a key domain");
        let zipf = Zipf::new(self.keys.len(), self.zipf_theta);
        let mut ops = Vec::with_capacity(self.readers * self.reads_per_reader);
        for reader in 0..self.readers {
            let mut rng = Rng64::new(self.seed).fork(0xEAD + reader as u64);
            let mut at = self.start;
            for _ in 0..self.reads_per_reader {
                at += 1 + rng.exponential(self.mean_gap);
                let view = rng.usize_below(self.n_views);
                let roll = rng.f64();
                let kind = if roll < self.point_frac {
                    ReadKind::Point {
                        column: self.point_column,
                        key: self.keys[zipf.sample(&mut rng) as usize],
                    }
                } else if roll < self.point_frac + self.scan_frac {
                    ReadKind::Scan
                } else if roll < self.point_frac + self.scan_frac + self.poll_frac {
                    ReadKind::Poll
                } else {
                    ReadKind::Subscribe
                };
                let bound_window = (!matches!(kind, ReadKind::Subscribe | ReadKind::Poll)
                    && rng.chance(self.bound_frac))
                .then_some(self.bound_window);
                ops.push(ReadOp {
                    at,
                    reader,
                    view,
                    kind,
                    bound_window,
                });
            }
        }
        ops.sort_by_key(|op| (op.at, op.reader));
        ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic_and_sorted() {
        let cfg = ReadMixConfig::default();
        let a = cfg.generate();
        let b = cfg.generate();
        assert_eq!(a, b);
        assert_eq!(a.len(), cfg.readers * cfg.reads_per_reader);
        assert!(a
            .windows(2)
            .all(|w| (w[0].at, w[0].reader) <= (w[1].at, w[1].reader)));
        assert!(a.iter().all(|op| op.at > cfg.start));
        assert!(a.iter().all(|op| op.view < cfg.n_views));
    }

    #[test]
    fn fractions_steer_the_mix() {
        let cfg = ReadMixConfig {
            readers: 8,
            reads_per_reader: 50,
            point_frac: 1.0,
            scan_frac: 0.0,
            bound_frac: 1.0,
            ..ReadMixConfig::default()
        };
        let ops = cfg.generate();
        assert!(ops
            .iter()
            .all(|op| matches!(op.kind, ReadKind::Point { .. })));
        assert!(ops
            .iter()
            .all(|op| op.bound_window == Some(cfg.bound_window)));

        let subs_only = ReadMixConfig {
            point_frac: 0.0,
            scan_frac: 0.0,
            ..cfg
        };
        let ops = subs_only.generate();
        assert!(ops.iter().all(|op| matches!(op.kind, ReadKind::Subscribe)));
        assert!(
            ops.iter().all(|op| op.bound_window.is_none()),
            "subscriptions never carry staleness bounds"
        );
    }

    #[test]
    fn poll_fraction_emits_unbounded_poll_ops() {
        let cfg = ReadMixConfig::laggy_subscribers(6, 40, 11);
        let ops = cfg.generate();
        let polls = ops
            .iter()
            .filter(|op| matches!(op.kind, ReadKind::Poll))
            .count();
        assert!(polls > 0, "poll_frac=0.5 must schedule polls");
        assert!(ops
            .iter()
            .filter(|op| matches!(op.kind, ReadKind::Poll | ReadKind::Subscribe))
            .all(|op| op.bound_window.is_none()));
        // poll_frac defaults to zero: legacy mixes are untouched.
        assert!(ReadMixConfig::default()
            .generate()
            .iter()
            .all(|op| !matches!(op.kind, ReadKind::Poll)));
    }

    #[test]
    fn hot_key_preset_is_point_dominated() {
        let ops = ReadMixConfig::hot_key_points(8, 64, 3).generate();
        let points = ops
            .iter()
            .filter(|op| matches!(op.kind, ReadKind::Point { .. }))
            .count();
        assert!(
            points as f64 / ops.len() as f64 > 0.85,
            "point share {points}/{}",
            ops.len()
        );
    }

    #[test]
    fn zipf_skew_concentrates_point_keys() {
        let cfg = ReadMixConfig {
            readers: 16,
            reads_per_reader: 100,
            point_frac: 1.0,
            scan_frac: 0.0,
            zipf_theta: 1.2,
            keys: (0..50).collect(),
            ..ReadMixConfig::default()
        };
        let ops = cfg.generate();
        let hot = ops
            .iter()
            .filter(|op| matches!(op.kind, ReadKind::Point { key: 0, .. }))
            .count();
        // θ=1.2 over 50 keys puts well over a fifth of the mass on key 0.
        assert!(
            hot as f64 / ops.len() as f64 > 0.2,
            "hot-key share {hot}/{}",
            ops.len()
        );
    }
}
