//! Engine-level tuning knobs, shared by every sweep-family executor.

/// Options for SWEEP.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SweepOptions {
    /// Launch both legs at once (§5.3's parallel variant): the right leg
    /// seeds from the update's *support* and the two halves are merged at
    /// the pivot when both return.
    pub parallel: bool,
    /// Stop sweeping the moment the partial delta goes empty — the final
    /// view change is then provably empty too.
    pub short_circuit_empty: bool,
    /// Maximum sweeps in flight at once (§5.3's pipelining; installs stay
    /// in arrival order). `1` is the paper's Figure 4 — one update at a
    /// time — and the default; `0` means unbounded.
    pub window: usize,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            parallel: false,
            short_circuit_empty: false,
            window: 1,
        }
    }
}

/// Options for Nested SWEEP.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NestedSweepOptions {
    /// Maximum dovetailing depth (frame-stack height) before interfering
    /// updates fall back to SWEEP-style compensation-without-removal.
    /// `None` means unbounded.
    pub max_depth: Option<usize>,
}

/// The multiview scheduler's option set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineOptions {
    /// Cross-update batching width: one sweep may fold up to `batch`
    /// queued updates *from the same source* into a single composite view
    /// change, Nested-SWEEP-style, paying `2(n−1)` messages per batch
    /// instead of per update. `1` disables batching (the default).
    pub batch: usize,
    /// Push per-view selection predicates down to the sources: each
    /// sweep query carries the union of the affected views' σ over the
    /// target relation, the source filters before joining, and the
    /// compensation term applies the same predicate (multiview scheduler
    /// only; single-view executors already evaluate their σ source-side
    /// through the shipped view definition). Off by default — the wire
    /// behavior is then bit-identical to the pre-pushdown engine.
    pub pushdown: bool,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            batch: 1,
            pushdown: false,
        }
    }
}

impl EngineOptions {
    /// Batching width clamped to at least 1.
    pub fn batch_width(&self) -> usize {
        self.batch.max(1)
    }

    /// Reject configurations that cannot mean anything: a batch width of
    /// zero would let zero updates drive a sweep. Executors call this at
    /// construction so the mistake surfaces as a typed
    /// [`WarehouseError::Config`](crate::error::WarehouseError::Config)
    /// instead of being clamped silently at
    /// use sites ([`EngineOptions::batch_width`] stays as defense in
    /// depth for options built after validation).
    pub fn validate(&self) -> Result<(), crate::error::WarehouseError> {
        if self.batch == 0 {
            return Err(crate::error::WarehouseError::Config {
                reason: "batch width must be at least 1 (got 0)".into(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_disable_everything() {
        let o = EngineOptions::default();
        assert_eq!(o.batch_width(), 1);
        assert!(!o.pushdown);
        // Figure 4: one sweep at a time, sequential, always completed.
        let s = SweepOptions::default();
        assert!(!s.parallel && !s.short_circuit_empty);
        assert_eq!(s.window, 1);
    }

    #[test]
    fn batch_width_clamps_zero() {
        let o = EngineOptions {
            batch: 0,
            ..Default::default()
        };
        assert_eq!(o.batch_width(), 1);
    }

    #[test]
    fn validate_rejects_zero_batch_with_typed_error() {
        let bad = EngineOptions {
            batch: 0,
            ..Default::default()
        };
        match bad.validate() {
            Err(crate::error::WarehouseError::Config { reason }) => {
                assert!(reason.contains("batch"));
            }
            other => panic!("expected Config error, got {other:?}"),
        }
        assert!(EngineOptions::default().validate().is_ok());
        assert!(EngineOptions {
            batch: 16,
            ..Default::default()
        }
        .validate()
        .is_ok());
    }
}
