//! The scheduler's option set — the one set of knobs every SWEEP runs
//! under, one view or many.

/// The multiview scheduler's option set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineOptions {
    /// Cross-update batching width: one sweep may fold up to `batch`
    /// queued updates *from the same source* into a single composite view
    /// change, Nested-SWEEP-style, paying `2(n−1)` messages per batch
    /// instead of per update. `1` disables batching (the default), `0`
    /// is no bound: a sweep folds every queued successor it may.
    pub batch: usize,
    /// Push per-view selection predicates down to the sources: each
    /// sweep query carries the union of the affected views' σ over the
    /// target relation, the source filters before joining, and the
    /// compensation term applies the same predicate. Off by default —
    /// the sources then answer over the bare join chain and every view's
    /// σ is applied at the warehouse. A scenario's one view run as SWEEP
    /// (`dw_core::PolicyKind::Sweep`, `dw_livenet::run_live`) always
    /// pushes: its pushed σ is the view's own, so its sources answer over
    /// the view as they do for every other policy.
    pub pushdown: bool,
    /// Walk Figure 4's one leg (leftward, then rightward) wherever it
    /// serves every view of the sweep — always, for one view — instead of
    /// §5.3's two concurrent legs (the default).
    pub sequential: bool,
    /// Send no query for an empty seed, and stop a one-leg walk once its
    /// partial empties: the final view change is then empty too. Off by
    /// default — the paper always completes the sweep.
    pub short_circuit_empty: bool,
    /// §5.3's pipelining: how many sweeps may run at once over one band
    /// (`0` = unbounded). `1`, the default, is Figure 4 — one sweep at a
    /// time per band; installs leave in arrival order either way.
    pub window: usize,
    /// Figure 6's nesting: how many `ViewChange` frames a lane may stack
    /// (`0` = unbounded). `1`, the default, is SWEEP; above it a one-leg
    /// hop may absorb the queued `ΔR_j` into a child run (Nested SWEEP),
    /// and `k` is §6.2's forced-termination bound.
    pub depth: usize,
}

/// Two legs, one sweep per band, nothing else: for one view §5.3's
/// two-leg SWEEP, not Figure 4 (that is [`EngineOptions::FIGURE_4`]).
impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            batch: 1,
            pushdown: false,
            sequential: false,
            short_circuit_empty: false,
            window: 1,
            depth: 1,
        }
    }
}

impl EngineOptions {
    /// SWEEP as the paper's Figure 4 draws it: one leg, one update at a
    /// time, every sweep completed.
    pub const FIGURE_4: EngineOptions = EngineOptions {
        batch: 1,
        pushdown: false,
        sequential: true,
        short_circuit_empty: false,
        window: 1,
        depth: 1,
    };

    /// Nested SWEEP as the paper's Figure 6 draws it: Figure 4's walk with
    /// unbounded nesting.
    pub const FIGURE_6: EngineOptions = EngineOptions {
        depth: 0,
        ..EngineOptions::FIGURE_4
    };

    /// The report name of single-view SWEEP under these options:
    /// `nested-sweep` with any depth but 1, else `pipelined-sweep` with a
    /// window other than Figure 4's.
    pub fn sweep_name(&self) -> &'static str {
        match (self.depth, self.window) {
            (1, 1) => "sweep",
            (1, _) => "pipelined-sweep",
            _ => "nested-sweep",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_the_plain_scheduler_and_figure_4_is_one_leg() {
        let o = EngineOptions::default();
        assert_eq!((o.batch, o.window, o.depth), (1, 1, 1));
        assert!(!o.pushdown && !o.sequential && !o.short_circuit_empty);
        // Figure 4: one sweep at a time, sequential, always completed.
        let f = EngineOptions::FIGURE_4;
        assert_eq!(
            f,
            EngineOptions {
                sequential: true,
                ..o
            }
        );
        assert_eq!(f.sweep_name(), "sweep");
        let pipelined = EngineOptions { window: 0, ..f };
        assert_eq!(pipelined.sweep_name(), "pipelined-sweep");
        // Figure 6: Figure 4 with unbounded nesting; any bound but 1 nests.
        assert_eq!(EngineOptions::FIGURE_6, EngineOptions { depth: 0, ..f });
        for depth in [0, 2, 5] {
            let nested = EngineOptions { depth, ..pipelined };
            assert_eq!(nested.sweep_name(), "nested-sweep");
        }
    }
}
