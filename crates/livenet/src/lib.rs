//! # dw-livenet
//!
//! A real-concurrency runtime for the same node state machines that run in
//! the deterministic simulator: every source and the warehouse get an OS
//! thread, messages travel over `std::sync::mpsc` FIFO channels, and time is the
//! wall clock. Nothing in `dw-source`/`dw-multiview` changes — both worlds
//! talk through [`dw_simnet::NetHandle`] — so a livenet run demonstrates
//! that the algorithms' correctness does not depend on simulator artifacts
//! (fixture for the "livenet vs simnet agreement" integration tests).
//!
//! Two entry points, one warehouse node and one report
//! ([`LiveViewsReport`]) behind both: [`run_live`] runs a scenario's one
//! view under any `EngineOptions`, and [`run_live_views`]
//! runs every view of a multi-view scenario — base and derived, over an
//! optional shard map, with any number of reader threads on a serving
//! layer (zero: no serving layer at all).
//!
//! Delivery order across threads is decided by the OS scheduler, so a live
//! run is *not* reproducible; the right assertions are convergence (final
//! view equals the ground-truth evaluation of all transactions) and the
//! policy's own invariants, not install-by-install traces.

#![warn(missing_docs)]

pub mod cluster;
mod multiview;
pub mod serve;

pub use cluster::{run_live, LiveError};
pub use multiview::{run_live_views, LiveViewOutcome, LiveViewsReport};
pub use serve::LiveServeOutcome;

#[cfg(test)]
mod testkit {
    use crate::LiveViewsReport;
    use dw_relational::{eval_view, AggFn, AggregateSpec, Bag, CmpOp, Value, ViewDef};
    use dw_workload::{DerivedOp, DerivedSpec, MultiViewScenario, ScheduledTxn};

    /// The contents every slot of a drained live run must hold: each of
    /// `views` — a name, and a definition over the relations from `lo` on
    /// — evaluated over `initial` plus every transaction of `txns`, then
    /// each of `derived` over its parent's contents (parents listed
    /// first).
    pub fn ground_truth<'a>(
        initial: &[Bag],
        txns: &[ScheduledTxn],
        views: impl IntoIterator<Item = (&'a str, ViewDef, usize)>,
        derived: &'a [DerivedSpec],
    ) -> Vec<Bag> {
        let mut rels = initial.to_vec();
        for t in txns {
            rels[t.source].merge(&t.delta);
        }
        let eval = |(name, def, lo): (&'a str, ViewDef, usize)| {
            let refs: Vec<&Bag> = rels[lo..lo + def.num_relations()].iter().collect();
            (name, eval_view(&def, &refs).unwrap())
        };
        let mut truth: Vec<(&str, Bag)> = views.into_iter().map(eval).collect();
        for d in derived {
            let parent = truth.iter().find(|(name, _)| *name == d.parent).unwrap();
            let bag = d.op.eval(&parent.1).unwrap();
            truth.push((d.name.as_str(), bag));
        }
        truth.into_iter().map(|(_, bag)| bag).collect()
    }

    /// Every slot of `report` equals `s`'s ground truth.
    pub fn assert_converged(report: &LiveViewsReport, s: &MultiViewScenario) {
        let spans = (s.views.iter()).map(|v| (v.name.as_str(), v.compile(&s.base).unwrap(), v.lo));
        let truth = ground_truth(&s.initial, &s.txns, spans, &s.derived);
        assert_eq!(report.views.len(), truth.len());
        for (outcome, truth) in report.views.iter().zip(truth) {
            assert_eq!(outcome.view, truth, "view '{}'", outcome.name);
        }
    }

    /// One σ and one Σ view over `V0`.
    pub fn derived_on_v0() -> Vec<DerivedSpec> {
        vec![
            DerivedSpec {
                name: "hot".into(),
                parent: "V0".into(),
                op: DerivedOp::Select {
                    selects: vec![(0, CmpOp::Ge, Value::Int(2))],
                    projection: None,
                },
            },
            DerivedSpec {
                name: "counts".into(),
                parent: "V0".into(),
                op: DerivedOp::Aggregate(AggregateSpec {
                    group_by: vec![0],
                    aggs: vec![AggFn::CountRows],
                }),
            },
        ]
    }
}
