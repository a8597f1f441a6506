//! Ground-truth state replay: the run's one record of what was delivered,
//! and the one place a view state is evaluated.

use dw_protocol::{SourceIndex, UpdateId};
use dw_relational::{eval_view, Bag, RelationalError, ViewDef};
use dw_simnet::Time;
use dw_workload::DerivedOp;

/// One delivered update in the recorder's log.
#[derive(Clone, Debug)]
pub struct DeliveredUpdate {
    /// The update's identity.
    pub id: UpdateId,
    /// Warehouse delivery time.
    pub at: Time,
    /// The signed delta.
    pub delta: Bag,
}

/// What a view evaluates to over the base chain: a span `[lo, hi]` under
/// the span's local chain definition, then each derived operator in turn.
/// A base view has no operators; a derived view is its base ancestor's
/// span with the operator chain down to it, so its state — and the
/// deliveries that make it stale — are its base ancestor's.
#[derive(Clone, Debug)]
pub struct SlotView {
    /// The span's local chain definition: relation `k` is base relation
    /// `lo + k`.
    pub def: ViewDef,
    /// First base relation of the span.
    pub lo: SourceIndex,
    /// Derived operators applied on top of the span's state, root first.
    pub ops: Vec<DerivedOp>,
}

impl SlotView {
    /// A base view over the span starting at `lo`.
    pub fn base(def: ViewDef, lo: SourceIndex) -> Self {
        SlotView {
            def,
            lo,
            ops: Vec::new(),
        }
    }

    /// Last base relation of the span (inclusive).
    pub fn hi(&self) -> SourceIndex {
        self.lo + self.def.num_relations() - 1
    }

    /// Does an update from base relation `source` reach this view?
    pub fn spans(&self, source: SourceIndex) -> bool {
        self.lo <= source && source <= self.hi()
    }
}

/// Shadows the base chain's initial relations and records every update in
/// warehouse delivery order, once, for every view of the run: any set of
/// delivered updates evaluates into the exact state it should produce in
/// any view over the chain.
#[derive(Clone, Debug)]
pub struct Recorder {
    initial: Vec<Bag>,
    log: Vec<DeliveredUpdate>,
}

impl Recorder {
    /// Start recording over the base chain's initial relation contents.
    pub fn new(initial: Vec<Bag>) -> Self {
        Recorder {
            initial,
            log: Vec::new(),
        }
    }

    /// Log an update the instant it is delivered to the warehouse.
    pub fn record_delivery(&mut self, id: UpdateId, at: Time, delta: Bag) {
        debug_assert!(
            self.log.last().is_none_or(|p| p.at <= at),
            "deliveries must be recorded in time order"
        );
        self.log.push(DeliveredUpdate { id, at, delta });
    }

    /// The delivery log.
    pub fn deliveries(&self) -> &[DeliveredUpdate] {
        &self.log
    }

    /// `(update, delivery time)` per delivery, in delivery order.
    pub fn delivery_log(&self) -> Vec<(UpdateId, Time)> {
        self.log.iter().map(|d| (d.id, d.at)).collect()
    }

    /// Evaluate `view` over its span's initial relations plus the deltas
    /// of every delivery from the span that `consumed` admits, then apply
    /// its derived operators. Nothing consumed is the view's initial
    /// contents.
    ///
    /// Bag addition commutes, so a *set* of updates defines one state —
    /// validity of the set (per-source prefixes) is the checker's concern.
    pub fn state(
        &self,
        view: &SlotView,
        consumed: &dyn Fn(UpdateId) -> bool,
    ) -> Result<Bag, RelationalError> {
        let span = self.initial.get(view.lo..=view.hi());
        let mut rels = span
            .ok_or_else(|| RelationalError::BadRange {
                reason: format!(
                    "span [{}, {}] outside the recorded chain of {} relations",
                    view.lo,
                    view.hi(),
                    self.initial.len()
                ),
            })?
            .to_vec();
        for d in &self.log {
            if view.spans(d.id.source) && consumed(d.id) {
                rels[d.id.source - view.lo].merge(&d.delta);
            }
        }
        let refs: Vec<&Bag> = rels.iter().collect();
        let base = eval_view(&view.def, &refs)?;
        view.ops.iter().try_fold(base, |bag, op| op.eval(&bag))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dw_relational::{tup, AggFn, AggregateSpec, CmpOp, Schema, Value, ViewDefBuilder};

    fn chain(names: &[(&str, [&str; 2])]) -> ViewDef {
        let mut b = ViewDefBuilder::new();
        for (name, attrs) in names {
            b = b.relation(Schema::new(*name, *attrs).unwrap());
        }
        for w in names.windows(2) {
            b = b.join(
                format!("{}.{}", w[0].0, w[0].1[1]),
                format!("{}.{}", w[1].0, w[1].1[0]),
            );
        }
        b.build().unwrap()
    }

    /// `R1(A,B) ⋈ R2(C,D)` over `{(1,3)}` and `{(3,7)}`.
    fn setup() -> (Recorder, SlotView) {
        let view = chain(&[("R1", ["A", "B"]), ("R2", ["C", "D"])]);
        let r = Recorder::new(vec![
            Bag::from_tuples([tup![1, 3]]),
            Bag::from_tuples([tup![3, 7]]),
        ]);
        (r, SlotView::base(view, 0))
    }

    fn id(source: usize, seq: u64) -> UpdateId {
        UpdateId { source, seq }
    }

    #[test]
    fn delivery_prefixes_walk_the_history() {
        let (mut r, v) = setup();
        r.record_delivery(id(0, 0), 10, Bag::from_tuples([tup![2, 3]]));
        r.record_delivery(id(1, 0), 20, Bag::from_pairs([(tup![3, 7], -1)]));
        let prefix = |k: usize| {
            let ids: Vec<UpdateId> = r.deliveries()[..k].iter().map(|d| d.id).collect();
            r.state(&v, &|u| ids.contains(&u)).unwrap()
        };
        assert_eq!(prefix(0).distinct_len(), 1);
        assert_eq!(
            prefix(1),
            Bag::from_tuples([tup![1, 3, 3, 7], tup![2, 3, 3, 7]])
        );
        assert!(prefix(2).is_empty());
        assert_eq!(r.state(&v, &|_| true).unwrap(), prefix(2));
        assert_eq!(r.delivery_log(), vec![(id(0, 0), 10), (id(1, 0), 20)]);
    }

    #[test]
    fn nothing_consumed_is_the_initial_view() {
        let (mut r, v) = setup();
        r.record_delivery(id(0, 0), 10, Bag::from_tuples([tup![2, 3]]));
        let initial = r.state(&v, &|_| false).unwrap();
        assert_eq!(initial, Bag::from_tuples([tup![1, 3, 3, 7]]));
    }

    #[test]
    fn any_subset_of_deliveries_evaluates() {
        let (mut r, v) = setup();
        r.record_delivery(id(0, 0), 10, Bag::from_tuples([tup![2, 3]]));
        r.record_delivery(id(1, 0), 20, Bag::from_pairs([(tup![3, 7], -1)]));
        // Only the second update.
        assert!(r.state(&v, &|u| u == id(1, 0)).unwrap().is_empty());
    }

    #[test]
    fn a_span_view_reads_only_its_own_relations() {
        // A three-relation chain; the view spans [1, 2] under its local
        // definition, so R1's delivery and its initial tuple never reach
        // it — and an undelivered id consumes nothing.
        let mut r = Recorder::new(vec![
            Bag::from_tuples([tup![1, 3]]),
            Bag::from_tuples([tup![3, 7]]),
            Bag::from_tuples([tup![7, 9]]),
        ]);
        let local = chain(&[("R2", ["C", "D"]), ("R3", ["E", "F"])]);
        let v = SlotView::base(local, 1);
        assert_eq!((v.hi(), v.spans(0), v.spans(2)), (2, false, true));
        r.record_delivery(id(0, 0), 5, Bag::from_tuples([tup![2, 3]]));
        r.record_delivery(id(2, 0), 6, Bag::from_tuples([tup![7, 8]]));
        let state = r.state(&v, &|_| true).unwrap();
        assert_eq!(
            state,
            Bag::from_tuples([tup![3, 7, 7, 9], tup![3, 7, 7, 8]])
        );
        let nothing = r.state(&v, &|u| u == id(2, 5)).unwrap();
        assert_eq!(nothing, Bag::from_tuples([tup![3, 7, 7, 9]]));
        let beyond = SlotView::base(chain(&[("R3", ["E", "F"]), ("R4", ["G", "H"])]), 2);
        assert!(r.state(&beyond, &|_| true).is_err());
    }

    #[test]
    fn a_derived_view_applies_its_operators_in_order() {
        let (mut r, base) = setup();
        r.record_delivery(id(0, 0), 10, Bag::from_tuples([tup![2, 3]]));
        let select = DerivedOp::Select {
            selects: vec![(0, CmpOp::Ge, Value::Int(2))],
            projection: Some(vec![0]),
        };
        let count = DerivedOp::Aggregate(AggregateSpec {
            group_by: vec![0],
            aggs: vec![AggFn::CountRows],
        });
        let derived = SlotView {
            ops: vec![select, count],
            ..base.clone()
        };
        assert_eq!(
            r.state(&derived, &|_| true).unwrap(),
            Bag::from_tuples([tup![2, 1]])
        );
        assert_eq!(r.state(&derived, &|_| false).unwrap(), Bag::new());
        assert_eq!(r.state(&base, &|_| true).unwrap().distinct_len(), 2);
    }
}
