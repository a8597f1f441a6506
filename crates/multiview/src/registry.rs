//! The runtime view registry: per-view materialized state, policy
//! cadence and metrics, keyed by stable [`ViewId`]s.
//!
//! Since PR 9 the registry is a **maintenance DAG**, not a flat list:
//! a view may be *derived* — defined over another registered view by a
//! σ/Π or Σ/group-by operator ([`dw_workload::DerivedSpec`]). Derived
//! views are never swept: when a parent commits an install, the
//! committed delta is fed locally to each child (σ/Π: re-evaluate the
//! linear operator on the delta; Σ: fold the signed delta into the
//! child's [`dw_relational::AggregateState`]), the child installs, and
//! the cascade recurses — depth-first, children in ascending slot
//! order, so the install/publication order is deterministic and
//! documented. A derived view therefore costs **zero source messages**
//! per update; the paper's `2(n−1)` bill is paid once, at the base
//! layer. Identical σ/Π operators across sibling children are evaluated
//! once per parent delta and shared (the Mistry/Roy/Ramamritham common
//! subexpression idea, applied to the delta stream).

use dw_engine::{
    ImageCost, InstallSink, MaterializedView, PolicyMetrics, SharedInstallPublisher, WarehouseError,
};
use dw_protocol::UpdateId;
use dw_relational::{AggregateState, Bag, RelationalError, SharedBag, ViewDef};
use dw_simnet::Time;
use dw_workload::{DerivedOp, DerivedSpec, ViewPolicy, ViewSpec};
use std::fmt;
use std::sync::Arc;

/// Errors raised by the multi-view layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MvError {
    /// A relational failure (bad span, bad projection, arity mismatch…).
    Relational(RelationalError),
    /// A warehouse failure (negative install, unexpected message…).
    Warehouse(WarehouseError),
    /// The [`ViewId`] does not name a registered view.
    UnknownView {
        /// The offending id's slot index.
        index: usize,
    },
    /// A derived spec names a parent that is not registered (and, for a
    /// batch registration, not registrable from the batch either).
    UnknownParent {
        /// The derived view's display name.
        name: String,
        /// The parent name it failed to resolve.
        parent: String,
    },
    /// A batch of derived specs contains a dependency cycle.
    DependencyCycle {
        /// Display name of the first spec (in given order) stuck on the
        /// cycle — deterministic, for actionable error messages.
        name: String,
    },
    /// A scheduler invariant did not hold on the message path — a bug in
    /// this crate, surfaced as an error instead of a panic so one bad
    /// delivery cannot take the warehouse thread down.
    Internal {
        /// Which invariant broke.
        what: &'static str,
    },
}

impl fmt::Display for MvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MvError::Relational(e) => write!(f, "{e}"),
            MvError::Warehouse(e) => write!(f, "{e}"),
            MvError::UnknownView { index } => write!(f, "no registered view in slot {index}"),
            MvError::UnknownParent { name, parent } => {
                write!(f, "derived view '{name}' names unknown parent '{parent}'")
            }
            MvError::DependencyCycle { name } => {
                write!(
                    f,
                    "derived view '{name}' sits on a dependency cycle; \
                     the maintenance DAG must be acyclic"
                )
            }
            MvError::Internal { what } => write!(f, "scheduler invariant broken: {what}"),
        }
    }
}

impl std::error::Error for MvError {}

impl From<RelationalError> for MvError {
    fn from(e: RelationalError) -> Self {
        MvError::Relational(e)
    }
}

impl From<WarehouseError> for MvError {
    fn from(e: WarehouseError) -> Self {
        MvError::Warehouse(e)
    }
}

/// Stable handle to a registered view. Ids are never reused within one
/// registry, so a dangling handle fails loudly instead of aliasing a
/// newer view.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ViewId(usize);

impl ViewId {
    /// The underlying slot index (stable for the registry's lifetime).
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for ViewId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "view#{}", self.0)
    }
}

/// How a registered view is maintained: from base-source sweeps, or
/// locally from a parent view's committed install deltas.
pub(crate) enum ViewKind {
    /// Maintained by SWEEP over the base chain span `[lo, hi]`.
    Base,
    /// Maintained by the cascade: fed its parent's install deltas.
    Derived {
        /// The parent's slot index.
        parent: usize,
        /// The operator over the parent's rows.
        op: DerivedOp,
        /// Incremental Σ state — `Some` iff the op is an aggregate. Rides
        /// checkpoint images, so crash recovery restores group
        /// accumulators (and MIN/MAX support multisets) exactly.
        agg: Option<AggregateState>,
    },
}

/// Counters for the cascade machinery (registry-level, not
/// checkpointed: fault-free runs measure them; recovery replays rebuild
/// view state, not bookkeeping).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CascadeStats {
    /// Child installs performed by the cascade (one per child per parent
    /// install, including empty deltas — epochs stay 1:1 aligned).
    pub child_installs: u64,
    /// Child deltas answered from a sibling's memoized σ/Π evaluation
    /// instead of re-evaluating the shared operator.
    pub shared_derivations: u64,
    /// σ/Π delta evaluations actually performed (the memo's miss count).
    pub linear_evals: u64,
}

/// Everything the scheduler keeps per registered view.
pub(crate) struct ViewRuntime {
    pub(crate) name: String,
    pub(crate) lo: usize,
    pub(crate) hi: usize,
    /// The compiled span-local definition (selections, projection).
    pub(crate) local: ViewDef,
    /// The install cadence — applied where the view's batch waits, in
    /// the scheduler's [`dw_engine::InstallSequencer`].
    pub(crate) policy: ViewPolicy,
    /// The materialized contents and where committed installs are
    /// announced (an `InstallLog`, a `dw-serve` snapshot store), under
    /// this runtime's registry slot index, consumed ids in *global* chain
    /// coordinates (the base-chain source index). The publisher is a
    /// shared handle: a recovered runtime keeps feeding the same
    /// consumer with the same `(slot, epoch)`s.
    pub(crate) sink: InstallSink,
    pub(crate) metrics: PolicyMetrics,
    /// Base (swept) or derived (cascade-fed) maintenance.
    pub(crate) kind: ViewKind,
    /// Slot indices of direct derived children, ascending (registration
    /// order) — the documented cascade order.
    pub(crate) children: Vec<usize>,
    /// Width of this view's output rows (what children validate against).
    pub(crate) out_width: usize,
}

/// What a durable checkpoint keeps of one runtime: the part a sweep can
/// change. The view — contents and install count — is the image's own
/// lineage, advanced by the installs since the last checkpoint, so an
/// image after its first copies only `O(|ΔV|)` tuples. Everything else
/// in a [`ViewRuntime`] is fixed at registration, and a registration
/// checkpoints on the spot.
pub(crate) struct SlotImage {
    pub(crate) sink: MaterializedView,
    metrics: PolicyMetrics,
    agg: Option<AggregateState>,
}

impl ViewRuntime {
    fn image(&mut self, prev: Option<SlotImage>) -> (SlotImage, ImageCost) {
        let agg = match &self.kind {
            ViewKind::Derived { agg, .. } => agg.clone(),
            ViewKind::Base => None,
        };
        let (sink, cost) = self.sink.image(prev.map(|p| p.sink));
        let image = SlotImage {
            sink,
            metrics: self.metrics.clone(),
            agg,
        };
        (image, cost)
    }

    fn restore(&mut self, image: &SlotImage) -> u64 {
        self.metrics = image.metrics.clone();
        if let ViewKind::Derived { agg, .. } = &mut self.kind {
            *agg = image.agg.clone();
        }
        self.sink.restore(&image.sink)
    }
}

/// The registry: a slab of registered views over one shared base chain.
///
/// A view, once registered, stays for the registry's lifetime, so a
/// [`ViewId`] is its slot index and never goes stale; an id from another
/// registry fails with [`MvError::UnknownView`].
pub struct ViewRegistry {
    base: ViewDef,
    slots: Vec<ViewRuntime>,
    /// Attached install publisher, propagated to every current and
    /// future runtime.
    publisher: Option<SharedInstallPublisher>,
    /// Cascade bookkeeping (child installs, shared σ/Π evaluations).
    stats: CascadeStats,
}

impl ViewRegistry {
    /// New empty registry over `base` — which must be selection-free
    /// with an identity projection (per-view σ/Π live in the specs).
    pub fn new(base: ViewDef) -> Result<ViewRegistry, MvError> {
        for k in 0..base.num_relations() {
            if base.local_select(k) != &dw_relational::Predicate::True {
                return Err(MvError::Relational(RelationalError::BadRange {
                    reason: format!(
                        "base chain relation {} carries a local selection; \
                         per-view selections belong in the ViewSpec",
                        base.schema(k).name()
                    ),
                }));
            }
        }
        if base.projection().len() != base.total_arity() {
            return Err(MvError::Relational(RelationalError::BadRange {
                reason: "base chain must keep the identity projection".to_string(),
            }));
        }
        Ok(ViewRegistry {
            base,
            slots: Vec::new(),
            publisher: None,
            stats: CascadeStats::default(),
        })
    }

    /// The shared base chain.
    pub fn base(&self) -> &ViewDef {
        &self.base
    }

    /// The install side of a runtime about to occupy slot `id`: the
    /// registry's publisher, events under the slot.
    fn new_sink(&self, id: ViewId, initial: Bag) -> Result<InstallSink, MvError> {
        let mut sink = InstallSink::new(initial)?;
        sink.view_index = id.0;
        if let Some(p) = &self.publisher {
            sink.set_publisher(p.clone());
        }
        Ok(sink)
    }

    /// Register a view. `initial` must be the view's correct current
    /// contents (at experiment start: the span evaluation of the initial
    /// base relations; at a mid-run quiescent point: the span evaluation
    /// of the sources' current state).
    pub fn register(&mut self, spec: &ViewSpec, initial: Bag) -> Result<ViewId, MvError> {
        let local = spec.compile(&self.base)?;
        let out_width = local.projection().len();
        let id = ViewId(self.slots.len());
        self.slots.push(ViewRuntime {
            name: spec.name.clone(),
            lo: spec.lo,
            hi: spec.hi,
            local,
            policy: spec.policy,
            sink: self.new_sink(id, initial)?,
            metrics: PolicyMetrics::default(),
            kind: ViewKind::Base,
            children: Vec::new(),
            out_width,
        });
        Ok(id)
    }

    /// Register a derived view over an already-registered parent (base or
    /// derived — stacks compose). The initial contents are computed here,
    /// by evaluating the operator over the parent's *current* bag, so
    /// registration at any quiescent point is consistent by construction.
    ///
    /// The parent reference is resolved by name among registered views;
    /// because a child can only name an existing view, single
    /// registrations cannot create cycles — the batch form
    /// ([`ViewRegistry::register_derived_many`]) is where cycle rejection
    /// has teeth.
    pub fn register_derived(&mut self, spec: &DerivedSpec) -> Result<ViewId, MvError> {
        let parent_slot = self
            .resolve(&spec.parent)
            .ok_or_else(|| MvError::UnknownParent {
                name: spec.name.clone(),
                parent: spec.parent.clone(),
            })?
            .0;
        let parent = &self.slots[parent_slot];
        let (parent_bag, parent_width) = (parent.sink.bag().to_bag(), parent.out_width);
        // The span-local join definition is the parent's chain; the
        // derived operator lives in `kind`. Derived views are never
        // swept, so this is only carried for display/span accounting.
        let (lo, hi, local) = (parent.lo, parent.hi, parent.local.clone());
        spec.op.validate(parent_width)?;
        let initial = spec.op.eval(&parent_bag)?;
        let agg = match &spec.op {
            DerivedOp::Aggregate(aspec) => {
                let mut state = AggregateState::new(aspec.clone());
                state.apply(&parent_bag)?;
                debug_assert_eq!(state.current(), initial);
                Some(state)
            }
            DerivedOp::Select { .. } => None,
        };
        let id = ViewId(self.slots.len());
        self.slots.push(ViewRuntime {
            name: spec.name.clone(),
            lo,
            hi,
            local,
            // Derived views install at every parent install: the cascade
            // is the cadence, so the policy is pinned to Sweep.
            policy: ViewPolicy::Sweep,
            sink: self.new_sink(id, initial)?,
            metrics: PolicyMetrics::default(),
            kind: ViewKind::Derived {
                parent: parent_slot,
                op: spec.op.clone(),
                agg,
            },
            children: Vec::new(),
            out_width: spec.op.output_width(parent_width),
        });
        self.slots[parent_slot].children.push(id.0);
        Ok(id)
    }

    /// Register a batch of derived specs, topologically: each pass
    /// registers every spec whose parent is already registered, in given
    /// order, until the batch drains. A spec whose parent is neither
    /// registered nor in the batch fails with [`MvError::UnknownParent`]; a
    /// batch where a pass makes no progress while specs remain (and all
    /// parents are batch-internal) is a cycle, reported deterministically
    /// as the first stuck spec in given order.
    pub fn register_derived_many(&mut self, specs: &[DerivedSpec]) -> Result<Vec<ViewId>, MvError> {
        let mut ids: Vec<Option<ViewId>> = vec![None; specs.len()];
        let mut remaining: Vec<usize> = (0..specs.len()).collect();
        while !remaining.is_empty() {
            let mut registered_this_pass = Vec::new();
            for &i in &remaining {
                if self.resolve(&specs[i].parent).is_some() {
                    ids[i] = Some(self.register_derived(&specs[i])?);
                    registered_this_pass.push(i);
                }
            }
            if registered_this_pass.is_empty() {
                let first = remaining[0];
                let batch_has_parent = remaining
                    .iter()
                    .any(|&j| specs[j].name == specs[first].parent);
                return Err(if batch_has_parent {
                    MvError::DependencyCycle {
                        name: specs[first].name.clone(),
                    }
                } else {
                    MvError::UnknownParent {
                        name: specs[first].name.clone(),
                        parent: specs[first].parent.clone(),
                    }
                });
            }
            remaining.retain(|i| !registered_this_pass.contains(i));
        }
        let what = "a batch registration left a spec unregistered";
        let ids = ids.into_iter().map(|i| i.ok_or(MvError::Internal { what }));
        ids.collect()
    }

    /// Resolve a view by display name (first match in slot order).
    pub fn resolve(&self, name: &str) -> Option<ViewId> {
        self.slots.iter().position(|rt| rt.name == name).map(ViewId)
    }

    /// Every view's id, in registration order.
    pub fn ids(&self) -> Vec<ViewId> {
        (0..self.slots.len()).map(ViewId).collect()
    }

    /// The view in registry slot `index` — the coordinate sequenced
    /// installs and install events are keyed by.
    pub fn id_at(&self, index: usize) -> Result<ViewId, MvError> {
        self.runtime(ViewId(index)).map(|_| ViewId(index))
    }

    /// Number of registered views.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no views are registered.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The **base** views whose span contains base relation `j` — the
    /// views a source update's sweep must service. Derived views are
    /// excluded by construction: they are maintained by the cascade, not
    /// by sweeps, and must never contribute to sweep formation or the
    /// source-message bill.
    pub fn affected_by(&self, j: usize) -> Vec<ViewId> {
        let swept =
            |rt: &ViewRuntime| matches!(rt.kind, ViewKind::Base) && rt.lo <= j && j <= rt.hi;
        let slots = self.slots.iter().enumerate();
        slots
            .filter_map(|(i, rt)| swept(rt).then_some(ViewId(i)))
            .collect()
    }

    /// [`ViewRegistry::affected_by`] plus the transitive derived
    /// descendants of every affected base view, deduplicated, ascending
    /// by slot. This is the *delivery* footprint of an update: an update
    /// that changes a parent logically reaches its children too (the
    /// serve layer's staleness ledger needs delivery entries for derived
    /// views, even though no source message is ever sent on their
    /// behalf).
    pub fn affected_with_descendants(&self, j: usize) -> Vec<ViewId> {
        let mut hit = vec![false; self.slots.len()];
        let mut stack: Vec<usize> = self.affected_by(j).iter().map(|id| id.0).collect();
        while let Some(slot) = stack.pop() {
            if std::mem::replace(&mut hit[slot], true) {
                continue;
            }
            stack.extend(self.slots[slot].children.iter().copied());
        }
        hit.iter()
            .enumerate()
            .filter_map(|(i, &h)| h.then_some(ViewId(i)))
            .collect()
    }

    pub(crate) fn runtime(&self, id: ViewId) -> Result<&ViewRuntime, MvError> {
        self.slots
            .get(id.0)
            .ok_or(MvError::UnknownView { index: id.0 })
    }

    pub(crate) fn runtime_mut(&mut self, id: ViewId) -> Result<&mut ViewRuntime, MvError> {
        self.slots
            .get_mut(id.0)
            .ok_or(MvError::UnknownView { index: id.0 })
    }

    pub(crate) fn runtimes_mut(&mut self) -> impl Iterator<Item = &mut ViewRuntime> {
        self.slots.iter_mut()
    }

    /// Install a delta at `id` — `consumed` lists the updates it covers,
    /// in per-source delivery order; an empty delta still consumes them,
    /// so the installs keep the per-source prefix discipline — then
    /// cascade it through the view's derived descendants. The one install
    /// site: children can never be skipped. The published event carries
    /// `delta` itself; the cascade reads it through the same `Arc`.
    pub(crate) fn apply_with_cascade(
        &mut self,
        id: ViewId,
        delta: Arc<Bag>,
        consumed: &[(UpdateId, Time)],
        now: Time,
    ) -> Result<(), MvError> {
        let rt = self.runtime_mut(id)?;
        rt.sink
            .install(&mut rt.metrics, Arc::clone(&delta), consumed, now)?;
        self.cascade_children(id.index(), &delta, consumed, now)
    }

    /// Feed a committed parent install to every direct child — ascending
    /// slot order, depth-first recursion — installing each child's delta
    /// with the *same consumed ids* so child epochs stay 1:1 aligned
    /// with the parent's (empty deltas included). σ/Π children share a
    /// sibling's evaluation, by refcount, when the operators are
    /// identical; Σ children each fold the delta into their own
    /// [`AggregateState`] (group accumulators must mutate exactly once,
    /// so aggregate work is never shared).
    fn cascade_children(
        &mut self,
        parent_slot: usize,
        delta: &Bag,
        consumed: &[(UpdateId, Time)],
        now: Time,
    ) -> Result<(), MvError> {
        let children = self.slots[parent_slot].children.clone();
        let mut memo: Vec<(DerivedOp, Arc<Bag>)> = Vec::new();
        for child_slot in children {
            let (child_delta, linear_hit) = match &mut self.slots[child_slot].kind {
                ViewKind::Derived {
                    agg: Some(state), ..
                } => (Arc::new(state.apply(delta)?), None),
                ViewKind::Derived { op, agg: None, .. } => {
                    if let Some((_, shared)) = memo.iter().find(|(o, _)| o == op) {
                        (Arc::clone(shared), Some(true))
                    } else {
                        let fresh = Arc::new(op.eval(delta)?);
                        memo.push((op.clone(), Arc::clone(&fresh)));
                        (fresh, Some(false))
                    }
                }
                ViewKind::Base => {
                    let what = "base view listed as a derived child";
                    return Err(MvError::Internal { what });
                }
            };
            match linear_hit {
                Some(true) => self.stats.shared_derivations += 1,
                Some(false) => self.stats.linear_evals += 1,
                None => {}
            }
            self.stats.child_installs += 1;
            self.apply_with_cascade(ViewId(child_slot), child_delta, consumed, now)?;
        }
        Ok(())
    }

    /// Cascade counters accumulated so far.
    pub fn cascade_stats(&self) -> CascadeStats {
        self.stats
    }

    /// Is the view derived (cascade-fed) rather than swept?
    #[cfg(test)]
    pub(crate) fn is_derived(&self, id: ViewId) -> Result<bool, MvError> {
        Ok(matches!(self.runtime(id)?.kind, ViewKind::Derived { .. }))
    }

    /// The view's parent in the maintenance DAG (`None` for base views).
    pub fn parent_of(&self, id: ViewId) -> Result<Option<ViewId>, MvError> {
        Ok(match self.runtime(id)?.kind {
            ViewKind::Derived { parent, .. } => Some(ViewId(parent)),
            ViewKind::Base => None,
        })
    }

    /// The derived operator (`None` for base views).
    pub fn derived_op(&self, id: ViewId) -> Result<Option<&DerivedOp>, MvError> {
        Ok(match &self.runtime(id)?.kind {
            ViewKind::Derived { op, .. } => Some(op),
            ViewKind::Base => None,
        })
    }

    /// Width of the view's output rows.
    pub fn out_width(&self, id: ViewId) -> Result<usize, MvError> {
        Ok(self.runtime(id)?.out_width)
    }

    /// The registry half of a durable checkpoint: `prev`, the images the
    /// last checkpoint took, each advanced by what its slot installed
    /// since, plus a seeded first image of every slot registered after
    /// it. An image keeps no install history, so its cost does not grow
    /// with the run.
    pub(crate) fn snapshot_slots(&mut self, prev: Vec<SlotImage>) -> (Vec<SlotImage>, ImageCost) {
        debug_assert!(prev.len() <= self.slots.len());
        let mut prev = prev.into_iter();
        let mut cost = ImageCost::default();
        let images = self.slots.iter_mut().map(|rt| {
            let (image, paid) = rt.image(prev.next());
            cost += paid;
            image
        });
        (images.collect(), cost)
    }

    /// Does every slot image equal its live view — contents and install
    /// count?
    #[cfg(test)]
    pub(crate) fn images_match_live(&self, image: &[SlotImage]) -> bool {
        image.len() == self.slots.len()
            && image.iter().zip(&self.slots).all(|(kept, rt)| {
                kept.sink.bag() == rt.sink.bag() && kept.sink.installs() == rt.metrics.installs
            })
    }

    /// Tuples every slot's installs copied copy-on-write.
    #[cfg(test)]
    pub(crate) fn install_copied_tuples(&self) -> u64 {
        self.slots.iter().map(|rt| rt.sink.copied_tuples()).sum()
    }

    /// Crash recovery: every slot back to its checkpoint image. An image
    /// covers every registered view — a registration under durability
    /// checkpoints on the spot. Returns the view tuples seeded rebuilding
    /// the live views.
    pub(crate) fn restore_slots(&mut self, image: &[SlotImage]) -> u64 {
        debug_assert_eq!(image.len(), self.slots.len());
        let slots = self.slots.iter_mut().zip(image);
        slots.map(|(rt, kept)| rt.restore(kept)).sum()
    }

    /// Attach an install publisher: every current and future runtime
    /// announces its committed installs (and crash-recovery replays of
    /// them) through this handle.
    pub(crate) fn set_install_publisher(&mut self, p: SharedInstallPublisher) {
        for rt in self.runtimes_mut() {
            rt.sink.set_publisher(p.clone());
        }
        self.publisher = Some(p);
    }

    /// Source update `id` was delivered at `at`: count it against every
    /// view it reaches and tell the publisher. The footprint includes
    /// derived descendants — a source update logically reaches them (the
    /// serve layer's staleness ledger needs their delivery entries), even
    /// though only base views join the sweep.
    /// A poisoned publisher fails the delivery before any count moves.
    pub(crate) fn note_delivery(&mut self, id: UpdateId, at: Time) -> Result<(), MvError> {
        let views = self.affected_with_descendants(id.source);
        let publisher = self.publisher.as_ref().map(|p| p.lock()).transpose().ok();
        let publisher = publisher.filter(|p| !p.as_ref().is_some_and(|p| p.is_poisoned()));
        let mut publisher = publisher.ok_or(WarehouseError::PublisherPoisoned)?;
        for view in views {
            let rt = self.slots.get_mut(view.0);
            rt.ok_or(MvError::UnknownView { index: view.0 })?
                .metrics
                .updates_received += 1;
            if let Some(publisher) = &mut publisher {
                publisher.note_delivery(view.index(), id, at);
            }
        }
        Ok(())
    }

    /// Display name of a view.
    pub fn name(&self, id: ViewId) -> Result<&str, MvError> {
        Ok(&self.runtime(id)?.name)
    }

    /// The `[lo, hi]` base-chain span of a view.
    pub fn span(&self, id: ViewId) -> Result<(usize, usize), MvError> {
        let rt = self.runtime(id)?;
        Ok((rt.lo, rt.hi))
    }

    /// The view's maintenance cadence.
    pub fn policy(&self, id: ViewId) -> Result<ViewPolicy, MvError> {
        Ok(self.runtime(id)?.policy)
    }

    /// [`ViewPolicy::every`] of the view in slot `index` — what the
    /// install sequencer holds it to (`1` for a slot never issued, whose
    /// install fails typed anyway).
    pub(crate) fn every(&self, index: usize) -> usize {
        self.slots.get(index).map_or(1, |rt| rt.policy.every())
    }

    /// The compiled span-local definition.
    pub fn local_def(&self, id: ViewId) -> Result<&ViewDef, MvError> {
        Ok(&self.runtime(id)?.local)
    }

    /// Current materialized contents.
    pub fn view_bag(&self, id: ViewId) -> Result<&SharedBag, MvError> {
        Ok(self.runtime(id)?.sink.bag())
    }

    /// Per-view metrics (installs, staleness histogram, …).
    pub fn metrics(&self, id: ViewId) -> Result<&PolicyMetrics, MvError> {
        Ok(&self.runtime(id)?.metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dw_relational::{tup, Schema, ViewDefBuilder};

    fn base3() -> ViewDef {
        ViewDefBuilder::new()
            .relation(Schema::new("R1", ["A", "B"]).unwrap())
            .relation(Schema::new("R2", ["C", "D"]).unwrap())
            .relation(Schema::new("R3", ["E", "F"]).unwrap())
            .join("R1.B", "R2.C")
            .join("R2.D", "R3.E")
            .build()
            .unwrap()
    }

    #[test]
    fn affected_by_filters_on_span() {
        let mut reg = ViewRegistry::new(base3()).unwrap();
        let full = reg
            .register(&ViewSpec::full("full", 3), Bag::new())
            .unwrap();
        let left = reg
            .register(
                &ViewSpec {
                    lo: 0,
                    hi: 1,
                    ..ViewSpec::full("left", 3)
                },
                Bag::new(),
            )
            .unwrap();
        let right = reg
            .register(
                &ViewSpec {
                    lo: 2,
                    hi: 2,
                    ..ViewSpec::full("right", 3)
                },
                Bag::new(),
            )
            .unwrap();
        assert_eq!(reg.affected_by(0), vec![full, left]);
        assert_eq!(reg.affected_by(1), vec![full, left]);
        assert_eq!(reg.affected_by(2), vec![full, right]);
        // Slot lookup: registered slots resolve, unknown ones fail typed.
        assert_eq!(reg.id_at(right.index()).unwrap(), right);
        assert!(matches!(
            reg.id_at(99),
            Err(MvError::UnknownView { index: 99 })
        ));
    }

    #[test]
    fn base_with_projection_rejected() {
        let projected = ViewDefBuilder::new()
            .relation(Schema::new("R1", ["A", "B"]).unwrap())
            .relation(Schema::new("R2", ["C", "D"]).unwrap())
            .join("R1.B", "R2.C")
            .project(["R1.A"])
            .build()
            .unwrap();
        assert!(ViewRegistry::new(projected).is_err());
    }

    #[test]
    fn negative_initial_contents_rejected() {
        let mut reg = ViewRegistry::new(base3()).unwrap();
        let bad = Bag::from_pairs([(tup![1, 2, 2, 3, 3, 4], -1)]);
        assert!(reg.register(&ViewSpec::full("neg", 3), bad).is_err());
    }

    use dw_relational::{AggFn, AggregateSpec, CmpOp, Value};

    fn seeded_base(reg: &mut ViewRegistry) -> ViewId {
        let initial = Bag::from_tuples([tup![1, 2, 2, 3, 3, 4], tup![5, 6, 6, 7, 7, 8]]);
        reg.register(&ViewSpec::full("base", 3), initial).unwrap()
    }

    /// Attach a fresh install log to every slot of `reg`.
    fn logged(reg: &mut ViewRegistry) -> Arc<std::sync::Mutex<dw_engine::InstallLog>> {
        let log = Arc::new(std::sync::Mutex::new(dw_engine::InstallLog::new(None)));
        reg.set_install_publisher(log.clone());
        log
    }

    fn hot_spec() -> DerivedSpec {
        DerivedSpec {
            name: "hot".into(),
            parent: "base".into(),
            op: DerivedOp::Select {
                selects: vec![(0, CmpOp::Ge, Value::Int(3))],
                projection: Some(vec![0, 5]),
            },
        }
    }

    fn counts_spec() -> DerivedSpec {
        DerivedSpec {
            name: "counts".into(),
            parent: "base".into(),
            op: DerivedOp::Aggregate(AggregateSpec {
                group_by: vec![0],
                aggs: vec![AggFn::CountRows],
            }),
        }
    }

    #[test]
    fn derived_initial_contents_evaluate_over_parent() {
        let mut reg = ViewRegistry::new(base3()).unwrap();
        seeded_base(&mut reg);
        let ids = reg
            .register_derived_many(&[hot_spec(), counts_spec()])
            .unwrap();
        assert_eq!(
            reg.view_bag(ids[0]).unwrap(),
            &Bag::from_tuples([tup![5, 8]])
        );
        assert_eq!(
            reg.view_bag(ids[1]).unwrap(),
            &Bag::from_tuples([tup![1, 1], tup![5, 1]])
        );
        assert!(reg.is_derived(ids[0]).unwrap());
        assert_eq!(reg.parent_of(ids[0]).unwrap(), reg.resolve("base"));
    }

    #[test]
    fn cascade_feeds_children_with_aligned_epochs() {
        let mut reg = ViewRegistry::new(base3()).unwrap();
        let base = seeded_base(&mut reg);
        let ids = reg
            .register_derived_many(&[hot_spec(), counts_spec()])
            .unwrap();
        let log = logged(&mut reg);
        let delta = Bag::from_pairs([(tup![5, 6, 6, 7, 7, 8], -1), (tup![9, 2, 2, 3, 3, 4], 1)]);
        let upd = UpdateId { source: 0, seq: 0 };
        reg.apply_with_cascade(base, Arc::new(delta), &[(upd, 10)], 20)
            .unwrap();
        // σ/Π child: linear, so its contents are eval over the new parent bag.
        assert_eq!(
            reg.view_bag(ids[0]).unwrap(),
            &Bag::from_tuples([tup![9, 4]])
        );
        // Σ child: group 5 retracted to zero rows, group 9 appears.
        assert_eq!(
            reg.view_bag(ids[1]).unwrap(),
            &Bag::from_tuples([tup![1, 1], tup![9, 1]])
        );
        // Epochs stay 1:1 aligned, children consume the same update ids.
        let log = log.lock().unwrap();
        for &id in std::iter::once(&base).chain(ids.iter()) {
            let log = log.installs(id.index());
            assert_eq!(log.len(), 1, "{}", reg.name(id).unwrap());
            assert_eq!(log[0].consumed, vec![upd]);
        }
        assert_eq!(reg.cascade_stats().child_installs, 2);
    }

    #[test]
    fn identical_sibling_selects_share_one_evaluation() {
        let mut reg = ViewRegistry::new(base3()).unwrap();
        let base = seeded_base(&mut reg);
        let twin = DerivedSpec {
            name: "hot2".into(),
            ..hot_spec()
        };
        reg.register_derived_many(&[hot_spec(), twin]).unwrap();
        let log = logged(&mut reg);
        let delta = Bag::from_tuples([tup![7, 2, 2, 3, 3, 4]]);
        let upd = UpdateId { source: 0, seq: 0 };
        reg.apply_with_cascade(base, Arc::new(delta), &[(upd, 5)], 9)
            .unwrap();
        let stats = reg.cascade_stats();
        assert_eq!(stats.linear_evals, 1, "first sibling evaluates");
        assert_eq!(stats.shared_derivations, 1, "second reuses the memo");
        // Both siblings publish the one evaluation, shared by refcount.
        let log = log.lock().unwrap();
        let logged = |name| &log.installs(reg.resolve(name).unwrap().index())[0].delta;
        assert!(Arc::ptr_eq(logged("hot"), logged("hot2")));
        assert_eq!(
            reg.view_bag(reg.resolve("hot").unwrap()).unwrap(),
            reg.view_bag(reg.resolve("hot2").unwrap()).unwrap()
        );
    }

    #[test]
    fn stacked_derivation_cascades_transitively() {
        let mut reg = ViewRegistry::new(base3()).unwrap();
        let base = seeded_base(&mut reg);
        // counts over base, then a σ over counts (a view over a view).
        let over_counts = DerivedSpec {
            name: "busy".into(),
            parent: "counts".into(),
            op: DerivedOp::Select {
                selects: vec![(1, CmpOp::Ge, Value::Int(2))],
                projection: None,
            },
        };
        // Given out of order: the batch registration topo-sorts.
        let ids = reg
            .register_derived_many(&[over_counts, counts_spec()])
            .unwrap();
        let log = logged(&mut reg);
        let delta = Bag::from_tuples([tup![1, 6, 6, 7, 7, 8]]);
        reg.apply_with_cascade(
            base,
            Arc::new(delta),
            &[(UpdateId { source: 1, seq: 0 }, 3)],
            7,
        )
        .unwrap();
        // Group 1 now has 2 rows, so it crosses the σ threshold.
        assert_eq!(
            reg.view_bag(ids[0]).unwrap(),
            &Bag::from_tuples([tup![1, 2]])
        );
        assert_eq!(log.lock().unwrap().installs(ids[0].index()).len(), 1);
    }

    #[test]
    fn cycle_and_unknown_parent_rejected_deterministically() {
        let mut reg = ViewRegistry::new(base3()).unwrap();
        seeded_base(&mut reg);
        let a = DerivedSpec {
            name: "a".into(),
            parent: "b".into(),
            op: hot_spec().op,
        };
        let b = DerivedSpec {
            name: "b".into(),
            parent: "a".into(),
            op: hot_spec().op,
        };
        assert_eq!(
            reg.register_derived_many(&[a.clone(), b]),
            Err(MvError::DependencyCycle { name: "a".into() })
        );
        assert_eq!(
            reg.register_derived_many(&[a]),
            Err(MvError::UnknownParent {
                name: "a".into(),
                parent: "b".into(),
            })
        );
        assert!(matches!(
            reg.register_derived(&DerivedSpec {
                name: "self".into(),
                parent: "self".into(),
                op: hot_spec().op,
            }),
            Err(MvError::UnknownParent { .. })
        ));
    }

    #[test]
    fn affected_by_excludes_derived_views() {
        let mut reg = ViewRegistry::new(base3()).unwrap();
        let base = seeded_base(&mut reg);
        let hot = reg.register_derived(&hot_spec()).unwrap();
        for j in 0..3 {
            assert_eq!(reg.affected_by(j), vec![base], "source {j}");
            assert_eq!(reg.affected_with_descendants(j), vec![base, hot]);
        }
    }

    /// The store's lock poisoned, attached directly or behind an
    /// `InstallLog`: deliveries and installs fail typed, nothing moves.
    #[test]
    fn a_poisoned_publisher_fails_a_delivery_and_an_install_typed() {
        struct Deaf;
        impl dw_engine::InstallPublisher for Deaf {
            fn note_delivery(&mut self, _: usize, _: UpdateId, _: Time) {}
            fn publish(&mut self, _: dw_engine::InstallEvent) {}
        }
        for behind_log in [false, true] {
            let mut reg = ViewRegistry::new(base3()).unwrap();
            let base = seeded_base(&mut reg);
            let hot = reg.register_derived(&hot_spec()).unwrap();
            let store: SharedInstallPublisher = Arc::new(std::sync::Mutex::new(Deaf));
            let publisher: SharedInstallPublisher = match behind_log {
                false => store.clone(),
                true => Arc::new(std::sync::Mutex::new(dw_engine::InstallLog::new(Some(
                    store.clone(),
                )))),
            };
            reg.set_install_publisher(publisher);
            let reader = std::thread::spawn(move || {
                let _guard = store.lock().unwrap();
                panic!("reader dies holding the store's lock");
            });
            assert!(reader.join().is_err());
            let poisoned = Err(MvError::Warehouse(WarehouseError::PublisherPoisoned));
            let upd = UpdateId { source: 0, seq: 0 };
            assert_eq!(reg.note_delivery(upd, 4), poisoned, "{behind_log}");
            let delta = Arc::new(Bag::from_tuples([tup![7, 2, 2, 3, 3, 4]]));
            assert_eq!(
                reg.apply_with_cascade(base, delta, &[(upd, 4)], 9),
                poisoned
            );
            // Nothing moved: no delivery counted, no install.
            for id in [base, hot] {
                let metrics = reg.metrics(id).unwrap();
                assert_eq!((metrics.updates_received, metrics.installs), (0, 0));
            }
            let seeded = Bag::from_tuples([tup![1, 2, 2, 3, 3, 4], tup![5, 6, 6, 7, 7, 8]]);
            assert_eq!(reg.view_bag(base).unwrap(), &seeded);
        }
    }
}
