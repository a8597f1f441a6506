//! The serving arm of [`MultiViewExperiment`]: a snapshot-pinned read
//! path driven off the same virtual clock as maintenance.
//!
//! [`MultiViewExperiment::reads`] attaches a [`ReadFrontend`] as the
//! scheduler's install publisher: every committed install becomes an
//! immutable epoch in the snapshot store, and a seeded [`ReadOp`]
//! schedule from `dw_workload::serve` is resolved against the store
//! *between* deliveries — a read issued at virtual time `t` observes
//! exactly the epochs committed before `t`, never a torn sweep. What the
//! readers saw lands in [`MultiViewReport::serve`] as a [`ServeOutcome`].
//!
//! The outcome carries enough provenance for an external oracle: each
//! [`ReadOutcome`] records the epoch it was answered from and the
//! length of the delivery-log prefix visible at issue time, so
//! [`oracle_view_at_epoch`] can recompute the pinned contents from the
//! scenario's initial relations and transaction stream, and
//! [`oracle_expects_rejection`] can re-derive every staleness verdict.
//!
//! [`MultiViewExperiment`]: crate::MultiViewExperiment
//! [`MultiViewExperiment::reads`]: crate::MultiViewExperiment::reads
//! [`MultiViewReport::serve`]: crate::MultiViewReport::serve

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use crate::experiment::CoreError;
use crate::multi_experiment::MultiViewReport;
use dw_multiview::{MaintenanceScheduler, ViewId};
use dw_protocol::UpdateId;
use dw_relational::{eval_view, Bag, SharedBag, Tuple, Value};
use dw_serve::{
    InstallDelta, InstallEvent, PinnedEpoch, ReadFrontend, ServeError, ServeStats, StalenessBound,
};
use dw_simnet::Time;
use dw_warehouse::InstallRecord;
use dw_workload::{MultiViewScenario, ReadKind, ReadOp};

/// The serve options of a [`MultiViewExperiment`](crate::MultiViewExperiment).
/// The arm exists iff `reads` is set; `bounded_sub_lag` only shapes it.
#[derive(Default)]
pub(crate) struct ServeConfig {
    pub reads: Option<Vec<ReadOp>>,
    pub bounded_sub_lag: Option<usize>,
}

/// Serve `initial` as one view, publish `deltas` as its consecutive
/// installs, and return the tuples those publishes copied
/// ([`ServeStats::publish_copied_tuples`]) — the kernel behind E21's
/// scale arm: the count must follow the deltas, not the view.
pub fn publish_copied_tuples(initial: Bag, deltas: impl IntoIterator<Item = Bag>) -> u64 {
    let front = ReadFrontend::new();
    front.register_view("V", initial, 0);
    let sink = front.sink();
    for (epoch, delta) in (1..).zip(deltas) {
        let event = InstallEvent {
            view_index: 0,
            epoch,
            at: epoch,
            consumed: Vec::new(),
            delta: Arc::new(delta),
        };
        // Nothing else holds this fresh frontend: the lock cannot be
        // poisoned, and a poisoned store would still count correctly.
        let mut store = sink
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        store.publish(event);
    }
    front.stats().publish_copied_tuples
}

/// A running serving arm: the frontend, the read schedule's cursor, and
/// everything the readers have observed so far.
pub(crate) struct ServeArm {
    front: ReadFrontend,
    ops: Vec<ReadOp>,
    next_op: usize,
    reads: Vec<ReadOutcome>,
    subscriptions: Vec<SubscriptionOutcome>,
    /// Bounded subscriptions, one per base view: `lag[v]` is view `v`'s.
    lag: Vec<LagSubscription>,
}

impl ServeArm {
    /// Attach a frontend to `sched` as its install publisher — `None`
    /// unless the builder asked for reads. Frontend slots mirror the
    /// registry's (the publisher keys epochs by slot): `base` in
    /// registration order, then `derived` ascending by slot. Baseline
    /// subscriptions start at epoch 0 on every slot, so their streams
    /// must replay each view's full install fingerprint; bounded ones
    /// (the lag arm, drained by `ReadKind::Poll` ops and at quiescence)
    /// cover base views only — their resume snapshots are auditable
    /// against [`oracle_view_at_epoch`].
    pub fn open(
        cfg: ServeConfig,
        sched: &mut MaintenanceScheduler,
        base: &[ViewId],
        derived: &[ViewId],
        obs: &dw_obs::Obs,
    ) -> Result<Option<ServeArm>, CoreError> {
        let Some(ops) = cfg.reads else {
            return Ok(None);
        };
        let front = ReadFrontend::new();
        front.set_observer(obs.clone());
        sched.set_install_publisher(front.sink());
        let reg = sched.views();
        for &id in base.iter().chain(derived) {
            let slot = front.register_view(reg.name(id)?, reg.view_bag(id)?.clone(), 0);
            debug_assert_eq!(slot, id.index(), "frontend/registry slot drift");
        }
        let mut arm = ServeArm {
            front,
            ops,
            next_op: 0,
            reads: Vec::new(),
            subscriptions: Vec::new(),
            lag: Vec::new(),
        };
        let front = &arm.front;
        for view in 0..front.view_count() {
            arm.subscriptions.push(SubscriptionOutcome {
                reader: usize::MAX,
                view,
                sub: front.subscribe(view)?,
                from_epoch: front.latest_epoch(view)?,
                stream: Vec::new(),
            });
        }
        if let Some(max_lag) = cfg.bounded_sub_lag {
            for view in 0..base.len() {
                arm.lag.push(LagSubscription {
                    view,
                    sub: front.subscribe_bounded(view, max_lag)?,
                    max_lag,
                    from_epoch: front.latest_epoch(view)?,
                    events: Vec::new(),
                });
            }
        }
        Ok(Some(arm))
    }

    /// Resolve every scheduled op issued at or before `upto` (`None`:
    /// all that remain) against the store as it stands. The drive loop
    /// calls this *ahead* of each delivery, so readers never observe —
    /// nor block — an install that shares their timestamp.
    pub fn pump(&mut self, upto: Option<Time>, deliveries_seen: usize) -> Result<(), CoreError> {
        let due = |op: &&ReadOp| upto.is_none_or(|t| op.at <= t);
        while let Some(op) = self.ops.get(self.next_op).filter(due).cloned() {
            let (epoch, result) = self.resolve(&op)?;
            self.reads.push(ReadOutcome {
                op,
                epoch,
                deliveries_seen,
                result,
            });
            self.next_op += 1;
        }
        Ok(())
    }

    /// Resolve one read op: the epoch it observed and what it got.
    fn resolve(&mut self, op: &ReadOp) -> Result<(u64, ReadResult), CoreError> {
        let front = &self.front;
        match &op.kind {
            // Drain the view's bounded subscription (a no-op result when
            // the lag arm is off). A lagged one resumes through the
            // snapshot-at-resume-epoch path right here, mid-run.
            ReadKind::Poll => {
                let (delivered, resumed) = match self.lag.get_mut(op.view) {
                    None => (0, false),
                    Some(entry) => drain_bounded(front, entry)?,
                };
                let result = ReadResult::Polled { delivered, resumed };
                Ok((front.latest_epoch(op.view)?, result))
            }
            ReadKind::Subscribe => {
                let sub = front.subscribe(op.view)?;
                let from_epoch = front.latest_epoch(op.view)?;
                self.subscriptions.push(SubscriptionOutcome {
                    reader: op.reader,
                    view: op.view,
                    sub,
                    from_epoch,
                    stream: Vec::new(),
                });
                Ok((from_epoch, ReadResult::Subscribed { sub }))
            }
            ReadKind::Point { column, key } => pinned_read(front, op, |pin, bound| {
                let a = front.read_point(pin, *column, *key, bound)?;
                Ok(ReadResult::Point {
                    multiplicity: a.multiplicity,
                    matches: (*a.matches).clone(),
                })
            }),
            ReadKind::Scan => pinned_read(front, op, |pin, bound| {
                let bag = front.read_scan(pin, bound)?.bag;
                Ok(ReadResult::Scan { bag })
            }),
        }
    }

    /// Quiescence: resolve the ops scheduled past the last delivery,
    /// drain every subscription, and hand over what the readers saw.
    pub fn finish(mut self, deliveries_seen: usize) -> Result<ServeOutcome, CoreError> {
        self.pump(None, deliveries_seen)?;
        let front = &self.front;
        for sub in &mut self.subscriptions {
            sub.stream = front.poll(sub.sub)?;
        }
        // Bounded subscriptions catch all the way up: a still-lagged one
        // resumes (snapshot at its resume epoch), then drains whatever
        // queued after — no installs arrive during the drain, so the
        // second round always finds it live.
        for entry in &mut self.lag {
            while drain_bounded(front, entry)?.1 {}
        }
        let retained = (0..front.view_count())
            .map(|slot| front.retained_epochs(slot))
            .collect::<Result<_, _>>()?;
        Ok(ServeOutcome {
            serve_stats: front.stats(),
            retained,
            publication_log: front.publication_log(),
            reads: self.reads,
            subscriptions: self.subscriptions,
            lag: self.lag,
        })
    }
}

/// Pin `op`'s view at its latest epoch, run `read` under the op's
/// staleness bound, release the pin. A `TooStale` refusal is an outcome
/// ([`ReadResult::Rejected`]), not an error.
fn pinned_read(
    front: &ReadFrontend,
    op: &ReadOp,
    read: impl FnOnce(&PinnedEpoch, Option<StalenessBound>) -> Result<ReadResult, ServeError>,
) -> Result<(u64, ReadResult), CoreError> {
    let pin = front.pin(op.view)?;
    let epoch = pin.epoch();
    let bound = op.bound_window.map(|w| StalenessBound {
        reflect_before: op.at.saturating_sub(w),
    });
    let result = match read(&pin, bound) {
        Ok(result) => result,
        Err(ServeError::TooStale {
            required,
            freshest_admissible,
            ..
        }) => ReadResult::Rejected {
            required,
            freshest_admissible,
        },
        Err(e) => return Err(e.into()),
    };
    front.unpin(pin)?;
    Ok((epoch, result))
}

/// Poll one bounded subscription once, logging what happened: either the
/// drained deltas, or — when it overflowed its bound — the `Lagged`
/// signal followed by the recovery (flip it live, which pins its resume
/// epoch atomically; read the resume snapshot; release the pin; log
/// `Resumed` with the snapshot for the audit). Returns `(deltas
/// delivered, whether it resumed)`.
fn drain_bounded(
    front: &ReadFrontend,
    entry: &mut LagSubscription,
) -> Result<(usize, bool), CoreError> {
    match front.poll(entry.sub) {
        Ok(deltas) => {
            let delivered = deltas.len();
            let events = deltas.into_iter().map(LagEvent::Delivered);
            entry.events.extend(events);
            Ok((delivered, false))
        }
        Err(ServeError::Lagged { resume_epoch, .. }) => {
            entry.events.push(LagEvent::Lagged { resume_epoch });
            let pin = front.resume(entry.sub)?;
            let epoch = pin.epoch();
            let snapshot = front.read_scan(&pin, None)?.bag;
            front.unpin(pin)?;
            entry.events.push(LagEvent::Resumed { epoch, snapshot });
            Ok((0, true))
        }
        Err(e) => Err(e.into()),
    }
}

/// What one resolved read observed.
#[derive(Clone, Debug, PartialEq)]
pub enum ReadResult {
    /// Point lookup: total multiplicity plus the matching tuples.
    Point {
        /// Sum of matching multiplicities.
        multiplicity: i64,
        /// The matching `(tuple, multiplicity)` pairs, sorted.
        matches: Vec<(Tuple, i64)>,
    },
    /// Full snapshot scan.
    Scan {
        /// The pinned epoch's contents (the store's own handle, not a
        /// copy).
        bag: SharedBag,
    },
    /// The pinned epoch violated the op's staleness bound.
    Rejected {
        /// The bound's cutoff instant.
        required: Time,
        /// Freshest epoch that would have satisfied the bound, if any.
        freshest_admissible: Option<u64>,
    },
    /// A subscription was registered.
    Subscribed {
        /// Subscription id (its stream lands in
        /// [`ServeOutcome::subscriptions`]).
        sub: u64,
    },
    /// A bounded subscription was polled (lag arm; a no-op when the arm
    /// is off). Full event detail lands in [`ServeOutcome::lag`].
    Polled {
        /// Install deltas drained by this poll.
        delivered: usize,
        /// Whether the poll found the subscription lagged and resumed it
        /// through the snapshot-at-resume-epoch path.
        resumed: bool,
    },
}

/// One read op's resolution, with the provenance the oracle needs.
#[derive(Clone, Debug, PartialEq)]
pub struct ReadOutcome {
    /// The scheduled op.
    pub op: ReadOp,
    /// Epoch the op was pinned to (the view's latest at issue time; for
    /// subscriptions, the epoch the stream starts after).
    pub epoch: u64,
    /// Warehouse deliveries visible when the op resolved — a prefix
    /// length into [`MultiViewReport::delivery_log`].
    pub deliveries_seen: usize,
    /// What happened.
    pub result: ReadResult,
}

impl ReadOutcome {
    /// Whether the read was answered (vs. rejected; subscriptions count
    /// as answered).
    pub fn answered(&self) -> bool {
        !matches!(self.result, ReadResult::Rejected { .. })
    }
}

/// One observable event in a bounded subscription's lifetime, in order.
#[derive(Clone, Debug)]
pub enum LagEvent {
    /// A poll drained this install delta while the subscription was live.
    Delivered(InstallDelta),
    /// A poll found the subscription lagged past its `max_lag` bound
    /// (its queue had been dropped at overflow time).
    Lagged {
        /// The epoch recovery will resume from.
        resume_epoch: u64,
    },
    /// The subscription resumed: the snapshot pinned and read at the
    /// resume epoch. Subsequent `Delivered` events continue from
    /// `epoch + 1`.
    Resumed {
        /// The resume epoch.
        epoch: u64,
        /// The snapshot's contents — audited against the recompute
        /// oracle by [`audit_lag_recoveries`].
        snapshot: SharedBag,
    },
}

/// One bounded subscription's full event history (lag arm).
#[derive(Clone, Debug)]
pub struct LagSubscription {
    /// Subscribed base view (registry slot).
    pub view: usize,
    /// Subscription id.
    pub sub: u64,
    /// The queue bound it was registered with.
    pub max_lag: usize,
    /// Epoch the subscription started after.
    pub from_epoch: u64,
    /// Everything that happened to it, in order.
    pub events: Vec<LagEvent>,
}

/// One subscription's drained install stream.
#[derive(Clone, Debug)]
pub struct SubscriptionOutcome {
    /// Issuing reader (`usize::MAX` for the experiment's baseline
    /// subscriptions registered before traffic).
    pub reader: usize,
    /// Subscribed view (registry slot).
    pub view: usize,
    /// Subscription id.
    pub sub: u64,
    /// Epoch the subscription started after — the stream holds epochs
    /// `from_epoch + 1 ..`.
    pub from_epoch: u64,
    /// Install deltas in publication (= install-ticket) order.
    pub stream: Vec<InstallDelta>,
}

/// What the serving arm of a run observed — present in
/// [`MultiViewReport::serve`] iff the builder called
/// [`reads`](crate::MultiViewExperiment::reads).
#[derive(Clone, Debug)]
pub struct ServeOutcome {
    /// Snapshot-store counters (publications, GC, reads, pins,
    /// subscription fan-out).
    pub serve_stats: ServeStats,
    /// Epochs still retained per slot at quiescence (base slots first,
    /// then derived slots).
    pub retained: Vec<Vec<u64>>,
    /// Every accepted install as `(view slot, epoch)` in publication
    /// order — the global install-ticket order. A base install and its
    /// cascaded derived descendants form one contiguous block (children
    /// ascending by slot, depth-first); replays never re-enter it.
    pub publication_log: Vec<(usize, u64)>,
    /// Every resolved read, in issue order.
    pub reads: Vec<ReadOutcome>,
    /// Every subscription's drained stream (baseline ones first).
    pub subscriptions: Vec<SubscriptionOutcome>,
    /// Bounded-subscription event histories (empty unless the lag arm —
    /// [`bounded_subscriptions`](crate::MultiViewExperiment::bounded_subscriptions)
    /// — is on).
    pub lag: Vec<LagSubscription>,
}

impl ServeOutcome {
    /// Answered (non-rejected) reads.
    pub fn answered(&self) -> usize {
        self.reads.iter().filter(|r| r.answered()).count()
    }

    /// Reads rejected for violating their staleness bound.
    pub fn rejected(&self) -> usize {
        self.reads.len() - self.answered()
    }
}

impl MultiViewReport {
    /// The serving arm's outcome; a typed error on a run built without
    /// [`reads`](crate::MultiViewExperiment::reads).
    pub fn served(&self) -> Result<&ServeOutcome, CoreError> {
        let none = || CoreError::Multi("the run had no serving arm (no `.reads(..)`)".into());
        self.serve.as_ref().ok_or_else(none)
    }

    /// The install log backing slot `slot` — a base view's outcome for
    /// the leading slots, a derived view's for the trailing ones.
    pub fn installs_for_slot(&self, slot: usize) -> Option<&[InstallRecord]> {
        match slot.checked_sub(self.views.len()) {
            None => self.views.get(slot).map(|v| v.installs.as_slice()),
            Some(k) => self.derived.get(k).map(|d| d.installs.as_slice()),
        }
    }

    /// Whether the run served and every subscription's stream replays
    /// exactly the install fingerprint of its view (base or derived)
    /// from its start epoch: contiguous epochs, matching consumed sets,
    /// matching install times.
    pub fn subscriptions_match_installs(&self) -> bool {
        let replays = |sub: &SubscriptionOutcome| {
            let installs = self.installs_for_slot(sub.view);
            let Some(expected) = installs.and_then(|i| i.get(sub.from_epoch as usize..)) else {
                return false;
            };
            sub.stream.len() == expected.len()
                && sub
                    .stream
                    .iter()
                    .zip(expected)
                    .enumerate()
                    .all(|(i, (delta, inst))| {
                        delta.view == sub.view
                            && delta.epoch == sub.from_epoch + 1 + i as u64
                            && delta.consumed == inst.consumed
                            && delta.at == inst.at
                    })
        };
        self.serve
            .as_ref()
            .is_some_and(|s| s.subscriptions.iter().all(replays))
    }
}

/// Aggregate verdict of [`audit_reads`]: every read in a report checked
/// against the recompute and staleness oracles.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OracleAudit {
    /// Reads audited (subscriptions excluded).
    pub reads: u64,
    /// Reads answered.
    pub answered: u64,
    /// Reads rejected as too stale.
    pub rejected: u64,
    /// Reads the staleness oracle says *should* have been rejected.
    pub expected_rejected: u64,
    /// Answered reads whose contents diverged from a fresh recompute at
    /// their pinned epoch. Must be zero.
    pub content_mismatches: u64,
    /// Reads whose accept/reject verdict disagreed with the staleness
    /// oracle. Must be zero.
    pub verdict_mismatches: u64,
    /// `Σ |V_epoch|` over the answered point reads: the distinct tuples
    /// a linear scan of each one's pinned epoch would have examined —
    /// the yardstick E21 holds the index's work against.
    pub point_scan_tuples: u64,
}

impl OracleAudit {
    /// No divergence anywhere: contents and verdicts both exact.
    pub fn clean(&self) -> bool {
        self.content_mismatches == 0 && self.verdict_mismatches == 0
    }
}

/// Audit every read in `report` against the oracles: answered point and
/// scan reads must equal a fresh recompute of the view at their pinned
/// epoch ([`oracle_view_at_epoch`]), and each accept/reject verdict
/// must match [`oracle_expects_rejection`].
pub fn audit_reads(
    scenario: &MultiViewScenario,
    report: &MultiViewReport,
) -> Result<OracleAudit, CoreError> {
    let mut audit = OracleAudit::default();
    for read in &report.served()?.reads {
        let truth = || {
            let installs = report.installs_for_slot(read.op.view).unwrap_or_default();
            oracle_view_at_epoch(scenario, read.op.view, installs, read.epoch)
        };
        // `None`: rejected; `Some(ok)`: answered, contents matched or not.
        let answer = match (&read.result, &read.op.kind) {
            (ReadResult::Subscribed { .. } | ReadResult::Polled { .. }, _) => continue,
            (ReadResult::Rejected { .. }, _) => None,
            (ReadResult::Scan { bag }, _) => Some(*bag == truth()?),
            (
                ReadResult::Point {
                    multiplicity,
                    matches,
                },
                ReadKind::Point { column, key },
            ) => {
                let mut want = truth()?.to_sorted_vec();
                audit.point_scan_tuples += want.len() as u64;
                want.retain(|(t, _)| t.at(*column) == &Value::Int(*key));
                let total: i64 = want.iter().map(|&(_, m)| m).sum();
                Some(*matches == want && *multiplicity == total)
            }
            // A point answer to an op that asked for something else.
            (ReadResult::Point { .. }, _) => Some(false),
        };
        let expect_reject = oracle_expects_rejection(scenario, report, read);
        audit.reads += 1;
        audit.expected_rejected += u64::from(expect_reject);
        audit.verdict_mismatches += u64::from(answer.is_some() == expect_reject);
        match answer {
            None => audit.rejected += 1,
            Some(ok) => {
                audit.answered += 1;
                audit.content_mismatches += u64::from(!ok);
            }
        }
    }
    Ok(audit)
}

/// Aggregate verdict of [`audit_lag_recoveries`]: every bounded
/// subscription's event history checked for stream equivalence — the
/// deltas it received plus the snapshots it resumed through must
/// reconstruct exactly what an unbounded subscriber saw.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LagAudit {
    /// Bounded subscriptions audited.
    pub subs: u64,
    /// Install deltas delivered across them.
    pub delivered: u64,
    /// Lag conditions observed (polls that found a dropped queue).
    pub lag_events: u64,
    /// Snapshot resumes taken.
    pub resumes: u64,
    /// Epoch-contiguity violations inside live stretches. Must be zero.
    pub gap_violations: u64,
    /// Resume snapshots that diverged from the recompute oracle at
    /// their epoch. Must be zero.
    pub snapshot_mismatches: u64,
    /// Subscriptions whose folded history (deltas + resume snapshots)
    /// missed the view's final contents, or stopped short of its final
    /// epoch. Must be zero.
    pub final_mismatches: u64,
}

impl LagAudit {
    /// Every bounded subscription reconstructed the unbounded stream.
    pub fn clean(&self) -> bool {
        self.gap_violations == 0 && self.snapshot_mismatches == 0 && self.final_mismatches == 0
    }
}

/// Audit every bounded subscription in `report` for recovery
/// equivalence: fold its event history — merging delivered deltas,
/// substituting the resume snapshot at each `Resumed` — and require (a)
/// contiguous epochs within each live stretch, (b) every resume
/// snapshot equal to [`oracle_view_at_epoch`] at its epoch, and (c) the
/// folded end state equal to the oracle at the view's final epoch. That
/// is exactly "resumed stream + snapshot == full stream".
pub fn audit_lag_recoveries(
    scenario: &MultiViewScenario,
    report: &MultiViewReport,
) -> Result<LagAudit, CoreError> {
    let mut audit = LagAudit::default();
    for sub in &report.served()?.lag {
        audit.subs += 1;
        let installs = report
            .installs_for_slot(sub.view)
            .ok_or_else(|| CoreError::Multi(format!("lag audit: no slot {}", sub.view)))?;
        let mut running = oracle_view_at_epoch(scenario, sub.view, installs, sub.from_epoch)?;
        let mut next = sub.from_epoch + 1;
        for ev in &sub.events {
            match ev {
                LagEvent::Delivered(d) => {
                    audit.delivered += 1;
                    if d.view != sub.view || d.epoch != next {
                        audit.gap_violations += 1;
                    }
                    running.merge(&d.delta);
                    next = d.epoch + 1;
                }
                LagEvent::Lagged { .. } => audit.lag_events += 1,
                LagEvent::Resumed { epoch, snapshot } => {
                    audit.resumes += 1;
                    let truth = oracle_view_at_epoch(scenario, sub.view, installs, *epoch)?;
                    if snapshot != &truth {
                        audit.snapshot_mismatches += 1;
                    }
                    running = snapshot.to_bag();
                    next = epoch + 1;
                }
            }
        }
        // The quiescence drain catches every bounded subscription up to
        // the view's final epoch; anything short is a lost suffix.
        let last = next - 1;
        if last != installs.len() as u64 {
            audit.final_mismatches += 1;
            continue;
        }
        let truth = oracle_view_at_epoch(scenario, sub.view, installs, last)?;
        if running != truth {
            audit.final_mismatches += 1;
        }
    }
    Ok(audit)
}

/// Recompute a view's contents at epoch `e` from first principles: the
/// scenario's initial relations with the deltas of every transaction
/// consumed by installs `1..=e` applied, evaluated through the view
/// definition. This is the ground truth a snapshot read at a pinned
/// epoch must equal.
pub fn oracle_view_at_epoch(
    scenario: &MultiViewScenario,
    view_index: usize,
    installs: &[InstallRecord],
    epoch: u64,
) -> Result<Bag, CoreError> {
    let spec = scenario
        .views
        .get(view_index)
        .ok_or_else(|| CoreError::Multi(format!("oracle: no view {view_index}")))?;
    let local = spec.compile(&scenario.base)?;
    let mut shadows: Vec<Bag> = scenario.initial[spec.lo..=spec.hi].to_vec();
    if epoch > 0 {
        let deltas = txn_deltas(scenario);
        for rec in installs.iter().take(epoch as usize) {
            for id in &rec.consumed {
                let delta = deltas.get(id).ok_or_else(|| {
                    CoreError::Multi(format!("oracle: consumed unknown update {id:?}"))
                })?;
                let shadow = id.source.checked_sub(spec.lo);
                let shadow = shadow.and_then(|i| shadows.get_mut(i)).ok_or_else(|| {
                    CoreError::Multi(format!(
                        "oracle: view {view_index} (span {}..={}) consumed out-of-span update {id:?}",
                        spec.lo, spec.hi
                    ))
                })?;
                shadow.merge(delta);
            }
        }
    }
    let refs: Vec<&Bag> = shadows.iter().collect();
    Ok(eval_view(&local, &refs)?)
}

/// Whether the staleness oracle expects this read to have been
/// rejected: some in-span update was delivered before the bound's
/// cutoff (within the delivery prefix visible at issue time) yet was
/// not consumed by any install up to the pinned epoch.
pub fn oracle_expects_rejection(
    scenario: &MultiViewScenario,
    report: &MultiViewReport,
    read: &ReadOutcome,
) -> bool {
    let Some(window) = read.op.bound_window else {
        return false;
    };
    let (Some(spec), Some(outcome)) = (
        scenario.views.get(read.op.view),
        report.views.get(read.op.view),
    ) else {
        return false;
    };
    let cutoff = read.op.at.saturating_sub(window);
    // First delivery time per update within the visible prefix (the
    // store also keeps the first).
    let mut first_seen: HashMap<UpdateId, Time> = HashMap::new();
    for &(id, at) in report.delivery_log.iter().take(read.deliveries_seen) {
        first_seen.entry(id).or_insert(at);
    }
    let consumed: HashSet<UpdateId> = outcome
        .installs
        .iter()
        .take(read.epoch as usize)
        .flat_map(|r| r.consumed.iter().copied())
        .collect();
    first_seen.iter().any(|(id, &at)| {
        spec.lo <= id.source && id.source <= spec.hi && at < cutoff && !consumed.contains(id)
    })
}

/// Per-update transaction deltas, keyed by the `UpdateId` each source
/// will stamp: sources emit one update per applied transaction, with
/// per-source sequence numbers following injection (time) order.
fn txn_deltas(scenario: &MultiViewScenario) -> HashMap<UpdateId, Bag> {
    let mut next_seq: HashMap<usize, u64> = HashMap::new();
    let mut map = HashMap::new();
    let mut order: Vec<usize> = (0..scenario.txns.len()).collect();
    order.sort_by_key(|&i| (scenario.txns[i].at, i));
    for i in order {
        let t = &scenario.txns[i];
        let seq = next_seq.entry(t.source).or_insert(0);
        map.insert(
            UpdateId {
                source: t.source,
                seq: *seq,
            },
            t.delta.clone(),
        );
        *seq += 1;
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MultiViewExperiment;
    use dw_protocol::WAREHOUSE_NODE;
    use dw_relational::ShardMap;
    use dw_simnet::FaultPlan;
    use dw_workload::{MultiViewConfig, ReadMixConfig, StreamConfig};

    fn scenario(n_views: usize, seed: u64) -> MultiViewScenario {
        MultiViewConfig {
            stream: StreamConfig {
                n_sources: 4,
                updates: 20,
                initial_per_source: 12,
                domain: 8,
                mean_gap: 500,
                seed,
                ..Default::default()
            },
            n_views,
            view_seed: seed ^ 0xABCD,
            full_span: false,
            n_derived: 0,
            derived_seed: 0,
        }
        .generate()
        .unwrap()
    }

    fn mix(n_views: usize, seed: u64) -> Vec<ReadOp> {
        ReadMixConfig {
            readers: 4,
            reads_per_reader: 10,
            n_views,
            seed,
            ..Default::default()
        }
        .generate()
    }

    fn check_against_oracle(scenario: &MultiViewScenario, report: &MultiViewReport) {
        assert!(report.quiescent);
        for read in &report.served().unwrap().reads {
            match &read.result {
                ReadResult::Scan { bag } => {
                    let truth = oracle_view_at_epoch(
                        scenario,
                        read.op.view,
                        &report.views[read.op.view].installs,
                        read.epoch,
                    )
                    .unwrap();
                    assert_eq!(bag, &truth, "scan at epoch {} drifted", read.epoch);
                    assert!(!oracle_expects_rejection(scenario, report, read));
                }
                ReadResult::Point {
                    multiplicity,
                    matches,
                } => {
                    let truth = oracle_view_at_epoch(
                        scenario,
                        read.op.view,
                        &report.views[read.op.view].installs,
                        read.epoch,
                    )
                    .unwrap();
                    let ReadKind::Point { column, key } = read.op.kind else {
                        panic!("point outcome from non-point op");
                    };
                    let want: Vec<(Tuple, i64)> = truth
                        .to_sorted_vec()
                        .into_iter()
                        .filter(|(t, _)| t.at(column) == &dw_relational::Value::Int(key))
                        .collect();
                    assert_eq!(matches, &want);
                    assert_eq!(*multiplicity, want.iter().map(|&(_, m)| m).sum::<i64>());
                    assert!(!oracle_expects_rejection(scenario, report, read));
                }
                ReadResult::Rejected { .. } => {
                    assert!(
                        oracle_expects_rejection(scenario, report, read),
                        "spurious rejection at epoch {} (op at {})",
                        read.epoch,
                        read.op.at
                    );
                }
                ReadResult::Subscribed { .. } | ReadResult::Polled { .. } => {}
            }
        }
        assert!(report.subscriptions_match_installs());
    }

    #[test]
    fn flat_reads_match_oracle_and_subs_replay_installs() {
        let sc = scenario(3, 11);
        let reads = mix(3, 11);
        let report = MultiViewExperiment::new(sc.clone())
            .reads(reads)
            .run()
            .unwrap();
        assert!(report.served().unwrap().serve_stats.snapshots_published > 0);
        let installs: u64 = report.views.iter().map(|v| v.installs.len() as u64).sum();
        assert_eq!(
            report.served().unwrap().serve_stats.snapshots_published,
            installs
        );
        assert!(report.served().unwrap().answered() > 0);
        check_against_oracle(&sc, &report);
    }

    #[test]
    fn tight_bounds_reject_exactly_when_oracle_says() {
        let sc = scenario(2, 12);
        // Zero trailing window: the answer must reflect everything
        // delivered before the read instant — mid-sweep reads reject.
        let reads: Vec<ReadOp> = mix(2, 12)
            .into_iter()
            .map(|mut op| {
                if !matches!(op.kind, ReadKind::Subscribe) {
                    op.bound_window = Some(0);
                }
                op
            })
            .collect();
        let report = MultiViewExperiment::new(sc.clone())
            .reads(reads)
            .run()
            .unwrap();
        assert_eq!(
            report.served().unwrap().rejected() as u64,
            report.served().unwrap().serve_stats.reads_rejected,
            "store counters disagree with outcomes"
        );
        check_against_oracle(&sc, &report);
    }

    #[test]
    fn sharded_engine_serves_the_same_epochs() {
        let sc = scenario(3, 13);
        let map = ShardMap::hash(2);
        let reads = mix(3, 13);
        let flat = MultiViewExperiment::new(sc.clone())
            .reads(reads.clone())
            .run()
            .unwrap();
        let sharded = MultiViewExperiment::new(sc.clone())
            .shards(map)
            .reads(reads)
            .run()
            .unwrap();
        assert!(sharded.shard_stats.is_some() && flat.shard_stats.is_none());
        check_against_oracle(&sc, &sharded);
        assert_eq!(flat.install_fingerprint(), sharded.install_fingerprint());
    }

    #[test]
    fn reads_survive_a_warehouse_crash_window() {
        let sc = scenario(2, 14);
        let crash_at = sc.txns[8].at;
        let reads = mix(2, 14);
        let report = MultiViewExperiment::new(sc.clone())
            .reads(reads)
            .durability(2)
            .transport_auto()
            .faults(FaultPlan::none().state_crash(WAREHOUSE_NODE, crash_at, crash_at + 2_000))
            .run()
            .unwrap();
        assert!(report.recovery.recoveries >= 1);
        // Every read resolved — none was lost to the crash window.
        assert_eq!(
            report.served().unwrap().reads.len(),
            report.served().unwrap().answered() + report.served().unwrap().rejected()
        );
        check_against_oracle(&sc, &report);
    }

    #[test]
    fn indexed_point_reads_equal_the_oracle_on_a_hot_key_mix() {
        let sc = scenario(2, 16);
        let reads = ReadMixConfig::hot_key_points(4, 16, 16);
        let reads = ReadMixConfig {
            n_views: 2,
            ..reads
        }
        .generate();
        let report = MultiViewExperiment::new(sc.clone())
            .reads(reads)
            .run()
            .unwrap();
        check_against_oracle(&sc, &report);
        // The index really engaged — built, then reused — and answering
        // through it examined fewer tuples than scanning each answered
        // point read's pinned epoch would have.
        let stats = &report.served().unwrap().serve_stats;
        assert!(stats.point_index_builds > 0 && stats.point_index_hits > 0);
        let audit = audit_reads(&sc, &report).unwrap();
        assert!(audit.clean(), "{audit:?}");
        assert!(
            stats.read_work_tuples + stats.index_maintenance_tuples < audit.point_scan_tuples,
            "{stats:?} vs {audit:?}"
        );
    }

    #[test]
    fn lagged_subscriptions_recover_equivalently() {
        // Seed 20 deals both views a Sweep policy (12 and 11 installs) —
        // plenty of publish pressure for a queue bound of 1.
        let sc = scenario(2, 20);
        let reads = ReadMixConfig {
            n_views: 2,
            ..ReadMixConfig::laggy_subscribers(4, 20, 20)
        }
        .generate();
        let report = MultiViewExperiment::new(sc.clone())
            .reads(reads)
            .bounded_subscriptions(1)
            .run()
            .unwrap();
        check_against_oracle(&sc, &report);
        let audit = audit_lag_recoveries(&sc, &report).unwrap();
        assert_eq!(audit.subs, 2);
        assert!(
            audit.lag_events >= 1 && audit.resumes >= 1,
            "max_lag=1 under ~a dozen installs per view must overflow: {audit:?}"
        );
        assert!(audit.clean(), "{audit:?}");
        assert_eq!(
            report.served().unwrap().serve_stats.subs_lagged,
            audit.lag_events
        );
        assert_eq!(
            report.served().unwrap().serve_stats.subs_resumed,
            audit.resumes
        );
    }

    #[test]
    fn no_reader_referee_has_identical_maintenance() {
        let sc = scenario(3, 15);
        let with_reads = MultiViewExperiment::new(sc.clone())
            .reads(mix(3, 15))
            .run()
            .unwrap();
        let referee = MultiViewExperiment::new(sc)
            .reads(Vec::new())
            .run()
            .unwrap();
        assert_eq!(with_reads.makespan(), referee.makespan());
        assert_eq!(with_reads.query_messages(), referee.query_messages());
        assert_eq!(
            with_reads.install_fingerprint(),
            referee.install_fingerprint()
        );
    }
}
