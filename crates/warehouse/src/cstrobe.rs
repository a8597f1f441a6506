//! **C-strobe** — the complete-consistency member of the Strobe family
//! (§3, \[ZGMW96]).
//!
//! C-strobe handles each update *completely* before the next one, so the
//! warehouse walks through every source state — complete consistency, like
//! SWEEP. The price is remote compensation:
//!
//! * an initial **delete** is applied locally through the unique key;
//! * an initial **insert** triggers a query; every update delivered while
//!   that query (or any query spawned for this update) is in flight is
//!   treated as concurrent:
//!   * a concurrent **insert** is handled locally — its contribution is
//!     *suppressed* from the answers by key;
//!   * a concurrent **delete** spawned **one compensating query per
//!     in-flight query** it interferes with, carrying the deleted tuple as
//!     a pinned local slot. Those queries can themselves be interfered
//!     with, spawning more — the `K^(n−2)` / `(n−1)!` blow-up the paper
//!     contrasts with SWEEP's flat `n−1` (experiment E5).
//!
//! The [`PolicyMetrics::compensation_queries`] counter measures the
//! blow-up directly.

use crate::InstallRecord;
use crate::MaintenancePolicy;
use crate::PendingUpdate;
use crate::PolicyMetrics;
use crate::WarehouseError;
use dw_engine::{EngineCore, HopSpan, InstallSink, SpanLabels, SweepCtx};
use dw_obs::Obs;
use dw_protocol::{Message, UpdateId};
use dw_relational::key::ViewKeyMap;
use dw_relational::{
    extend_partial, Bag, JoinSide, KeySpec, PartialDelta, SharedBag, Tuple, Value, ViewDef,
};
use dw_simnet::{Delivery, NetHandle, Time};
use std::collections::{BTreeMap, HashMap, VecDeque};

/// C-strobe's trace vocabulary (its queries hang under no sweep span).
const LABELS: SpanLabels = SpanLabels {
    sweep: "c_strobe",
    hop: "c_strobe.hop",
    compensations: "c_strobe.compensations",
    query_counter: None,
};

struct CsQuery {
    pd: PartialDelta,
    /// Spans of the network hop in flight.
    hop: HopSpan,
    /// Chain positions whose slot is carried locally (the update's own
    /// relation implicitly, plus one pinned delete per compensation level).
    pinned: BTreeMap<usize, Bag>,
}

struct PartWork {
    /// In-flight queries by current qid.
    queries: HashMap<u64, CsQuery>,
    /// Finalized (projected) answers.
    answers: Vec<Bag>,
    /// Concurrent-insert suppression markers `(rel, key)`.
    suppress: Vec<(usize, Vec<Value>)>,
}

struct Processing {
    upd: UpdateId,
    delivered_at: Time,
    rel: usize,
    /// Parts of the update still to process (one tuple at a time).
    parts: VecDeque<(Tuple, i64)>,
    /// Seed tuple of the part currently under query evaluation.
    cur_seed: Option<Tuple>,
    work: Option<PartWork>,
    /// View delta accumulated by this update's completed parts.
    delta_accum: Bag,
}

/// The C-strobe warehouse policy.
pub struct CStrobe {
    /// Query plumbing, the queue of updates awaiting their round, metrics.
    core: EngineCore,
    keys: KeySpec,
    vkm: ViewKeyMap,
    sink: InstallSink,
    current: Option<Processing>,
}

impl CStrobe {
    /// Create the policy. Fails unless the view retains every relation's
    /// key attributes.
    pub fn new(
        view_def: ViewDef,
        keys: KeySpec,
        initial_view: Bag,
    ) -> Result<Self, WarehouseError> {
        let vkm = keys.view_key_map(&view_def)?;
        Ok(CStrobe {
            core: EngineCore::new(view_def, LABELS),
            keys,
            vkm,
            sink: InstallSink::new(initial_view)?,
            current: None,
        })
    }

    /// Drive one query as far as possible: join pinned neighbors locally,
    /// send a network query otherwise. Returns the finalized answer when
    /// the chain is fully covered.
    fn drive(
        &mut self,
        net: &mut dyn NetHandle<Message>,
        mut q: CsQuery,
    ) -> Result<Result<Bag, (u64, CsQuery)>, WarehouseError> {
        loop {
            let (j, side) = if q.pd.lo > 0 {
                (q.pd.lo - 1, JoinSide::Left)
            } else if q.pd.hi + 1 < self.core.n() {
                (q.pd.hi + 1, JoinSide::Right)
            } else {
                return Ok(Ok(q.pd.finalize(&self.core.view)?));
            };
            if let Some(pin) = q.pinned.get(&j) {
                q.pd = extend_partial(&self.core.view, &q.pd, pin, side)?;
                continue;
            }
            let ctx = SweepCtx::default();
            let (qid, hop) = self.core.send_query(&ctx, net, &q.pd, j, side);
            q.hop = hop;
            return Ok(Err((qid, q)));
        }
    }

    /// Start processing the next part (or finish the update).
    fn advance_parts(&mut self, net: &mut dyn NetHandle<Message>) -> Result<(), WarehouseError> {
        loop {
            let Some(cur) = self.current.as_mut() else {
                return Ok(());
            };
            debug_assert!(cur.work.is_none());
            let Some((tuple, count)) = cur.parts.pop_front() else {
                // Update complete: install its accumulated delta.
                let cur = self.current.take().expect("checked");
                self.sink.install(
                    &mut self.core.metrics,
                    &cur.delta_accum,
                    &[(cur.upd, cur.delivered_at)],
                    net.now(),
                )?;
                // Begin the next queued update, if any.
                if let Some(PendingUpdate { update, arrived_at }) = self.core.queue.pop() {
                    self.begin_update(net, update.id, update.delta, arrived_at)?;
                    if self.current.as_ref().is_some_and(|c| c.work.is_some()) {
                        return Ok(());
                    }
                    continue;
                }
                return Ok(());
            };
            if count < 0 {
                // Initial delete: local through the unique key.
                let rel = cur.rel;
                let key = self.keys.key_of_tuple(rel, &tuple);
                let mut snapshot = self.sink.bag().to_bag();
                snapshot.merge(&cur.delta_accum);
                for (t, c) in snapshot.iter() {
                    if self.vkm.key_of_view_tuple(rel, t) == key {
                        cur.delta_accum.add(t.clone(), -c);
                    }
                }
                continue; // next part
            }
            // Initial insert: root query.
            cur.cur_seed = Some(tuple.clone());
            let pd = PartialDelta::seed(&self.core.view, cur.rel, &Bag::singleton(tuple, 1))?;
            let root = CsQuery {
                pd,
                hop: HopSpan::NONE,
                pinned: BTreeMap::new(),
            };
            let mut work = PartWork {
                queries: HashMap::new(),
                answers: Vec::new(),
                suppress: Vec::new(),
            };
            match self.drive(net, root)? {
                Ok(ans) => work.answers.push(ans),
                Err((qid, q)) => {
                    work.queries.insert(qid, q);
                }
            }
            let cur = self.current.as_mut().expect("still processing");
            if work.queries.is_empty() {
                Self::finish_part(cur, &work, &self.vkm, self.sink.bag());
                continue;
            }
            cur.work = Some(work);
            // Updates already queued behind this one were applied at their
            // sources before our queries will arrive there — they are
            // concurrent with this part's evaluation and must be
            // compensated exactly like updates that arrive later.
            let backlog: Vec<(usize, Bag)> = self
                .core
                .queue
                .iter()
                .map(|p| (p.update.id.source, p.update.delta.clone()))
                .collect();
            for (rel, delta) in backlog {
                self.register_concurrent(net, rel, &delta)?;
            }
            // Compensating queries may complete locally; if everything
            // drained already, the part is done.
            let cur = self.current.as_mut().expect("still processing");
            if let Some(w) = cur.work.as_ref() {
                if w.queries.is_empty() {
                    let work = cur.work.take().expect("present");
                    Self::finish_part(cur, &work, &self.vkm, self.sink.bag());
                    continue;
                }
            }
            return Ok(());
        }
    }

    /// Fold a completed part's answers into the update's delta.
    fn finish_part(cur: &mut Processing, work: &PartWork, vkm: &ViewKeyMap, view: &SharedBag) {
        // Set-union all answers, scrub suppressed keys, dedupe vs. view.
        let mut seen = Bag::new();
        for ans in &work.answers {
            for (t, _) in ans.iter() {
                if seen.count(t) != 0 {
                    continue;
                }
                if work
                    .suppress
                    .iter()
                    .any(|(rel, key)| &vkm.key_of_view_tuple(*rel, t) == key)
                {
                    continue;
                }
                seen.add(t.clone(), 1);
            }
        }
        for (t, _) in seen.iter() {
            if view.count(t) + cur.delta_accum.count(t) == 0 {
                cur.delta_accum.add(t.clone(), 1);
            }
        }
    }

    fn begin_update(
        &mut self,
        net: &mut dyn NetHandle<Message>,
        id: UpdateId,
        delta: Bag,
        delivered_at: Time,
    ) -> Result<(), WarehouseError> {
        for (t, c) in delta.iter() {
            if c.abs() != 1 {
                return Err(WarehouseError::Precondition {
                    reason: format!(
                        "C-strobe requires unit-multiplicity keyed updates, got {c} for {t}"
                    ),
                });
            }
        }
        let mut parts: Vec<(Tuple, i64)> = delta.iter().map(|(t, c)| (t.clone(), c)).collect();
        // Deterministic order: deletes first, then sorted tuples.
        parts.sort_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        self.current = Some(Processing {
            upd: id,
            delivered_at,
            rel: id.source,
            parts: parts.into(),
            cur_seed: None,
            work: None,
            delta_accum: Bag::new(),
        });
        self.advance_parts(net)
    }

    /// Register an update that arrived while a part is being evaluated:
    /// queue it for its own round, and compensate the in-flight work.
    fn register_concurrent(
        &mut self,
        net: &mut dyn NetHandle<Message>,
        rel: usize,
        delta: &Bag,
    ) -> Result<(), WarehouseError> {
        let Some(cur) = self.current.as_mut() else {
            return Ok(());
        };
        let Some(work) = cur.work.as_mut() else {
            return Ok(());
        };
        let seed_rel = cur.rel;
        let Some(seed_tuple) = cur.cur_seed.clone() else {
            return Ok(());
        };
        let seed_bag = Bag::singleton(seed_tuple, 1);
        let mut spawned: Vec<CsQuery> = Vec::new();
        for (t, c) in delta.iter() {
            if c > 0 {
                // Concurrent insert: suppress its contribution by key.
                work.suppress.push((rel, self.keys.key_of_tuple(rel, t)));
            } else {
                // Concurrent delete: spawn one compensating query per
                // in-flight query it can interfere with. The new query
                // restarts from the part's seed with the deleted tuple
                // carried as an extra pinned local slot.
                for q in work.queries.values() {
                    if rel == seed_rel || q.pinned.contains_key(&rel) {
                        continue; // that slot is local — cannot interfere
                    }
                    let mut pinned = q.pinned.clone();
                    pinned.insert(rel, Bag::singleton(t.clone(), 1));
                    spawned.push(CsQuery {
                        pd: PartialDelta::seed(&self.core.view, seed_rel, &seed_bag)?,
                        hop: HopSpan::NONE,
                        pinned,
                    });
                }
            }
        }
        for q in spawned {
            self.core.metrics.compensation_queries += 1;
            match self.drive(net, q)? {
                Ok(ans) => {
                    if let Some(cur) = self.current.as_mut() {
                        if let Some(work) = cur.work.as_mut() {
                            work.answers.push(ans);
                        }
                    }
                }
                Err((qid, q)) => {
                    if let Some(cur) = self.current.as_mut() {
                        if let Some(work) = cur.work.as_mut() {
                            work.queries.insert(qid, q);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn on_answer(
        &mut self,
        net: &mut dyn NetHandle<Message>,
        qid: u64,
        partial: PartialDelta,
    ) -> Result<(), WarehouseError> {
        let cur = self
            .current
            .as_mut()
            .ok_or(WarehouseError::UnknownQuery { qid })?;
        let work = cur
            .work
            .as_mut()
            .ok_or(WarehouseError::UnknownQuery { qid })?;
        let mut q = work
            .queries
            .remove(&qid)
            .ok_or(WarehouseError::UnknownQuery { qid })?;
        self.core.end_hop(q.hop, net.now());
        q.pd = partial;
        match self.drive(net, q)? {
            Ok(ans) => {
                let cur = self.current.as_mut().expect("processing");
                let work = cur.work.as_mut().expect("part in flight");
                work.answers.push(ans);
                if work.queries.is_empty() {
                    let work = cur.work.take().expect("present");
                    Self::finish_part(cur, &work, &self.vkm, self.sink.bag());
                    return self.advance_parts(net);
                }
                Ok(())
            }
            Err((new_qid, q)) => {
                let cur = self.current.as_mut().expect("processing");
                let work = cur.work.as_mut().expect("part in flight");
                work.queries.insert(new_qid, q);
                Ok(())
            }
        }
    }
}

impl MaintenancePolicy for CStrobe {
    fn name(&self) -> &'static str {
        "c-strobe"
    }

    fn on_message(
        &mut self,
        delivery: Delivery<Message>,
        net: &mut dyn NetHandle<Message>,
    ) -> Result<(), WarehouseError> {
        match delivery.msg {
            Message::Update(u) => {
                self.core.metrics.updates_received += 1;
                if self.current.is_some() {
                    self.register_concurrent(net, u.id.source, &u.delta)?;
                    self.core.queue.push(u, delivery.at);
                    Ok(())
                } else {
                    self.begin_update(net, u.id, u.delta, delivery.at)
                }
            }
            Message::SweepAnswer(a) => {
                self.core.metrics.answers_received += 1;
                self.on_answer(net, a.qid, a.partial)
            }
            other => Err(WarehouseError::UnexpectedMessage {
                policy: self.name(),
                label: dw_simnet::Payload::label(&other),
            }),
        }
    }

    fn view(&self) -> &SharedBag {
        self.sink.bag()
    }

    fn installs(&self) -> &[InstallRecord] {
        self.sink.log()
    }

    fn metrics(&self) -> &PolicyMetrics {
        &self.core.metrics
    }

    fn is_quiescent(&self) -> bool {
        self.current.is_none() && self.core.queue.is_empty()
    }

    fn set_record_snapshots(&mut self, record: bool) {
        self.sink.record_snapshots = record;
    }

    fn set_observer(&mut self, obs: Obs) {
        self.core.set_observer(obs);
    }
}
