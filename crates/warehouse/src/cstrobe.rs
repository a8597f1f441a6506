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

use crate::MaintenancePolicy;
use crate::PendingUpdate;
use crate::PolicyMetrics;
use crate::WarehouseError;
use dw_engine::{EngineCore, InstallSink, SweepCtx};
use dw_obs::{Obs, SpanId};
use dw_protocol::{Message, UpdateId};
use dw_relational::key::ViewKeyMap;
use dw_relational::{
    extend_partial, Bag, JoinSide, KeySpec, PartialDelta, SharedBag, Tuple, Value, ViewDef,
};
use dw_simnet::{Delivery, NetHandle, Time};
use std::collections::{BTreeMap, HashMap, VecDeque};

struct CsQuery {
    pd: PartialDelta,
    /// The `engine.hop` span of the network hop in flight.
    hop: SpanId,
    /// Chain positions whose slot is carried locally (the update's own
    /// relation implicitly, plus one pinned delete per compensation level).
    pinned: BTreeMap<usize, Bag>,
}

/// The evaluation of one inserted tuple: its root query and every
/// compensating query spawned for it.
struct PartWork {
    /// The update's relation and the inserted tuple every compensating
    /// query restarts from.
    rel: usize,
    seed: Tuple,
    /// In-flight queries by current qid.
    queries: HashMap<u64, CsQuery>,
    /// Finalized (projected) answers.
    answers: Vec<Bag>,
    /// Concurrent-insert suppression markers `(rel, key)`.
    suppress: Vec<(usize, Vec<Value>)>,
}

impl PartWork {
    /// A query from the part's seed, with `pinned` slots joined locally.
    fn seeded(
        &self,
        view: &ViewDef,
        pinned: BTreeMap<usize, Bag>,
    ) -> Result<CsQuery, WarehouseError> {
        let pd = PartialDelta::seed(view, self.rel, &Bag::singleton(self.seed.clone(), 1))?;
        Ok(CsQuery {
            pd,
            hop: SpanId::NONE,
            pinned,
        })
    }

    /// Drive one query as far as possible: join pinned neighbors locally,
    /// send a network query otherwise. A query that covers the chain
    /// lands in `answers`, one that went out in `queries`.
    fn drive(
        &mut self,
        core: &mut EngineCore,
        net: &mut dyn NetHandle<Message>,
        mut q: CsQuery,
    ) -> Result<(), WarehouseError> {
        loop {
            let (j, side) = if q.pd.lo > 0 {
                (q.pd.lo - 1, JoinSide::Left)
            } else if q.pd.hi + 1 < core.n() {
                (q.pd.hi + 1, JoinSide::Right)
            } else {
                self.answers.push(q.pd.finalize(&core.view)?);
                return Ok(());
            };
            if let Some(pin) = q.pinned.get(&j) {
                q.pd = extend_partial(&core.view, &q.pd, pin, side)?;
                continue;
            }
            let (qid, hop) = core.send_query(&SweepCtx::default(), net, &q.pd, j, side);
            q.hop = hop;
            self.queries.insert(qid, q);
            return Ok(());
        }
    }

    /// An update from `rel` was applied at its source while this part is
    /// being evaluated: suppress its inserts by key, and spawn one
    /// compensating query per in-flight query each delete can interfere
    /// with.
    fn register_concurrent(
        &mut self,
        core: &mut EngineCore,
        keys: &KeySpec,
        net: &mut dyn NetHandle<Message>,
        rel: usize,
        delta: &Bag,
    ) -> Result<(), WarehouseError> {
        let mut spawned: Vec<CsQuery> = Vec::new();
        for (t, c) in delta.iter() {
            if c > 0 {
                // Concurrent insert: suppress its contribution by key.
                self.suppress.push((rel, keys.key_of_tuple(rel, t)));
            } else {
                // Concurrent delete: spawn one compensating query per
                // in-flight query it can interfere with. The new query
                // restarts from the part's seed with the deleted tuple
                // carried as an extra pinned local slot.
                for q in self.queries.values() {
                    if rel == self.rel || q.pinned.contains_key(&rel) {
                        continue; // that slot is local — cannot interfere
                    }
                    let mut pinned = q.pinned.clone();
                    pinned.insert(rel, Bag::singleton(t.clone(), 1));
                    spawned.push(self.seeded(&core.view, pinned)?);
                }
            }
        }
        for q in spawned {
            core.metrics.compensation_queries += 1;
            self.drive(core, net, q)?;
        }
        Ok(())
    }
}

struct Processing {
    upd: UpdateId,
    delivered_at: Time,
    /// Parts of the update still to process (one tuple at a time).
    parts: VecDeque<(Tuple, i64)>,
    /// The part under query evaluation, if one is.
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
            core: EngineCore::new(view_def),
            keys,
            vkm,
            sink: InstallSink::new(initial_view)?,
            current: None,
        })
    }

    /// Process the current update's parts until one waits on the network,
    /// installing each completed update and beginning the next queued
    /// one.
    fn advance_parts(&mut self, net: &mut dyn NetHandle<Message>) -> Result<(), WarehouseError> {
        while let Some(cur) = self.current.as_mut() {
            debug_assert!(cur.work.is_none());
            let Some((tuple, count)) = cur.parts.pop_front() else {
                // Update complete: install its accumulated delta, then
                // begin the next queued update, if any.
                let consumed = [(cur.upd, cur.delivered_at)];
                let (metrics, now) = (&mut self.core.metrics, net.now());
                let delta = std::mem::take(&mut cur.delta_accum);
                self.sink.install(metrics, delta, &consumed, now)?;
                self.current = None;
                if let Some(PendingUpdate { update, arrived_at }) = self.core.queue.pop() {
                    self.begin_update(update.id, update.delta, arrived_at)?;
                }
                continue;
            };
            let rel = cur.upd.source;
            if count < 0 {
                // Initial delete: local through the unique key.
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
            let mut work = PartWork {
                rel,
                seed: tuple,
                queries: HashMap::new(),
                answers: Vec::new(),
                suppress: Vec::new(),
            };
            let root = work.seeded(&self.core.view, BTreeMap::new())?;
            work.drive(&mut self.core, net, root)?;
            if !work.queries.is_empty() {
                // Updates already queued behind this one were applied at
                // their sources before our queries will arrive there —
                // they are concurrent with this part's evaluation and must
                // be compensated exactly like updates that arrive later.
                let backlog: Vec<(usize, Bag)> = self
                    .core
                    .queue
                    .iter()
                    .map(|p| (p.update.id.source, p.update.delta.clone()))
                    .collect();
                for (rel, delta) in backlog {
                    work.register_concurrent(&mut self.core, &self.keys, net, rel, &delta)?;
                }
            }
            // Compensating queries may complete locally; if everything
            // drained already, the part is done.
            if work.queries.is_empty() {
                Self::finish_part(cur, &work, &self.vkm, self.sink.bag());
                continue;
            }
            cur.work = Some(work);
            return Ok(());
        }
        Ok(())
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

    /// Make update `id` the current one; [`CStrobe::advance_parts`]
    /// processes it.
    fn begin_update(
        &mut self,
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
            parts: parts.into(),
            work: None,
            delta_accum: Bag::new(),
        });
        Ok(())
    }

    fn on_answer(
        &mut self,
        net: &mut dyn NetHandle<Message>,
        qid: u64,
        partial: PartialDelta,
    ) -> Result<(), WarehouseError> {
        let unknown = WarehouseError::UnknownQuery { qid };
        let Some(cur) = self.current.as_mut() else {
            return Err(unknown);
        };
        let Some(work) = cur.work.as_mut() else {
            return Err(unknown);
        };
        let mut q = work.queries.remove(&qid).ok_or(unknown)?;
        self.core.obs.span_end(q.hop, net.now());
        q.pd = partial;
        work.drive(&mut self.core, net, q)?;
        let Some(work) = cur.work.take_if(|w| w.queries.is_empty()) else {
            return Ok(());
        };
        Self::finish_part(cur, &work, &self.vkm, self.sink.bag());
        self.advance_parts(net)
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
                let Some(cur) = self.current.as_mut() else {
                    self.begin_update(u.id, u.delta, delivery.at)?;
                    return self.advance_parts(net);
                };
                if let Some(work) = cur.work.as_mut() {
                    let (rel, delta) = (u.id.source, &u.delta);
                    work.register_concurrent(&mut self.core, &self.keys, net, rel, delta)?;
                }
                self.core.queue.push(u, delivery.at);
                Ok(())
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

    fn set_install_publisher(&mut self, p: dw_engine::SharedInstallPublisher) {
        self.sink.set_publisher(p);
    }

    fn metrics(&self) -> &PolicyMetrics {
        &self.core.metrics
    }

    fn is_quiescent(&self) -> bool {
        self.current.is_none() && self.core.queue.is_empty()
    }

    /// The engine's vocabulary: one `engine.hop` span per query, its
    /// compensating queries included, under no `engine.sweep` span.
    fn set_observer(&mut self, obs: Obs) {
        self.core.set_observer(obs);
    }
}
