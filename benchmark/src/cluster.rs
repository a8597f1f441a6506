//! The benchmark's wrappers around the program's nodes.
//!
//! `dw_livenet::run_live*` keep a full view clone per install and wire
//! in test-fixture readers, so the benchmark assembles the same cluster
//! from the same public pieces: `dw_engine::run_cluster` drives
//! [`SourceNode`]s (a default-constructed `DataSource` each) and one
//! [`WarehouseNode`] (either scheduler), and a [`Recorder`] sits on the
//! scheduler's install-publisher hook, in front of the `ReadFrontend`
//! sink when the workload serves. The wrappers count every message
//! always and time every call when a tracer is attached.

use crate::trace::Tracer;
use dw_engine::{
    InstallEvent, InstallPublisher, NodeRunner, PolicyMetrics, SharedInstallPublisher, ThreadNet,
};
use dw_multiview::{MaintenanceScheduler, ShardedScheduler, ViewRegistry};
use dw_protocol::{Message, UpdateId, WAREHOUSE_NODE};
use dw_simnet::{Delivery, NodeId, Payload, Time};
use dw_source::DataSource;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// What one node's wrapper saw. Counts are kept on every run; `tracer`
/// is `Some` on a traced run only.
#[derive(Debug, Default)]
pub struct NodeLog {
    /// `ApplyTxn` messages handled.
    pub txns: u64,
    /// `Update` messages handled.
    pub updates: u64,
    /// `SweepQuery` messages handled.
    pub queries: u64,
    /// `SweepAnswer` messages handled.
    pub answers: u64,
    /// `Payload::size_bytes` summed over every message handled.
    pub wire_bytes: u64,
    /// Distinct rows summed over every `SweepAnswer` handled.
    pub answer_rows: u64,
    /// Per `ApplyTxn`: handled − due (µs on the cluster clock).
    pub late_us: Vec<f64>,
    /// Spans, on a traced run.
    pub tracer: Option<Tracer>,
}

/// A node's log, shared between its wrapper (on the node's thread) and
/// the runner that reads it after the cluster has drained. The wrapper
/// never holds the lock across a call into the program.
pub type SharedLog = Arc<Mutex<NodeLog>>;

/// A fresh log, tracing into `tracer` when one is given.
pub fn shared_log(tracer: Option<Tracer>) -> SharedLog {
    Arc::new(Mutex::new(NodeLog {
        tracer,
        ..NodeLog::default()
    }))
}

fn lock(log: &SharedLog) -> MutexGuard<'_, NodeLog> {
    log.lock().expect("a node thread panicked holding its log")
}

/// Take the log back once every thread that shared it has ended.
pub fn take_log(log: SharedLog) -> NodeLog {
    match Arc::try_unwrap(log) {
        Ok(m) => m
            .into_inner()
            .expect("a node thread panicked holding its log"),
        Err(shared) => std::mem::take(&mut *lock(&shared)),
    }
}

/// Open a span on `log`'s tracer, if it has one.
pub fn span_open(log: &SharedLog, name: &'static str, update: Option<UpdateId>) -> Option<u32> {
    lock(log).tracer.as_mut().map(|t| t.open(name, update))
}

/// Close a span opened by [`span_open`].
pub fn span_close(log: &SharedLog, token: Option<u32>) {
    if let Some(token) = token {
        if let Some(t) = lock(log).tracer.as_mut() {
            t.close(token);
        }
    }
}

/// Count `msg` on `log` and name the span its handling gets.
fn account(log: &mut NodeLog, msg: &Message) -> (&'static str, Option<UpdateId>) {
    log.wire_bytes += msg.size_bytes() as u64;
    match msg {
        Message::ApplyTxn { .. } => {
            log.txns += 1;
            ("source.apply", None)
        }
        Message::Update(u) => {
            log.updates += 1;
            ("multiview.on_update", Some(u.id))
        }
        Message::SweepQuery(_) => {
            log.queries += 1;
            ("source.query", None)
        }
        Message::SweepAnswer(a) => {
            log.answers += 1;
            log.answer_rows += a.partial.bag.distinct_len() as u64;
            ("multiview.on_answer", None)
        }
        _ => ("other", None),
    }
}

/// A data source: the unmodified `DataSource` state machine.
pub struct SourceNode {
    inner: DataSource,
    /// Due time (µs on the cluster clock) of this source's k-th
    /// transaction, in injection order.
    due_us: Vec<Time>,
    log: SharedLog,
}

impl SourceNode {
    /// Wrap `inner`; `due_us[k]` is when its k-th `ApplyTxn` is due.
    pub fn new(inner: DataSource, due_us: Vec<Time>, log: SharedLog) -> SourceNode {
        SourceNode { inner, due_us, log }
    }

    /// Attach a `dw-obs` recorder to the wrapped source.
    pub fn set_observer(&mut self, obs: dw_obs::Obs) {
        self.inner.set_observer(obs);
    }
}

impl NodeRunner for SourceNode {
    fn handle(
        &mut self,
        from: NodeId,
        at: Time,
        msg: Message,
        net: &mut ThreadNet,
    ) -> Result<(), String> {
        let token = {
            let mut log = lock(&self.log);
            if matches!(msg, Message::ApplyTxn { .. }) {
                let due = self.due_us.get(log.txns as usize).copied().unwrap_or(at);
                log.late_us.push(at.saturating_sub(due) as f64);
            }
            let (name, update) = account(&mut log, &msg);
            log.tracer.as_mut().map(|t| t.open(name, update))
        };
        let res = self.inner.handle(from, msg, net).map_err(|e| e.to_string());
        span_close(&self.log, token);
        res
    }
}

/// Either scheduler, behind the four calls the benchmark makes.
pub enum Scheduler {
    /// The flat shared-sweep scheduler.
    Flat(MaintenanceScheduler),
    /// The per-shard-lane scheduler.
    Sharded(ShardedScheduler),
}

impl Scheduler {
    fn on_message(&mut self, d: Delivery<Message>, net: &mut ThreadNet) -> Result<(), String> {
        match self {
            Scheduler::Flat(s) => s.on_message(d, net).map_err(|e| e.to_string()),
            Scheduler::Sharded(s) => s.on_message(d, net).map_err(|e| e.to_string()),
        }
    }

    fn is_quiescent(&self) -> bool {
        match self {
            Scheduler::Flat(s) => s.is_quiescent(),
            Scheduler::Sharded(s) => s.is_quiescent(),
        }
    }

    /// Per-view bags and install logs.
    pub fn views(&self) -> &ViewRegistry {
        match self {
            Scheduler::Flat(s) => s.views(),
            Scheduler::Sharded(s) => s.views(),
        }
    }

    /// Aggregate engine counters.
    pub fn metrics(&self) -> &PolicyMetrics {
        match self {
            Scheduler::Flat(s) => s.metrics(),
            Scheduler::Sharded(s) => s.metrics(),
        }
    }
}

/// The warehouse node.
pub struct WarehouseNode {
    /// The scheduler, handed back by `run_cluster` with its final state.
    pub sched: Scheduler,
    log: SharedLog,
}

impl WarehouseNode {
    /// Wrap `sched`, logging into `log` (the [`Recorder`] shares it, so
    /// publish spans nest inside the `on_message` span that caused them).
    pub fn new(sched: Scheduler, log: SharedLog) -> WarehouseNode {
        WarehouseNode { sched, log }
    }
}

impl NodeRunner for WarehouseNode {
    fn handle(
        &mut self,
        from: NodeId,
        at: Time,
        msg: Message,
        net: &mut ThreadNet,
    ) -> Result<(), String> {
        let token = {
            let mut log = lock(&self.log);
            let (name, update) = account(&mut log, &msg);
            log.tracer.as_mut().map(|t| t.open(name, update))
        };
        let d = Delivery {
            at,
            from,
            to: WAREHOUSE_NODE,
            msg,
        };
        let res = self.sched.on_message(d, net);
        span_close(&self.log, token);
        res
    }

    fn is_idle(&self) -> bool {
        self.sched.is_quiescent()
    }
}

/// One committed install, as the recorder saw it.
#[derive(Clone, Debug)]
pub struct InstallObs {
    /// Registry slot of the view.
    pub view: usize,
    /// 1-based install ordinal within the view.
    pub epoch: u64,
    /// Updates the install incorporated.
    pub consumed: Vec<UpdateId>,
    /// When the scheduler's `publish` call began: the view holds the
    /// update.
    pub installed: Instant,
    /// When the last publisher's `publish` returned: readers see it.
    pub readable: Instant,
}

/// The benchmark's install publisher: stamps every install and tees it
/// into the serving layer's sink when there is one.
pub struct Recorder {
    sink: Option<SharedInstallPublisher>,
    wh_log: SharedLog,
    /// Every install, in publication order.
    pub installs: Vec<InstallObs>,
}

impl Recorder {
    /// A recorder expecting about `capacity` installs, forwarding to
    /// `sink` and tracing into the warehouse's log.
    pub fn new(sink: Option<SharedInstallPublisher>, wh_log: SharedLog, capacity: usize) -> Self {
        Recorder {
            sink,
            wh_log,
            installs: Vec::with_capacity(capacity),
        }
    }
}

impl InstallPublisher for Recorder {
    fn note_delivery(&mut self, view_index: usize, id: UpdateId, delivered_at: Time) {
        if let Some(sink) = &self.sink {
            let token = span_open(&self.wh_log, "serve.note_delivery", Some(id));
            sink.lock()
                .expect("install publisher poisoned")
                .note_delivery(view_index, id, delivered_at);
            span_close(&self.wh_log, token);
        }
    }

    fn publish(&mut self, event: InstallEvent) {
        let installed = Instant::now();
        let (view, epoch, consumed) = (event.view_index, event.epoch, event.consumed.clone());
        if let Some(sink) = &self.sink {
            let token = span_open(&self.wh_log, "serve.publish", consumed.first().copied());
            sink.lock()
                .expect("install publisher poisoned")
                .publish(event);
            span_close(&self.wh_log, token);
        }
        self.installs.push(InstallObs {
            view,
            epoch,
            consumed,
            installed,
            readable: Instant::now(),
        });
    }
}
