//! One round: set a cluster up from a seed, drive it to drain, referee
//! it. Every workload replays its round several times in fresh clusters
//! (`measure`).
//!
//! Only default constructors are used (`DataSource::new`,
//! `MaintenanceScheduler::new`, `ReadFrontend::new`, …): an optimisation
//! counts when it lands in the defaults, not behind a new option.

use crate::cluster::{
    shared_log, span_close, span_open, take_log, InstallObs, NodeLog, Recorder, Scheduler,
    SharedLog, SourceNode, WarehouseNode,
};
use crate::referee::{exactly_once, expected_views, injected_ids, stream_matches};
use crate::spec::{
    full_views, scenario_config, Scale, ScenarioConfig, Workload, N_SOURCES, POINT_BATCH,
    READ_ZIPF_THETA, SCAN_EVERY,
};
use crate::trace::Tracer;
use dw_engine::{run_cluster, DurabilityConfig, DurableStats, SharedInstallPublisher};
use dw_multiview::{MaintenanceScheduler, SchedulerMode, ShardedScheduler};
use dw_obs::Obs;
use dw_protocol::{source_node, Message, UpdateId};
use dw_relational::{eval_view, Bag, BaseRelation, ShardMap, Value, ViewDef};
use dw_rng::Rng64;
use dw_serve::{ReadFrontend, ServeStats};
use dw_simnet::{NodeId, Time};
use dw_source::DataSource;
use dw_workload::{ScheduledTxn, ViewSpec, Zipf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What to run.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// Input seed: same seed, same scenario and same reader keys.
    pub seed: u64,
    /// Run length: a paced workload's replays together last this long; a
    /// backlog workload replays at least until it has passed.
    pub seconds: u64,
    /// Full or 1/10 size.
    pub scale: Scale,
}

/// How one round is instrumented.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Instrument {
    /// Wrappers count only: the end-to-end configuration.
    Plain,
    /// Wrappers also stamp a span around every call into a layer.
    Traced,
    /// `Obs::trace()` attached to the scheduler and the sources.
    ObsOn,
}

/// The generated inputs of a round.
pub struct Scenario {
    base: ViewDef,
    initial: Vec<Bag>,
    txns: Vec<ScheduledTxn>,
    views: Vec<ViewSpec>,
    map: Option<ShardMap>,
}

fn generate(plan: &Plan) -> Result<Scenario, String> {
    match scenario_config(plan.workload, plan.seed, plan.seconds, plan.scale) {
        ScenarioConfig::Flat(cfg) => {
            let s = cfg.generate().map_err(|e| e.to_string())?;
            Ok(Scenario {
                base: s.base,
                initial: s.initial,
                txns: s.txns,
                views: full_views(cfg.n_views),
                map: None,
            })
        }
        ScenarioConfig::Sharded(cfg) => {
            let g = cfg.generate().map_err(|e| e.to_string())?;
            Ok(Scenario {
                base: g.scenario.base,
                initial: g.scenario.initial,
                txns: g.scenario.txns,
                views: g.scenario.views,
                map: Some(g.map),
            })
        }
    }
}

/// A cluster ready for its first injection.
pub struct Cluster {
    scenario: Scenario,
    warehouse: WarehouseNode,
    sources: Vec<SourceNode>,
    injections: Vec<(Time, NodeId, Message)>,
    recorder: Arc<Mutex<Recorder>>,
    wh_log: SharedLog,
    src_logs: Vec<SharedLog>,
    front: Option<ReadFrontend>,
    subs: Vec<u64>,
    ids: Vec<dw_multiview::ViewId>,
}

/// Everything before the first injection: scenario generation, the
/// initial `eval_view` per view, scheduler, sources and (when the
/// workload serves) the read frontend with its subscriptions. Timed by
/// the caller as `setup_s`.
pub fn setup(plan: &Plan) -> Result<Cluster, String> {
    let scenario = generate(plan)?;
    let base = &scenario.base;
    let n_updates = scenario.txns.len();

    let wh_log = shared_log(None);
    let front = plan.workload.serves().then(ReadFrontend::new);
    let recorder = Arc::new(Mutex::new(Recorder::new(
        front.as_ref().map(ReadFrontend::sink),
        wh_log.clone(),
        n_updates * scenario.views.len(),
    )));
    let publisher: SharedInstallPublisher = recorder.clone();

    let mut sched = match &scenario.map {
        None => {
            let mut s = MaintenanceScheduler::new(base.clone(), SchedulerMode::Shared)
                .map_err(|e| e.to_string())?;
            s.set_record_snapshots(false);
            s.set_install_publisher(publisher);
            Scheduler::Flat(s)
        }
        Some(map) => {
            let mut s =
                ShardedScheduler::new(base.clone(), map.clone()).map_err(|e| e.to_string())?;
            for bag in &scenario.initial {
                s.seed_groups(bag);
            }
            s.set_record_snapshots(false);
            s.set_install_publisher(publisher);
            Scheduler::Sharded(s)
        }
    };

    let mut ids = Vec::with_capacity(scenario.views.len());
    for spec in &scenario.views {
        let local = spec.compile(base).map_err(|e| e.to_string())?;
        let refs: Vec<&Bag> = scenario.initial[spec.lo..=spec.hi].iter().collect();
        let initial_view = eval_view(&local, &refs).map_err(|e| e.to_string())?;
        if let Some(front) = &front {
            front.register_view(&spec.name, initial_view.clone(), 0);
        }
        ids.push(
            match &mut sched {
                Scheduler::Flat(s) => s.register(spec, initial_view),
                Scheduler::Sharded(s) => s.register(spec, initial_view),
            }
            .map_err(|e| e.to_string())?,
        );
    }
    if let (Scheduler::Flat(s), true) = (&mut sched, plan.workload.serves()) {
        s.enable_durability(DurabilityConfig::default());
    }

    let mut subs = Vec::new();
    if let Some(front) = &front {
        for v in 0..scenario.views.len() {
            subs.push(front.subscribe(v).map_err(|e| e.to_string())?);
        }
    }

    let mut due: Vec<Vec<Time>> = vec![Vec::new(); N_SOURCES];
    for t in &scenario.txns {
        due[t.source].push(t.at);
    }
    let mut sources = Vec::with_capacity(N_SOURCES);
    let mut src_logs = Vec::with_capacity(N_SOURCES);
    for (i, due_us) in due.into_iter().enumerate() {
        let mut rel = BaseRelation::new(base.schema(i).clone());
        rel.apply_delta(&scenario.initial[i])
            .map_err(|e| e.to_string())?;
        let log = shared_log(None);
        src_logs.push(log.clone());
        sources.push(SourceNode::new(
            DataSource::new(i, base.clone(), rel),
            due_us,
            log,
        ));
    }

    let injections = scenario
        .txns
        .iter()
        .map(|t| {
            (
                t.at,
                source_node(t.source),
                Message::ApplyTxn {
                    rel: t.source,
                    delta: t.delta.clone(),
                    global: t.global,
                },
            )
        })
        .collect();

    Ok(Cluster {
        warehouse: WarehouseNode::new(sched, wh_log.clone()),
        scenario,
        sources,
        injections,
        recorder,
        wh_log,
        src_logs,
        front,
        subs,
        ids,
    })
}

/// What the reader thread brings back.
#[derive(Debug, Default)]
pub struct ReaderOut {
    /// Per timed batch: batch time ÷ [`POINT_BATCH`] (µs per point read).
    pub point_us: Vec<f64>,
    /// Per scan: `read_scan` plus a fold over every tuple (µs).
    pub scan_us: Vec<f64>,
    /// Per view: the `(epoch, consumed)` of every polled install delta.
    pub streams: Vec<Vec<(u64, Vec<UpdateId>)>>,
    /// Reads attempted (point + scan).
    pub reads: u64,
    /// Reads that errored or disagreed with the scan of their own pin.
    pub failed: u64,
    /// Most epochs any view retained at once, sampled at every scan.
    pub retained_max: usize,
    /// The reader's spans, on a traced run.
    pub log: NodeLog,
}

/// The closed-loop reader: pin (views round-robin) → timed batch of
/// point reads on column 0 (`R1.K`, Zipf-skewed keys) → every
/// [`SCAN_EVERY`]-th batch a timed scan + fold, with one point answer
/// checked against a filter over that scan → poll → unpin → sleep 500 µs.
fn reader_loop(
    front: ReadFrontend,
    subs: Vec<u64>,
    key_domain: usize,
    seed: u64,
    stop: Arc<AtomicBool>,
    log: SharedLog,
) -> ReaderOut {
    let n_views = subs.len();
    let mut out = ReaderOut {
        streams: vec![Vec::new(); n_views],
        ..ReaderOut::default()
    };
    let mut rng = Rng64::new(seed ^ 0x5EAD_E125);
    let zipf = Zipf::new(key_domain.max(1), READ_ZIPF_THETA);
    let mut batch = 0usize;
    let drain = |out: &mut ReaderOut, view: usize| match front.poll(subs[view]) {
        Ok(deltas) => out.streams[view].extend(deltas.into_iter().map(|d| (d.epoch, d.consumed))),
        Err(_) => out.failed += 1,
    };
    while !stop.load(Ordering::Relaxed) {
        let view = batch % n_views;
        let token = span_open(&log, "reader.pin", None);
        let pin = front.pin(view);
        span_close(&log, token);
        let Ok(pin) = pin else {
            out.failed += 1;
            std::thread::sleep(Duration::from_micros(500));
            continue;
        };

        let keys: Vec<i64> = (0..POINT_BATCH)
            .map(|_| zipf.sample(&mut rng) as i64)
            .collect();
        let token = span_open(&log, "reader.point_batch", None);
        let started = Instant::now();
        let mut last = None;
        for &key in &keys {
            out.reads += 1;
            match front.read_point(&pin, 0, key, None) {
                Ok(a) => last = Some((key, a)),
                Err(_) => out.failed += 1,
            }
        }
        out.point_us
            .push(started.elapsed().as_secs_f64() * 1e6 / POINT_BATCH as f64);
        span_close(&log, token);

        if batch.is_multiple_of(SCAN_EVERY) {
            out.reads += 1;
            let token = span_open(&log, "reader.scan", None);
            let started = Instant::now();
            let scan = front.read_scan(&pin, None);
            let folded = scan
                .as_ref()
                .map(|s| s.bag.iter().map(|(_, c)| c).sum::<i64>());
            std::hint::black_box(&folded);
            out.scan_us.push(started.elapsed().as_secs_f64() * 1e6);
            span_close(&log, token);
            match (scan, last) {
                (Ok(scan), Some((key, point))) => {
                    let want = scan
                        .bag
                        .filter(|t| t.at(0) == &Value::Int(key))
                        .to_sorted_vec();
                    if *point.matches != want || point.epoch != scan.epoch {
                        out.failed += 1;
                    }
                }
                (Err(_), _) => out.failed += 1,
                (Ok(_), None) => {}
            }
            if let Ok(kept) = front.retained_epochs(view) {
                out.retained_max = out.retained_max.max(kept.len());
            }
        }

        let token = span_open(&log, "reader.poll", None);
        drain(&mut out, view);
        span_close(&log, token);
        let token = span_open(&log, "reader.unpin", None);
        if front.unpin(pin).is_err() {
            out.failed += 1;
        }
        span_close(&log, token);
        batch += 1;
        std::thread::sleep(Duration::from_micros(500));
    }
    for view in 0..n_views {
        drain(&mut out, view);
    }
    out.log = take_log(log);
    out
}

/// A drained, refereed round.
pub struct RoundOut {
    /// Updates injected.
    pub n_updates: usize,
    /// Views maintained.
    pub n_views: usize,
    /// When the driver was started (the cluster clock's zero, to within
    /// the few µs `run_cluster` needs to reach its own `Instant::now`).
    pub t0: Instant,
    /// How long `run_cluster` took to return.
    pub cluster_wall: Duration,
    /// Due time of every update, by id.
    pub due_us: Vec<(UpdateId, Time)>,
    /// The recorder's install stream.
    pub installs: Vec<InstallObs>,
    /// The warehouse wrapper's log.
    pub wh_log: NodeLog,
    /// The source wrappers' logs, by chain position.
    pub src_logs: Vec<NodeLog>,
    /// The reader's samples, when the workload serves.
    pub reader: Option<ReaderOut>,
    /// `PolicyMetrics::local_compensations` of the scheduler.
    pub compensations: u64,
    /// Durable-store counters, when durability was on.
    pub durable: Option<DurableStats>,
    /// `(escalations, shard_local)` of the sharded scheduler.
    pub shard: Option<(u64, u64)>,
    /// Snapshot-store counters, when the workload serves.
    pub serve: Option<ServeStats>,
    /// Updates × views + reads.
    pub attempted: u64,
    /// Updates never installed + reads that failed + referee mismatches.
    pub failed: u64,
    /// One line per failure kind, for stderr.
    pub notes: Vec<String>,
}

/// Upper bound on one round; a cluster that has not drained by then is
/// reported as failed.
const DEADLINE: Duration = Duration::from_secs(120);

/// Drive `cluster` to drain and referee it.
pub fn run(plan: &Plan, cluster: Cluster, instrument: Instrument) -> Result<RoundOut, String> {
    let Cluster {
        scenario,
        mut warehouse,
        mut sources,
        injections,
        recorder,
        wh_log,
        src_logs,
        front,
        subs,
        ids,
    } = cluster;
    let n_updates = scenario.txns.len();
    let n_views = scenario.views.len();
    let origin = crate::process_origin();

    let reader_log = shared_log(None);
    match instrument {
        Instrument::Plain => {}
        Instrument::Traced => {
            // Spans per update: one apply + four queries over the
            // sources; one update + four answers + per-view publish and
            // delivery notes at the warehouse.
            let attach = |log: &SharedLog, name: String, cap: usize| {
                log.lock().expect("fresh log").tracer = Some(Tracer::new(name, origin, cap));
            };
            attach(
                &wh_log,
                "warehouse".into(),
                n_updates * (5 + 2 * n_views) + 64,
            );
            for (i, log) in src_logs.iter().enumerate() {
                attach(log, format!("source{i}"), n_updates * 3 + 64);
            }
            attach(
                &reader_log,
                "reader".into(),
                plan.seconds as usize * 8_000 + 64,
            );
        }
        Instrument::ObsOn => {
            let (obs, _recorder) = Obs::trace();
            match &mut warehouse.sched {
                Scheduler::Flat(s) => s.set_observer(obs.clone()),
                Scheduler::Sharded(s) => s.set_observer(obs.clone()),
            }
            for s in &mut sources {
                s.set_observer(obs.clone());
            }
        }
    }

    let stop = Arc::new(AtomicBool::new(false));
    let reader: Option<JoinHandle<ReaderOut>> = front.clone().map(|front| {
        let (stop, log) = (stop.clone(), reader_log.clone());
        // Keys over R1's initial key range (column 0 of the full view).
        let key_domain = scenario.initial[0].distinct_len();
        let seed = plan.seed;
        std::thread::spawn(move || reader_loop(front, subs, key_domain, seed, stop, log))
    });

    let t0 = Instant::now();
    let outcome = run_cluster(warehouse, sources, injections, 1.0, DEADLINE);
    stop.store(true, Ordering::Relaxed);
    let reader = match reader.map(JoinHandle::join) {
        None => None,
        Some(Ok(out)) => Some(out),
        Some(Err(_)) => return Err("reader thread panicked".into()),
    };
    let outcome = outcome.map_err(|e| e.to_string())?;
    let cluster_wall = outcome.wall;
    let sched = outcome.warehouse.sched;

    let wh_log = take_log(wh_log);
    let src_logs: Vec<NodeLog> = src_logs.into_iter().map(take_log).collect();
    let installs = std::mem::take(
        &mut recorder
            .lock()
            .map_err(|_| "recorder poisoned".to_string())?
            .installs,
    );

    // --- Referee -----------------------------------------------------
    let mut failed = 0u64;
    let mut notes = Vec::new();
    let mut fail = |n: u64, what: String| {
        if n > 0 {
            failed += n;
            notes.push(what);
        }
    };
    let truth = expected_views(
        &scenario.base,
        &scenario.initial,
        &scenario.txns,
        &scenario.views,
    )
    .map_err(|e| e.to_string())?;
    let expected_ids = injected_ids(&scenario.txns, N_SOURCES);
    for (v, (id, want)) in ids.iter().zip(&truth).enumerate() {
        let got = sched.views().view_bag(*id).map_err(|e| e.to_string())?;
        fail(
            u64::from(got != want),
            format!("view {v}: final bag differs from eval_view ground truth"),
        );
        let once = exactly_once(&installs, v, &expected_ids);
        fail(
            once.failures(),
            format!("view {v}: install stream not exactly-once: {once:?}"),
        );
        if let Some(r) = &reader {
            fail(
                u64::from(!stream_matches(&installs, v, &r.streams[v])),
                format!("view {v}: subscription stream differs from the install stream"),
            );
        }
    }
    if let Some(r) = &reader {
        fail(r.failed, format!("{} reads errored or disagreed", r.failed));
    }
    let sweep_msgs = src_logs.iter().map(|l| l.queries).sum::<u64>() + wh_log.answers;
    if plan.workload.exact_message_bill() {
        let want = 2 * (N_SOURCES as u64 - 1) * n_updates as u64;
        fail(
            u64::from(sweep_msgs != want),
            format!("{sweep_msgs} sweep messages, expected exactly 2(n-1)·U = {want}"),
        );
    }

    let (durable, shard) = match &sched {
        Scheduler::Flat(s) => (s.durable_stats(), None),
        Scheduler::Sharded(s) => (None, Some((s.stats().escalations, s.stats().shard_local))),
    };
    let due_us = expected_ids
        .iter()
        .copied()
        .zip(scenario.txns.iter().map(|t| t.at))
        .collect();
    Ok(RoundOut {
        n_updates,
        n_views,
        t0,
        cluster_wall,
        due_us,
        installs,
        compensations: sched.metrics().local_compensations,
        durable,
        shard,
        serve: front.as_ref().map(ReadFrontend::stats),
        attempted: (n_updates * n_views) as u64 + reader.as_ref().map_or(0, |r| r.reads),
        failed,
        notes,
        wh_log,
        src_logs,
        reader,
    })
}
