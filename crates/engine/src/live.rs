//! Thread-per-node live runtime: the engine's second transport.
//!
//! The engine never names a transport — every strategy talks through
//! [`dw_simnet::NetHandle`]. This module provides the *real* one:
//! [`ThreadNet`] carries messages over `mpsc` channels between OS
//! threads and reads wall-clock microseconds, and [`run_cluster`] wires
//! one warehouse thread plus one thread per source, drives a timed
//! injection schedule, and waits for the cluster to drain. The
//! deterministic simulator and this runtime are interchangeable from the
//! engine's point of view — which is exactly what the cross-backend
//! conformance suite asserts.

use dw_protocol::Message;
use dw_simnet::{NetHandle, NodeId, Time};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// What travels through a node's inbox.
enum Item {
    Msg { from: NodeId, msg: Message },
    Stop,
}

/// The live transport: cloned into every node thread. Implements
/// [`NetHandle`] over real channels and real time (microseconds since
/// the cluster epoch).
#[derive(Clone)]
pub struct ThreadNet {
    inboxes: Vec<Sender<Item>>,
    epoch: Instant,
    sent: Arc<AtomicU64>,
}

impl NetHandle<Message> for ThreadNet {
    fn send(&mut self, from: NodeId, to: NodeId, msg: Message) {
        self.sent.fetch_add(1, Ordering::SeqCst);
        // Receiver gone ⇒ we are shutting down; drop silently.
        let _ = self.inboxes[to].send(Item::Msg { from, msg });
    }
    fn now(&self) -> Time {
        self.epoch.elapsed().as_micros() as Time
    }
}

/// One node's message loop body: the warehouse policy or a data source,
/// behind a common face so [`run_cluster`] can thread either.
pub trait NodeRunner: Send + 'static {
    /// Handle one delivered message. `at` is the live receive time.
    fn handle(
        &mut self,
        from: NodeId,
        at: Time,
        msg: Message,
        net: &mut ThreadNet,
    ) -> Result<(), String>;

    /// Is this node quiescent? Drain waits for the warehouse node's
    /// answer to stabilize; sources are always idle between messages.
    fn is_idle(&self) -> bool {
        true
    }
}

/// Live-run failures.
#[derive(Debug)]
pub enum LiveError {
    /// The cluster did not drain within the deadline.
    Timeout {
        /// How long we waited.
        waited: Duration,
    },
    /// A node thread failed.
    NodeFailed {
        /// Description of the failure.
        what: String,
    },
}

impl fmt::Display for LiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LiveError::Timeout { waited } => write!(f, "live cluster still busy after {waited:?}"),
            LiveError::NodeFailed { what } => write!(f, "node failed: {what}"),
        }
    }
}

impl std::error::Error for LiveError {}

/// What a drained cluster hands back.
pub struct ClusterOutcome<W> {
    /// The warehouse runner, carrying its final state.
    pub warehouse: W,
    /// Wall-clock duration of the run.
    pub wall: Duration,
}

/// One node thread's loop: handle each delivered message at its live
/// receive time until `Stop`, then hand the node back. After each
/// message the warehouse stores its idle answer in `idle` (sources pass
/// `None`), and only then is the message counted in `processed` — so a
/// drain that sees every send processed also sees the idle flag it left.
fn run_node<N: NodeRunner>(
    mut node: N,
    rx: Receiver<Item>,
    mut net: ThreadNet,
    processed: &AtomicU64,
    idle: Option<&AtomicBool>,
) -> Result<N, String> {
    for item in rx.iter() {
        let Item::Msg { from, msg } = item else {
            break;
        };
        let at = net.now();
        node.handle(from, at, msg, &mut net)?;
        if let Some(idle) = idle {
            idle.store(node.is_idle(), Ordering::SeqCst);
        }
        processed.fetch_add(1, Ordering::SeqCst);
    }
    Ok(node)
}

/// Run a cluster of real threads: node 0 is `warehouse`, node `i + 1`
/// runs `sources[i]`. `injections` is a `(sim time, target node,
/// message)` schedule in nondecreasing time order, replayed from this
/// thread with timestamps divided by `time_scale` (2.0 = twice as
/// fast). Returns once every sent message is processed and the
/// warehouse reports idle, stable across three polls; `deadline` bounds
/// the whole run.
pub fn run_cluster<W: NodeRunner, S: NodeRunner>(
    warehouse: W,
    sources: Vec<S>,
    injections: Vec<(Time, NodeId, Message)>,
    time_scale: f64,
    deadline: Duration,
) -> Result<ClusterOutcome<W>, LiveError> {
    let n = sources.len();
    let started = Instant::now();
    let sent = Arc::new(AtomicU64::new(0));
    let processed = Arc::new(AtomicU64::new(0));
    let wh_idle = Arc::new(AtomicBool::new(true));

    let mut senders = Vec::with_capacity(n + 1);
    let mut receivers: Vec<Receiver<Item>> = Vec::with_capacity(n + 1);
    for _ in 0..=n {
        let (tx, rx) = channel();
        senders.push(tx);
        receivers.push(rx);
    }
    let net = ThreadNet {
        inboxes: senders.clone(),
        epoch: started,
        sent: sent.clone(),
    };

    // Warehouse thread, then one thread per source: the same loop, the
    // warehouse's also publishing its idle flag.
    let wh_rx = receivers.remove(0);
    let (wh_net, wh_processed, wh_idle_flag) = (net.clone(), processed.clone(), wh_idle.clone());
    let wh_handle = thread::spawn(move || {
        run_node(warehouse, wh_rx, wh_net, &wh_processed, Some(&wh_idle_flag))
    });
    let mut src_handles = Vec::with_capacity(n);
    for (src, rx) in sources.into_iter().zip(receivers) {
        let (src_net, src_processed) = (net.clone(), processed.clone());
        src_handles.push(thread::spawn(move || {
            run_node(src, rx, src_net, &src_processed, None)
        }));
    }

    // Drive the injection schedule from this thread (scaled real time).
    let mut driver_net = net.clone();
    for (at, to, msg) in injections {
        let due = started + Duration::from_micros((at as f64 / time_scale.max(0.01)) as u64);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            thread::sleep(wait);
        }
        driver_net.send(usize::MAX /* ENV */, to, msg);
    }

    // Wait for the cluster to drain: all sends processed + warehouse
    // idle, stable across three polls. A thread that exits before Stop
    // failed — break out so the join below surfaces its error instead
    // of waiting for a drain that can never happen.
    let mut stable = 0;
    loop {
        if wh_handle.is_finished() || src_handles.iter().any(|h| h.is_finished()) {
            break;
        }
        if started.elapsed() > deadline {
            for s in &senders {
                let _ = s.send(Item::Stop);
            }
            return Err(LiveError::Timeout {
                waited: started.elapsed(),
            });
        }
        let drained = sent.load(Ordering::SeqCst) == processed.load(Ordering::SeqCst)
            && wh_idle.load(Ordering::SeqCst);
        if drained {
            stable += 1;
            if stable >= 3 {
                break;
            }
        } else {
            stable = 0;
        }
        thread::sleep(Duration::from_millis(2));
    }

    // Shut down.
    for s in &senders {
        let _ = s.send(Item::Stop);
    }
    for h in src_handles {
        h.join()
            .map_err(|_| LiveError::NodeFailed {
                what: "source thread panicked".into(),
            })?
            .map_err(|what| LiveError::NodeFailed { what })?;
    }
    let warehouse = wh_handle
        .join()
        .map_err(|_| LiveError::NodeFailed {
            what: "warehouse thread panicked".into(),
        })?
        .map_err(|what| LiveError::NodeFailed { what })?;

    Ok(ClusterOutcome {
        warehouse,
        wall: started.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dw_relational::Bag;
    use std::sync::Mutex;

    /// Counts deliveries; forwards nothing.
    struct Counter(Arc<Mutex<u64>>);
    impl NodeRunner for Counter {
        fn handle(
            &mut self,
            _from: NodeId,
            _at: Time,
            _msg: Message,
            _net: &mut ThreadNet,
        ) -> Result<(), String> {
            *self.0.lock().unwrap() += 1;
            Ok(())
        }
    }

    /// Bounces every delivery to the warehouse node.
    struct Bouncer;
    impl NodeRunner for Bouncer {
        fn handle(
            &mut self,
            _from: NodeId,
            _at: Time,
            msg: Message,
            net: &mut ThreadNet,
        ) -> Result<(), String> {
            net.send(1, 0, msg);
            Ok(())
        }
    }

    fn txn() -> Message {
        Message::ApplyTxn {
            rel: 0,
            delta: Bag::new(),
            global: None,
        }
    }

    #[test]
    fn cluster_drains_after_bounced_injections() {
        let seen = Arc::new(Mutex::new(0));
        let outcome = run_cluster(
            Counter(seen.clone()),
            vec![Bouncer],
            vec![(0, 1, txn()), (100, 1, txn()), (200, 1, txn())],
            1_000.0,
            Duration::from_secs(10),
        )
        .unwrap();
        assert_eq!(*seen.lock().unwrap(), 3);
        assert!(outcome.wall < Duration::from_secs(10));
    }

    /// A node that *panics* (not merely errors) must surface as the same
    /// typed [`LiveError::NodeFailed`] — never as a poisoned-lock cascade
    /// or a hung drain. The runtime holds no shared locks (its shared
    /// state is all atomics), so the only panic-visible path is the
    /// thread join, and the drain loop must notice the dead thread
    /// instead of waiting out the deadline.
    #[test]
    fn panicking_node_surfaces_as_node_failed() {
        struct Explode;
        impl NodeRunner for Explode {
            fn handle(
                &mut self,
                _from: NodeId,
                _at: Time,
                _msg: Message,
                _net: &mut ThreadNet,
            ) -> Result<(), String> {
                panic!("node blew up");
            }
        }
        // Quiet the default panic printer for the duration: the panic is
        // the expected behavior under test.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let res = run_cluster(
            Counter(Arc::new(Mutex::new(0))),
            vec![Explode],
            vec![(0, 1, txn()), (100, 1, txn())],
            1_000.0,
            Duration::from_secs(5),
        );
        std::panic::set_hook(prev);
        match res.err().expect("cluster must fail") {
            LiveError::NodeFailed { what } => {
                assert!(what.contains("panicked"), "got: {what}")
            }
            other => panic!("expected NodeFailed, got {other:?}"),
        }
    }

    #[test]
    fn failing_node_surfaces_as_node_failed() {
        struct Fail;
        impl NodeRunner for Fail {
            fn handle(
                &mut self,
                _from: NodeId,
                _at: Time,
                _msg: Message,
                _net: &mut ThreadNet,
            ) -> Result<(), String> {
                Err("boom".into())
            }
        }
        let res = run_cluster(
            Fail,
            Vec::<Bouncer>::new(),
            vec![(0, 0, txn())],
            1_000.0,
            Duration::from_secs(5),
        );
        match res.err().expect("cluster must fail") {
            LiveError::NodeFailed { what } => assert!(what.contains("boom")),
            other => panic!("expected NodeFailed, got {other:?}"),
        }
    }
}
