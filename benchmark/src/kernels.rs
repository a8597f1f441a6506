//! The kernel table: isolated calls into single layers on inputs of the
//! workloads' sizes, timed by the repository's own `dw_bench::Bench`
//! median-of-batches harness (no second timing harness).
//!
//! Inputs come from the same generators and seed as the workloads: the
//! `steady` relations (3 × 10 000 tuples, fan-out ≈ 1) for the source
//! join kernel and `eval_view`, the `serve_mixed` view (≈ 27 k tuples)
//! and a 9-tuple delta for everything the warehouse and the serving
//! layer do per install.

use crate::spec::{scenario_config, Scale, ScenarioConfig, Workload};
use dw_bench::Bench;
use dw_engine::{DurableStore, InstallEvent, MaterializedView, WalRecord};
use dw_relational::{
    eval_view, extend_partial, extend_partial_indexed, tup, Bag, JoinIndex, JoinSide, PartialDelta,
    ViewDef,
};
use dw_serve::ReadFrontend;
use dw_workload::ViewSpec;
use std::sync::Arc;

/// Timed batches per kernel (the harness's floor of 5 ms per batch
/// applies): enough for a median, short enough to ride along with every
/// traced run.
const SAMPLES: u32 = 7;

/// A WAL record of the benchmark's own: `DurableStore` is generic over
/// its record type, and the scheduler's is private.
struct Rec(usize);

impl WalRecord for Rec {
    fn wal_bytes(&self) -> usize {
        self.0
    }
}

fn flat_inputs(workload: Workload, seed: u64, scale: Scale) -> (ViewDef, Vec<Bag>, Bag) {
    let ScenarioConfig::Flat(cfg) = scenario_config(workload, seed, 1, scale) else {
        unreachable!("kernel inputs come from the flat workloads");
    };
    let s = cfg.generate().expect("workload generator");
    let spec = ViewSpec::full("V", s.base.num_relations());
    let refs: Vec<&Bag> = s.initial.iter().collect();
    let view = eval_view(&spec.compile(&s.base).expect("full view"), &refs).expect("eval_view");
    (s.base, s.initial, view)
}

fn publish(front: &ReadFrontend, epoch: u64, delta: &Arc<Bag>) {
    front
        .sink()
        .lock()
        .expect("fresh store")
        .publish(InstallEvent {
            view_index: 0,
            epoch,
            at: 0,
            consumed: Vec::new(),
            delta: delta.clone(),
        });
}

/// Measure every kernel; `(metric name, value, samples)` per row.
/// `Scale::Quick` shrinks the inputs tenfold for the smoke test.
pub fn table(seed: u64, scale: Scale) -> Vec<(&'static str, f64, usize)> {
    let bench = Bench::with_samples(SAMPLES);
    let n = SAMPLES as usize;
    let mut rows = Vec::new();

    // --- dw-relational / dw-source: the per-query join ------------------
    let (base, rels, _) = flat_inputs(Workload::Steady, seed, scale);
    // One new R1 tuple whose B is some live R2.A, so the join has work.
    let b = rels[1].iter().next().map_or(0, |(t, _)| match t.at(1) {
        dw_relational::Value::Int(a) => *a,
        _ => 0,
    });
    let one = Bag::from_tuples([tup![-1, 0, b]]);
    let partial = PartialDelta::seed(&base, 0, &one).expect("seed partial");
    let m = bench.run("relational.extend_partial (1 ⋈ 10k)", || {
        extend_partial(&base, &partial, &rels[1], JoinSide::Right).expect("extend")
    });
    rows.push(("relational.extend_partial_us", m.median_ns / 1e3, n));
    let keys: Vec<usize> = base.join_cond(0).pairs.iter().map(|&(_, r)| r).collect();
    let mut index = JoinIndex::new(keys);
    index.apply_delta(&rels[1]);
    let m = bench.run("relational.extend_partial_indexed (1 ⋈ 10k)", || {
        extend_partial_indexed(&base, &partial, &index, JoinSide::Right).expect("extend")
    });
    rows.push(("relational.extend_partial_indexed_us", m.median_ns / 1e3, n));
    let full = ViewSpec::full("V", base.num_relations())
        .compile(&base)
        .expect("full view");
    let m = bench.run("relational.eval_view (3 × 10k)", || {
        let refs: Vec<&Bag> = rels.iter().collect();
        eval_view(&full, &refs).expect("eval_view")
    });
    rows.push(("relational.eval_view_ms", m.median_ns / 1e6, n));

    // --- the warehouse's per-install work on the served view -----------
    let (_, rels, view) = flat_inputs(Workload::ServeMixed, seed, scale);
    let tuples = view.distinct_len() as f64;
    let sorted = view.to_sorted_vec();
    let first = |n: usize| Bag::from_tuples(sorted.iter().take(n).map(|(t, _)| t.clone()));
    let delta9 = first(9);
    let m = bench.run("relational.bag_plus (9 into 27k)", || view.plus(&delta9));
    rows.push(("relational.bag_plus_ns_per_tuple", m.median_ns / tuples, n));
    let m = bench.run("relational.bag_clone (27k)", || view.clone());
    rows.push(("relational.bag_clone_ns_per_tuple", m.median_ns / tuples, n));
    let err = PartialDelta {
        lo: 0,
        hi: 2,
        bag: first(1024),
    };
    let m = bench.run("relational.compensate (1024 − 1024)", || {
        let mut partial = err.clone();
        partial.compensate(&err);
        partial
    });
    rows.push((
        "relational.compensate_ns_per_tuple",
        m.median_ns / 1024.0,
        n,
    ));

    let mut mv = MaterializedView::new(view.clone()).expect("positive view");
    let minus9 = delta9.negated();
    let m = bench.run("engine.install (±9 into 27k)", || {
        mv.install(&delta9).expect("install");
        mv.install(&minus9).expect("install");
    });
    rows.push(("engine.install_us", m.median_ns / 2.0 / 1e3, n));
    let mut wal: DurableStore<(), Rec> = DurableStore::new();
    let m = bench.run("engine.wal_append (×1024 + truncate)", || {
        for _ in 0..1024 {
            wal.append(Rec(64));
        }
        wal.checkpoint(());
    });
    rows.push(("engine.wal_append_ns", m.median_ns / 1024.0, n));
    let mut store: DurableStore<Bag, Rec> = DurableStore::new();
    let m = bench.run("engine.checkpoint (27k view)", || {
        store.checkpoint(view.clone())
    });
    rows.push(("engine.checkpoint_us", m.median_ns / 1e3, n));

    // --- dw-serve: reads against one frozen 27k epoch ------------------
    let front = ReadFrontend::new();
    front.register_view("V", view.clone(), 0);
    let key_domain = rels[0].distinct_len() as i64;
    let m = bench.run("serve.pin_unpin", || {
        let pin = front.pin(0).expect("pin");
        front.unpin(pin).expect("unpin")
    });
    rows.push(("serve.pin_unpin_ns", m.median_ns, n));
    let pin = front.pin(0).expect("pin");
    // The first point read on a column builds its index: not a read cost.
    front.read_point(&pin, 0, 0, None).expect("point");
    let m = bench.run("serve.read_scan", || {
        front.read_scan(&pin, None).expect("scan")
    });
    rows.push(("serve.read_scan_ns", m.median_ns, n));
    let m = bench.run("serve.read_point (one key)", || {
        front.read_point(&pin, 0, 0, None).expect("point")
    });
    rows.push(("serve.read_point_hot_ns", m.median_ns, n));
    let mut key = 0;
    let m = bench.run("serve.read_point (cycling keys)", || {
        key = (key + 1) % key_domain;
        front.read_point(&pin, 0, key, None).expect("point")
    });
    rows.push(("serve.read_point_cold_ns", m.median_ns, n));
    front.unpin(pin).expect("unpin");

    // What a subscription costs per install delta: enqueue at publish
    // plus drain at poll, as the difference between publishing to a view
    // with one subscriber (and polling it) and to a view with none.
    let empty = Arc::new(Bag::new());
    let cost = |subscribed: bool| {
        let front = ReadFrontend::new();
        front.register_view("tiny", Bag::new(), 0);
        let sub = subscribed.then(|| front.subscribe(0).expect("subscribe"));
        let mut epoch = 0;
        let label = if subscribed {
            "serve.publish ×256 + poll"
        } else {
            "serve.publish ×256, no subscriber"
        };
        bench
            .run(label, || {
                for _ in 0..256 {
                    epoch += 1;
                    publish(&front, epoch, &empty);
                }
                sub.map(|s| front.poll(s).expect("poll").len())
            })
            .median_ns
    };
    let per_delta = (cost(true) - cost(false)) / 256.0;
    rows.push(("serve.poll_ns_per_delta", per_delta.max(0.0), n));

    rows
}
