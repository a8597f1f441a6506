//! Warehouse ↔ source integration: policies driven against *real*
//! `DataSource`/`EcaSite` nodes over the simulated network (not hand-crafted
//! answers), with a local dispatch loop. Complements the `dw-core` harness
//! by exercising the crate boundary directly.

use dw_protocol::{node_source, source_node, Message, WAREHOUSE_NODE};
use dw_relational::{eval_view, tup, Bag, BaseRelation, Schema, ViewDef, ViewDefBuilder};
use dw_simnet::{LatencyModel, Network};
use dw_source::{DataSource, EcaSite};
use dw_warehouse::{Eca, MaintenancePolicy, NestedSweep, Sweep, SweepOptions};

fn paper_view() -> ViewDef {
    ViewDefBuilder::new()
        .relation(Schema::new("R1", ["A", "B"]).unwrap())
        .relation(Schema::new("R2", ["C", "D"]).unwrap())
        .relation(Schema::new("R3", ["E", "F"]).unwrap())
        .join("R1.B", "R2.C")
        .join("R2.D", "R3.E")
        .project(["R2.D", "R3.F"])
        .build()
        .unwrap()
}

fn initial_bags() -> Vec<Bag> {
    vec![
        Bag::from_tuples([tup![1, 3], tup![2, 3]]),
        Bag::from_tuples([tup![3, 7]]),
        Bag::from_tuples([tup![5, 6], tup![7, 8]]),
    ]
}

fn sources(view: &ViewDef, initial: &[Bag]) -> Vec<DataSource> {
    initial
        .iter()
        .enumerate()
        .map(|(i, bag)| {
            let mut r = BaseRelation::new(view.schema(i).clone());
            r.apply_delta(bag).unwrap();
            DataSource::new(i, view.clone(), r)
        })
        .collect()
}

/// Drive a policy + sources to quiescence.
fn drive(
    net: &mut Network<Message>,
    policy: &mut dyn MaintenancePolicy,
    sources: &mut [DataSource],
) {
    while let Some(d) = net.next() {
        if d.to == WAREHOUSE_NODE {
            policy.on_message(d, net).unwrap();
        } else {
            let idx = node_source(d.to);
            let (from, msg) = (d.from, d.msg);
            sources[idx].handle(from, msg, net).unwrap();
        }
    }
}

#[test]
fn sweep_through_real_sources_matches_truth() {
    let view = paper_view();
    let initial = initial_bags();
    let refs: Vec<&Bag> = initial.iter().collect();
    let initial_view = eval_view(&view, &refs).unwrap();

    let mut net: Network<Message> = Network::new(3);
    net.set_default_latency(LatencyModel::Uniform(500, 5_000));
    let mut policy = Sweep::new(view.clone(), initial_view).unwrap();
    let mut srcs = sources(&view, &initial);

    // Inject the paper's three updates nearly simultaneously.
    net.inject(
        0,
        source_node(1),
        Message::ApplyTxn {
            rel: 1,
            delta: Bag::from_pairs([(tup![3, 5], 1)]),
            global: None,
        },
    );
    net.inject(
        500,
        source_node(2),
        Message::ApplyTxn {
            rel: 2,
            delta: Bag::from_pairs([(tup![7, 8], -1)]),
            global: None,
        },
    );
    net.inject(
        900,
        source_node(0),
        Message::ApplyTxn {
            rel: 0,
            delta: Bag::from_pairs([(tup![2, 3], -1)]),
            global: None,
        },
    );
    drive(&mut net, &mut policy, &mut srcs);

    assert!(policy.is_quiescent());
    assert_eq!(policy.view(), &Bag::from_pairs([(tup![5, 6], 1)]));
    assert_eq!(policy.installs().len(), 3);
    // And the sources hold the post-update relations.
    assert_eq!(srcs[0].relation().bag().count(&tup![2, 3]), 0);
    assert_eq!(srcs[2].relation().bag().count(&tup![7, 8]), 0);
}

#[test]
fn nested_and_pipelined_agree_with_sweep_through_real_sources() {
    let view = paper_view();
    let initial = initial_bags();
    let refs: Vec<&Bag> = initial.iter().collect();
    let initial_view = eval_view(&view, &refs).unwrap();

    let run = |mk: &dyn Fn() -> Box<dyn MaintenancePolicy>| -> Bag {
        let mut net: Network<Message> = Network::new(11);
        net.set_default_latency(LatencyModel::Constant(2_000));
        let mut policy = mk();
        let mut srcs = sources(&view, &initial);
        for (i, (rel, delta)) in [
            (1usize, Bag::from_pairs([(tup![3, 5], 1)])),
            (0, Bag::from_pairs([(tup![1, 3], -1)])),
            (2, Bag::from_pairs([(tup![5, 6], -1)])),
            (1, Bag::from_pairs([(tup![3, 7], -1)])),
        ]
        .into_iter()
        .enumerate()
        {
            net.inject(
                i as u64 * 700,
                source_node(rel),
                Message::ApplyTxn {
                    rel,
                    delta,
                    global: None,
                },
            );
        }
        drive(&mut net, policy.as_mut(), &mut srcs);
        assert!(policy.is_quiescent());
        policy.view().to_bag()
    };

    let v_sweep = run(&|| Box::new(Sweep::new(view.clone(), initial_view.clone()).unwrap()));
    let v_nested = run(&|| Box::new(NestedSweep::new(view.clone(), initial_view.clone()).unwrap()));
    let unbounded = SweepOptions {
        window: 0,
        ..Default::default()
    };
    let v_pipe = run(&|| {
        Box::new(Sweep::with_options(view.clone(), initial_view.clone(), unbounded).unwrap())
    });
    assert_eq!(v_sweep, v_nested);
    assert_eq!(v_sweep, v_pipe);
}

#[test]
fn eca_through_real_single_site() {
    let view = paper_view();
    let initial = initial_bags();
    let refs: Vec<&Bag> = initial.iter().collect();
    let initial_view = eval_view(&view, &refs).unwrap();

    let mut net: Network<Message> = Network::new(5);
    net.set_default_latency(LatencyModel::Constant(3_000));
    let mut policy = Eca::new(view.clone(), initial_view).unwrap();
    let rels: Vec<BaseRelation> = initial
        .iter()
        .enumerate()
        .map(|(i, bag)| {
            let mut r = BaseRelation::new(view.schema(i).clone());
            r.apply_delta(bag).unwrap();
            r
        })
        .collect();
    let mut site = EcaSite::new(source_node(0), view.clone(), rels);

    // Two interfering updates at different relations of the single site.
    net.inject(
        0,
        source_node(0),
        Message::ApplyTxn {
            rel: 1,
            delta: Bag::from_pairs([(tup![3, 5], 1)]),
            global: None,
        },
    );
    net.inject(
        1_000,
        source_node(0),
        Message::ApplyTxn {
            rel: 0,
            delta: Bag::from_pairs([(tup![2, 3], -1)]),
            global: None,
        },
    );
    while let Some(d) = net.next() {
        if d.to == WAREHOUSE_NODE {
            policy.on_message(d, &mut net).unwrap();
        } else {
            let (from, msg) = (d.from, d.msg);
            site.handle(from, msg, &mut net).unwrap();
        }
    }
    assert!(policy.is_quiescent());

    // Ground truth after both updates.
    let mut final_rels = initial.clone();
    final_rels[1].add(tup![3, 5], 1);
    final_rels[0].add(tup![2, 3], -1);
    let refs: Vec<&Bag> = final_rels.iter().collect();
    assert_eq!(policy.view(), &eval_view(&view, &refs).unwrap());
}
