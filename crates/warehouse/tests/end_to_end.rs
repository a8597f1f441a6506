//! Warehouse ↔ source integration: a policy driven against a *real*
//! `EcaSite` node over the simulated network (not hand-crafted answers),
//! with a local dispatch loop. Complements the `dw-core` harness by
//! exercising the crate boundary directly. (Nested SWEEP's arm lives with
//! the scheduler that runs it, in `dw-multiview`.)

use dw_protocol::{source_node, Message, WAREHOUSE_NODE};
use dw_relational::{eval_view, tup, Bag, BaseRelation, Schema, ViewDef, ViewDefBuilder};
use dw_simnet::{LatencyModel, Network};
use dw_source::EcaSite;
use dw_warehouse::{Eca, MaintenancePolicy};

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
