//! The serving layer in one sitting: a multi-view warehouse maintained by
//! shared SWEEP sweeps while analysts read from it concurrently — every
//! committed install published as an immutable epoch, reads pinned to one
//! epoch (never a torn sweep), staleness bounds enforced exactly, and a
//! subscription replaying the install stream in commit order.
//!
//! Run with: `cargo run --example serve_demo`

use dwsweep::prelude::*;

fn main() {
    // --- A 3-source warehouse with three overlapping views ---------------
    let scenario = MultiViewConfig {
        stream: StreamConfig {
            n_sources: 3,
            initial_per_source: 20,
            updates: 16,
            mean_gap: 1_500, // faster than a sweep round trip: staleness builds
            domain: 12,
            keyed: true,
            seed: 42,
            ..Default::default()
        },
        n_views: 3,
        view_seed: 42,
        full_span: true,
        n_derived: 0,
        derived_seed: 0,
    }
    .generate()
    .unwrap();

    // --- A seeded read mix: 4 analysts, point + scan, half bounded -------
    let reads = ReadMixConfig {
        readers: 4,
        reads_per_reader: 8,
        mean_gap: 3_000,
        n_views: scenario.views.len(),
        point_frac: 0.4,
        scan_frac: 0.5, // remainder subscribes
        bound_frac: 0.5,
        bound_window: 2_500, // "reflect everything older than 2.5 ms"
        seed: 7,
        ..Default::default()
    }
    .generate();

    // --- Maintenance and serving on one virtual clock --------------------
    let report = MultiViewExperiment::new(scenario.clone())
        .reads(reads)
        .run()
        .unwrap();
    assert!(report.quiescent);
    let served = report.served().unwrap();

    println!(
        "{} views, {} updates, {} installs -> {} epochs published\n",
        report.views.len(),
        report.scheduler_metrics.updates_received,
        report.views.iter().map(|v| v.installs.len()).sum::<usize>(),
        served.serve_stats.snapshots_published,
    );

    println!("reads (first 10 of {}):", served.reads.len());
    for read in served.reads.iter().take(10) {
        let what = match &read.result {
            ReadResult::Point { multiplicity, .. } => {
                format!("point -> multiplicity {multiplicity}")
            }
            ReadResult::Scan { bag } => format!("scan  -> {} tuples", bag.distinct_len()),
            ReadResult::Rejected {
                required,
                freshest_admissible,
            } => format!(
                "TOO STALE (needs {required} us, freshest admissible epoch: {freshest_admissible:?})"
            ),
            ReadResult::Subscribed { sub } => format!("subscribed (#{sub})"),
            ReadResult::Polled { delivered, resumed } => {
                format!("polled -> {delivered} deltas (resumed: {resumed})")
            }
        };
        println!(
            "  t={:>6} reader {} view {} @epoch {:>2}: {}",
            read.op.at, read.op.reader, read.op.view, read.epoch, what
        );
    }

    // --- The oracle audit: every answer equals a fresh recompute ---------
    let audit = audit_reads(&scenario, &report).unwrap();
    println!(
        "\noracle audit: {} answered, {} rejected (oracle demanded {}), {} mismatches",
        audit.answered,
        audit.rejected,
        audit.expected_rejected,
        audit.content_mismatches + audit.verdict_mismatches
    );
    assert!(audit.clean() && audit.rejected == audit.expected_rejected);

    // --- Subscriptions replay the install log in ticket order ------------
    assert!(report.subscriptions_match_installs());
    if let Some(sub) = served.subscriptions.first() {
        println!(
            "subscription on view {} from epoch {}: {} install deltas pushed in order",
            sub.view,
            sub.from_epoch,
            sub.stream.len()
        );
    }

    println!("\nreaders never touched the network: the maintenance engine ran exactly");
    println!("as it would with no readers at all — epochs are frozen bags, a pin is a");
    println!("refcount, and a staleness bound is checked against the delivery ledger.");
}
