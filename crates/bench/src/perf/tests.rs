//! Gate, codec and schema tests over a hand-built healthy report.

use super::*;

/// A hand-built healthy report matching the shapes `collect` emits.
fn healthy() -> PerfReport {
    PerfReport {
        mode: "smoke".to_string(),
        e1: vec![
            E1Row {
                policy: "SWEEP".to_string(),
                consistency: "complete".to_string(),
                msgs_per_update: 6.0,
                installs: 12,
                updates: 12,
                local_compensations: 9,
                compensation_queries: 0,
                stale_p50_us: 12_000,
                stale_p95_us: 20_000,
                stale_p99_us: 21_000,
            },
            E1Row {
                policy: "Strobe".to_string(),
                consistency: "strong".to_string(),
                msgs_per_update: 6.5,
                installs: 3,
                updates: 12,
                local_compensations: 0,
                compensation_queries: 4,
                stale_p50_us: 30_000,
                stale_p95_us: 55_000,
                stale_p99_us: 60_000,
            },
        ],
        e6: vec![
            E6Row {
                n: 2,
                expected_msgs_per_update: 2.0,
                sparse_msgs_per_update: 2.0,
                dense_msgs_per_update: 2.0,
                dense_compensations: 3,
                consistency: "complete".to_string(),
            },
            E6Row {
                n: 8,
                expected_msgs_per_update: 14.0,
                sparse_msgs_per_update: 14.0,
                dense_msgs_per_update: 14.0,
                dense_compensations: 40,
                consistency: "complete".to_string(),
            },
        ],
        e12: vec![E12Row {
            loss_pct: 5.0,
            logical_msgs_per_update: 4.0,
            expected_msgs_per_update: 4.0,
            inflation: 1.2,
            consistency: "complete".to_string(),
            quiescent: true,
            stale_p50_us: 14_000,
            stale_p95_us: 80_000,
            stale_p99_us: 90_000,
        }],
        e14: vec![E14Row {
            views: 3,
            n: 4,
            expected_shared: 6.0,
            shared_msgs_per_update: 6.0,
            expected_naive: 18.0,
            naive_msgs_per_update: 18.0,
            sharing_ratio: 3.0,
            min_consistency: "strong".to_string(),
            mutual_agreement: true,
            stale_p50_us: 9_000,
            stale_p95_us: 30_000,
            stale_p99_us: 34_000,
        }],
        e15: vec![
            E15Row {
                batch: 1,
                n: 5,
                updates: 25,
                sweeps: 25,
                expected_msgs_per_update: 8.0,
                msgs_per_update: 8.0,
                amortized_floor: 8.0,
                min_consistency: "complete".to_string(),
                mutual_agreement: true,
                quiescent: true,
                stale_p50_us: 90_000,
                stale_p95_us: 180_000,
                stale_p99_us: 195_000,
            },
            E15Row {
                batch: 4,
                n: 5,
                updates: 25,
                sweeps: 7,
                expected_msgs_per_update: 8.0 * 7.0 / 25.0,
                msgs_per_update: 8.0 * 7.0 / 25.0,
                amortized_floor: 2.0,
                min_consistency: "strong".to_string(),
                mutual_agreement: true,
                quiescent: true,
                stale_p50_us: 60_000,
                stale_p95_us: 120_000,
                stale_p99_us: 130_000,
            },
        ],
        e16: vec![
            E16Row {
                label: "none".to_string(),
                n: 4,
                views: 2,
                updates: 10,
                query_msgs_plain: 60,
                query_msgs_pushed: 60,
                query_bytes_plain: 5_000,
                query_bytes_pushed: 5_000,
                answer_bytes_plain: 8_000,
                answer_bytes_pushed: 8_000,
                answer_reduction_pct: 0.0,
                min_consistency: "strong".to_string(),
                mutual_agreement: true,
                quiescent: true,
            },
            E16Row {
                label: "selective".to_string(),
                n: 4,
                views: 2,
                updates: 10,
                query_msgs_plain: 60,
                query_msgs_pushed: 60,
                query_bytes_plain: 5_000,
                query_bytes_pushed: 4_200,
                answer_bytes_plain: 8_000,
                answer_bytes_pushed: 3_000,
                answer_reduction_pct: 100.0 * 5_000.0 / 8_000.0,
                min_consistency: "strong".to_string(),
                mutual_agreement: true,
                quiescent: true,
            },
        ],
        e17: vec![
            E17Row {
                checkpoint_every: 1,
                n: 4,
                views: 2,
                updates: 6,
                converged: true,
                recoveries: 1,
                wal_records_replayed: 4,
                wal_bytes_replayed: 300,
                sweeps_reseeded: 1,
                stale_answers_dropped: 1,
                checkpoints_taken: 7,
                checkpoint_copied_tuples: 0,
                wal_bytes_written: 2_400,
                recovery_latency_us: 9_000,
                stale_max_us: 24_000,
                stale_bound_us: 75_000,
                quiescent: true,
            },
            E17Row {
                checkpoint_every: 16,
                n: 4,
                views: 2,
                updates: 6,
                converged: true,
                recoveries: 1,
                wal_records_replayed: 40,
                wal_bytes_replayed: 2_100,
                sweeps_reseeded: 1,
                stale_answers_dropped: 1,
                checkpoints_taken: 2,
                checkpoint_copied_tuples: 0,
                wal_bytes_written: 2_400,
                recovery_latency_us: 9_000,
                stale_max_us: 24_000,
                stale_bound_us: 75_000,
                quiescent: true,
            },
        ],
        e18: vec![
            E18Row {
                shards: 1,
                n: 3,
                views: 2,
                updates: 24,
                makespan_us: 96_000,
                speedup: 1.0,
                expected_min_speedup: 1.0,
                msgs_per_update: 4.0,
                expected_msgs_per_update: 4.0,
                escalations: 0,
                max_lanes: 1,
                conforms: true,
                quiescent: true,
            },
            E18Row {
                shards: 2,
                n: 3,
                views: 2,
                updates: 24,
                makespan_us: 48_000,
                speedup: 2.0,
                expected_min_speedup: 1.4,
                msgs_per_update: 4.0,
                expected_msgs_per_update: 4.0,
                escalations: 0,
                max_lanes: 2,
                conforms: true,
                quiescent: true,
            },
            E18Row {
                shards: 4,
                n: 3,
                views: 2,
                updates: 24,
                makespan_us: 24_000,
                speedup: 4.0,
                expected_min_speedup: 2.8,
                msgs_per_update: 4.0,
                expected_msgs_per_update: 4.0,
                escalations: 0,
                max_lanes: 4,
                conforms: true,
                quiescent: true,
            },
        ],
        e19: vec![
            E19Row {
                mix: "point-heavy".to_string(),
                n: 3,
                views: 3,
                updates: 16,
                reads: 30,
                answered: 26,
                rejected: 4,
                expected_rejected: 4,
                read_qps: 260.0,
                makespan_us: 96_000,
                baseline_makespan_us: 96_000,
                msgs_per_update: 4.0,
                baseline_msgs_per_update: 4.0,
                snapshots_published: 48,
                snapshots_gced: 45,
                reads_match_recompute: true,
                subs_match_installs: true,
                quiescent: true,
            },
            E19Row {
                mix: "scan-heavy".to_string(),
                n: 3,
                views: 3,
                updates: 16,
                reads: 31,
                answered: 25,
                rejected: 6,
                expected_rejected: 6,
                read_qps: 250.0,
                makespan_us: 96_000,
                baseline_makespan_us: 96_000,
                msgs_per_update: 4.0,
                baseline_msgs_per_update: 4.0,
                snapshots_published: 48,
                snapshots_gced: 44,
                reads_match_recompute: true,
                subs_match_installs: true,
                quiescent: true,
            },
        ],
        e20: vec![
            E20Row {
                label: "sibling-fanout".to_string(),
                n: 3,
                views: 1,
                derived: 4,
                updates: 14,
                expected_msgs_per_update: 4.0,
                msgs_per_update: 4.0,
                baseline_msgs_per_update: 4.0,
                derived_source_msgs: 0,
                child_installs: 56,
                shared_derivations: 28,
                linear_evals: 14,
                sharing_ratio: 2.0 / 3.0,
                aggregate_fidelity: true,
                quiescent: true,
            },
            E20Row {
                label: "deep-stack".to_string(),
                n: 3,
                views: 1,
                derived: 3,
                updates: 14,
                expected_msgs_per_update: 4.0,
                msgs_per_update: 4.0,
                baseline_msgs_per_update: 4.0,
                derived_source_msgs: 0,
                child_installs: 42,
                shared_derivations: 0,
                linear_evals: 28,
                sharing_ratio: 0.0,
                aggregate_fidelity: true,
                quiescent: true,
            },
        ],
        e21: vec![
            E21Row {
                mix: "hot-key-skew".to_string(),
                n: 3,
                views: 3,
                updates: 16,
                point_reads: 130,
                linear_work_tuples: 8_200,
                index_work_tuples: 640,
                speedup: 8_200.0 / 640.0,
                expected_min_speedup: 5.0,
                index_builds: 3,
                index_derives: 90,
                index_hits: 120,
                bags_deep_cloned: 0,
                publish_copied_tuples: 1_400,
                snapshots_published: 48,
                reads_match_recompute: true,
                makespan_us: 96_000,
                baseline_makespan_us: 96_000,
                lag_events: 3,
                lag_resumes: 3,
                lag_stream_equivalent: true,
                scale_copied_27k: 8_300,
                scale_copied_270k: 8_100,
                scale_copied_ratio: 8_100.0 / 8_300.0,
                quiescent: true,
            },
            E21Row {
                mix: "uniform".to_string(),
                n: 3,
                views: 3,
                updates: 16,
                point_reads: 128,
                linear_work_tuples: 8_000,
                index_work_tuples: 1_900,
                speedup: 8_000.0 / 1_900.0,
                expected_min_speedup: 1.0,
                index_builds: 3,
                index_derives: 90,
                index_hits: 118,
                bags_deep_cloned: 0,
                publish_copied_tuples: 1_400,
                snapshots_published: 48,
                reads_match_recompute: true,
                makespan_us: 96_000,
                baseline_makespan_us: 96_000,
                lag_events: 3,
                lag_resumes: 3,
                lag_stream_equivalent: true,
                scale_copied_27k: 8_300,
                scale_copied_270k: 8_100,
                scale_copied_ratio: 8_100.0 / 8_300.0,
                quiescent: true,
            },
        ],
        phase_wall_ms: vec![("E1".to_string(), 12.5)],
    }
}

#[test]
fn json_round_trip_is_identity() {
    let report = healthy();
    let text = report.to_json().render();
    let back = PerfReport::from_text(&text).unwrap();
    assert_eq!(back, report);
}

#[test]
fn schema_version_mismatch_rejected() {
    let mut doc = healthy().to_json();
    if let Json::Obj(fields) = &mut doc {
        fields[0].1 = Json::Num(999.0);
    }
    let err = PerfReport::from_json(&doc).unwrap_err();
    assert!(err.contains("re-baseline"), "{err}");
}

#[test]
fn clean_report_passes_gate() {
    assert_eq!(gate(&healthy(), &healthy()), Vec::<String>::new());
}

#[test]
fn injected_message_linearity_violation_fails_gate() {
    // The acceptance demo: a run whose SWEEP stops being 2(n−1) —
    // say a regression starts sending one extra query per update —
    // must be caught even if the baseline is healthy.
    let mut fresh = healthy();
    fresh.e6[1].dense_msgs_per_update = 16.0; // 2(n−1) = 14 for n = 8
    let violations = gate(&healthy(), &fresh);
    assert!(
        violations.iter().any(|v| v.contains("2(n-1)")),
        "expected a 2(n-1) violation, got {violations:?}"
    );
}

#[test]
fn consistency_downgrade_fails_gate() {
    let mut fresh = healthy();
    fresh.e12[0].consistency = "strong".to_string();
    let violations = gate(&healthy(), &fresh);
    assert!(
        violations
            .iter()
            .any(|v| v.contains("downgraded") || v.contains("!= 'complete'")),
        "expected a downgrade violation, got {violations:?}"
    );

    let mut fresh = healthy();
    fresh.e1[1].consistency = "weak".to_string();
    let violations = gate(&healthy(), &fresh);
    assert!(
        violations
            .iter()
            .any(|v| v.contains("downgraded from 'strong' to 'weak'")),
        "got {violations:?}"
    );
}

#[test]
fn ratio_regression_fails_gate_and_improvement_passes() {
    // >25% more messages per update: fail.
    let mut fresh = healthy();
    fresh.e1[1].msgs_per_update = healthy().e1[1].msgs_per_update * 1.3;
    assert!(!gate(&healthy(), &fresh).is_empty());

    // >25% fewer installs (view goes stale): fail.
    let mut fresh = healthy();
    fresh.e1[0].installs = 8;
    assert!(!gate(&healthy(), &fresh).is_empty());

    // Staleness p95 blow-up under faults: fail.
    let mut fresh = healthy();
    fresh.e12[0].stale_p95_us = 120_000;
    assert!(!gate(&healthy(), &fresh).is_empty());

    // Improvements in the good direction never trip the gate.
    let mut fresh = healthy();
    fresh.e1[1].msgs_per_update = 4.0;
    fresh.e1[0].installs = 24;
    fresh.e12[0].stale_p95_us = 10_000;
    fresh.e12[0].inflation = 1.0;
    assert_eq!(gate(&healthy(), &fresh), Vec::<String>::new());
}

#[test]
fn shared_sweep_losing_view_independence_fails_gate() {
    // The new E14 rule: shared sweep drifting off 2(n−1) — e.g. a
    // regression that stops reusing the per-hop answer across views
    // and starts paying per view — must trip the gate even against a
    // healthy baseline.
    let mut fresh = healthy();
    fresh.e14[0].shared_msgs_per_update = 10.0;
    let violations = gate(&healthy(), &fresh);
    assert!(
        violations
            .iter()
            .any(|v| v.contains("must not scale with view count")),
        "expected a view-count-independence violation, got {violations:?}"
    );

    let mut fresh = healthy();
    fresh.e14[0].mutual_agreement = false;
    let violations = gate(&healthy(), &fresh);
    assert!(
        violations.iter().any(|v| v.contains("disagree")),
        "expected a mutual-agreement violation, got {violations:?}"
    );

    let mut fresh = healthy();
    fresh.e14[0].min_consistency = "convergent".to_string();
    let violations = gate(&healthy(), &fresh);
    assert!(
        violations.iter().any(|v| v.contains("below 'strong'")),
        "expected a consistency-floor violation, got {violations:?}"
    );

    let mut fresh = healthy();
    fresh.e14.clear();
    let violations = gate(&healthy(), &fresh);
    assert!(
        violations
            .iter()
            .any(|v| v.contains("E14") && v.contains("missing")),
        "expected a missing-row violation, got {violations:?}"
    );
}

#[test]
fn broken_batching_amortization_fails_gate() {
    // A regression that stops folding the queue — every queued update
    // still pays its own sweep — breaks the exact sweep-count
    // schedule even against a healthy baseline.
    let mut fresh = healthy();
    fresh.e15[1].sweeps = 25;
    let violations = gate(&healthy(), &fresh);
    assert!(
        violations
            .iter()
            .any(|v| v.contains("did not fold the queue")),
        "expected a fold violation, got {violations:?}"
    );

    // Message cost rising with the batch width is flagged even when
    // each row is internally consistent with its own sweep count.
    let mut fresh = healthy();
    fresh.e15[1].sweeps = 29;
    fresh.e15[1].msgs_per_update = 8.0 * 29.0 / 25.0;
    fresh.e15[1].expected_msgs_per_update = 8.0 * 29.0 / 25.0;
    let violations = gate(&healthy(), &fresh);
    assert!(
        violations.iter().any(|v| v.contains("must never cost")),
        "expected a monotonicity violation, got {violations:?}"
    );

    // Batched installs may skip states (strong) but never weaker.
    let mut fresh = healthy();
    fresh.e15[1].min_consistency = "weak".to_string();
    let violations = gate(&healthy(), &fresh);
    assert!(
        violations.iter().any(|v| v.contains("below 'strong'")),
        "expected a consistency-floor violation, got {violations:?}"
    );

    let mut fresh = healthy();
    fresh.e15.remove(1);
    let violations = gate(&healthy(), &fresh);
    assert!(
        violations
            .iter()
            .any(|v| v.contains("E15") && v.contains("missing")),
        "expected a missing-row violation, got {violations:?}"
    );
}

#[test]
fn pushdown_inflating_the_wire_fails_gate() {
    // A regression that ships *more* tuples under pushdown — say the
    // source stops filtering but the warehouse still pays the
    // predicate bytes — must be caught against a healthy baseline.
    let mut fresh = healthy();
    fresh.e16[1].answer_bytes_pushed = 9_000;
    fresh.e16[1].answer_reduction_pct = 100.0 * -1_000.0 / 8_000.0;
    let violations = gate(&healthy(), &fresh);
    assert!(
        violations
            .iter()
            .any(|v| v.contains("must never ship more tuples")),
        "expected an answer-inflation violation, got {violations:?}"
    );

    // Pushdown silently degrading to a no-op on the selective
    // workload kills the headline reduction.
    let mut fresh = healthy();
    fresh.e16[1].answer_bytes_pushed = 8_000;
    fresh.e16[1].query_bytes_pushed = 5_100;
    fresh.e16[1].answer_reduction_pct = 0.0;
    let violations = gate(&healthy(), &fresh);
    assert!(
        violations
            .iter()
            .any(|v| v.contains("no measurable reduction")),
        "expected a no-reduction violation, got {violations:?}"
    );

    // Pushdown must never change the hop structure.
    let mut fresh = healthy();
    fresh.e16[1].query_msgs_pushed = 72;
    let violations = gate(&healthy(), &fresh);
    assert!(
        violations
            .iter()
            .any(|v| v.contains("changed the query/answer hop count")),
        "expected a hop-structure violation, got {violations:?}"
    );

    // The σ-free control must stay byte-identical in both directions.
    let mut fresh = healthy();
    fresh.e16[0].answer_bytes_pushed = 7_000;
    fresh.e16[0].answer_reduction_pct = 100.0 * 1_000.0 / 8_000.0;
    let violations = gate(&healthy(), &fresh);
    assert!(
        violations
            .iter()
            .any(|v| v.contains("σ-free control diverged")),
        "expected a control-divergence violation, got {violations:?}"
    );

    // Filtered sweeps must not weaken the consistency floor.
    let mut fresh = healthy();
    fresh.e16[1].min_consistency = "convergent".to_string();
    let violations = gate(&healthy(), &fresh);
    assert!(
        violations.iter().any(|v| v.contains("below 'strong'")),
        "expected a consistency-floor violation, got {violations:?}"
    );

    let mut fresh = healthy();
    fresh.e16.remove(1);
    let violations = gate(&healthy(), &fresh);
    assert!(
        violations
            .iter()
            .any(|v| v.contains("E16") && v.contains("missing")),
        "expected a missing-row violation, got {violations:?}"
    );
}

#[test]
fn failed_recovery_fails_gate() {
    // The acceptance demo for E17: a crashed run that no longer lands
    // on the fault-free bags — a replay bug, a lost WAL suffix — must
    // be caught even against a healthy baseline.
    let mut fresh = healthy();
    fresh.e17[0].converged = false;
    let violations = gate(&healthy(), &fresh);
    assert!(
        violations.iter().any(|v| v.contains("did not converge")),
        "expected a convergence violation, got {violations:?}"
    );

    // A crash window that stops firing silently tests nothing.
    let mut fresh = healthy();
    fresh.e17[1].recoveries = 0;
    let violations = gate(&healthy(), &fresh);
    assert!(
        violations.iter().any(|v| v.contains("no recovery fired")),
        "expected a no-recovery violation, got {violations:?}"
    );

    let mut fresh = healthy();
    fresh.e17.remove(1);
    let violations = gate(&healthy(), &fresh);
    assert!(
        violations
            .iter()
            .any(|v| v.contains("E17") && v.contains("missing")),
        "expected a missing-row violation, got {violations:?}"
    );
}

#[test]
fn unbounded_staleness_spike_fails_gate() {
    // Recovery taking pathologically long — the view staying stale
    // past the recorded crash-window + retransmission budget — trips
    // the gate.
    let mut fresh = healthy();
    fresh.e17[0].stale_max_us = fresh.e17[0].stale_bound_us + 1;
    let violations = gate(&healthy(), &fresh);
    assert!(
        violations
            .iter()
            .any(|v| v.contains("staleness spike") && v.contains("exceeds")),
        "expected a staleness-bound violation, got {violations:?}"
    );
}

#[test]
fn nonmonotone_wal_replay_fails_gate() {
    // Rarer checkpoints must replay at least as much WAL: if the
    // ckpt=16 row replays *less* than ckpt=1, the WAL is being
    // truncated somewhere other than checkpointing.
    let mut fresh = healthy();
    fresh.e17[1].wal_bytes_replayed = fresh.e17[0].wal_bytes_replayed - 1;
    let violations = gate(&healthy(), &fresh);
    assert!(
        violations
            .iter()
            .any(|v| v.contains("must never shorten the replay")),
        "expected a replay-monotonicity violation, got {violations:?}"
    );

    // Replaying more bytes than were ever appended is bookkeeping
    // corruption, not a bigger replay.
    let mut fresh = healthy();
    fresh.e17[1].wal_bytes_replayed = fresh.e17[1].wal_bytes_written + 1;
    let violations = gate(&healthy(), &fresh);
    assert!(
        violations.iter().any(|v| v.contains("were ever written")),
        "expected a replay-accounting violation, got {violations:?}"
    );

    // A checkpoint that deep-copies view contents instead of sharing
    // the live views' structure.
    let mut fresh = healthy();
    fresh.e17[0].checkpoint_copied_tuples = 120;
    let violations = gate(&healthy(), &fresh);
    assert!(
        violations
            .iter()
            .any(|v| v.contains("must share the live views' structure")),
        "expected a checkpoint-copy violation, got {violations:?}"
    );
}

#[test]
fn lost_sharded_scaling_fails_gate() {
    // The acceptance demo for E18: a scheduler change that quietly
    // serializes the lanes — speedup collapsing below 0.7·S — must be
    // caught even against a healthy baseline. Keep the row internally
    // consistent (speedup = m1/mS) so only the floor check fires.
    let mut fresh = healthy();
    fresh.e18[2].makespan_us = 64_000;
    fresh.e18[2].speedup = 1.5;
    let violations = gate(&healthy(), &fresh);
    assert!(
        violations
            .iter()
            .any(|v| v.contains("below the") && v.contains("near-linear floor")),
        "expected a speedup-floor violation, got {violations:?}"
    );

    // A speedup column that stops agreeing with the recorded
    // makespans is bookkeeping corruption, not a faster engine.
    let mut fresh = healthy();
    fresh.e18[2].speedup = 5.0;
    let violations = gate(&healthy(), &fresh);
    assert!(
        violations
            .iter()
            .any(|v| v.contains("makespan(1)/makespan(S)")),
        "expected a speedup-accounting violation, got {violations:?}"
    );

    // Shard-local sweeps paying extra messages breaks the 2(n−1)
    // line.
    let mut fresh = healthy();
    fresh.e18[1].msgs_per_update = 5.0;
    let violations = gate(&healthy(), &fresh);
    assert!(
        violations.iter().any(|v| v.contains("never extra traffic")),
        "expected a message-cost violation, got {violations:?}"
    );

    // Escalations on a shard-local workload mean the partitioner is
    // misreading pure updates as multi-band.
    let mut fresh = healthy();
    fresh.e18[1].escalations = 3;
    let violations = gate(&healthy(), &fresh);
    assert!(
        violations.iter().any(|v| v.contains("misclassified")),
        "expected an escalation violation, got {violations:?}"
    );

    // Install order diverging from the unsharded engine kills the
    // whole construction — concurrency must be invisible downstream.
    let mut fresh = healthy();
    fresh.e18[1].conforms = false;
    let violations = gate(&healthy(), &fresh);
    assert!(
        violations
            .iter()
            .any(|v| v.contains("diverged from the unsharded engine")),
        "expected a conformance violation, got {violations:?}"
    );

    let mut fresh = healthy();
    fresh.e18.remove(2);
    let violations = gate(&healthy(), &fresh);
    assert!(
        violations
            .iter()
            .any(|v| v.contains("E18") && v.contains("missing")),
        "expected a missing-row violation, got {violations:?}"
    );
}

#[test]
fn reader_interference_fails_gate() {
    // The acceptance demo for E19: an install path that starts
    // waiting on readers — the makespan moving at all under a read
    // load — must be caught even against a healthy baseline.
    let mut fresh = healthy();
    fresh.e19[0].makespan_us = 97_000;
    let violations = gate(&healthy(), &fresh);
    assert!(
        violations
            .iter()
            .any(|v| v.contains("readers must never block installs")),
        "expected an interference violation, got {violations:?}"
    );

    // Reads leaking onto the wire breaks the warehouse-local claim.
    let mut fresh = healthy();
    fresh.e19[1].msgs_per_update = 4.5;
    let violations = gate(&healthy(), &fresh);
    assert!(
        violations
            .iter()
            .any(|v| v.contains("readers added network traffic")),
        "expected a traffic violation, got {violations:?}"
    );
}

#[test]
fn serving_divergence_fails_gate() {
    // A snapshot read that stops matching a fresh recompute at its
    // pinned epoch is a torn or misapplied install.
    let mut fresh = healthy();
    fresh.e19[0].reads_match_recompute = false;
    let violations = gate(&healthy(), &fresh);
    assert!(
        violations
            .iter()
            .any(|v| v.contains("diverged from fresh recompute")),
        "expected a recompute violation, got {violations:?}"
    );

    // Staleness verdicts drifting off the delivery-ledger oracle —
    // either spurious rejections or stale answers slipping through.
    let mut fresh = healthy();
    fresh.e19[1].rejected += 1;
    fresh.e19[1].answered -= 1;
    let violations = gate(&healthy(), &fresh);
    assert!(
        violations
            .iter()
            .any(|v| v.contains("diverged from the delivery-ledger oracle")),
        "expected a staleness-oracle violation, got {violations:?}"
    );

    // A subscription stream skipping or reordering installs breaks
    // the ticket-order push contract.
    let mut fresh = healthy();
    fresh.e19[0].subs_match_installs = false;
    let violations = gate(&healthy(), &fresh);
    assert!(
        violations
            .iter()
            .any(|v| v.contains("did not replay the install log")),
        "expected a subscription violation, got {violations:?}"
    );

    // The coverage floor: both read-mix levels must be present.
    let mut fresh = healthy();
    fresh.e19.remove(1);
    let violations = gate(&healthy(), &fresh);
    assert!(
        violations
            .iter()
            .any(|v| v.contains("E19") && v.contains("missing")),
        "expected a missing-row violation, got {violations:?}"
    );
    assert!(
        violations
            .iter()
            .any(|v| v.contains("2 distinct read-mix levels")),
        "expected a mix-coverage violation, got {violations:?}"
    );
}

#[test]
fn derived_source_bill_fails_gate() {
    // The acceptance demo for E20: a cascade regression that starts
    // paying source round-trips for child maintenance — even one
    // extra message over the stack-free referee — must be caught.
    let mut fresh = healthy();
    fresh.e20[0].derived_source_msgs = 2;
    let violations = gate(&healthy(), &fresh);
    assert!(
        violations
            .iter()
            .any(|v| v.contains("derived maintenance touched the sources")),
        "expected a source-bill violation, got {violations:?}"
    );

    // The base bill drifting off 2(n−1) is the same failure seen
    // from the other side.
    let mut fresh = healthy();
    fresh.e20[1].msgs_per_update = 6.0;
    fresh.e20[1].baseline_msgs_per_update = 6.0;
    let violations = gate(&healthy(), &fresh);
    assert!(
        violations
            .iter()
            .any(|v| v.contains("left the 2(n-1) line")),
        "expected a base-bill violation, got {violations:?}"
    );
}

#[test]
fn dag_divergence_fails_gate() {
    // A derived view (aggregate state or linear delta) drifting off
    // the fresh-recompute oracle at any epoch.
    let mut fresh = healthy();
    fresh.e20[0].aggregate_fidelity = false;
    let violations = gate(&healthy(), &fresh);
    assert!(
        violations
            .iter()
            .any(|v| v.contains("diverged from fresh recompute over its parent")),
        "expected a fidelity violation, got {violations:?}"
    );

    // The sibling memo silently degrading to per-child evaluation:
    // message-neutral, fidelity-neutral, but the exact 1-eval-2-hits
    // schedule for 3 identical siblings breaks.
    let mut fresh = healthy();
    fresh.e20[0].shared_derivations = 0;
    fresh.e20[0].linear_evals = 42;
    fresh.e20[0].sharing_ratio = 0.0;
    let violations = gate(&healthy(), &fresh);
    assert!(
        violations.iter().any(|v| v.contains("sibling memo broke")),
        "expected a memo violation, got {violations:?}"
    );

    // A dead cascade: the stack registered but never fed.
    let mut fresh = healthy();
    fresh.e20[1].child_installs = 0;
    let violations = gate(&healthy(), &fresh);
    assert!(
        violations.iter().any(|v| v.contains("never fed a child")),
        "expected a dead-cascade violation, got {violations:?}"
    );

    // The coverage floor: both stack shapes must be present.
    let mut fresh = healthy();
    fresh.e20.remove(1);
    let violations = gate(&healthy(), &fresh);
    assert!(
        violations
            .iter()
            .any(|v| v.contains("E20") && v.contains("missing")),
        "expected a missing-row violation, got {violations:?}"
    );
    assert!(
        violations
            .iter()
            .any(|v| v.contains("2 distinct stack shapes")),
        "expected a shape-coverage violation, got {violations:?}"
    );
}

#[test]
fn serve_scale_regressions_fail_gate() {
    // The acceptance demo for E21: the indexed read path slipping below
    // its 5x deterministic-work floor against scanning the pinned epoch
    // on the skewed mix.
    let mut fresh = healthy();
    fresh.e21[0].index_work_tuples = 4_000;
    fresh.e21[0].speedup = 8_200.0 / 4_000.0;
    let violations = gate(&healthy(), &fresh);
    assert!(
        violations.iter().any(|v| v.contains("below the 5x floor")),
        "expected a speedup violation, got {violations:?}"
    );

    // The index becoming visible to correctness — one answer that
    // disagrees with the oracle's recompute at its pinned epoch.
    let mut fresh = healthy();
    fresh.e21[1].reads_match_recompute = false;
    let violations = gate(&healthy(), &fresh);
    assert!(
        violations
            .iter()
            .any(|v| v.contains("diverged from the recompute oracle")),
        "expected an answer-divergence violation, got {violations:?}"
    );

    // The zero-copy promise breaking: any serve-side bag deep copy, at
    // publish or on a read.
    let mut fresh = healthy();
    fresh.e21[0].bags_deep_cloned += 5;
    let violations = gate(&healthy(), &fresh);
    assert!(
        violations.iter().any(|v| v.contains("never copy a bag")),
        "expected a zero-copy violation, got {violations:?}"
    );

    // Publish cost growing with the view: the same deltas copying ten
    // times the tuples over the ten times larger view.
    let mut fresh = healthy();
    fresh.e21[1].scale_copied_270k = 83_000;
    fresh.e21[1].scale_copied_ratio = 10.0;
    let violations = gate(&healthy(), &fresh);
    assert!(
        violations.iter().any(|v| v.contains("not O(|V|)")),
        "expected a publish-scaling violation, got {violations:?}"
    );

    // …or the main arm's publishes copying far more than the baseline's.
    let mut fresh = healthy();
    fresh.e21[0].publish_copied_tuples *= 2;
    let violations = gate(&healthy(), &fresh);
    assert!(
        violations
            .iter()
            .any(|v| v.contains("E21 hot-key-skew publish copied tuples")),
        "expected a copied-tuples regression, got {violations:?}"
    );

    // A lagged subscriber resuming into a wrong snapshot or missing
    // deltas — recovery no longer stream-equivalent.
    let mut fresh = healthy();
    fresh.e21[0].lag_stream_equivalent = false;
    let violations = gate(&healthy(), &fresh);
    assert!(
        violations
            .iter()
            .any(|v| v.contains("Stale View Cleaning recovery is broken")),
        "expected a lag-equivalence violation, got {violations:?}"
    );

    // Backpressure silently never firing means the arm proved nothing.
    let mut fresh = healthy();
    fresh.e21[1].lag_events = 0;
    fresh.e21[1].lag_resumes = 0;
    let violations = gate(&healthy(), &fresh);
    assert!(
        violations
            .iter()
            .any(|v| v.contains("backpressure never fired")),
        "expected a dead-arm violation, got {violations:?}"
    );

    // The coverage floor: both key distributions must be present.
    let mut fresh = healthy();
    fresh.e21.remove(1);
    let violations = gate(&healthy(), &fresh);
    assert!(
        violations
            .iter()
            .any(|v| v.contains("E21") && v.contains("missing")),
        "expected a missing-row violation, got {violations:?}"
    );
    assert!(
        violations
            .iter()
            .any(|v| v.contains("2 distinct key distributions")),
        "expected a distribution-coverage violation, got {violations:?}"
    );
}

#[test]
fn gate_reports_every_violation_in_one_pass() {
    // One run, many regressions: the gate must list them all with
    // expected-vs-actual values, not stop at the first.
    let mut fresh = healthy();
    fresh.e6[1].dense_msgs_per_update = 16.0;
    fresh.e17[0].converged = false;
    fresh.e18[1].escalations = 3;
    fresh.e19[0].makespan_us = 97_000;
    fresh.e20[0].derived_source_msgs = 1;
    fresh.e21[0].bags_deep_cloned = 60;
    fresh.e17[1].checkpoint_copied_tuples = 54;
    fresh.e1[1].msgs_per_update = healthy().e1[1].msgs_per_update * 1.3;
    let violations = gate(&healthy(), &fresh);
    for needle in [
        "E6 n=8 (dense): msgs/update 16 != 2(n-1) = 14",
        "E17 ckpt=1",
        "E18 S=2: 3 escalations",
        "E19 point-heavy: readers must never block installs — makespan 97000us under readers != 96000us no-reader baseline",
        "E20 sibling-fanout: derived maintenance touched the sources",
        "E17 ckpt=16: 2 checkpoints copied 54 view tuples",
        "E21 hot-key-skew: 60 serve-side bag deep copies over 48 installs",
        "E1 Strobe msgs/update",
    ] {
        assert!(
            violations.iter().any(|v| v.contains(needle)),
            "expected a violation containing {needle:?} in the single pass, got {violations:?}"
        );
    }
    assert!(
        violations.len() >= 7,
        "expected all seven independent violations at once, got {violations:?}"
    );
}

#[test]
fn wall_clock_is_not_gated() {
    let mut fresh = healthy();
    fresh.phase_wall_ms = vec![("E1".to_string(), 1e9)];
    assert_eq!(gate(&healthy(), &fresh), Vec::<String>::new());
}

#[test]
fn mode_mismatch_fails_gate() {
    let mut fresh = healthy();
    fresh.mode = "full".to_string();
    let violations = gate(&healthy(), &fresh);
    assert!(violations.iter().any(|v| v.contains("mode mismatch")));
}

#[test]
fn missing_row_fails_gate() {
    let mut fresh = healthy();
    fresh.e6.pop();
    let violations = gate(&healthy(), &fresh);
    assert!(violations.iter().any(|v| v.contains("missing")));
}

#[test]
fn committed_baseline_round_trips_byte_for_byte() {
    // Pins field order and number formatting of every phase without
    // running an experiment: parse the committed file, render it again.
    let text = include_str!("../../../../BENCH_report.json");
    let report = PerfReport::from_text(text).unwrap();
    assert_eq!(report.to_json().render(), text);
}

/// `healthy()` with one row of `phase` removed (`edit = None`) or one of
/// its fields overwritten, pushed through the JSON codec.
fn edited(phase: &PhaseInfo, row: usize, edit: Option<(&str, Json)>) -> PerfReport {
    let mut doc = healthy().to_json();
    let Json::Obj(blocks) = &mut doc else {
        unreachable!()
    };
    let block = blocks.iter_mut().find(|(k, _)| k == phase.json_key);
    let Some((_, Json::Arr(rows))) = block else {
        unreachable!()
    };
    match (edit, &mut rows[row]) {
        (None, _) => drop(rows.remove(row)),
        (Some((name, value)), Json::Obj(cells)) => {
            cells.iter_mut().find(|(k, _)| k == name).unwrap().1 = value
        }
        _ => unreachable!(),
    }
    PerfReport::from_json(&doc).unwrap()
}

#[test]
fn every_declared_field_is_gated_as_its_kind_says() {
    // Walks the schema, not a list of phases: a phase added to PHASES
    // (with a row in `healthy()`) is gate-tested by being declared.
    let base = healthy();
    for phase in PHASES {
        let rows = phase.cells(&base);
        assert!(!rows.is_empty(), "{}: no healthy row", phase.label);
        for (i, cells) in rows.iter().enumerate() {
            let what = format!("{} {}", phase.label, row_name(phase.fields, cells));
            let violations = gate(&base, &edited(phase, i, None));
            assert!(
                violations
                    .iter()
                    .any(|v| v.starts_with(&format!("{}: ", phase.label)) && v.contains("missing")),
                "{what} removed: expected a missing-row violation, got {violations:?}"
            );
            for (field, cell) in phase.fields.iter().zip(cells) {
                match field.kind {
                    Kind::Level => {
                        let lower = match cell.as_str().unwrap() {
                            "complete" => "strong",
                            "strong" => "weak",
                            other => panic!("{what}: healthy level '{other}' has no lower rank"),
                        };
                        let tampered =
                            edited(phase, i, Some((field.name, Json::Str(lower.to_string()))));
                        let violations = gate(&base, &tampered);
                        assert!(
                            violations
                                .iter()
                                .any(|v| v.starts_with(&what) && v.contains("downgraded")),
                            "{what} {} lowered: got {violations:?}",
                            field.name
                        );
                    }
                    Kind::Ratio(worse, quantity) => {
                        let x = cell.as_num().unwrap();
                        if x == 0.0 {
                            continue; // 30 % of nothing: see the zero-baseline test
                        }
                        let up = if x.fract() == 0.0 {
                            (x * 1.3).ceil()
                        } else {
                            x * 1.3
                        };
                        let down = if x.fract() == 0.0 {
                            (x * 0.7).floor()
                        } else {
                            x * 0.7
                        };
                        let (worsened, improved) = match worse {
                            Worse::Higher => (up, down),
                            Worse::Lower => (down, up),
                        };
                        let tag = format!("{what} {quantity}:");
                        for (value, flagged) in [(worsened, true), (improved, false)] {
                            let tampered = edited(phase, i, Some((field.name, Json::Num(value))));
                            let violations = gate(&base, &tampered);
                            assert_eq!(
                                violations.iter().any(|v| v.starts_with(&tag)),
                                flagged,
                                "{tag} {x} -> {value}: got {violations:?}"
                            );
                        }
                    }
                    Kind::Key | Kind::Info => {}
                }
            }
        }
    }
}

#[test]
fn lower_is_worse_ratios_are_measured_against_the_baseline() {
    // Siblings that stop sharing derivations altogether: 0.67 → 0 is a
    // total collapse, not "a ratio against zero".
    let mut fresh = healthy();
    fresh.e20[0].sharing_ratio = 0.0;
    let violations = gate(&healthy(), &fresh);
    assert!(
        violations
            .iter()
            .any(|v| v.starts_with("E20 sibling-fanout sharing ratio: 0 vs baseline")),
        "expected a collapsed-ratio violation, got {violations:?}"
    );

    // The tolerance is 25 % of the baseline in both directions: a 22 %
    // speedup drop passes, a 26 % drop fails.
    let mut fresh = healthy();
    fresh.e21[1].speedup *= 0.78;
    assert_eq!(gate(&healthy(), &fresh), Vec::<String>::new());
    fresh.e21[1].speedup = healthy().e21[1].speedup * 0.74;
    let violations = gate(&healthy(), &fresh);
    assert!(
        violations
            .iter()
            .any(|v| v.starts_with("E21 uniform point-read speedup:") && v.contains("down")),
        "expected a speedup-regression violation, got {violations:?}"
    );
}

#[test]
fn zero_baselines_flag_only_a_move_of_more_than_a_unit() {
    let mut v = Vec::new();
    check_ratio(&mut v, "up", 0.0, 1.0, Worse::Higher);
    check_ratio(&mut v, "down", 0.0, -1.0, Worse::Lower);
    check_ratio(&mut v, "better", 0.0, 5.0, Worse::Lower);
    assert_eq!(v, Vec::<String>::new());
    check_ratio(&mut v, "up", 0.0, 2.0, Worse::Higher);
    check_ratio(&mut v, "down", 0.0, -2.0, Worse::Lower);
    assert_eq!(v.len(), 2, "{v:?}");
}

#[test]
fn key_fields_identify_exactly_one_row() {
    // Baseline matching is ambiguous otherwise. The committed file holds
    // the smoke rows of every phase.
    let committed = PerfReport::from_text(include_str!("../../../../BENCH_report.json")).unwrap();
    for report in [healthy(), committed] {
        for phase in PHASES {
            let rows = phase.cells(&report);
            assert!(phase.fields.iter().any(|f| f.kind == Kind::Key));
            for row in &rows {
                let twins = rows.iter().filter(|r| same_row(phase.fields, row, r));
                assert_eq!(twins.count(), 1, "{} {row:?}", phase.label);
            }
        }
    }
}
