//! The perf-report / perf-gate pipeline.
//!
//! [`PHASES`] lists the gated experiments — E1, E6, E12 and E14–E21; each
//! entry's `law` names what it holds the system to, and EXPERIMENTS.md
//! has the matching `## E<N>` section. A phase is defined once, in
//! [`phases`]: its row type (declared with the [`schema`] `row!` macro,
//! every field carrying a [`Kind`]), its experiment ([`Phase::run`], also
//! what the phase's `src/bin` binary prints from) and its exact laws
//! ([`Phase::invariants`]). Everything else here is
//! derived from those declarations, once, by walking [`PHASES`]:
//!
//! * [`collect`] runs every phase and times it; the result serializes to
//!   `BENCH_report.json` (see [`crate::json`]), which is committed as the
//!   baseline the CI gate diffs against. Field order in the file is
//!   declaration order.
//! * [`gate`] is the pure checker the `perf_gate` binary (and its tests)
//!   run over a `(baseline, fresh)` pair. It fails on **invariant
//!   breaks** in the fresh run (every phase's [`Phase::invariants`]), on
//!   a baseline row **missing** from the fresh run (rows are matched on
//!   their [`Kind::Key`] fields), on **consistency downgrades** (a
//!   [`Kind::Level`] field ranking below the baseline's) and on **>25 %
//!   regressions** of a [`Kind::Ratio`] field in its bad direction.
//! * [`InvariantDigest`] is what a `--smoke` run and a full run must
//!   agree on.
//!
//! Wall-clock numbers are recorded but deliberately **not** gated: the
//! simulator is deterministic in virtual time, while host time depends on
//! the machine. Everything the gate enforces is exact.

pub mod phases;
pub mod schema;
#[cfg(test)]
mod tests;

pub use phases::*;
pub use schema::{Field, Kind, Phase, Row, Worse};

use crate::json::{self, Json};
use std::collections::BTreeSet;
use std::time::Instant;

/// Schema version stamped into the report; bump when row fields change.
/// v2 added the E14 multi-view block; v3 the E15 cross-update batching
/// block; v4 the E16 σ-pushdown block; v5 the E17 crash-recovery block;
/// v6 the E18 sharded-scaling block; v7 the E19 serving block; v8 the
/// E20 maintenance-DAG block; v9 the E21 serve-at-scale block (point
/// indexes, answer cache, subscriber backpressure); v10 the copied-tuple
/// counts of structurally shared views (E17 checkpoints, E21 publishes
/// and its 27k/270k scale arm); v11 E21 held to the recompute oracle and
/// the analytic scan yardstick (the answer-cache fields go).
pub const SCHEMA_VERSION: u64 = 11;

/// Relative regression tolerance on tracked ratios (25 %).
pub const RATIO_TOLERANCE: f64 = 0.25;

/// Tolerance for "exact" float comparisons after a JSON round trip.
const EXACT_EPS: f64 = 1e-9;

/// The full report: one entry per phase plus host wall-clock timings.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PerfReport {
    /// "smoke" or "full".
    pub mode: String,
    /// E1 — Table 1 rows.
    pub e1: Vec<E1Row>,
    /// E6 — message-linearity rows.
    pub e6: Vec<E6Row>,
    /// E12 — fault-sweep rows.
    pub e12: Vec<E12Row>,
    /// E14 — multi-view shared-sweep rows.
    pub e14: Vec<E14Row>,
    /// E15 — cross-update batching rows.
    pub e15: Vec<E15Row>,
    /// E16 — σ-pushdown rows.
    pub e16: Vec<E16Row>,
    /// E17 — crash-recovery rows.
    pub e17: Vec<E17Row>,
    /// E18 — sharded-scaling rows.
    pub e18: Vec<E18Row>,
    /// E19 — serving-layer rows.
    pub e19: Vec<E19Row>,
    /// E20 — maintenance-DAG rows.
    pub e20: Vec<E20Row>,
    /// E21 — serve-at-scale rows.
    pub e21: Vec<E21Row>,
    /// Host wall-clock per phase, milliseconds. Informational only.
    pub phase_wall_ms: Vec<(String, f64)>,
}

/// One gated phase as the generic code sees it: its declaration plus the
/// four things that need its row type, erased to function pointers.
pub struct PhaseInfo {
    /// Experiment label, as in EXPERIMENTS.md (`"E6"`).
    pub label: &'static str,
    /// Key of the phase's row array in `BENCH_report.json`.
    pub json_key: &'static str,
    /// One line naming the law the phase's invariants enforce.
    pub law: &'static str,
    /// The row's declared fields, in JSON order.
    pub fields: &'static [Field],
    collect: fn(&mut PerfReport, bool),
    cells: fn(&PerfReport) -> Vec<Vec<Json>>,
    parse: fn(&mut PerfReport, &[Json]) -> Result<(), String>,
    invariants: fn(&PerfReport) -> Vec<String>,
}

impl PhaseInfo {
    /// The phase's rows in `report`, each as its values parallel to
    /// [`PhaseInfo::fields`].
    pub fn cells(&self, report: &PerfReport) -> Vec<Vec<Json>> {
        (self.cells)(report)
    }
}

const fn phase<P: Phase>() -> PhaseInfo {
    PhaseInfo {
        label: P::LABEL,
        json_key: P::JSON_KEY,
        law: P::LAW,
        fields: P::FIELDS,
        collect: |report, smoke| *P::slot_mut(report) = measure::<P>(smoke).0,
        cells: |report| P::slot(report).iter().map(P::cells).collect(),
        parse: |report, rows| {
            *P::slot_mut(report) = rows.iter().map(P::from_json).collect::<Result<_, _>>()?;
            Ok(())
        },
        invariants: |report| P::invariants(P::slot(report)),
    }
}

/// Every gated phase, in report order. Declaring a phase here is what
/// puts it in the report, the gate, the digest and the binaries' output.
pub const PHASES: &[PhaseInfo] = &[
    phase::<E1Row>(),
    phase::<E6Row>(),
    phase::<E12Row>(),
    phase::<E14Row>(),
    phase::<E15Row>(),
    phase::<E16Row>(),
    phase::<E17Row>(),
    phase::<E18Row>(),
    phase::<E19Row>(),
    phase::<E20Row>(),
    phase::<E21Row>(),
];

/// Run one phase's experiment: its rows, and per row the detail its
/// binary prints besides.
pub fn measure<P: Phase>(smoke: bool) -> (Vec<P>, Vec<P::Detail>) {
    P::run(smoke).into_iter().unzip()
}

/// [`measure`], refusing rows that break the phase's exact laws — the
/// phase binaries' replacement for inline assertions.
pub fn measure_checked<P: Phase>(smoke: bool) -> (Vec<P>, Vec<P::Detail>) {
    let (rows, details) = measure::<P>(smoke);
    let violations = P::invariants(&rows);
    assert!(
        violations.is_empty(),
        "{} broke its laws:\n  {}",
        P::LABEL,
        violations.join("\n  ")
    );
    (rows, details)
}

/// Run every phase in [`PHASES`] and build the report.
///
/// Smoke mode shrinks the workload (fewer sweep points, shorter streams)
/// but keeps the scenario *shapes* — every invariant the gate enforces
/// holds in both modes (asserted by the smoke-vs-full agreement test).
pub fn collect(smoke: bool) -> PerfReport {
    let mut report = PerfReport {
        mode: if smoke { "smoke" } else { "full" }.to_string(),
        ..Default::default()
    };
    for phase in PHASES {
        let t0 = Instant::now();
        (phase.collect)(&mut report, smoke);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        report.phase_wall_ms.push((phase.label.to_string(), ms));
    }
    report
}

// ---------------------------------------------------------------- JSON

impl PerfReport {
    /// Serialize to the `BENCH_report.json` document.
    pub fn to_json(&self) -> Json {
        let mut doc = vec![
            ("schema_version", Json::Num(SCHEMA_VERSION as f64)),
            ("mode", Json::Str(self.mode.clone())),
        ];
        for phase in PHASES {
            let rows = phase
                .cells(self)
                .into_iter()
                .map(|cells| Json::obj(phase.fields.iter().map(|f| f.name).zip(cells).collect()));
            doc.push((phase.json_key, Json::Arr(rows.collect())));
        }
        let wall = self.phase_wall_ms.iter();
        doc.push((
            "phase_wall_ms",
            Json::Obj(wall.map(|(k, v)| (k.clone(), Json::Num(*v))).collect()),
        ));
        Json::obj(doc)
    }

    /// Parse a report back from JSON, validating the schema version.
    pub fn from_json(doc: &Json) -> Result<PerfReport, String> {
        let version = doc
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or("missing schema_version")?;
        if version != SCHEMA_VERSION {
            return Err(format!(
                "schema_version {version} != supported {SCHEMA_VERSION}; re-baseline"
            ));
        }
        let mut report = PerfReport {
            mode: schema::cell(doc, "mode")?,
            ..Default::default()
        };
        for phase in PHASES {
            let rows = doc
                .get(phase.json_key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("missing {}", phase.json_key))?;
            (phase.parse)(&mut report, rows).map_err(|e| format!("{}: {e}", phase.json_key))?;
        }
        let Some(Json::Obj(wall)) = doc.get("phase_wall_ms") else {
            return Err("missing phase_wall_ms".to_string());
        };
        for (phase, ms) in wall {
            let ms = ms
                .as_num()
                .ok_or_else(|| format!("bad phase_wall_ms entry {phase}"))?;
            report.phase_wall_ms.push((phase.clone(), ms));
        }
        Ok(report)
    }

    /// Parse from raw file contents.
    pub fn from_text(text: &str) -> Result<PerfReport, String> {
        PerfReport::from_json(&json::parse(text)?)
    }
}

// ---------------------------------------------------------------- gate

fn level_rank(level: &str) -> i32 {
    match level {
        "complete" => 4,
        "strong" => 3,
        "weak" => 2,
        "convergent" => 1,
        _ => 0,
    }
}

fn check_downgrade(violations: &mut Vec<String>, what: &str, baseline: &str, fresh: &str) {
    if level_rank(fresh) < level_rank(baseline) {
        violations.push(format!(
            "{what}: consistency downgraded from '{baseline}' to '{fresh}'"
        ));
    }
}

/// Flag `fresh` if it moved in the `worse` direction by more than
/// [`RATIO_TOLERANCE`] of the baseline (so a collapse to zero from any
/// positive baseline always flags). Against a zero baseline a ratio is
/// meaningless: flag only a move of more than a unit.
fn check_ratio(violations: &mut Vec<String>, what: &str, baseline: f64, fresh: f64, worse: Worse) {
    let regression = match worse {
        Worse::Higher => fresh - baseline,
        Worse::Lower => baseline - fresh,
    };
    let bad = if baseline.abs() < EXACT_EPS {
        regression > 1.0
    } else {
        regression / baseline.abs() > RATIO_TOLERANCE
    };
    if bad {
        violations.push(format!(
            "{what}: {fresh} vs baseline {baseline} ({} by more than {:.0}%)",
            if worse == Worse::Higher { "up" } else { "down" },
            RATIO_TOLERANCE * 100.0
        ));
    }
}

/// A row's identity as the violation messages print it: its key fields,
/// strings bare (`Strobe`) and numbers named (`n=8`).
fn row_name(fields: &[Field], cells: &[Json]) -> String {
    let keys = fields
        .iter()
        .zip(cells)
        .filter(|(f, _)| f.kind == Kind::Key);
    let names = keys.map(|(f, cell)| match cell {
        Json::Str(s) => s.clone(),
        other => format!("{}={}", f.name, other.render().trim_end()),
    });
    names.collect::<Vec<_>>().join(" ")
}

/// Whether two rows of one phase agree on every key field.
fn same_row(fields: &[Field], a: &[Json], b: &[Json]) -> bool {
    let cells = fields.iter().zip(a.iter().zip(b));
    cells
        .filter(|(f, _)| f.kind == Kind::Key)
        .all(|(_, pair)| match pair {
            (Json::Num(x), Json::Num(y)) => (x - y).abs() < EXACT_EPS,
            (x, y) => x == y,
        })
}

/// Check every phase's exact laws on a single report (no baseline
/// needed) — each phase's [`Phase::invariants`], in [`PHASES`] order.
pub fn invariant_violations(report: &PerfReport) -> Vec<String> {
    let laws = PHASES.iter().map(|phase| (phase.invariants)(report));
    laws.flatten().collect()
}

/// Diff a fresh report against the committed baseline. Returns the list
/// of violations; empty means the gate passes. Wall-clock is never
/// compared here — see the module docs.
pub fn gate(baseline: &PerfReport, fresh: &PerfReport) -> Vec<String> {
    if baseline.mode != fresh.mode {
        return vec![format!(
            "mode mismatch: baseline '{}' vs fresh '{}' — rerun with the matching mode",
            baseline.mode, fresh.mode
        )];
    }
    let mut v = invariant_violations(fresh);
    for phase in PHASES {
        let fresh_rows = phase.cells(fresh);
        for base in phase.cells(baseline) {
            let name = row_name(phase.fields, &base);
            let Some(row) = fresh_rows
                .iter()
                .find(|row| same_row(phase.fields, &base, row))
            else {
                v.push(format!("{}: {name} missing from fresh report", phase.label));
                continue;
            };
            let what = format!("{} {name}", phase.label);
            for (field, (base, fresh)) in phase.fields.iter().zip(base.iter().zip(row)) {
                match field.kind {
                    Kind::Level => match (base, fresh) {
                        (Json::Str(b), Json::Str(f)) => check_downgrade(&mut v, &what, b, f),
                        _ => unreachable!("level fields are strings"),
                    },
                    Kind::Ratio(worse, quantity) => match (base, fresh) {
                        (Json::Num(b), Json::Num(f)) => {
                            check_ratio(&mut v, &format!("{what} {quantity}"), *b, *f, worse)
                        }
                        _ => unreachable!("ratio fields are numbers"),
                    },
                    Kind::Key | Kind::Info => {}
                }
            }
        }
    }
    v
}

// ----------------------------------------------------- invariant digest

/// The mode-independent facts of a report: what must agree between a
/// `--smoke` run and a full run even though the workloads differ in size.
/// (That every exact law holds in both is asserted separately, by
/// [`invariant_violations`] returning nothing.)
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InvariantDigest {
    /// Verified consistency level per E1 policy (both modes run the same
    /// six algorithms).
    pub e1_levels: Vec<(String, String)>,
    /// Per phase label, the distinct values of its [`Kind::Level`] fields
    /// across all rows (sweep points differ between the modes, the levels
    /// they verify must not).
    pub levels: Vec<(&'static str, BTreeSet<String>)>,
}

impl InvariantDigest {
    /// Extract the digest from a report.
    pub fn of(report: &PerfReport) -> InvariantDigest {
        let e1 = report.e1.iter();
        let levels = PHASES.iter().map(|phase| {
            let rows = phase.cells(report);
            let cells = rows.iter().flat_map(|cells| phase.fields.iter().zip(cells));
            let levels = cells
                .filter(|(f, _)| f.kind == Kind::Level)
                .filter_map(|(_, cell)| cell.as_str().map(str::to_string));
            (phase.label, levels.collect())
        });
        InvariantDigest {
            e1_levels: e1
                .map(|r| (r.policy.clone(), r.consistency.clone()))
                .collect(),
            levels: levels.collect(),
        }
    }
}
