//! The row schema: a phase declares its row **once** with `row!` —
//! every field with its type, its doc comment and its [`Kind`] — and the
//! JSON codec, the baseline gate and the smoke≡full digest are derived
//! from that declaration by the generic code in the parent module.

use super::PerfReport;
use crate::json::Json;

/// Which direction of a tracked ratio is the regression.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Worse {
    /// A rise is the regression (messages, staleness, bytes, makespan).
    Higher,
    /// A fall is the regression (installs, speedup, throughput, hit ratio).
    Lower,
}

/// What the gate does with a field when it diffs a fresh report against
/// the committed baseline. The exact laws *between* fields are not kinds;
/// they are each phase's hand-written [`Phase::invariants`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Row identity: a baseline row is matched to the fresh row with equal
    /// key fields (floats within `EXACT_EPS`); no match is a violation.
    Key,
    /// A verified consistency level; ranking below the baseline's is a
    /// downgrade violation.
    Level,
    /// Tracked against the baseline at `RATIO_TOLERANCE`; the string
    /// names the quantity in the violation message.
    Ratio(Worse, &'static str),
    /// Recorded in the report, never compared.
    Info,
}

/// One declared field of a row: its JSON key and its gate kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Field {
    /// Field name — the struct field and the JSON key.
    pub name: &'static str,
    /// How the gate treats it.
    pub kind: Kind,
}

/// A type a row field may have.
pub trait Cell: Sized {
    /// Encode as a JSON value.
    fn to_json(&self) -> Json;
    /// Decode; `None` when the value has the wrong JSON type.
    fn from_json(cell: &Json) -> Option<Self>;
}

impl Cell for u64 {
    fn to_json(&self) -> Json {
        Json::Num(*self as f64)
    }
    fn from_json(cell: &Json) -> Option<u64> {
        cell.as_u64()
    }
}

impl Cell for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
    fn from_json(cell: &Json) -> Option<f64> {
        cell.as_num()
    }
}

impl Cell for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
    fn from_json(cell: &Json) -> Option<String> {
        cell.as_str().map(str::to_string)
    }
}

impl Cell for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
    fn from_json(cell: &Json) -> Option<bool> {
        cell.as_bool()
    }
}

/// Decode the field `key` of a row object.
pub fn cell<T: Cell>(doc: &Json, key: &str) -> Result<T, String> {
    doc.get(key)
        .and_then(T::from_json)
        .ok_or_else(|| format!("missing or mistyped field {key}"))
}

/// The mechanical half of a phase, emitted by `row!`: where its rows
/// live in the report and how one row maps to and from its declared
/// fields. Field order is declaration order, in [`Row::FIELDS`], in
/// [`Row::cells`] and therefore in the JSON.
pub trait Row: Sized + 'static {
    /// Experiment label, as in EXPERIMENTS.md (`"E6"`).
    const LABEL: &'static str;
    /// Key of the phase's row array in `BENCH_report.json`.
    const JSON_KEY: &'static str;
    /// The declared fields.
    const FIELDS: &'static [Field];
    /// The row's values, parallel to [`Row::FIELDS`].
    fn cells(&self) -> Vec<Json>;
    /// Parse one row object.
    fn from_json(doc: &Json) -> Result<Self, String>;
    /// The phase's rows in a report.
    fn slot(report: &PerfReport) -> &Vec<Self>;
    /// The phase's rows in a report, writable.
    fn slot_mut(report: &mut PerfReport) -> &mut Vec<Self>;
}

/// The hand-written half of a phase: the experiment and its laws, defined
/// once. `perf::collect`, the phase's `src/bin` binary and the tests all
/// go through these two functions (see `perf::measure`).
pub trait Phase: Row {
    /// One line naming the law [`Phase::invariants`] enforces (printed by
    /// `perf_report`).
    const LAW: &'static str;
    /// What a sweep point hands the phase's binary besides its row: a
    /// header parameter, a report with columns the row does not record,
    /// the scenario a livenet arm replays. `()` when the row is all.
    type Detail;
    /// Run the experiment: one `(row, detail)` per sweep point. Smoke
    /// mode shrinks the point list and the streams, never the scenario
    /// shape.
    fn run(smoke: bool) -> Vec<(Self, Self::Detail)>;
    /// The exact laws the rows must satisfy (no baseline needed); empty
    /// means they hold.
    fn invariants(rows: &[Self]) -> Vec<String>;
}

/// Declare a phase's row type: `Name in report_field as "label" /
/// "json_key" { field: type = kind, … }`. Emits the struct (doc comments
/// pass through) and its [`Row`] impl.
macro_rules! row {
    (
        $(#[$meta:meta])*
        $name:ident in $slot:ident as $label:literal / $key:literal {
            $( $(#[$fmeta:meta])* $field:ident : $ty:ty = $kind:expr ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Debug, PartialEq)]
        pub struct $name {
            $( $(#[$fmeta])* pub $field: $ty, )+
        }

        impl Row for $name {
            const LABEL: &'static str = $label;
            const JSON_KEY: &'static str = $key;
            const FIELDS: &'static [Field] = &[
                $( Field { name: stringify!($field), kind: $kind } ),+
            ];
            fn cells(&self) -> Vec<Json> {
                vec![ $( Cell::to_json(&self.$field) ),+ ]
            }
            fn from_json(doc: &Json) -> Result<Self, String> {
                Ok($name { $( $field: cell(doc, stringify!($field))? ),+ })
            }
            fn slot(report: &PerfReport) -> &Vec<Self> {
                &report.$slot
            }
            fn slot_mut(report: &mut PerfReport) -> &mut Vec<Self> {
                &mut report.$slot
            }
        }
    };
}
pub(crate) use row;
