//! Every `ZR_*` environment knob in one table, [`ALL`], and the one
//! parser of their values; `docs/OBSERVABILITY.md` indexes the same rows.
//!
//! Unset and empty mean the default. A layer reads its knob where and
//! when it needs it, never once per line, through the accessor of the
//! knob's grammar. Every binary first runs [`check`], which names the
//! first bad value; the binary prints that and exits 1. The accessors
//! panic with the same message, so only a program that skips [`check`]
//! can reach that panic.

use std::collections::BTreeMap;
use std::ffi::OsStr;
use std::path::PathBuf;

use crate::{Error, Result};

/// What a knob's setting can change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The figures: folded into the experiment config and its hash.
    Result,
    /// How sweeps are scheduled, never a result or an artifact byte.
    Schedule,
    /// What a run records beside its results: artifacts and stderr.
    Observability,
    /// Only what tests and the perf gate do.
    Test,
}

/// The values a knob accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grammar {
    /// A whole number in decimal.
    Whole,
    /// A positive integer in decimal; surrounding whitespace is ignored.
    Positive,
    /// A 64-bit seed in decimal or `0x` hex.
    Seed,
    /// A finite, non-negative number.
    Fraction,
    /// `0` (off) or `1` (on).
    Switch,
    /// A file or directory path.
    Path,
    /// `0` (off), `1` (on) or a directory (on, and the output goes there).
    SwitchOrPath,
}

impl Grammar {
    /// The grammar in words, as error messages and the knob index put it.
    pub fn describe(self) -> &'static str {
        match self {
            Grammar::Whole => "a whole number",
            Grammar::Positive => "a positive integer",
            Grammar::Seed => "a u64 in decimal or 0x hex",
            Grammar::Fraction => "a non-negative number",
            Grammar::Switch => "0 or 1",
            Grammar::Path => "a path",
            Grammar::SwitchOrPath => "0, 1 or a directory",
        }
    }
}

/// One row of the knob table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Knob {
    /// The environment variable.
    pub name: &'static str,
    /// What its setting can change.
    pub kind: Kind,
    /// The values it accepts.
    pub grammar: Grammar,
    /// What holds when it is unset or empty, in words.
    pub default: &'static str,
    /// What it does, in one line.
    pub doc: &'static str,
}

/// A knob value its grammar accepted.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A whole, positive or seed value.
    Int(u64),
    /// A fraction.
    Fraction(f64),
    /// A switch, or a bare `0`/`1` switch-or-path.
    Switch(bool),
    /// A path, or a switch-or-path directory.
    Path(PathBuf),
}

macro_rules! table {
    ($($knob:ident $kind:ident $grammar:ident $default:literal $doc:literal;)*) => {
        $(
            #[doc = concat!("`ZR_", stringify!($knob), "`: ", $doc, ".")]
            pub const $knob: Knob = Knob {
                name: concat!("ZR_", stringify!($knob)),
                kind: Kind::$kind,
                grammar: Grammar::$grammar,
                default: $default,
                doc: $doc,
            };
        )*
        /// Every knob, in the order of the knob index.
        pub const ALL: &[Knob] = &[$($knob),*];
    };
}

// Each row: the knob (`ZR_` + its name), kind, grammar, default, doc.
table! {
    CAPACITY_MB Result Whole "16" "simulated capacity per run, in MiB";
    WINDOWS Result Whole "4" "retention windows each run measures";
    SEED Result Whole "24301 (0x5EED)" "seed of the synthetic content and traffic";
    THREADS Schedule Positive "available parallelism" "sweep-pool width; 1 runs the serial path";
    TELEMETRY Observability Path "unset" "directory for snapshots, events.jsonl and figure JSON";
    TELEMETRY_SAMPLE Observability Positive "64" "keep one in N events of each high-rate kind";
    TRACE Observability Path "unset" "trace directory (it gets trace.zrt) or .zrt file";
    TRACE_RING Observability Positive "unset (whole trace)" "keep only the newest N trace frames";
    XRAY Observability SwitchOrPath "0" "charge-domain capture, exported as xray.json and xray.csv";
    XRAY_WINDOWS Observability Positive "64" "window buckets the xray capture keeps per engine";
    PROF Observability Path "unset" "directory for each figure's span profile (folded and JSON)";
    LENS Observability Path "the telemetry directory" "directory for manifest.json";
    PROGRESS Observability Switch "0" "live sweep progress on stderr";
    PERF_TOL Test Fraction "0.25" "wall-time tolerance of the perf gate";
    BLESS Test Switch "0" "rewrite the goldens or the perf baseline instead of comparing";
    CONFORM_REPORT_DIR Test Path "target/conform-reports" "reports of failing conformance checks";
    TEST_SEED Test Seed "unset (every case)" "run only this case of each seeded test";
}

impl Knob {
    /// Parses `raw` by this knob's grammar: `None` when it is empty (the
    /// default holds), else the value, or [`Error::InvalidConfig`] naming
    /// the knob and `raw` when the grammar rejects it.
    pub fn parse(&self, raw: &OsStr) -> Result<Option<Value>> {
        if raw.is_empty() {
            return Ok(None);
        }
        let value = match (self.grammar, raw.to_str()) {
            (Grammar::Switch | Grammar::SwitchOrPath, Some("0")) => Some(Value::Switch(false)),
            (Grammar::Switch | Grammar::SwitchOrPath, Some("1")) => Some(Value::Switch(true)),
            (Grammar::Path | Grammar::SwitchOrPath, _) => Some(Value::Path(raw.into())),
            (Grammar::Whole, Some(text)) => text.parse().ok().map(Value::Int),
            (Grammar::Positive, Some(text)) => {
                text.trim().parse().ok().filter(|&n| n > 0).map(Value::Int)
            }
            (Grammar::Seed, Some(text)) => {
                match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
                    Some(hex) => u64::from_str_radix(hex, 16).ok(),
                    None => text.parse().ok(),
                }
                .map(Value::Int)
            }
            (Grammar::Fraction, Some(text)) => text
                .parse::<f64>()
                .ok()
                .filter(|x| x.is_finite() && *x >= 0.0)
                .map(Value::Fraction),
            (Grammar::Switch, _) | (_, None) => None,
        };
        value.map(Some).ok_or_else(|| {
            let grammar = self.grammar.describe();
            Error::invalid_config(format!("{}={raw:?} is not {grammar}", self.name))
        })
    }

    /// [`Knob::parse`] of the value the environment sets now.
    pub fn read(&self) -> Result<Option<Value>> {
        std::env::var_os(self.name).map_or(Ok(None), |raw| self.parse(&raw))
    }

    fn value(&self) -> Option<Value> {
        self.read().unwrap_or_else(|e| panic!("{e}"))
    }

    /// An integer knob's value (`None` when unset).
    pub fn int(&self) -> Option<u64> {
        match self.value()? {
            Value::Int(n) => Some(n),
            other => unreachable!("{} read as an integer: {other:?}", self.name),
        }
    }

    /// A [`Grammar::Fraction`] knob's value (`None` when unset).
    pub fn fraction(&self) -> Option<f64> {
        match self.value()? {
            Value::Fraction(x) => Some(x),
            other => unreachable!("{} read as a fraction: {other:?}", self.name),
        }
    }

    /// Whether a switch knob is on: set to `1`, or to a directory.
    pub fn on(&self) -> bool {
        !matches!(self.value(), None | Some(Value::Switch(false)))
    }

    /// A path knob's value, or the directory a [`Grammar::SwitchOrPath`]
    /// knob names (`None` when unset, or set to a bare `0`/`1`).
    pub fn path(&self) -> Option<PathBuf> {
        match self.value()? {
            Value::Path(path) => Some(path),
            _ => None,
        }
    }
}

/// Parses every knob in [`ALL`] as set, returning the first error
/// [`Knob::parse`] gives: what each binary runs before any work.
pub fn check() -> Result<()> {
    ALL.iter().try_for_each(|knob| knob.read().map(drop))
}

/// The knobs a run manifest records, every kind but [`Kind::Test`], with
/// their values as set (`None` when unset).
pub fn recorded() -> BTreeMap<String, Option<String>> {
    ALL.iter()
        .filter(|knob| knob.kind != Kind::Test)
        .map(|knob| (knob.name.to_string(), std::env::var(knob.name).ok()))
        .collect()
}

/// The sweep-pool width: [`THREADS`] when set, else
/// [`available_parallelism`].
pub fn thread_count() -> usize {
    let width = THREADS.int().map(|n| n.try_into().unwrap_or(usize::MAX));
    width.unwrap_or_else(available_parallelism)
}

/// This machine's available parallelism (1 when undetectable): the
/// default of [`THREADS`].
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
