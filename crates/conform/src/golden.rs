//! Golden-figure regression gates.
//!
//! A golden test renders its figure data to a [`Json`] document and calls
//! [`check`]. The blessed snapshot lives in `tests/golden/<name>.json`;
//! comparison is tolerance-aware on numbers (figures are floating-point
//! aggregates; bit-exactness across toolchains is not the contract) and
//! exact on structure, strings and booleans. Setting `ZR_BLESS=1`
//! rewrites the snapshots from the current run instead of comparing —
//! the one sanctioned way to update them after an intentional change.

use std::fmt;
use std::path::PathBuf;

use zr_types::json::Json;

/// Numeric comparison tolerance: a value passes when it is within
/// `abs` absolutely *or* within `rel` relatively.
#[derive(Debug, Clone, Copy)]
pub struct Tolerance {
    /// Relative tolerance (fraction of the golden magnitude).
    pub rel: f64,
    /// Absolute tolerance.
    pub abs: f64,
}

impl Tolerance {
    /// The default gate for figure data: 0.1% relative or 1e-9 absolute.
    pub fn figures() -> Self {
        Tolerance {
            rel: 1e-3,
            abs: 1e-9,
        }
    }

    /// Exact comparison (integer-valued tables).
    pub fn exact() -> Self {
        Tolerance { rel: 0.0, abs: 0.0 }
    }

    fn accepts(&self, golden: f64, actual: f64) -> bool {
        if golden == actual {
            return true;
        }
        let diff = (golden - actual).abs();
        diff <= self.abs || diff <= self.rel * golden.abs()
    }
}

/// A golden-gate failure: either a missing snapshot or a list of
/// mismatching paths.
#[derive(Debug)]
pub struct GoldenError {
    /// Snapshot name.
    pub name: String,
    /// One line per problem, `$.path: detail` style.
    pub mismatches: Vec<String>,
}

impl fmt::Display for GoldenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "GOLDEN MISMATCH for `{}` ({} problem(s)):",
            self.name,
            self.mismatches.len()
        )?;
        for m in self.mismatches.iter().take(32) {
            writeln!(f, "  {m}")?;
        }
        if self.mismatches.len() > 32 {
            writeln!(f, "  … and {} more", self.mismatches.len() - 32)?;
        }
        writeln!(
            f,
            "If the change is intentional, re-bless with: ZR_BLESS=1 cargo test -p zr-conform"
        )
    }
}

impl std::error::Error for GoldenError {}

/// The blessed-snapshot directory (`tests/golden/` in this crate).
pub fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Compares `actual` against the blessed snapshot `name`, or rewrites
/// the snapshot when `ZR_BLESS=1`. On mismatch the report is also
/// persisted under the conformance report directory so CI can upload it.
///
/// # Errors
///
/// [`GoldenError`] on a missing snapshot (without `ZR_BLESS=1`) or any
/// out-of-tolerance difference.
pub fn check(name: &str, actual: &Json, tolerance: Tolerance) -> Result<(), GoldenError> {
    let path = golden_dir().join(format!("{name}.json"));
    if zr_types::knobs::BLESS.on() {
        std::fs::create_dir_all(golden_dir()).expect("create golden dir");
        std::fs::write(&path, actual.to_pretty()).expect("write golden snapshot");
        eprintln!("conform: blessed {}", path.display());
        return Ok(());
    }
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            return Err(GoldenError {
                name: name.to_string(),
                mismatches: vec![format!(
                    "$: snapshot {} unreadable ({e}); run with ZR_BLESS=1 to create it",
                    path.display()
                )],
            });
        }
    };
    let golden = match Json::parse(&text) {
        Ok(v) => v,
        Err(e) => {
            return Err(GoldenError {
                name: name.to_string(),
                mismatches: vec![format!("$: snapshot is not valid JSON: {e}")],
            });
        }
    };
    let mut mismatches = Vec::new();
    compare("$", &golden, actual, tolerance, &mut mismatches);
    if mismatches.is_empty() {
        return Ok(());
    }
    let err = GoldenError {
        name: name.to_string(),
        mismatches,
    };
    crate::diff::write_report(&format!("golden-{name}.txt"), &err.to_string());
    Err(err)
}

fn compare(path: &str, golden: &Json, actual: &Json, tol: Tolerance, out: &mut Vec<String>) {
    match (golden, actual) {
        (Json::Null, Json::Null) => {}
        (Json::Bool(g), Json::Bool(a)) => {
            if g != a {
                out.push(format!("{path}: golden {g}, actual {a}"));
            }
        }
        (Json::Num(g), Json::Num(a)) => {
            if !tol.accepts(*g, *a) {
                out.push(format!(
                    "{path}: golden {g:?}, actual {a:?} (diff {:.3e})",
                    (g - a).abs()
                ));
            }
        }
        (Json::Str(g), Json::Str(a)) => {
            if g != a {
                out.push(format!("{path}: golden {g:?}, actual {a:?}"));
            }
        }
        (Json::Arr(g), Json::Arr(a)) => {
            if g.len() != a.len() {
                out.push(format!(
                    "{path}: golden has {} items, actual {}",
                    g.len(),
                    a.len()
                ));
                return;
            }
            for (i, (gi, ai)) in g.iter().zip(a).enumerate() {
                compare(&format!("{path}[{i}]"), gi, ai, tol, out);
            }
        }
        (Json::Obj(g), Json::Obj(a)) => {
            for (key, gv) in g {
                match a.iter().find(|(k, _)| k == key) {
                    Some((_, av)) => compare(&format!("{path}.{key}"), gv, av, tol, out),
                    None => out.push(format!("{path}.{key}: missing from actual")),
                }
            }
            for (key, _) in a {
                if !g.iter().any(|(k, _)| k == key) {
                    out.push(format!("{path}.{key}: not in golden"));
                }
            }
        }
        _ => out.push(format!(
            "{path}: type mismatch (golden {}, actual {})",
            kind_name(golden),
            kind_name(actual)
        )),
    }
}

fn kind_name(v: &Json) -> &'static str {
    match v {
        Json::Null => "null",
        Json::Bool(_) => "bool",
        Json::Int(_) => "integer",
        Json::Num(_) => "number",
        Json::Str(_) => "string",
        Json::Arr(_) => "array",
        Json::Obj(_) => "object",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn num_doc(values: &[f64]) -> Json {
        Json::Obj(vec![(
            "series".into(),
            Json::Arr(values.iter().map(|&v| Json::Num(v)).collect()),
        )])
    }

    #[test]
    fn identical_documents_pass() {
        let doc = num_doc(&[1.0, 0.5, 0.25]);
        let mut out = Vec::new();
        compare("$", &doc, &doc, Tolerance::exact(), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn tolerance_accepts_small_drift_and_rejects_large() {
        let golden = num_doc(&[1.0]);
        let near = num_doc(&[1.0005]);
        let far = num_doc(&[1.1]);
        let tol = Tolerance::figures();
        let mut out = Vec::new();
        compare("$", &golden, &near, tol, &mut out);
        assert!(out.is_empty(), "{out:?}");
        compare("$", &golden, &far, tol, &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].starts_with("$.series[0]"), "{out:?}");
    }

    #[test]
    fn structural_differences_are_named_by_path() {
        let golden = Json::Obj(vec![
            ("a".into(), Json::Num(1.0)),
            ("b".into(), Json::Str("x".into())),
        ]);
        let actual = Json::Obj(vec![
            ("a".into(), Json::Str("oops".into())),
            ("c".into(), Json::Num(2.0)),
        ]);
        let mut out = Vec::new();
        compare("$", &golden, &actual, Tolerance::figures(), &mut out);
        let text = out.join("\n");
        assert!(text.contains("$.a: type mismatch"));
        assert!(text.contains("$.b: missing from actual"));
        assert!(text.contains("$.c: not in golden"));
    }

    #[test]
    fn array_length_mismatch_reported_once() {
        let golden = num_doc(&[1.0, 2.0]);
        let actual = num_doc(&[1.0]);
        let mut out = Vec::new();
        compare("$", &golden, &actual, Tolerance::figures(), &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].contains("2 items"));
    }

    #[test]
    fn zero_golden_uses_absolute_tolerance() {
        let tol = Tolerance::figures();
        assert!(tol.accepts(0.0, 1e-12));
        assert!(!tol.accepts(0.0, 1e-3));
    }
}
