//! Cross-layer reconciliation: prove that every observability layer
//! tells the same story about one run.
//!
//! The layers are written by independent code paths (telemetry counters
//! in the refresh engine, xray rows in the recorder, trace records in
//! the flight recorder, span counts in the profiler, totals in the
//! harness), so agreement is evidence the instrumentation — and the
//! simulation under it — is internally consistent. The audit stops at
//! the **first** mismatch and names it as `(layer, key, lhs, rhs)`,
//! the same shape zr-conform's divergence reports use.
//!
//! Checks, in order:
//!
//! 1. **manifest** — every artifact's byte length and FNV-1a checksum
//!    match what the manifest recorded (volatile artifacts against the
//!    `volatile` section).
//! 2. **telemetry** — the `dram.refresh.*` counters in the snapshot
//!    equal the harness's counter-delta totals in the manifest.
//! 3. **xray** — per-engine `rows_refreshed`/`rows_skipped` sums equal
//!    the telemetry/manifest totals.
//! 4. **trace** — deterministic replay reports zero divergences and
//!    leaves no REF decision unverified (one of an engine no `meta`
//!    record announced); the refresh/skip totals derived from
//!    `RefIssue`/`RefSkip` records equal the xray totals; and per
//!    retention-window bucket, trace skips equal xray skips (trace
//!    windows are re-bucketed to the coarsest xray stride, and both
//!    sides aggregate across engines — engine ids are assigned from a
//!    global counter and are therefore scheduling-dependent, window
//!    indices are not).
//! 5. **profile** — per span name, the profiler's call count equals the
//!    `span.<name>` histogram count in the telemetry snapshot, in both
//!    directions.
//!
//! A layer whose artifact is absent from the manifest is skipped (and
//! noted); a layer that is present but inconsistent fails loudly.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

use zr_trace::{RecordKind, TraceRecord};
use zr_xray::XraySnapshot;

use crate::manifest::{fnv64, hex64};
use crate::run::LoadedRun;

/// The first disagreement the audit found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// Which layer's checks failed (`manifest`, `telemetry`, `xray`,
    /// `trace`, `profile`).
    pub layer: &'static str,
    /// What was compared (a counter name, window bucket, span name,
    /// artifact path).
    pub key: String,
    /// The value on the side named first in the check.
    pub lhs: String,
    /// The value it was compared against.
    pub rhs: String,
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "audit divergence: layer={} key={} lhs={} rhs={}",
            self.layer, self.key, self.lhs, self.rhs
        )
    }
}

/// Everything the audit verified (or skipped), plus the first mismatch
/// if one was found.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// One line per check performed or layer skipped, in order.
    pub notes: Vec<String>,
    /// The first disagreement, `None` when every layer reconciles.
    pub mismatch: Option<Mismatch>,
}

impl AuditReport {
    /// Whether every present layer reconciled.
    pub fn is_ok(&self) -> bool {
        self.mismatch.is_none()
    }

    /// Renders the report as the CLI prints it.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for note in &self.notes {
            out.push_str("  ");
            out.push_str(note);
            out.push('\n');
        }
        match &self.mismatch {
            Some(m) => out.push_str(&format!("{m}\n")),
            None => out.push_str("audit: all layers reconcile\n"),
        }
        out
    }
}

/// Audits the run described by the manifest at `path`.
///
/// # Errors
///
/// A message when the manifest or a present artifact cannot be loaded
/// at all — distinct from a [`Mismatch`], which means the data loaded
/// but disagrees.
pub fn audit(path: &Path) -> Result<AuditReport, String> {
    let run = LoadedRun::load(path)?;
    Ok(audit_run(&run))
}

/// Audits an already-loaded run.
pub fn audit_run(run: &LoadedRun) -> AuditReport {
    let mut report = AuditReport::default();
    for step in [
        check_manifest_integrity,
        check_telemetry_totals,
        check_xray_totals,
        check_trace,
        check_profile_spans,
    ] {
        step(run, &mut report);
        if report.mismatch.is_some() {
            return report;
        }
    }
    report
}

fn check_manifest_integrity(run: &LoadedRun, report: &mut AuditReport) {
    for artifact in &run.manifest.artifacts {
        let full = run.manifest.resolve(&run.manifest_path, artifact);
        let Ok(bytes) = std::fs::read(&full) else {
            report.mismatch = Some(Mismatch {
                layer: "manifest",
                key: artifact.path.clone(),
                lhs: format!("{} bytes on record", artifact.bytes),
                rhs: "unreadable".to_string(),
            });
            return;
        };
        let (want_bytes, want_fnv) = if artifact.volatile {
            match run.manifest.volatile.artifacts.get(&artifact.path) {
                Some(&(b, f)) => (b, f),
                None => {
                    report.mismatch = Some(Mismatch {
                        layer: "manifest",
                        key: artifact.path.clone(),
                        lhs: "volatile checksum on record".to_string(),
                        rhs: "missing from volatile section".to_string(),
                    });
                    return;
                }
            }
        } else {
            (artifact.bytes, artifact.fnv)
        };
        if bytes.len() as u64 != want_bytes {
            report.mismatch = Some(Mismatch {
                layer: "manifest",
                key: format!("{} bytes", artifact.path),
                lhs: want_bytes.to_string(),
                rhs: bytes.len().to_string(),
            });
            return;
        }
        let have_fnv = fnv64(&bytes);
        if have_fnv != want_fnv {
            report.mismatch = Some(Mismatch {
                layer: "manifest",
                key: format!("{} fnv", artifact.path),
                lhs: hex64(want_fnv),
                rhs: hex64(have_fnv),
            });
            return;
        }
    }
    report.notes.push(format!(
        "manifest: {} artifacts verified (length + fnv)",
        run.manifest.artifacts.len()
    ));
}

/// Projects one field out of the harness totals.
type TotalsAccessor = fn(&crate::manifest::RunTotals) -> u64;

/// The `(counter name, totals accessor)` pairs reconciled between the
/// telemetry snapshot and the harness totals.
const COUNTER_TOTALS: &[(&str, TotalsAccessor)] = &[
    ("dram.refresh.rows_refreshed", |t| t.rows_refreshed),
    ("dram.refresh.rows_skipped", |t| t.rows_skipped),
    ("dram.refresh.ar_commands", |t| t.ar_commands),
    ("dram.refresh.table_reads", |t| t.table_reads),
    ("dram.refresh.table_writes", |t| t.table_writes),
];

fn check_telemetry_totals(run: &LoadedRun, report: &mut AuditReport) {
    let Some(snapshot) = &run.snapshot else {
        report
            .notes
            .push("telemetry: no snapshot artifact, skipped".into());
        return;
    };
    for &(name, total) in COUNTER_TOTALS {
        let lhs = snapshot.counter(name);
        let rhs = total(&run.manifest.totals);
        if lhs != rhs {
            report.mismatch = Some(Mismatch {
                layer: "telemetry",
                key: name.to_string(),
                lhs: lhs.to_string(),
                rhs: rhs.to_string(),
            });
            return;
        }
    }
    report.notes.push(format!(
        "telemetry: {} refresh counters match manifest totals",
        COUNTER_TOTALS.len()
    ));
}

/// Sums `rows_refreshed`/`rows_skipped` across every engine capture.
fn xray_totals(xray: &XraySnapshot) -> (u64, u64) {
    xray.engines.iter().fold((0, 0), |(r, s), engine| {
        let (er, es) = engine.totals();
        (r + er, s + es)
    })
}

fn check_xray_totals(run: &LoadedRun, report: &mut AuditReport) {
    let Some(xray) = &run.xray else {
        report
            .notes
            .push("xray: no capture artifact, skipped".into());
        return;
    };
    let (refreshed, skipped) = xray_totals(xray);
    for (key, lhs, rhs) in [
        (
            "rows_refreshed",
            refreshed,
            run.manifest.totals.rows_refreshed,
        ),
        ("rows_skipped", skipped, run.manifest.totals.rows_skipped),
    ] {
        if lhs != rhs {
            report.mismatch = Some(Mismatch {
                layer: "xray",
                key: key.to_string(),
                lhs: lhs.to_string(),
                rhs: rhs.to_string(),
            });
            return;
        }
    }
    report.notes.push(format!(
        "xray: {} engines sum to the manifest totals",
        xray.engines.len()
    ));
}

/// Per-window refresh/skip totals derived from the trace, bucketed by
/// `stride` (each engine's current window tracked from `WindowStart`).
fn trace_window_totals(records: &[TraceRecord], stride: u64) -> BTreeMap<u64, (u64, u64)> {
    let mut current: BTreeMap<u8, u64> = BTreeMap::new();
    let mut buckets: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for rec in records {
        match rec.kind {
            RecordKind::WindowStart => {
                current.insert(rec.src, rec.a);
            }
            RecordKind::RefIssue | RecordKind::RefSkip => {
                let window = current.get(&rec.src).copied().unwrap_or(0);
                let bucket = (window / stride) * stride;
                let entry = buckets.entry(bucket).or_insert((0, 0));
                entry.0 += rec.b;
                if rec.kind == RecordKind::RefSkip {
                    entry.1 += rec.c;
                }
            }
            _ => {}
        }
    }
    buckets
}

/// Per-window skip/refresh totals from the xray capture, re-bucketed
/// to `stride` and aggregated across engines.
fn xray_window_totals(xray: &XraySnapshot, stride: u64) -> BTreeMap<u64, (u64, u64)> {
    let mut buckets: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for engine in &xray.engines {
        for row in &engine.windows {
            let bucket = (row.window / stride) * stride;
            let entry = buckets.entry(bucket).or_insert((0, 0));
            entry.0 += row.rows_refreshed;
            entry.1 += row.rows_skipped;
        }
    }
    buckets
}

/// The coarsest window stride across the capture's engines (downsampled
/// buckets double their stride, so every engine's stride divides the
/// maximum — all strides are powers of two).
fn coarsest_stride(xray: &XraySnapshot) -> u64 {
    xray.engines
        .iter()
        .map(|e| e.window_stride.max(1))
        .max()
        .unwrap_or(1)
}

fn check_trace(run: &LoadedRun, report: &mut AuditReport) {
    let Some(records) = &run.trace else {
        report
            .notes
            .push("trace: no trace artifact, skipped".into());
        return;
    };
    let replay = zr_trace::replay(records);
    if let Some(first) = replay.divergences.first() {
        report.mismatch = Some(Mismatch {
            layer: "trace",
            key: "replay.divergences".to_string(),
            lhs: format!("{} (first: {first:?})", replay.divergences.len()),
            rhs: "0".to_string(),
        });
        return;
    }
    // Decisions of engines no meta record announced were not checked at
    // all; a trace that cannot be verified does not pass.
    if replay.decisions_unverified > 0 {
        report.mismatch = Some(Mismatch {
            layer: "trace",
            key: "replay.decisions_unverified".to_string(),
            lhs: replay.decisions_unverified.to_string(),
            rhs: "0".to_string(),
        });
        return;
    }
    // Trace-side totals: every AR decision carries rows refreshed in
    // `b`; only RefSkip carries skipped rows in `c` (RefIssue's `c` is
    // the piggybacked discharge scan, not a skip count).
    let (refreshed, skipped) = records
        .iter()
        .fold((0u64, 0u64), |(r, s), rec| match rec.kind {
            RecordKind::RefIssue => (r + rec.b, s),
            RecordKind::RefSkip => (r + rec.b, s + rec.c),
            _ => (r, s),
        });
    for (key, lhs, rhs) in [
        (
            "rows_refreshed",
            refreshed,
            run.manifest.totals.rows_refreshed,
        ),
        ("rows_skipped", skipped, run.manifest.totals.rows_skipped),
    ] {
        if lhs != rhs {
            report.mismatch = Some(Mismatch {
                layer: "trace",
                key: key.to_string(),
                lhs: lhs.to_string(),
                rhs: rhs.to_string(),
            });
            return;
        }
    }
    let mut note = format!(
        "trace: replay clean ({} decisions), totals match",
        replay.decisions_checked
    );
    if let Some(xray) = &run.xray {
        let stride = coarsest_stride(xray);
        let trace_windows = trace_window_totals(records, stride);
        let xray_windows = xray_window_totals(xray, stride);
        // Compare over the union of buckets so a window present on one
        // side only is reported, not silently passed.
        let mut keys: Vec<u64> = trace_windows
            .keys()
            .chain(xray_windows.keys())
            .copied()
            .collect();
        keys.sort_unstable();
        keys.dedup();
        for window in keys {
            let t = trace_windows.get(&window).copied().unwrap_or((0, 0));
            let x = xray_windows.get(&window).copied().unwrap_or((0, 0));
            if t != x {
                let (field, lhs, rhs) = if t.0 != x.0 {
                    ("rows_refreshed", t.0, x.0)
                } else {
                    ("rows_skipped", t.1, x.1)
                };
                report.mismatch = Some(Mismatch {
                    layer: "trace",
                    key: format!("window {window} {field}"),
                    lhs: lhs.to_string(),
                    rhs: rhs.to_string(),
                });
                return;
            }
        }
        note.push_str(&format!(
            ", {} window buckets agree with xray (stride {stride})",
            xray_windows.len()
        ));
    }
    report.notes.push(note);
}

fn check_profile_spans(run: &LoadedRun, report: &mut AuditReport) {
    let (Some(profile), Some(snapshot)) = (&run.profile, &run.snapshot) else {
        report
            .notes
            .push("profile: profile or snapshot absent, span check skipped".into());
        return;
    };
    // Profiler side: calls per *leaf* span name (telemetry's histogram
    // does not distinguish stacks).
    let mut profile_calls: BTreeMap<&str, u64> = BTreeMap::new();
    for node in &profile.nodes {
        *profile_calls.entry(node.leaf()).or_insert(0) += node.calls;
    }
    // Telemetry side: `span.<name>` histogram counts.
    let mut span_counts: BTreeMap<&str, u64> = BTreeMap::new();
    for (name, h) in &snapshot.histograms {
        if let Some(span) = name.strip_prefix("span.") {
            span_counts.insert(span, h.count);
        }
    }
    let mut names: Vec<&str> = profile_calls
        .keys()
        .chain(span_counts.keys())
        .copied()
        .collect();
    names.sort_unstable();
    names.dedup();
    for name in names {
        let lhs = profile_calls.get(name).copied().unwrap_or(0);
        let rhs = span_counts.get(name).copied().unwrap_or(0);
        if lhs != rhs {
            report.mismatch = Some(Mismatch {
                layer: "profile",
                key: format!("span {name}"),
                lhs: lhs.to_string(),
                rhs: rhs.to_string(),
            });
            return;
        }
    }
    report.notes.push(format!(
        "profile: {} span names match telemetry histogram counts",
        profile_calls.len()
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use zr_xray::{ArRow, EngineCapture};

    fn engine(stride: u64, windows: &[(u64, u64, u64)]) -> EngineCapture {
        EngineCapture {
            label: "e".into(),
            policy: "charge_aware".into(),
            num_banks: 1,
            ar_sets_per_bank: 1,
            window_stride: stride,
            windows: windows
                .iter()
                .map(|&(window, refreshed, skipped)| ArRow {
                    window,
                    bank: 0,
                    set: 0,
                    rows_refreshed: refreshed,
                    rows_skipped: skipped,
                    discharged: 0,
                })
                .collect(),
            bank_discharged: Vec::new(),
        }
    }

    #[test]
    fn trace_windows_bucket_by_stride() {
        let mut records = Vec::new();
        let mut start = TraceRecord::new(RecordKind::WindowStart, 3);
        start.a = 2;
        records.push(start);
        let mut skip = TraceRecord::new(RecordKind::RefSkip, 3);
        skip.b = 5;
        skip.c = 7;
        records.push(skip);
        let mut issue = TraceRecord::new(RecordKind::RefIssue, 3);
        issue.b = 9;
        issue.c = 100; // discharge scan, must NOT count as skips
        records.push(issue);
        let buckets = trace_window_totals(&records, 2);
        assert_eq!(buckets.get(&2), Some(&(14, 7)));
    }

    #[test]
    fn xray_windows_rebucket_to_coarser_stride() {
        let snapshot = XraySnapshot {
            window_cap: 64,
            engines: vec![
                engine(1, &[(0, 1, 2), (1, 3, 4)]),
                engine(2, &[(0, 10, 20)]),
            ],
            stages: Vec::new(),
        };
        assert_eq!(coarsest_stride(&snapshot), 2);
        let buckets = xray_window_totals(&snapshot, 2);
        assert_eq!(buckets.get(&0), Some(&(14, 26)));
    }

    #[test]
    fn mismatch_renders_all_four_fields() {
        let m = Mismatch {
            layer: "xray",
            key: "rows_skipped".into(),
            lhs: "10".into(),
            rhs: "11".into(),
        };
        let text = m.to_string();
        for needle in ["layer=xray", "key=rows_skipped", "lhs=10", "rhs=11"] {
            assert!(text.contains(needle), "{text}");
        }
    }
}
