//! Perf-baseline history: a bounded ring of prior blessed runs per
//! slice, stored under a document-level `history` key inside
//! `BENCH_perf.json`, plus trend detection over it.
//!
//! [`PerfReport::from_json`] ignores unknown keys, so the extended
//! document stays loadable by every existing consumer. Each re-bless
//! pushes the *outgoing* baseline's slices into the ring before the new
//! numbers replace them — the ring always holds what the gate used to
//! compare against, oldest first, capped at [`HISTORY_CAP`] entries.
//!
//! Trend detection normalizes wall times by each entry's calibration
//! spin (so a slower capture machine does not read as drift) and flags
//! a slice as drifting when the normalized series ends in a strictly
//! increasing run of at least [`DRIFT_MIN_RUN`] points whose total
//! growth exceeds [`DRIFT_MIN_GROWTH`] — creep the 25%-tolerance gate
//! never fires on.

use std::path::Path;

use zr_prof::perf::{PerfReport, SliceResult};
use zr_types::json::{Json, ToJson};

/// Maximum prior runs kept per slice; the oldest entry is dropped
/// when a bless would exceed it.
pub const HISTORY_CAP: usize = 16;

/// Minimum length of the strictly-increasing suffix before a slice is
/// called drifting.
pub const DRIFT_MIN_RUN: usize = 3;

/// Minimum relative growth across the increasing suffix (0.05 = +5%).
pub const DRIFT_MIN_GROWTH: f64 = 0.05;

/// One prior blessed run of one slice — the fields the gate and the
/// trend detector care about.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryEntry {
    /// Best-run wall time, nanoseconds.
    pub wall_ns_best: u64,
    /// Work units per second at the best wall time.
    pub throughput_per_s: f64,
    /// Allocations in one run.
    pub allocs: u64,
    /// Calibration spin wall time on the capture machine (0 = unknown).
    pub calibration_wall_ns: u64,
    /// Sweep-pool width (0 = unknown).
    pub threads: u64,
    /// Process peak RSS after the slice (0 = unknown).
    pub peak_rss_bytes: u64,
}

impl HistoryEntry {
    /// Captures the history-relevant fields of a blessed slice.
    pub fn from_slice(slice: &SliceResult) -> HistoryEntry {
        HistoryEntry {
            wall_ns_best: slice.wall_ns_best,
            throughput_per_s: slice.throughput_per_s,
            allocs: slice.allocs,
            calibration_wall_ns: slice.calibration_wall_ns,
            threads: slice.threads,
            peak_rss_bytes: slice.peak_rss_bytes,
        }
    }

    /// Wall time normalized by the entry's calibration spin — a
    /// machine-independent cost figure. Falls back to raw nanoseconds
    /// when calibration is unknown.
    pub fn normalized_wall(&self) -> f64 {
        if self.calibration_wall_ns == 0 {
            self.wall_ns_best as f64
        } else {
            self.wall_ns_best as f64 / self.calibration_wall_ns as f64
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("wall_ns_best", self.wall_ns_best.to_json()),
            ("throughput_per_s", self.throughput_per_s.to_json()),
            ("allocs", self.allocs.to_json()),
            ("calibration_wall_ns", self.calibration_wall_ns.to_json()),
            ("threads", self.threads.to_json()),
            ("peak_rss_bytes", self.peak_rss_bytes.to_json()),
        ])
    }

    fn from_json(doc: &Json) -> Result<HistoryEntry, String> {
        let num = |k: &str| -> Result<u64, String> {
            doc.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("history entry: `{k}` missing or not a number"))
        };
        Ok(HistoryEntry {
            wall_ns_best: num("wall_ns_best")?,
            throughput_per_s: doc
                .get("throughput_per_s")
                .and_then(Json::as_f64)
                .ok_or("history entry: `throughput_per_s` missing")?,
            allocs: num("allocs")?,
            calibration_wall_ns: num("calibration_wall_ns")?,
            threads: num("threads")?,
            peak_rss_bytes: num("peak_rss_bytes")?,
        })
    }
}

/// Prior blessed runs per slice, oldest first, in first-seen slice
/// order (deterministic serialization).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PerfHistory {
    /// `(slice name, entries oldest -> newest)`.
    pub slices: Vec<(String, Vec<HistoryEntry>)>,
}

impl PerfHistory {
    /// Reads the `history` key of a `BENCH_perf.json` document.
    /// A missing key is an empty history (schema-1/2 files without it).
    ///
    /// # Errors
    ///
    /// Returns a message when the key is present but malformed.
    pub fn from_doc(doc: &Json) -> Result<PerfHistory, String> {
        let Some(history) = doc.get("history") else {
            return Ok(PerfHistory::default());
        };
        let Json::Obj(entries) = history else {
            return Err("perf history: `history` is not an object".into());
        };
        let mut slices = Vec::with_capacity(entries.len());
        for (name, runs) in entries {
            let runs = runs
                .as_arr()
                .ok_or_else(|| format!("perf history: `{name}` is not an array"))?;
            let mut parsed = Vec::with_capacity(runs.len());
            for run in runs {
                parsed.push(HistoryEntry::from_json(run)?);
            }
            slices.push((name.clone(), parsed));
        }
        Ok(PerfHistory { slices })
    }

    /// Serializes to the `history` key value.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.slices
                .iter()
                .map(|(name, runs)| {
                    (
                        name.clone(),
                        Json::Arr(runs.iter().map(HistoryEntry::to_json).collect()),
                    )
                })
                .collect(),
        )
    }

    /// The ring for one slice, if any runs are recorded.
    pub fn slice(&self, name: &str) -> Option<&[HistoryEntry]> {
        self.slices
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, runs)| runs.as_slice())
    }

    /// Pushes every slice of an outgoing baseline into its ring,
    /// dropping the oldest entries beyond [`HISTORY_CAP`]. A baseline
    /// whose every slice equals its ring's newest entry is already there
    /// (blessing twice from the same outgoing file), so it is not pushed
    /// again.
    pub fn push_report(&mut self, report: &PerfReport) {
        if report.slices.iter().all(|slice| {
            self.slice(&slice.name).and_then(<[_]>::last) == Some(&HistoryEntry::from_slice(slice))
        }) {
            return;
        }
        for slice in &report.slices {
            let runs = match self.slices.iter_mut().find(|(n, _)| n == &slice.name) {
                Some((_, runs)) => runs,
                None => {
                    self.slices.push((slice.name.clone(), Vec::new()));
                    &mut self.slices.last_mut().expect("just pushed").1
                }
            };
            runs.push(HistoryEntry::from_slice(slice));
            if runs.len() > HISTORY_CAP {
                let excess = runs.len() - HISTORY_CAP;
                runs.drain(..excess);
            }
        }
    }

    /// Whether any slice holds any prior run.
    pub fn is_empty(&self) -> bool {
        self.slices.iter().all(|(_, runs)| runs.is_empty())
    }
}

/// Verdict of [`detect_trend`] over one slice's normalized wall series.
#[derive(Debug, Clone, PartialEq)]
pub struct Trend {
    /// Length of the strictly-increasing suffix (1 = the last point
    /// alone, i.e. no increase).
    pub run_len: usize,
    /// Relative growth across that suffix (`last / first - 1`).
    pub growth: f64,
    /// `run_len >= DRIFT_MIN_RUN && growth > DRIFT_MIN_GROWTH`.
    pub drifting: bool,
}

/// Finds the longest strictly-increasing suffix of `points` and its
/// total relative growth. Empty input yields a non-drifting zero trend.
pub fn detect_trend(points: &[f64]) -> Trend {
    if points.is_empty() {
        return Trend {
            run_len: 0,
            growth: 0.0,
            drifting: false,
        };
    }
    let mut start = points.len() - 1;
    while start > 0 && points[start - 1] < points[start] {
        start -= 1;
    }
    let run_len = points.len() - start;
    let first = points[start];
    let last = points[points.len() - 1];
    let growth = if first > 0.0 { last / first - 1.0 } else { 0.0 };
    Trend {
        run_len,
        growth,
        drifting: run_len >= DRIFT_MIN_RUN && growth > DRIFT_MIN_GROWTH,
    }
}

/// The normalized wall series of one slice: ring entries oldest first,
/// then the current baseline slice as the newest point.
pub fn slice_series(history: &PerfHistory, current: &SliceResult) -> Vec<f64> {
    let mut points: Vec<f64> = history
        .slice(&current.name)
        .unwrap_or(&[])
        .iter()
        .map(HistoryEntry::normalized_wall)
        .collect();
    points.push(HistoryEntry::from_slice(current).normalized_wall());
    points
}

/// Renders the per-slice trajectory table for `zr-bench history`:
/// one block per baseline slice with its ring (oldest first), the
/// current baseline as the last row, and a trend verdict.
pub fn history_table(baseline: &PerfReport, history: &PerfHistory) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "perf history (cap {HISTORY_CAP} prior runs per slice, quick={})\n",
        baseline.quick
    ));
    if baseline.slices.is_empty() {
        out.push_str("no slices in baseline\n");
        return out;
    }
    for slice in &baseline.slices {
        let ring = history.slice(&slice.name).unwrap_or(&[]);
        out.push_str(&format!(
            "\n{} ({} prior run(s)):\n",
            slice.name,
            ring.len()
        ));
        out.push_str(&format!(
            "  {:>4} {:>12} {:>14} {:>10} {:>8} {:>10}\n",
            "run", "wall(ms)", "norm_wall", "allocs", "threads", "cal(ms)"
        ));
        let current = HistoryEntry::from_slice(slice);
        for (idx, entry) in ring.iter().chain(std::iter::once(&current)).enumerate() {
            let marker = if idx == ring.len() { "now" } else { "" };
            out.push_str(&format!(
                "  {:>4} {:>12.3} {:>14.6} {:>10} {:>8} {:>10.2} {}\n",
                idx,
                entry.wall_ns_best as f64 / 1e6,
                entry.normalized_wall(),
                entry.allocs,
                entry.threads,
                entry.calibration_wall_ns as f64 / 1e6,
                marker,
            ));
        }
        let trend = detect_trend(&slice_series(history, slice));
        if trend.drifting {
            out.push_str(&format!(
                "  DRIFT: wall grew {:+.1}% over the last {} blessed runs \
                 (inside per-run tolerance, monotonic across runs)\n",
                trend.growth * 100.0,
                trend.run_len,
            ));
        } else {
            out.push_str(&format!(
                "  trend: steady (last {} point(s), {:+.1}%)\n",
                trend.run_len,
                trend.growth * 100.0,
            ));
        }
    }
    out
}

/// Serializes a baseline plus its history ring into one document —
/// the report's own keys first, then `history`.
pub fn report_with_history_json(report: &PerfReport, history: &PerfHistory) -> Json {
    let mut doc = match report.to_json() {
        Json::Obj(fields) => fields,
        other => return other,
    };
    if !history.is_empty() {
        doc.push(("history".into(), history.to_json()));
    }
    Json::Obj(doc)
}

/// Blesses `current` into `path`, carrying the history ring forward:
/// the outgoing baseline's slices are pushed into the ring (the ring
/// is reset when the outgoing run's `quick` flag differs — quick and
/// full wall times are not comparable), then the new document is
/// written. A missing or unreadable outgoing file blesses with an
/// empty ring.
///
/// # Errors
///
/// Propagates the write error.
pub fn bless_with_history(path: &Path, current: &PerfReport) -> Result<(), String> {
    let mut history = PerfHistory::default();
    if let Ok(text) = std::fs::read_to_string(path) {
        if let Ok(doc) = Json::parse(&text) {
            if let Ok(outgoing) = PerfReport::from_json(&doc) {
                if outgoing.quick == current.quick {
                    history = PerfHistory::from_doc(&doc).unwrap_or_default();
                    history.push_report(&outgoing);
                }
            }
        }
    }
    std::fs::write(
        path,
        report_with_history_json(current, &history).to_pretty(),
    )
    .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slice(name: &str, wall: u64, cal: u64) -> SliceResult {
        SliceResult {
            name: name.to_string(),
            wall_ns_runs: vec![wall],
            wall_ns_best: wall,
            work_units: 100,
            unit: "rows".to_string(),
            throughput_per_s: 100.0 / (wall as f64 / 1e9),
            allocs: 42,
            alloc_bytes: 4096,
            threads: 1,
            calibration_wall_ns: cal,
            peak_rss_bytes: 1 << 20,
        }
    }

    fn report(slices: Vec<SliceResult>) -> PerfReport {
        PerfReport {
            schema: 2,
            quick: true,
            calibration_wall_ns: 1_000_000,
            peak_rss_bytes: 1 << 20,
            slices,
        }
    }

    #[test]
    fn push_report_caps_the_ring() {
        let mut history = PerfHistory::default();
        for i in 0..(HISTORY_CAP as u64 + 5) {
            history.push_report(&report(vec![slice("s", 1000 + i, 100)]));
        }
        let ring = history.slice("s").expect("ring exists");
        assert_eq!(ring.len(), HISTORY_CAP);
        // Oldest entries were dropped: the ring starts at run 5.
        assert_eq!(ring[0].wall_ns_best, 1005);
        assert_eq!(
            ring[HISTORY_CAP - 1].wall_ns_best,
            1000 + HISTORY_CAP as u64 + 4
        );
    }

    #[test]
    fn history_round_trips_through_json() {
        let mut history = PerfHistory::default();
        history.push_report(&report(vec![slice("a", 1000, 100), slice("b", 2000, 100)]));
        history.push_report(&report(vec![slice("a", 1100, 100)]));
        let doc = Json::Obj(vec![("history".into(), history.to_json())]);
        let parsed = PerfHistory::from_doc(&doc).expect("parses");
        assert_eq!(parsed, history);
        // Byte-determinism of the serialized form.
        assert_eq!(history.to_json().to_pretty(), parsed.to_json().to_pretty());
    }

    #[test]
    fn missing_history_key_is_empty() {
        let doc = Json::obj([("schema", Json::Int(2))]);
        let history = PerfHistory::from_doc(&doc).expect("parses");
        assert!(history.is_empty());
    }

    #[test]
    fn detect_trend_flags_monotonic_growth() {
        // Three strictly increasing points, +10% total: drifting.
        let t = detect_trend(&[1.0, 1.04, 1.10]);
        assert_eq!(t.run_len, 3);
        assert!(t.drifting, "{t:?}");
        // Growth below the floor: not drifting.
        let t = detect_trend(&[1.0, 1.01, 1.02]);
        assert_eq!(t.run_len, 3);
        assert!(!t.drifting, "{t:?}");
        // A dip resets the run even with large total growth.
        let t = detect_trend(&[1.0, 2.0, 1.5, 1.6]);
        assert_eq!(t.run_len, 2);
        assert!(!t.drifting, "{t:?}");
        // Empty and single-point series are steady.
        assert!(!detect_trend(&[]).drifting);
        assert!(!detect_trend(&[5.0]).drifting);
    }

    #[test]
    fn trend_is_calibration_normalized() {
        // Wall doubled but so did calibration: the machine got slower,
        // the code did not. Normalized series is flat.
        let mut history = PerfHistory::default();
        history.push_report(&report(vec![slice("s", 1000, 100)]));
        history.push_report(&report(vec![slice("s", 1500, 150)]));
        let current = slice("s", 2000, 200);
        let series = slice_series(&history, &current);
        assert_eq!(series, vec![10.0, 10.0, 10.0]);
        assert!(!detect_trend(&series).drifting);
    }

    #[test]
    fn bless_with_history_carries_the_outgoing_baseline() {
        let dir = std::env::temp_dir().join(format!(
            "zr-insight-bless-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("BENCH_perf.json");

        // First bless: no outgoing file, empty ring.
        let first = report(vec![slice("s", 1000, 100)]);
        bless_with_history(&path, &first).expect("bless");
        let doc = Json::parse(&std::fs::read_to_string(&path).expect("read")).expect("json");
        assert!(doc.get("history").is_none(), "first bless has no history");
        assert!(PerfReport::from_json(&doc).is_ok(), "stays loadable");

        // Second bless: the first baseline lands in the ring.
        let second = report(vec![slice("s", 1200, 100)]);
        bless_with_history(&path, &second).expect("bless");
        let doc = Json::parse(&std::fs::read_to_string(&path).expect("read")).expect("json");
        let report_back = PerfReport::from_json(&doc).expect("loadable with history key");
        assert_eq!(report_back.slice("s").expect("slice").wall_ns_best, 1200);
        let history = PerfHistory::from_doc(&doc).expect("history parses");
        let ring = history.slice("s").expect("ring");
        assert_eq!(ring.len(), 1);
        assert_eq!(ring[0].wall_ns_best, 1000);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bless_resets_history_when_quick_flag_differs() {
        let dir = std::env::temp_dir().join(format!(
            "zr-insight-bless-quick-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("BENCH_perf.json");

        let quick = report(vec![slice("s", 1000, 100)]);
        bless_with_history(&path, &quick).expect("bless");
        let full = PerfReport {
            quick: false,
            ..report(vec![slice("s", 90_000, 100)])
        };
        bless_with_history(&path, &full).expect("bless");
        let doc = Json::parse(&std::fs::read_to_string(&path).expect("read")).expect("json");
        assert!(
            doc.get("history").is_none(),
            "quick-flag change resets the ring"
        );

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn history_table_marks_drift() {
        let mut history = PerfHistory::default();
        history.push_report(&report(vec![slice("s", 1000, 100)]));
        history.push_report(&report(vec![slice("s", 1100, 100)]));
        let baseline = report(vec![slice("s", 1250, 100)]);
        let table = history_table(&baseline, &history);
        assert!(table.contains("DRIFT"), "{table}");
        assert!(table.contains("+25.0%"), "{table}");
        // Steady series prints no drift line.
        let steady = history_table(
            &report(vec![slice("s", 1000, 100)]),
            &PerfHistory::default(),
        );
        assert!(!steady.contains("DRIFT"), "{steady}");
        assert!(steady.contains("trend: steady"), "{steady}");
    }
}
