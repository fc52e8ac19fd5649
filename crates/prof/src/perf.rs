//! The perf-regression harness: machine-readable `BENCH_perf.json`
//! reports and the tolerance-aware gate against a checked-in baseline.
//!
//! A [`PerfReport`] holds one [`SliceResult`] per standardized slice
//! (best-of-N wall time, work-unit throughput, allocation counts)
//! plus a process peak-RSS reading and a *calibration* measurement — a
//! fixed pure-CPU spin whose wall time captures how fast the current
//! machine is. The gate ([`gate`]) scales the baseline's wall times by
//! the calibration ratio before comparing, so a baseline blessed on one
//! machine remains meaningful on another; allocation counts are
//! machine-independent and compare unscaled.
//!
//! Blessing mirrors `zr-conform`'s golden gates: run with `ZR_BLESS=1`
//! (`zr_types::knobs::BLESS`) to rewrite the baseline instead of comparing.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use zr_types::json::{Json, ToJson};

/// Measurements of one standardized slice.
#[derive(Debug, Clone, PartialEq)]
pub struct SliceResult {
    /// Slice name (`fig14_subset`, `dram_refresh_soak`, ...).
    pub name: String,
    /// Wall time of every run, nanoseconds, in run order.
    pub wall_ns_runs: Vec<u64>,
    /// Minimum of `wall_ns_runs` — the least-noise estimate (scheduler
    /// preemption only ever adds time), and what the gate compares.
    pub wall_ns_best: u64,
    /// Simulated work performed per run (rows visited, lines encoded).
    pub work_units: u64,
    /// Unit of `work_units` (`rows`, `lines`).
    pub unit: String,
    /// `work_units` per second at the best wall time.
    pub throughput_per_s: f64,
    /// Allocations in one run (median across runs; 0 without the
    /// counting allocator).
    pub allocs: u64,
    /// Bytes requested in one run (median across runs).
    pub alloc_bytes: u64,
    /// Sweep-pool width the slice ran at (0 = unknown, schema-1 files).
    /// The gate refuses to compare slices captured at different widths.
    pub threads: u64,
    /// Wall time of the calibration spin on the capture machine,
    /// nanoseconds (0 = unknown). Recorded per slice so history entries
    /// and diffs stay self-describing after the report splits apart.
    pub calibration_wall_ns: u64,
    /// Process peak RSS in bytes right after the slice's runs
    /// (0 = unknown or off Linux). Monotone across the process, so
    /// later slices bound earlier ones from above.
    pub peak_rss_bytes: u64,
}

impl SliceResult {
    /// Builds a slice result from per-run measurements: best-run wall
    /// time and throughput, median allocation counts.
    pub fn from_runs(
        name: &str,
        wall_ns_runs: Vec<u64>,
        work_units: u64,
        unit: &str,
        allocs_runs: Vec<u64>,
        bytes_runs: Vec<u64>,
    ) -> SliceResult {
        let wall_ns_best = wall_ns_runs.iter().copied().min().unwrap_or(0);
        let throughput_per_s = if wall_ns_best == 0 {
            0.0
        } else {
            work_units as f64 / (wall_ns_best as f64 / 1e9)
        };
        SliceResult {
            name: name.to_string(),
            wall_ns_runs,
            wall_ns_best,
            work_units,
            unit: unit.to_string(),
            throughput_per_s,
            allocs: median(allocs_runs),
            alloc_bytes: median(bytes_runs),
            threads: 0,
            calibration_wall_ns: 0,
            peak_rss_bytes: 0,
        }
    }

    /// Allocations per simulated work unit — the single number ROADMAP
    /// item 1 drives toward zero. 0.0 when the slice did no work.
    pub fn allocs_per_work_unit(&self) -> f64 {
        if self.work_units == 0 {
            0.0
        } else {
            self.allocs as f64 / self.work_units as f64
        }
    }
}

/// One full harness run: calibration, peak RSS and every slice.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// Format version of the document.
    pub schema: u32,
    /// Whether the run used the reduced `--quick` workloads.
    pub quick: bool,
    /// Wall time of the fixed calibration spin, nanoseconds.
    pub calibration_wall_ns: u64,
    /// Process peak RSS in bytes at the end of the run (0 off Linux).
    pub peak_rss_bytes: u64,
    /// Per-slice results.
    pub slices: Vec<SliceResult>,
}

impl PerfReport {
    /// Serializes to the `BENCH_perf.json` document.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", self.schema.to_json()),
            ("quick", Json::Bool(self.quick)),
            ("calibration_wall_ns", self.calibration_wall_ns.to_json()),
            ("peak_rss_bytes", self.peak_rss_bytes.to_json()),
            (
                "slices",
                Json::Arr(
                    self.slices
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("name", s.name.to_json()),
                                ("wall_ns_runs", s.wall_ns_runs.to_json()),
                                ("wall_ns_best", s.wall_ns_best.to_json()),
                                ("work_units", s.work_units.to_json()),
                                ("unit", s.unit.to_json()),
                                ("throughput_per_s", s.throughput_per_s.to_json()),
                                ("allocs", s.allocs.to_json()),
                                ("alloc_bytes", s.alloc_bytes.to_json()),
                                ("allocs_per_work_unit", s.allocs_per_work_unit().to_json()),
                                ("threads", s.threads.to_json()),
                                ("calibration_wall_ns", s.calibration_wall_ns.to_json()),
                                ("peak_rss_bytes", s.peak_rss_bytes.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses a `BENCH_perf.json` document.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or mistyped field.
    pub fn from_json(doc: &Json) -> Result<PerfReport, String> {
        let num = |k: &str| -> Result<u64, String> {
            doc.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("BENCH_perf.json: `{k}` missing or not a number"))
        };
        let slices_json = doc
            .get("slices")
            .and_then(Json::as_arr)
            .ok_or("BENCH_perf.json: missing `slices` array")?;
        let mut slices = Vec::with_capacity(slices_json.len());
        for (i, s) in slices_json.iter().enumerate() {
            let sfield = |k: &str| {
                s.get(k).and_then(Json::as_u64).ok_or_else(|| {
                    format!("BENCH_perf.json: slices[{i}].{k} missing or not a number")
                })
            };
            slices.push(SliceResult {
                name: s
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("BENCH_perf.json: slices[{i}].name missing"))?
                    .to_string(),
                wall_ns_runs: s
                    .get("wall_ns_runs")
                    .and_then(Json::as_arr)
                    .map(|a| a.iter().filter_map(Json::as_u64).collect())
                    .unwrap_or_default(),
                wall_ns_best: sfield("wall_ns_best")?,
                work_units: sfield("work_units")?,
                unit: s
                    .get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or("units")
                    .to_string(),
                throughput_per_s: s
                    .get("throughput_per_s")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0),
                allocs: sfield("allocs")?,
                alloc_bytes: sfield("alloc_bytes")?,
                // Absent in schema-1 documents; 0 means "unknown".
                threads: s.get("threads").and_then(Json::as_u64).unwrap_or(0),
                calibration_wall_ns: s
                    .get("calibration_wall_ns")
                    .and_then(Json::as_u64)
                    .unwrap_or(0),
                peak_rss_bytes: s.get("peak_rss_bytes").and_then(Json::as_u64).unwrap_or(0),
            });
        }
        let schema = num("schema")?;
        Ok(PerfReport {
            schema: u32::try_from(schema)
                .map_err(|_| format!("BENCH_perf.json: `schema` = {schema} exceeds u32"))?,
            quick: matches!(doc.get("quick"), Some(Json::Bool(true))),
            calibration_wall_ns: num("calibration_wall_ns")?,
            peak_rss_bytes: num("peak_rss_bytes")?,
            slices,
        })
    }

    /// Writes the pretty-printed document to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the IO error as a string.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        std::fs::write(path, self.to_json().to_pretty())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }

    /// Loads and parses a report from `path`.
    ///
    /// # Errors
    ///
    /// IO or parse errors as strings.
    pub fn load(path: &Path) -> Result<PerfReport, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        PerfReport::from_json(&doc)
    }

    /// Slice by name.
    pub fn slice(&self, name: &str) -> Option<&SliceResult> {
        self.slices.iter().find(|s| s.name == name)
    }
}

/// Median of `values` (lower-middle for even counts; 0 when empty).
pub fn median(mut values: Vec<u64>) -> u64 {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    values[(values.len() - 1) / 2]
}

/// Iterations of the calibration spin for full (`false`) and `--quick`
/// (`true`) runs.
pub fn calibration_iters(quick: bool) -> u64 {
    if quick {
        20_000_000
    } else {
        80_000_000
    }
}

/// Runs the fixed pure-CPU calibration spin (an LCG over `iters`
/// iterations) and returns its wall time in nanoseconds. The work is
/// identical on every machine, so the ratio of two calibration times
/// approximates the machines' relative single-thread speed.
pub fn calibrate(iters: u64) -> u64 {
    let start = Instant::now();
    let mut x = 0x5EEDu64;
    for _ in 0..iters {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
    }
    black_box(x);
    start.elapsed().as_nanos() as u64
}

/// Best-of-`reps` calibration: the minimum wall time of `reps` spins.
/// Scheduler preemption and frequency ramps only ever *add* time, so
/// the minimum is the most stable estimate of machine speed — a single
/// spin is noisy enough to trip the gate on an unchanged build.
pub fn calibrate_best(iters: u64, reps: u32) -> u64 {
    (0..reps.max(1))
        .map(|_| calibrate(iters))
        .min()
        .unwrap_or(0)
}

/// The process-wide calibration reading used to stamp profile captures
/// ([`crate::capture_snapshot`]): a quick best-of-2 spin, measured once
/// per process and cached. Cheap enough (~10 ms) that capture sites can
/// call it unconditionally; cached so repeated captures in one run
/// carry the same factor.
pub fn capture_calibration() -> u64 {
    static CACHED: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *CACHED.get_or_init(|| calibrate_best(calibration_iters(true), 2))
}

/// Relative tolerances of the regression gate.
#[derive(Debug, Clone, Copy)]
pub struct Tolerance {
    /// Allowed relative wall-time growth after calibration scaling
    /// (0.25 = fail beyond +25%).
    pub wall_rel: f64,
    /// Allowed relative allocation-count growth (unscaled).
    pub alloc_rel: f64,
}

impl Default for Tolerance {
    fn default() -> Self {
        Tolerance {
            wall_rel: 0.25,
            alloc_rel: 0.25,
        }
    }
}

/// The checked-in baseline location: `BENCH_perf.json` at the repo
/// root.
pub fn default_baseline_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_perf.json")
}

/// What the gate decided.
#[derive(Debug, Clone, PartialEq)]
pub enum GateOutcome {
    /// The baseline was (re)written from the current run.
    Blessed,
    /// Every slice within tolerance; notes carry per-slice summaries.
    Pass {
        /// One human line per compared slice.
        notes: Vec<String>,
    },
    /// At least one slice regressed (or the baseline is unusable).
    Fail {
        /// One line per problem.
        problems: Vec<String>,
    },
}

/// The pure gate decision: compares `current` against `baseline`
/// (scaling baseline wall times by the calibration ratio), or decides
/// [`GateOutcome::Blessed`] when `bless` is set. A missing baseline
/// without `bless` fails with a hint to re-bless.
pub fn gate(
    baseline: Option<&PerfReport>,
    current: &PerfReport,
    tol: &Tolerance,
    bless: bool,
) -> GateOutcome {
    if bless {
        return GateOutcome::Blessed;
    }
    let Some(baseline) = baseline else {
        return GateOutcome::Fail {
            problems: vec![
                "no baseline BENCH_perf.json; run with ZR_BLESS=1 to create it".to_string(),
            ],
        };
    };
    if baseline.quick != current.quick {
        return GateOutcome::Fail {
            problems: vec![format!(
                "baseline was recorded with quick={}, current run has quick={}; \
                 re-run matching the baseline or re-bless",
                baseline.quick, current.quick
            )],
        };
    }
    // How much slower (>1) or faster (<1) this machine is than the one
    // that blessed the baseline, clamped so a broken calibration cannot
    // wash out a real regression.
    let scale = if baseline.calibration_wall_ns == 0 {
        1.0
    } else {
        (current.calibration_wall_ns as f64 / baseline.calibration_wall_ns as f64).clamp(0.25, 4.0)
    };
    let mut notes = Vec::new();
    let mut problems = Vec::new();
    for base in &baseline.slices {
        let Some(cur) = current.slice(&base.name) else {
            problems.push(format!("slice `{}` missing from current run", base.name));
            continue;
        };
        // A 1-thread capture and a 4-thread capture of the same slice
        // measure different things; never compare them silently. Zero
        // means "unknown" (schema-1 baselines) and stays comparable.
        if base.threads > 0 && cur.threads > 0 && base.threads != cur.threads {
            problems.push(format!(
                "slice `{}`: baseline captured at {} thread(s), current run at {}; \
                 re-run with matching ZR_THREADS or re-bless",
                base.name, base.threads, cur.threads
            ));
            continue;
        }
        let wall_limit = base.wall_ns_best as f64 * scale * (1.0 + tol.wall_rel);
        let ratio = if base.wall_ns_best == 0 {
            1.0
        } else {
            cur.wall_ns_best as f64 / (base.wall_ns_best as f64 * scale)
        };
        if (cur.wall_ns_best as f64) > wall_limit {
            problems.push(format!(
                "slice `{}`: wall {:.2} ms vs limit {:.2} ms ({:+.1}% after calibration, \
                 tolerance {:.0}%)",
                base.name,
                cur.wall_ns_best as f64 / 1e6,
                wall_limit / 1e6,
                (ratio - 1.0) * 100.0,
                tol.wall_rel * 100.0,
            ));
        } else {
            notes.push(format!(
                "slice `{}`: wall {:.2} ms ({:+.1}% vs baseline after calibration), \
                 {:.0} {}/s",
                base.name,
                cur.wall_ns_best as f64 / 1e6,
                (ratio - 1.0) * 100.0,
                cur.throughput_per_s,
                cur.unit,
            ));
        }
        if base.allocs > 0 {
            let alloc_limit = base.allocs as f64 * (1.0 + tol.alloc_rel);
            if cur.allocs as f64 > alloc_limit {
                problems.push(format!(
                    "slice `{}`: {} allocations vs baseline {} (tolerance {:.0}%)",
                    base.name,
                    cur.allocs,
                    base.allocs,
                    tol.alloc_rel * 100.0,
                ));
            }
        }
    }
    if problems.is_empty() {
        GateOutcome::Pass { notes }
    } else {
        GateOutcome::Fail { problems }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slice(name: &str, wall: u64, allocs: u64) -> SliceResult {
        SliceResult::from_runs(
            name,
            vec![wall, wall + 1, wall.saturating_sub(1)],
            1000,
            "rows",
            vec![allocs; 3],
            vec![allocs * 64; 3],
        )
    }

    fn report(cal: u64, slices: Vec<SliceResult>) -> PerfReport {
        PerfReport {
            schema: 1,
            quick: false,
            calibration_wall_ns: cal,
            peak_rss_bytes: 1 << 20,
            slices,
        }
    }

    #[test]
    fn median_of_runs() {
        assert_eq!(median(vec![]), 0);
        assert_eq!(median(vec![7]), 7);
        assert_eq!(median(vec![3, 1, 2]), 2);
        assert_eq!(median(vec![4, 1, 3, 2]), 2);
    }

    #[test]
    fn report_json_round_trips() {
        let r = report(5_000_000, vec![slice("a", 1_000_000, 42)]);
        let text = r.to_json().to_pretty();
        let back = PerfReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn rejects_schema_beyond_u32() {
        // 2^32 + 3 used to load as schema 3.
        let mut doc = report(1, vec![slice("a", 1, 1)]).to_json();
        if let Json::Obj(fields) = &mut doc {
            let schema = fields.iter_mut().find(|(k, _)| k == "schema").unwrap();
            schema.1 = Json::Int((1 << 32) + 3);
        }
        assert_eq!(
            PerfReport::from_json(&doc).unwrap_err(),
            "BENCH_perf.json: `schema` = 4294967299 exceeds u32"
        );
    }

    #[test]
    fn gate_passes_unchanged_run() {
        let base = report(1_000_000, vec![slice("a", 2_000_000, 100)]);
        let out = gate(Some(&base), &base.clone(), &Tolerance::default(), false);
        match out {
            GateOutcome::Pass { notes } => assert_eq!(notes.len(), 1),
            other => panic!("expected pass: {other:?}"),
        }
    }

    #[test]
    fn gate_fails_on_wall_regression_and_alloc_growth() {
        let base = report(
            1_000_000,
            vec![slice("a", 2_000_000, 100), slice("b", 1_000_000, 0)],
        );
        let cur = report(
            1_000_000,
            vec![slice("a", 3_000_000, 200), slice("b", 1_000_000, 5)],
        );
        match gate(Some(&base), &cur, &Tolerance::default(), false) {
            GateOutcome::Fail { problems } => {
                // Slice `a` regressed on both wall and allocations;
                // slice `b` had a zero-alloc baseline and is not
                // alloc-gated.
                assert_eq!(problems.len(), 2, "{problems:?}");
                assert!(problems[0].contains("wall"));
                assert!(problems[1].contains("allocations"));
            }
            other => panic!("expected fail: {other:?}"),
        }
    }

    #[test]
    fn gate_scales_wall_time_by_calibration() {
        let base = report(1_000_000, vec![slice("a", 2_000_000, 100)]);
        // Same workload wall time doubled, but the machine is 2x slower
        // per the calibration spin: within tolerance.
        let cur = report(2_000_000, vec![slice("a", 4_000_000, 100)]);
        assert!(matches!(
            gate(Some(&base), &cur, &Tolerance::default(), false),
            GateOutcome::Pass { .. }
        ));
        // Without the slowdown the same numbers fail.
        let cur_fast_machine = report(1_000_000, vec![slice("a", 4_000_000, 100)]);
        assert!(matches!(
            gate(Some(&base), &cur_fast_machine, &Tolerance::default(), false),
            GateOutcome::Fail { .. }
        ));
    }

    #[test]
    fn gate_bless_and_missing_baseline_paths() {
        let cur = report(1, vec![slice("a", 1, 1)]);
        assert_eq!(
            gate(None, &cur, &Tolerance::default(), true),
            GateOutcome::Blessed
        );
        match gate(None, &cur, &Tolerance::default(), false) {
            GateOutcome::Fail { problems } => assert!(problems[0].contains("ZR_BLESS")),
            other => panic!("expected fail: {other:?}"),
        }
    }

    #[test]
    fn gate_flags_missing_slice_and_quick_mismatch() {
        let base = report(1_000_000, vec![slice("a", 1_000_000, 1), slice("b", 1, 1)]);
        let cur = report(1_000_000, vec![slice("a", 1_000_000, 1)]);
        match gate(Some(&base), &cur, &Tolerance::default(), false) {
            GateOutcome::Fail { problems } => {
                assert!(problems.iter().any(|p| p.contains("`b` missing")))
            }
            other => panic!("expected fail: {other:?}"),
        }
        let mut quick = base.clone();
        quick.quick = true;
        assert!(matches!(
            gate(Some(&base), &quick, &Tolerance::default(), false),
            GateOutcome::Fail { .. }
        ));
    }

    #[test]
    fn slice_metadata_round_trips_and_defaults_to_zero() {
        let mut s = slice("a", 1_000_000, 42);
        s.threads = 4;
        s.calibration_wall_ns = 9_000_000;
        s.peak_rss_bytes = 2 << 20;
        let r = report(5_000_000, vec![s]);
        let back = PerfReport::from_json(&Json::parse(&r.to_json().to_pretty()).unwrap()).unwrap();
        assert_eq!(back, r);
        // Schema-1 slices (no metadata keys) parse with zeros.
        let doc = Json::parse(
            r#"{"schema": 1, "calibration_wall_ns": 1, "peak_rss_bytes": 1,
                "slices": [{"name": "a", "wall_ns_best": 1, "work_units": 1,
                            "allocs": 0, "alloc_bytes": 0}]}"#,
        )
        .unwrap();
        let old = PerfReport::from_json(&doc).unwrap();
        assert_eq!(old.slices[0].threads, 0);
        assert_eq!(old.slices[0].calibration_wall_ns, 0);
        assert_eq!(old.slices[0].peak_rss_bytes, 0);
    }

    #[test]
    fn allocs_per_work_unit_is_derived() {
        let s = slice("a", 1_000_000, 500);
        assert!((s.allocs_per_work_unit() - 0.5).abs() < 1e-12);
        let mut idle = s.clone();
        idle.work_units = 0;
        assert_eq!(idle.allocs_per_work_unit(), 0.0);
        // The derived value is emitted in the JSON document.
        let text = report(1, vec![s]).to_json().to_pretty();
        assert!(text.contains("allocs_per_work_unit"));
    }

    #[test]
    fn gate_refuses_thread_count_mismatch() {
        let mut base_slice = slice("a", 2_000_000, 100);
        base_slice.threads = 1;
        let mut cur_slice = base_slice.clone();
        cur_slice.threads = 4;
        let base = report(1_000_000, vec![base_slice.clone()]);
        let cur = report(1_000_000, vec![cur_slice]);
        match gate(Some(&base), &cur, &Tolerance::default(), false) {
            GateOutcome::Fail { problems } => {
                assert!(problems[0].contains("1 thread(s)"), "{problems:?}");
                assert!(problems[0].contains("at 4"), "{problems:?}");
            }
            other => panic!("expected fail: {other:?}"),
        }
        // Unknown (0) on either side stays comparable: schema-1 files.
        let mut unknown = base_slice;
        unknown.threads = 0;
        let old = report(1_000_000, vec![unknown]);
        assert!(matches!(
            gate(Some(&old), &cur, &Tolerance::default(), false),
            GateOutcome::Pass { .. }
        ));
    }

    #[test]
    fn capture_calibration_is_cached_and_nonzero() {
        let a = capture_calibration();
        let b = capture_calibration();
        assert!(a > 0);
        assert_eq!(a, b);
    }

    #[test]
    fn write_load_round_trips_through_disk() {
        let dir = std::env::temp_dir().join(format!("zr-prof-perf-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_perf.json");
        let r = report(123, vec![slice("a", 456, 7)]);
        r.write(&path).unwrap();
        assert_eq!(PerfReport::load(&path).unwrap(), r);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn calibration_spin_takes_measurable_time() {
        let ns = calibrate(1_000_000);
        assert!(ns > 0);
    }
}
