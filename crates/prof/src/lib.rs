//! `zr-prof`: simulator self-profiling and the perf-regression harness
//! for the ZERO-REFRESH reproduction.
//!
//! Three cooperating pieces:
//!
//! * [`alloc`] — a counting wrapper around the system allocator,
//!   installed as the global allocator, with process totals,
//!   exact per-thread windows ([`alloc::AllocScope`]) and a suspend
//!   mechanism so measurement tools do not observe themselves;
//! * [`profile`] — a [`profile::Profiler`] that piggybacks on
//!   `zr-telemetry` span nesting (via [`zr_telemetry::SpanObserver`])
//!   and turns the existing instrumentation points of `zr-dram`,
//!   `zr-memctrl`, `zr-transform`, `zr-timing` and `zr-sim` into a
//!   call-tree profile with wall time, thread CPU time and allocation
//!   counts, exported as a flamegraph-compatible `.folded` file, a
//!   `profile.json`, or a human report table;
//! * [`perf`] — the `BENCH_perf.json` report model and the
//!   calibration-scaled, tolerance-aware regression gate that
//!   `zr-bench perf` runs against the checked-in baseline
//!   (`ZR_BLESS=1` re-blesses, mirroring `zr-conform`).
//!
//! The `zr-prof` binary (hosted by the `zr-insight` crate, which also
//! diffs profiles) renders saved `profile.json` documents
//! (`zr-prof report <file>`, `zr-prof folded <file>`,
//! `zr-prof diff <old> <new>`). Capture itself lives in the workloads:
//! `zr-bench profile`, or any figure binary run with `ZR_PROF=<dir>`.
//!
//! See `docs/PROFILING.md` for the workflow.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod alloc;
pub mod clock;
pub mod perf;
pub mod profile;

/// The workspace JSON codec under its old path; perfbench imports it.
pub use zr_types::json;

pub use alloc::{AllocScope, AllocStats, AllocTotals};
pub use perf::{GateOutcome, PerfReport, SliceResult, Tolerance};
pub use profile::{Profile, ProfileNode, Profiler};

/// Snapshots `profiler` and stamps the capture metadata that profile
/// diffing needs: the machine's cached quick calibration reading
/// ([`perf::capture_calibration`]) and the resolved sweep-pool width
/// (`ZR_THREADS` or the core count). Capture sites should prefer
/// this over a raw [`Profiler::snapshot`] so saved `profile.json`
/// files stay comparable across machines and thread counts.
pub fn capture_snapshot(profiler: &Profiler) -> Profile {
    let mut profile = profiler.snapshot();
    profile.calibration_wall_ns = perf::capture_calibration();
    profile.threads = zr_types::knobs::thread_count() as u64;
    profile
}

/// Writes `profile` under `dir` as `<name>.folded` and
/// `<name>_profile.json`, creating the directory.
///
/// # Errors
///
/// Propagates IO errors as strings.
pub fn export_profile(profile: &Profile, dir: &std::path::Path, name: &str) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let folded = dir.join(format!("{name}.folded"));
    std::fs::write(&folded, profile.to_folded())
        .map_err(|e| format!("cannot write {}: {e}", folded.display()))?;
    let json = dir.join(format!("{name}_profile.json"));
    std::fs::write(&json, profile.to_json().to_pretty())
        .map_err(|e| format!("cannot write {}: {e}", json.display()))
}
