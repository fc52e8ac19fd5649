//! # zr-insight — actionable observability over zr-prof captures
//!
//! zr-prof answers "where did this run spend its time"; zr-insight
//! answers the follow-up questions the perf gate raises:
//!
//! * **Which span regressed?** — [`diff`] loads two `profile.json`
//!   call-trees and produces per-span-path deltas of wall time,
//!   thread-CPU time, allocation count and bytes, calibration-scaled so
//!   machine speed differences cancel, with deterministic top-N
//!   rankings by self time and by allocations. `zr-bench perf` uses it
//!   to name the offending span paths when the gate fails.
//! * **Is this slice creeping?** — [`history`] extends
//!   `BENCH_perf.json` with a bounded ring of prior blessed runs per
//!   slice and flags monotonic drift that stays inside the per-run
//!   tolerance. `zr-bench history` prints the trajectory.
//!
//! The crate also hosts the `zr-prof` CLI (`report`, `folded`, and the
//! new `diff` subcommand) — it moved here from zr-prof so the binary
//! can link the diff engine without a dependency cycle.
//!
//! Everything is std-only and byte-deterministic: identical inputs
//! produce identical diff JSON and identical history documents, on any
//! thread count, which is what lets CI archive them as artifacts and
//! compare across runs.

pub mod diff;
pub mod history;

pub use diff::{
    calibration_scale, diff_profiles, load_profile, DeltaKind, ProfileDiff, SpanDelta, SCALE_CLAMP,
};
pub use history::{
    bless_with_history, detect_trend, history_table, report_with_history_json, slice_series,
    HistoryEntry, PerfHistory, Trend, DRIFT_MIN_GROWTH, DRIFT_MIN_RUN, HISTORY_CAP,
};
