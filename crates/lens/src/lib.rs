//! `zr-lens`: unified run manifests, cross-layer reconciliation audit,
//! and a self-contained HTML dashboard.
//!
//! The observability stack grew one layer at a time — telemetry
//! counters, the trace flight recorder, xray charge-domain captures,
//! the span profiler, perf baselines — and each layer writes its own
//! artifact in its own format. `zr-lens` ties them back together:
//!
//! - [`manifest`] — every instrumented run writes one `manifest.json`
//!   recording *what ran* (figure, config hash, seed, threads, env
//!   knobs, refresh totals) and *what it left behind* (relative path,
//!   byte length and FNV-1a checksum of every artifact). Run-to-run
//!   varying facts (wall time, peak RSS, wall-bearing artifact
//!   checksums) are quarantined under one `volatile` key so the rest
//!   of the document is byte-deterministic.
//! - [`audit`](mod@audit) — `zr-lens audit manifest.json` cross-checks
//!   the layers against each other (counters ↔ totals ↔ xray rows ↔
//!   trace records ↔ span counts) and fails loudly on the first
//!   disagreement, naming `(layer, key, lhs, rhs)`.
//! - [`html`] — `zr-lens html manifest.json` renders one
//!   self-contained dashboard file: span timeline, call-weighted
//!   flamegraph, per-bank × window skip heatmaps, transform-stage
//!   savings, and perf-history sparklines. No network, no wall-clock
//!   numbers — the file is byte-identical across runs and thread
//!   counts.
//!
//! The crate deliberately depends only on the format-owning crates it
//! parses (`zr-telemetry`, `zr-trace`, `zr-xray`, `zr-prof`, and
//! `zr-insight` for the `BENCH_perf.json` history), each read through
//! its own `from_json` over the shared `zr_types::json` codec.

#![warn(missing_docs)]

pub mod audit;
pub mod html;
pub mod manifest;
pub mod run;

pub use audit::{audit, audit_run, AuditReport, Mismatch};
pub use html::render;
pub use manifest::{
    collect_artifacts, drain_artifacts, fnv64, hex64, register_artifact, relativize, Artifact,
    Manifest, RunTotals, Volatile, FILE_NAME,
};
pub use run::LoadedRun;
