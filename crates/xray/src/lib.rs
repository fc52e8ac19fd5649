//! Charge-domain observability for the ZERO-REFRESH simulator.
//!
//! The fig14/15/16 reports say *how much* refresh the charge-aware
//! policy saves; this crate answers *where the savings come from*. An
//! opt-in recorder ([`XrayRecorder`], activated by `ZR_XRAY`) is hooked
//! into the refresh engine and the value-transform pipeline and
//! captures:
//!
//! - a **windowed time series** — per (bank, AR set, retention window)
//!   rows refreshed / rows skipped / discharged-row counts, plus each
//!   bank's end-of-window discharged state, in a compact columnar
//!   buffer with bounded memory (window buckets downsample 2× past
//!   `ZR_XRAY_WINDOWS`, default 64, so captures never grow with run
//!   length);
//! - a **transform-stage attribution** — every encoded line charges
//!   each enabled pipeline stage (EBDI, bit-plane transposition,
//!   cell-aware inversion, per-row rotation) with the charged-cell
//!   delta it removed, measured by telescoping
//!   `charged_cell_count` snapshots between stages, so fig16-style
//!   savings decompose into exact per-stage contributions.
//!
//! The capture exports as `xray.json` (schema 1, printed by the
//! byte-deterministic `zr_types::json` codec) plus a CSV of the time series, and the
//! `zr-xray` CLI renders bank×window skip-fraction heatmaps, the
//! per-stage savings table, and diffs of two captures.
//!
//! The determinism contract matches the rest of the observability
//! stack (`docs/TELEMETRY.md`, `docs/PARALLELISM.md`):
//!
//! - **off** (default): every hook is a single relaxed atomic load —
//!   zero allocations in the refresh hot loop (proven by
//!   `crates/prof/tests/xray_alloc_free.rs`) and byte-identical stdout;
//! - **on**: the parallel sweep layer forks a private memory recorder
//!   per job and [`XrayRecorder::absorb`]s them in submission order, so
//!   `xray.json` is byte-identical at any `ZR_THREADS`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod recorder;
pub mod report;
pub mod snapshot;

pub use recorder::{XrayRecorder, DEFAULT_WINDOW_CAP};
pub use snapshot::{
    combo_name, stage_combo, ArRow, BankStateRow, EngineCapture, StageCapture, XraySnapshot,
    COMBO_COUNT, SCHEMA_VERSION, STAGE_COUNT, STAGE_NAMES,
};

use std::path::Path;

/// File name of the JSON capture inside an export directory.
pub const JSON_FILE_NAME: &str = "xray.json";

/// File name of the CSV time series inside an export directory.
pub const CSV_FILE_NAME: &str = "xray.csv";

/// Writes a recorder's capture to `<dir>/xray.json` and `<dir>/xray.csv`,
/// creating the directory if needed.
///
/// # Errors
///
/// Returns the underlying IO error if the directory or either file
/// cannot be written.
pub fn export_capture(recorder: &XrayRecorder, dir: &Path) -> std::io::Result<()> {
    let snap = recorder.snapshot();
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join(JSON_FILE_NAME), snap.to_json().to_pretty())?;
    std::fs::write(dir.join(CSV_FILE_NAME), snap.to_csv())?;
    Ok(())
}

/// Reads a capture back from an `xray.json` file.
///
/// # Errors
///
/// Returns a description naming the path on IO, JSON or schema errors.
pub fn load_snapshot(path: &Path) -> Result<XraySnapshot, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = zr_types::json::Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    XraySnapshot::from_json(&doc).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_and_load_round_trip() {
        let dir = std::env::temp_dir().join(format!("zr-xray-export-{}", std::process::id()));
        let recorder = XrayRecorder::memory_with_cap(8);
        let e = recorder.announce_engine("fig14/mcf", "charge_aware", 2, 2);
        recorder.record_ar(e, 0, 1, 0, 12, 4, 4);
        recorder.record_window_state(e, 0, 1, 4);
        recorder.record_encode(
            stage_combo(true, false, true, false),
            256,
            [40, 0, 16, 0],
            200,
        );
        export_capture(&recorder, &dir).unwrap();
        let back = load_snapshot(&dir.join(JSON_FILE_NAME)).unwrap();
        assert_eq!(back, recorder.snapshot());
        let csv = std::fs::read_to_string(dir.join(CSV_FILE_NAME)).unwrap();
        assert!(csv.contains("0,fig14/mcf,charge_aware,0,1,0,12,4,4\n"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_reports_missing_file_with_path() {
        let err = load_snapshot(Path::new("/nonexistent/xray.json")).unwrap_err();
        assert!(err.contains("/nonexistent/xray.json"), "{err}");
    }
}
