//! Small fixed-width table printing helpers for the figure reports, plus
//! optional JSON emission: when `ZR_TELEMETRY=<dir>` names a directory,
//! each figure's data is written as `<dir>/<name>.json` and the attempt
//! is recorded as a [`zr_telemetry::Event::ReportWrite`] event.
//!
//! Every report line goes through [`Stdout`], so a figure binary whose
//! reader goes away (`fig4_refresh_power | head -3`) finishes its run and
//! keeps its exit status instead of dying in a broken-pipe panic.

use std::fmt::Display;
use std::io::Write;
use std::path::{Path, PathBuf};

use zr_telemetry::{Event, Telemetry};
use zr_types::json::ToJson;
use zr_types::Stdout;

/// Longest title/rule the header prints before truncating.
const HEADER_WIDTH: usize = 100;

/// Prints one report line. Once the reader has gone away the line is
/// dropped; any other write error panics, as `println!` does.
pub fn line(text: impl Display) {
    writeln!(Stdout::new(), "{text}").expect("failed printing to stdout");
}

/// Prints a report header with a rule line. Both the title and the rule
/// are clamped to the same width so they always line up.
pub fn header(title: &str) {
    let shown: String = title.chars().take(HEADER_WIDTH).collect();
    line("");
    line(&shown);
    line("=".repeat(shown.chars().count()));
}

/// Prints a table row: a left-aligned label plus fixed-width numeric
/// cells.
pub fn row(label: &str, cells: &[f64]) {
    let cells_text: String = cells.iter().map(|c| format!(" {c:>8.3}")).collect();
    line(format_args!("{label:<14}{cells_text}"));
}

/// Prints the column header line.
pub fn columns(label: &str, names: &[&str]) {
    let names_text: String = names.iter().map(|n| format!(" {n:>8}")).collect();
    line(format_args!("{label:<14}{names_text}"));
    line("-".repeat(14 + 9 * names.len()));
}

/// The report text of `data`: pretty JSON in serde_json's layout (no
/// trailing newline).
pub fn report_json<T: ToJson + ?Sized>(data: &T) -> String {
    let mut json = data.to_json().to_pretty();
    json.pop();
    json
}

/// Writes `data` as pretty JSON to `dir/<name>.json`, creating `dir`
/// if needed, and returns the path written.
///
/// # Errors
///
/// Returns a description of the directory-creation or write failure.
pub fn try_write_json_to<T: ToJson + ?Sized>(
    dir: &Path,
    name: &str,
    data: &T,
) -> Result<PathBuf, String> {
    let path = dir.join(format!("{name}.json"));
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    std::fs::write(&path, report_json(data))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

/// Writes `data` as pretty JSON to `<dir>/<name>.json` when `ZR_TELEMETRY`
/// names a directory; does nothing otherwise. The outcome —
/// success or failure — is recorded as a `report_write` telemetry event
/// and echoed on stderr; it never fails the experiment.
pub fn write_json<T: ToJson + ?Sized>(name: &str, data: &T) {
    let Some(dir) = zr_types::knobs::TELEMETRY.path() else {
        return;
    };
    write_json_with(&Telemetry::current(), &dir, name, data);
}

/// [`write_json`] against an explicit telemetry instance and directory
/// (the testable core; `write_json` binds the globals).
fn write_json_with<T: ToJson + ?Sized>(telemetry: &Telemetry, dir: &Path, name: &str, data: &T) {
    match try_write_json_to(dir, name, data) {
        Ok(path) => {
            eprintln!("[zr-bench] wrote {}", path.display());
            // Figure JSONs carry only simulation results, so they are
            // deterministic manifest artifacts.
            zr_lens::register_artifact("report", path.clone(), false);
            telemetry.emit(|| Event::ReportWrite {
                name: name.to_string(),
                path: path.display().to_string(),
                ok: true,
                error: None,
            });
        }
        Err(e) => {
            eprintln!("[zr-bench] failed to write {name}.json: {e}");
            telemetry.emit(|| Event::ReportWrite {
                name: name.to_string(),
                path: dir.join(format!("{name}.json")).display().to_string(),
                ok: false,
                error: Some(e),
            });
        }
    }
}

/// Mean of a slice (0.0 for empty input).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_works() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("zr-bench-report-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn try_write_creates_missing_directories() {
        let dir = temp_dir("missing").join("deeper/nested");
        let path = try_write_json_to(&dir, "fig_test", &vec![1.0, 2.0]).unwrap();
        assert!(path.is_file());
        assert_eq!(path.file_name().unwrap(), "fig_test.json");
        let _ = std::fs::remove_dir_all(dir.parent().unwrap().parent().unwrap());
    }

    #[test]
    fn try_write_reports_unwritable_target() {
        // A plain file where the output directory should be makes both
        // directory creation and the write fail.
        let blocker = temp_dir("blocked");
        std::fs::create_dir_all(blocker.parent().unwrap_or(Path::new("/tmp"))).unwrap();
        std::fs::write(&blocker, b"not a directory").unwrap();
        let err = try_write_json_to(&blocker, "fig_test", &vec![1.0]).unwrap_err();
        assert!(err.contains("create"), "unexpected error: {err}");
        let _ = std::fs::remove_file(&blocker);
    }

    #[test]
    fn try_write_round_trips_content() {
        let dir = temp_dir("happy");
        let rows = vec![
            ("gcc".to_string(), [0.5, 1.0]),
            ("mcf".to_string(), [1.5e-5, 0.0]),
        ];
        let path = try_write_json_to(&dir, "series", &rows).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            body,
            "[\n  [\n    \"gcc\",\n    [\n      0.5,\n      1.0\n    ]\n  ],\n  [\n    \"mcf\",\n    \
             [\n      0.000015,\n      0.0\n    ]\n  ]\n]"
        );
        assert_eq!(report_json(&Vec::<f64>::new()), "[]");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_json_records_success_and_failure_events() {
        // Hermetic: a private telemetry instance with a memory sink sees
        // one event per attempt, on both the success and failure paths.
        let telemetry = Telemetry::new();
        let sink = telemetry.install_memory_sink();
        let dir = temp_dir("events");
        write_json_with(&telemetry, &dir, "ok_case", &1.0);
        assert_eq!(sink.recorded(), 1);
        assert!(dir.join("ok_case.json").is_file());
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::write(&dir, b"file blocks dir").unwrap();
        write_json_with(&telemetry, &dir, "err_case", &1.0);
        assert_eq!(sink.recorded(), 2);
        let _ = std::fs::remove_file(&dir);
    }

    #[test]
    fn header_clamps_title_and_rule_together() {
        // The rule under the title must match the printed title's width
        // even for over-long titles; both clamp to HEADER_WIDTH.
        let long = "x".repeat(250);
        let shown: String = long.chars().take(HEADER_WIDTH).collect();
        assert_eq!(shown.chars().count(), HEADER_WIDTH);
        header(&long); // must not panic; visual check is the clamp above
    }
}
