//! `zr-lens html --history` reads `BENCH_perf.json` through
//! `zr_insight::PerfHistory`, the reader `zr-bench history` uses: a
//! history entry missing a field ends the command with a message naming
//! the field, where a zero used to be drawn in its place.

use std::path::Path;
use std::process::Command;

use zr_lens::Manifest;

/// Runs `zr-lens html` on an empty run with a one-entry history whose
/// entry holds `fields`; returns the exit code, stderr and the dashboard
/// (`None` when none was written).
fn html_with_history_entry(tag: &str, fields: &str) -> (Option<i32>, String, Option<String>) {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("html-history-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    let manifest = Manifest {
        figure: "history".into(),
        ..Manifest::default()
    }
    .write(&dir)
    .expect("write manifest");
    let history = dir.join("BENCH_perf.json");
    let doc = format!(r#"{{ "schema": 3, "history": {{ "fig14_subset": [{{ {fields} }}] }} }}"#);
    std::fs::write(&history, doc).expect("write history");
    let html = dir.join("lens.html");
    let out = Command::new(env!("CARGO_BIN_EXE_zr-lens"))
        .arg("html")
        .arg(&manifest)
        .arg("--history")
        .arg(&history)
        .arg("--out")
        .arg(&html)
        .output()
        .expect("spawn zr-lens");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        std::fs::read_to_string(&html).ok(),
    )
}

#[test]
fn history_entry_missing_a_field_is_rejected_by_name() {
    let complete = r#""wall_ns_best": 100, "throughput_per_s": 1.5, "allocs": 3,
        "calibration_wall_ns": 10, "threads": 1, "peak_rss_bytes": 0"#;
    let (code, stderr, html) = html_with_history_entry("complete", complete);
    assert_eq!(code, Some(0), "{stderr}");
    let html = html.expect("dashboard written");
    assert!(
        html.contains("<strong>fig14_subset</strong> (1 blessed runs)"),
        "{html}"
    );

    let missing = complete.replace(r#""calibration_wall_ns": 10, "#, "");
    let (code, stderr, html) = html_with_history_entry("missing", &missing);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.contains("`calibration_wall_ns` missing"),
        "stderr does not name the field: {stderr}"
    );
    assert!(html.is_none(), "a dashboard was written");
}
