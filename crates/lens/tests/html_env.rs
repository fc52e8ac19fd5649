//! The dashboard's environment table follows the knob table's columns:
//! the schedule knob is left out (it varies between byte-identical
//! runs), path knobs show only whether they were set (their values are
//! run-local), and every other recorded knob shows its value.

use std::path::PathBuf;

use zr_insight::PerfHistory;
use zr_lens::{LoadedRun, Manifest};

#[test]
fn env_table_renders_by_kind_and_grammar() {
    let mut manifest = Manifest::default();
    for (knob, value) in [
        ("ZR_THREADS", Some("4")),
        ("ZR_TRACE", Some("/run/local/trace-dir")),
        ("ZR_LENS", Some("/run/local/lens-dir")),
        ("ZR_XRAY", Some("1")),
        ("ZR_WINDOWS", Some("2")),
        ("ZR_TRACE_RING", Some("8")),
        ("ZR_XRAY_WINDOWS", None),
    ] {
        manifest
            .env
            .insert(knob.to_string(), value.map(str::to_string));
    }
    let run = LoadedRun {
        manifest_path: PathBuf::from("manifest.json"),
        manifest,
        snapshot: None,
        xray: None,
        trace: None,
        profile: None,
    };
    let html = zr_lens::render(&run, &PerfHistory::default());
    let row = |knob: &str, shown: &str| {
        format!("<tr><td class=\"l\">{knob}</td><td class=\"l\">{shown}</td></tr>")
    };
    let set = "<span class=\"muted\">set</span>";
    let unset = "<span class=\"muted\">unset</span>";
    assert!(
        !html.contains("ZR_THREADS"),
        "the schedule knob is rendered"
    );
    assert!(
        !html.contains("/run/local"),
        "a path knob's value is rendered"
    );
    for expected in [
        row("ZR_TRACE", set),
        row("ZR_LENS", set),
        row("ZR_XRAY", set),
        row("ZR_WINDOWS", "2"),
        row("ZR_TRACE_RING", "8"),
        row("ZR_XRAY_WINDOWS", unset),
    ] {
        assert!(html.contains(&expected), "missing {expected}");
    }
}
