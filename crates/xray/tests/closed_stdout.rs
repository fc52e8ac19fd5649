//! `zr-xray` writing into a pipe whose reader is already gone, as in
//! `zr-xray report xray.json | head`: the report stops quietly and the
//! command keeps its own exit status instead of dying in a broken-pipe
//! panic (exit 101).

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

use zr_xray::XrayRecorder;

/// Exports a capture of one engine over `windows` windows and returns the
/// path of its `xray.json`.
fn capture(windows: u64) -> PathBuf {
    let recorder = XrayRecorder::memory_with_cap(64);
    let engine = recorder.announce_engine("closed_pipe", "charge-aware", 2, 4);
    for window in 0..windows {
        for bank in 0..2 {
            for set in 0..4 {
                recorder.record_ar(engine, window, bank, set, 3, 5, 5);
            }
            recorder.record_window_state(engine, window, bank, 20);
        }
    }
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("xray-closed-pipe");
    zr_xray::export_capture(&recorder, &dir).expect("export capture");
    dir.join(zr_xray::JSON_FILE_NAME)
}

fn zr_xray(args: &[&Path], stdout: Stdio) -> Output {
    Command::new(env!("CARGO_BIN_EXE_zr-xray"))
        .args(args)
        .stdout(stdout)
        .stderr(Stdio::piped())
        .output()
        .expect("spawn zr-xray")
}

/// Stdout is a pipe whose read end is closed before the process starts,
/// so the very first write fails with `EPIPE`.
fn closed_pipe() -> Stdio {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    writer.into()
}

fn assert_quiet_exit(out: &Output, code: i32, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{what} panicked: {stderr}");
    assert_eq!(out.status.code(), Some(code), "{what}: stderr {stderr}");
}

#[test]
fn report_and_diff_into_closed_pipe_exit_0() {
    let json = capture(64);
    let report = [Path::new("report"), &json];
    // Control: with a live reader the report prints in full.
    let live = zr_xray(&report, Stdio::piped());
    assert_quiet_exit(&live, 0, "report with a live reader");
    assert!(String::from_utf8_lossy(&live.stdout).starts_with("xray capture: 1 engine(s)"));

    assert_quiet_exit(&zr_xray(&report, closed_pipe()), 0, "report");
    let diff = [Path::new("diff"), &json, &json];
    assert_quiet_exit(&zr_xray(&diff, closed_pipe()), 0, "diff");
}
