//! `zr-prof` writing into a pipe whose reader is already gone, as in
//! `zr-prof report BENCH_profile.json | head`: the report stops quietly
//! and the command keeps its own exit status instead of dying in a
//! broken-pipe panic (exit 101).

use std::process::{Command, Output, Stdio};

/// The blessed span profile at the repository root.
const PROFILE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_profile.json");

fn zr_prof(args: &[&str], stdout: Stdio) -> Output {
    Command::new(env!("CARGO_BIN_EXE_zr-prof"))
        .args(args)
        .stdout(stdout)
        .stderr(Stdio::piped())
        .output()
        .expect("spawn zr-prof")
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
fn every_report_survives_a_closed_pipe() {
    // Control: with a live reader the report prints.
    let live = zr_prof(&["report", PROFILE], Stdio::piped());
    assert_quiet_exit(&live, 0, "report with a live reader");
    assert!(!live.stdout.is_empty());

    for args in [
        &["report", PROFILE][..],
        &["folded", PROFILE],
        &["diff", PROFILE, PROFILE],
    ] {
        assert_quiet_exit(&zr_prof(args, closed_pipe()), 0, &args.join(" "));
    }
    // A failing command keeps its status into a closed pipe too.
    let missing = zr_prof(&["report", "no-such-profile.json"], closed_pipe());
    assert_quiet_exit(&missing, 1, "report of a missing file");
}
