//! `zr-bench` writing into a pipe whose reader is already gone, as in
//! `zr-bench history | head`: the report stops quietly and the command
//! keeps its own exit status instead of dying in a broken-pipe panic
//! (exit 101).

use std::process::{Command, Output, Stdio};

fn zr_bench(args: &[&str], stdout: Stdio) -> Output {
    Command::new(env!("CARGO_BIN_EXE_zr-bench"))
        .args(args)
        .stdout(stdout)
        .stderr(Stdio::piped())
        .output()
        .expect("spawn zr-bench")
}

fn assert_quiet_exit(out: &Output, code: i32, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{what} panicked: {stderr}");
    assert_eq!(out.status.code(), Some(code), "{what}: stderr {stderr}");
}

#[test]
fn history_into_closed_pipe_exits_0() {
    // Control: with a live reader the history table prints.
    let live = zr_bench(&["history"], Stdio::piped());
    assert_quiet_exit(&live, 0, "history with a live reader");
    assert!(!live.stdout.is_empty());

    // The read end is closed before the process starts, so the very
    // first write fails with `EPIPE`.
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    assert_quiet_exit(&zr_bench(&["history"], writer.into()), 0, "history");
}
