//! `zr-bench` and the figure binaries writing into a pipe whose reader is
//! already gone, as in `zr-bench history | head`: the report stops
//! quietly and the command keeps its own exit status instead of dying in
//! a broken-pipe panic (exit 101).

use std::process::{Command, Output, Stdio};

fn run(exe: &str, args: &[&str], stdout: Stdio) -> Output {
    Command::new(exe)
        .args(args)
        .stdout(stdout)
        .stderr(Stdio::piped())
        .output()
        .unwrap_or_else(|e| panic!("spawn {exe}: {e}"))
}

fn assert_quiet_exit(out: &Output, code: i32, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{what} panicked: {stderr}");
    assert_eq!(out.status.code(), Some(code), "{what}: stderr {stderr}");
}

/// With a live reader `exe args` prints and exits 0; into a pipe whose
/// read end is closed before the process starts, so that the very first
/// write fails with `EPIPE`, it still exits 0.
fn assert_survives_closed_pipe(exe: &str, args: &[&str], what: &str) {
    let live = run(exe, args, Stdio::piped());
    assert_quiet_exit(&live, 0, &format!("{what} with a live reader"));
    assert!(!live.stdout.is_empty(), "{what} printed nothing");

    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    assert_quiet_exit(&run(exe, args, writer.into()), 0, what);
}

#[test]
fn history_into_closed_pipe_exits_0() {
    assert_survives_closed_pipe(env!("CARGO_BIN_EXE_zr-bench"), &["history"], "history");
}

#[test]
fn figures_into_closed_pipe_exit_0() {
    for (exe, what) in [
        (
            env!("CARGO_BIN_EXE_fig4_refresh_power"),
            "fig4_refresh_power",
        ),
        (env!("CARGO_BIN_EXE_table1_traces"), "table1_traces"),
        (env!("CARGO_BIN_EXE_tablex_overheads"), "tablex_overheads"),
    ] {
        assert_survives_closed_pipe(exe, &[], what);
    }
}
