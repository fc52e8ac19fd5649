//! `zr-lens` writing into a pipe whose reader is already gone, as in
//! `zr-lens show manifest.json | head`: the report stops quietly and the
//! command keeps its own exit status instead of dying in a broken-pipe
//! panic (exit 101).

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

use zr_lens::{Artifact, Manifest, RunTotals};

/// Writes a manifest listing `n` artifacts into its own directory and
/// returns its path.
fn write_manifest(tag: &str, n: usize) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("closed-pipe-{tag}"));
    let manifest = Manifest {
        figure: "closed_pipe".into(),
        config_hash: 0x0123_4567_89ab_cdef,
        seed: 7,
        threads: 1,
        totals: RunTotals {
            rows_refreshed: 30,
            rows_skipped: 10,
            ..RunTotals::default()
        },
        artifacts: (0..n)
            .map(|i| Artifact {
                kind: "report".into(),
                path: format!("report-{i}.json"),
                volatile: false,
                bytes: 0,
                fnv: 0,
            })
            .collect(),
        ..Manifest::default()
    };
    manifest.write(&dir).expect("write manifest")
}

fn zr_lens(args: &[&str], manifest: &Path, stdout: Stdio) -> Output {
    Command::new(env!("CARGO_BIN_EXE_zr-lens"))
        .args(args)
        .arg(manifest)
        .stdout(stdout)
        .stderr(Stdio::piped())
        .output()
        .unwrap()
}

/// Runs `zr-lens args… manifest` with stdout connected to a pipe that
/// nobody reads: its read end is closed before the process starts, so
/// the very first write fails with `EPIPE`.
fn into_closed_pipe(args: &[&str], manifest: &Path) -> Output {
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    zr_lens(args, manifest, writer.into())
}

fn assert_quiet_exit(out: &Output, code: i32, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{what} panicked: {stderr}");
    assert_eq!(out.status.code(), Some(code), "{what}: stderr {stderr}");
}

#[test]
fn show_into_closed_pipe_exits_0() {
    let manifest = write_manifest("show", 2000);
    // Control: with a live reader the same call prints the summary.
    let live = zr_lens(&["show"], &manifest, Stdio::piped());
    assert_quiet_exit(&live, 0, "show with a live reader");
    let stdout = String::from_utf8_lossy(&live.stdout);
    assert!(stdout.starts_with("figure       closed_pipe\n"), "{stdout}");
    assert_eq!(stdout.lines().count(), 6 + 2000, "{stdout}");

    assert_quiet_exit(&into_closed_pipe(&["show"], &manifest), 0, "show");
}

#[test]
fn audit_into_closed_pipe_keeps_its_verdict() {
    // The listed reports do not exist, so the audit fails with a report.
    let manifest = write_manifest("audit", 3);
    let live = zr_lens(&["audit"], &manifest, Stdio::piped());
    let code = live.status.code().expect("exit status");
    assert_ne!(code, 0, "audit of missing artifacts passed");
    assert_quiet_exit(&into_closed_pipe(&["audit"], &manifest), code, "audit");
}
