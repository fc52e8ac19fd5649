//! The CLI's exit statuses. Writing into a pipe whose reader is already
//! gone, as in `zr-trace diff a.zrt b.zrt | head`, the report stops
//! quietly and the command keeps its own exit status instead of dying in
//! a broken-pipe panic (exit 101); a usage error exits 2 with one line.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

use zr_trace::{RecordKind, TraceRecord, TraceRecorder};

/// Writes a trace of `n` activates whose rows start at `first_row`.
fn write_trace(name: &str, n: u64, first_row: u64) -> PathBuf {
    let recorder = TraceRecorder::memory();
    for i in 0..n {
        let mut rec = TraceRecord::new(RecordKind::Act, 1);
        rec.bank = (i % 4) as u32;
        rec.a = first_row + i;
        recorder.record(rec);
    }
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, recorder.take_bytes()).unwrap();
    path
}

fn zr_trace(args: &[&Path], stdout: Stdio) -> Output {
    Command::new(env!("CARGO_BIN_EXE_zr-trace"))
        .args(args)
        .stdout(stdout)
        .stderr(Stdio::piped())
        .output()
        .unwrap()
}

/// Runs `zr-trace args…` with stdout connected to a pipe that nobody
/// reads: its read end is closed before the process starts, so the very
/// first write fails with `EPIPE`.
fn into_closed_pipe(args: &[&str], traces: &[&Path]) -> Output {
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let mut all: Vec<&Path> = args.iter().map(Path::new).collect();
    all.extend_from_slice(traces);
    zr_trace(&all, writer.into())
}

fn assert_quiet_exit(out: &Output, code: i32, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{what} panicked: {stderr}");
    assert_eq!(out.status.code(), Some(code), "{what}: stderr {stderr}");
}

#[test]
fn diff_into_closed_pipe_keeps_its_verdict() {
    let a = write_trace("closed-pipe-diff-a.zrt", 4000, 0);
    let b = write_trace("closed-pipe-diff-b.zrt", 4000, 1);
    // Control: with a live reader the same diff prints a report and
    // exits 1 because the streams differ.
    let live = zr_trace(&[Path::new("diff"), &a, &b], Stdio::piped());
    assert!(live.stdout.len() > 1000, "diff printed almost nothing");
    assert_quiet_exit(&live, 1, "diff with a live reader");

    assert_quiet_exit(&into_closed_pipe(&["diff"], &[&a, &b]), 1, "diff");
    assert_quiet_exit(&into_closed_pipe(&["diff"], &[&a, &a]), 0, "identical diff");
}

#[test]
fn every_report_survives_a_closed_pipe() {
    let t = write_trace("closed-pipe-report.zrt", 4000, 0);
    assert_quiet_exit(&into_closed_pipe(&["inspect"], &[&t]), 0, "inspect");
    assert_quiet_exit(
        &into_closed_pipe(&["inspect", "--dump"], &[&t]),
        0,
        "inspect --dump",
    );
    assert_quiet_exit(&into_closed_pipe(&["replay"], &[&t]), 0, "replay");
    assert_quiet_exit(
        &into_closed_pipe(&["export", "--chrome"], &[&t]),
        0,
        "export --chrome",
    );
    assert_quiet_exit(&into_closed_pipe(&["--help"], &[]), 0, "--help");
}

#[test]
fn usage_errors_still_exit_2() {
    let out = into_closed_pipe(&["diff"], &[]);
    assert_quiet_exit(&out, 2, "diff without paths");
    assert!(String::from_utf8_lossy(&out.stderr).contains("two trace paths"));
}

#[test]
fn inspect_rejects_a_bank_beyond_u32() {
    let t = write_trace("bank-beyond-u32.zrt", 16, 0);
    let flag = |bank: &str| {
        let args = [
            Path::new("inspect"),
            &t,
            Path::new("--bank"),
            Path::new(bank),
        ];
        zr_trace(&args, Stdio::piped())
    };
    let out = flag("4294967297");
    assert_quiet_exit(&out, 2, "inspect --bank 4294967297");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.contains("--bank 4294967297"), "{stderr}");
    assert!(out.stdout.is_empty());
    // Bank 1 itself still filters.
    assert_quiet_exit(&flag("1"), 0, "inspect --bank 1");
}

#[test]
fn inspect_rejects_a_trace_whose_counts_overflow() {
    // One window_end at index u64::MAX and a ref_skip of u64::MAX rows
    // on top of one more: the summary cannot count either.
    let recorder = TraceRecorder::memory();
    let mut end = TraceRecord::new(RecordKind::WindowEnd, 0);
    end.a = u64::MAX;
    let mut skip = TraceRecord::new(RecordKind::RefSkip, 0);
    skip.c = u64::MAX;
    for rec in [skip, end] {
        recorder.record(rec);
    }
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("overflowing-counts.zrt");
    std::fs::write(&path, recorder.take_bytes()).unwrap();
    let out = zr_trace(&[Path::new("inspect"), &path], Stdio::piped());
    assert_quiet_exit(&out, 2, "inspect of overflowing counts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(
        stderr.contains("record 1 (window_end): field a = 18446744073709551615"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "printed a summary");
}
