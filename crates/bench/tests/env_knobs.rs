//! The env-knob checkpoint, end to end: a knob value the figure binaries
//! cannot use ends the run before any figure row is printed, with a
//! one-line message naming the problem and exit status 1 (not a panic's
//! 101, not a plausible-looking table, and not a run at the default).

use std::process::Command;

/// Runs the Fig. 14 binary with only the given knobs set and returns its
/// exit code, stdout and stderr.
fn fig14_with(knobs: &[(&str, &str)]) -> (Option<i32>, String, String) {
    let mut command = Command::new(env!("CARGO_BIN_EXE_fig14_refresh_reduction"));
    for knob in zr_types::knobs::ALL {
        command.env_remove(knob.name);
    }
    let output = command
        .envs(knobs.iter().copied())
        .output()
        .expect("spawn fig14_refresh_reduction");
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

fn assert_rejected(knobs: &[(&str, &str)], message: &str) {
    let (code, stdout, stderr) = fig14_with(knobs);
    assert_eq!(code, Some(1), "{knobs:?}: stderr {stderr}");
    assert!(stdout.is_empty(), "{knobs:?} printed a table:\n{stdout}");
    assert!(
        stderr.starts_with("fig14_refresh_reduction: ")
            && stderr.contains(message)
            && stderr.lines().count() == 1,
        "{knobs:?}: stderr {stderr:?} is not one line saying {message:?}"
    );
}

#[test]
fn zero_windows_is_rejected() {
    assert_rejected(
        &[("ZR_WINDOWS", "0")],
        "ZR_CAPACITY_MB=16, ZR_WINDOWS=0: windows must be at least 1",
    );
}

#[test]
fn unparseable_capacity_is_rejected_by_name() {
    assert_rejected(
        &[("ZR_CAPACITY_MB", "abc")],
        "ZR_CAPACITY_MB=\"abc\" is not a whole number",
    );
}

#[test]
fn zero_capacity_is_rejected() {
    assert_rejected(
        &[("ZR_CAPACITY_MB", "0")],
        "ZR_CAPACITY_MB=0, ZR_WINDOWS=4: capacity must be a whole number of rows",
    );
}

#[test]
fn capacity_with_no_valid_geometry_is_rejected() {
    assert_rejected(
        &[("ZR_CAPACITY_MB", "3")],
        "ZR_CAPACITY_MB=3, ZR_WINDOWS=4: rows per bank must be a power of two",
    );
}

/// Values each knob's reader used to replace with its default without a
/// word: a figure run at 16 MiB and exit status 0.
#[test]
fn values_that_fell_back_to_the_default_are_rejected_by_name() {
    for (knob, value, grammar) in [
        ("ZR_THREADS", "abc", "a positive integer"),
        ("ZR_THREADS", "0", "a positive integer"),
        ("ZR_XRAY_WINDOWS", "zero", "a positive integer"),
        ("ZR_XRAY_WINDOWS", "-5", "a positive integer"),
        ("ZR_PROGRESS", "yes", "0 or 1"),
    ] {
        assert_rejected(
            &[(knob, value)],
            &format!("{knob}={value:?} is not {grammar}"),
        );
    }
}

/// `ZR_TRACE_RING=lots` used to record a full file trace instead of a
/// ring; now nothing is recorded at all.
#[test]
fn unparseable_trace_ring_is_rejected_before_tracing() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("env-knobs-trace-ring");
    let _ = std::fs::remove_dir_all(&dir);
    assert_rejected(
        &[
            ("ZR_TRACE", dir.to_str().expect("utf-8 dir")),
            ("ZR_TRACE_RING", "lots"),
        ],
        "ZR_TRACE_RING=\"lots\" is not a positive integer",
    );
    assert!(!dir.join("trace.zrt").exists(), "a trace was written");
}
