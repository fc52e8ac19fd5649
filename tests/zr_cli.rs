//! The `zr` command line, end to end: `zr info`, `zr transform`, `zr
//! measure` and `zr compare` reject an argument they cannot use with a
//! one-line error naming the argument and exit status 1, instead of
//! running with a default in its place.

use std::process::{Command, Stdio};

/// Runs `zr <args>` and returns its exit code, stdout and stderr.
fn zr(args: &[&str]) -> (Option<i32>, String, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_zr"))
        .args(args)
        .output()
        .expect("spawn zr");
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

/// Runs `zr info <capacity_mb>`.
fn info(capacity_mb: &str) -> (Option<i32>, String, String) {
    zr(&["info", capacity_mb])
}

/// `zr <args>` exits 1 with `message` on stderr and prints nothing on
/// stdout.
fn assert_args_rejected(args: &[&str], message: &str) {
    let (code, stdout, stderr) = zr(args);
    assert_eq!(code, Some(1), "zr {args:?}: stderr {stderr}");
    assert!(stdout.is_empty(), "zr {args:?} printed:\n{stdout}");
    assert!(
        stderr.starts_with("error: ") && stderr.contains(message),
        "zr {args:?}: stderr {stderr:?} does not say {message:?}"
    );
}

fn assert_rejected(capacity_mb: &str, message: &str) {
    assert_args_rejected(&["info", capacity_mb], message);
}

#[test]
fn unparseable_capacity_is_rejected_by_name() {
    assert_rejected("abc", "capacity_mb=\"abc\" is not a whole number");
    assert_rejected("-4", "capacity_mb=\"-4\" is not a whole number");
}

#[test]
fn overflowing_capacity_is_rejected() {
    // 2^44 + 64 MiB is 2^64 + 64 MiB bytes, which a wrapping `mb << 20`
    // would report as a valid 64 MiB system.
    assert_rejected(
        "17592186044480",
        "capacity_mb=17592186044480 overflows u64 bytes",
    );
}

#[test]
fn valid_capacity_is_reported() {
    let (code, stdout, stderr) = info("64");
    assert_eq!(code, Some(0), "stderr {stderr}");
    assert!(stdout.contains("capacity:        64 MiB"), "{stdout}");
}

#[test]
fn measure_rejects_each_bad_argument_by_name() {
    assert_args_rejected(
        &["measure", "mcf", "abc", "4096", "warm"],
        "alloc%=\"abc\" is not a number in 0-100",
    );
    for alloc in ["-1", "100.5", "NaN", "inf"] {
        let message = format!("alloc%={alloc:?} is not a number in 0-100");
        assert_args_rejected(&["measure", "mcf", alloc], &message);
    }
    assert_args_rejected(
        &["measure", "mcf", "50", "4k"],
        "row_bytes=\"4k\" is not a whole number",
    );
    // A parseable row size still has to make a valid experiment.
    assert_args_rejected(
        &["measure", "mcf", "50", "1000"],
        "row_bytes=1000: row_bytes must be a power of two",
    );
    assert_args_rejected(
        &["measure", "mcf", "50", "32"],
        "row_bytes=32: cacheline larger than a row",
    );
    assert_args_rejected(
        &["measure", "mcf", "50", "4096", "warm"],
        "temperature=\"warm\" is not normal or extended",
    );
}

#[test]
fn compare_rejects_a_bad_allocation_by_name() {
    assert_args_rejected(
        &["compare", "mcf", "150"],
        "alloc%=\"150\" is not a number in 0-100",
    );
}

#[test]
fn valid_measure_call_is_reported() {
    for (args, header) in [
        (
            &["measure", "mcf", "1", "4096", "normal"][..],
            "mcf @ 1% alloc, 4096 B rows, Normal:",
        ),
        (
            &["measure", "mcf", "1", "2048", "extended"][..],
            "mcf @ 1% alloc, 2048 B rows, Extended:",
        ),
    ] {
        let (code, stdout, stderr) = zr(args);
        assert_eq!(code, Some(0), "zr {args:?}: stderr {stderr}");
        assert!(stdout.starts_with(header), "zr {args:?}:\n{stdout}");
        assert!(stdout.contains("  refresh ops:  "), "{stdout}");
    }
}

#[test]
fn compare_measures_at_its_row_size_and_temperature() {
    let table = |args: &[&str]| {
        let (code, stdout, stderr) = zr(args);
        assert_eq!(code, Some(0), "zr {args:?}: stderr {stderr}");
        stdout
    };
    let zero_refresh_line = |stdout: &str| {
        let line = stdout.lines().find(|l| l.contains("zero-refresh:"));
        line.unwrap_or_else(|| panic!("no zero-refresh line in:\n{stdout}"))
            .to_string()
    };
    // The defaults spelled out change nothing...
    let defaults = table(&["compare", "mcf", "5"]);
    assert_eq!(
        table(&["compare", "mcf", "5", "4096", "extended"]),
        defaults
    );
    // ...and another row size and temperature measure another system.
    let other = table(&["compare", "mcf", "5", "8192", "normal"]);
    assert_ne!(zero_refresh_line(&other), zero_refresh_line(&defaults));
}

#[test]
fn transform_rejects_a_bad_row_by_name() {
    assert_args_rejected(
        &["transform", "pointer", "abc"],
        "row=\"abc\" is not a whole number",
    );
    assert_args_rejected(
        &["transform", "pointer", "-1"],
        "row=\"-1\" is not a whole number",
    );
    // The paper configuration has 32,768 rows per bank.
    assert_args_rejected(
        &["transform", "pointer", "32768"],
        "row=32768 is out of range: a bank has 32768 rows",
    );
}

#[test]
fn valid_transform_call_is_reported() {
    let mut calls = vec![(
        vec!["transform", "pointer"],
        "preset 'pointer' stored in row 0 (True cells):".to_string(),
    )];
    for preset in ["pointer", "smallint", "zero", "text", "random"] {
        calls.push((
            vec!["transform", preset, "32767"],
            format!("preset '{preset}' stored in row 32767 (Anti cells):"),
        ));
    }
    for (args, header) in &calls {
        let (code, stdout, stderr) = zr(args);
        assert_eq!(code, Some(0), "zr {args:?}: stderr {stderr}");
        assert!(
            stdout.starts_with(header.as_str()),
            "zr {args:?}:\n{stdout}"
        );
        assert!(
            stdout.ends_with("  inverse verified: decode(encode(x)) == x\n"),
            "{stdout}"
        );
    }
}

/// `zr info | head`: a reader that goes away ends the output quietly and
/// `zr` keeps its own exit status instead of dying in a broken-pipe panic
/// (exit 101).
#[test]
fn output_into_a_closed_pipe_keeps_the_exit_status() {
    for (args, code) in [
        (&["info"][..], 0),
        (&["transform", "pointer"], 0),
        (&["benchmarks"], 0),
        (&["transform", "nosuch"], 1),
    ] {
        // The read end is closed before the process starts, so the very
        // first write fails with `EPIPE`.
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let output = Command::new(env!("CARGO_BIN_EXE_zr"))
            .args(args)
            .stdout(writer)
            .stderr(Stdio::piped())
            .output()
            .expect("spawn zr");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            !stderr.contains("panicked"),
            "zr {args:?} panicked: {stderr}"
        );
        assert_eq!(
            output.status.code(),
            Some(code),
            "zr {args:?}: stderr {stderr}"
        );
    }
}
