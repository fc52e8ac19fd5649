//! The `zr` command line, end to end: `zr info` rejects a capacity it
//! cannot use with a one-line error naming the argument and exit status
//! 1, instead of printing the default configuration.

use std::process::Command;

/// Runs `zr info <capacity_mb>` and returns its exit code, stdout and
/// stderr.
fn info(capacity_mb: &str) -> (Option<i32>, String, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_zr"))
        .args(["info", capacity_mb])
        .output()
        .expect("spawn zr");
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

fn assert_rejected(capacity_mb: &str, message: &str) {
    let (code, stdout, stderr) = info(capacity_mb);
    assert_eq!(code, Some(1), "zr info {capacity_mb}: stderr {stderr}");
    assert!(
        stdout.is_empty(),
        "zr info {capacity_mb} printed a configuration:\n{stdout}"
    );
    assert!(
        stderr.starts_with("error: ") && stderr.contains(message),
        "zr info {capacity_mb}: stderr {stderr:?} does not say {message:?}"
    );
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
