//! End-to-end run-manifest test: instrumented fig14-subset runs in
//! child processes, then manifest determinism, cross-layer audit and
//! dashboard byte-stability are asserted from the parent.
//!
//! Each run happens in a **separate process** (the test re-execs its
//! own binary with `ZR_LENS_E2E_CHILD=1` filtered to
//! [`child_instrumented_run`]). Process isolation matters: every capture
//! layer is a process-wide instance initialized once from the
//! environment, so two runs inside one process would share one trace,
//! one snapshot and one capture. Children also use **relative** output
//! dirs (`out/` under a per-run working directory) so byte-comparing
//! the deterministic manifest halves of two runs is meaningful — the
//! recorded env knobs read `out` in both.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use zr_insight::PerfHistory;
use zr_lens::manifest::hex64;
use zr_lens::{LoadedRun, Manifest};
use zr_workloads::Benchmark;

/// Set in the child's environment; [`child_instrumented_run`] is a
/// no-op without it, so the normal test suite skips it.
const CHILD_ENV: &str = "ZR_LENS_E2E_CHILD";

/// Subprocess entry point — runs the instrumented fig14 subset with
/// every capture layer driven by the environment, exactly like the
/// figure binaries do.
#[test]
fn child_instrumented_run() {
    if std::env::var(CHILD_ENV).is_err() {
        return;
    }
    let exp = zr_bench::experiment_config().expect("child env config");
    zr_bench::run_figure("fig14_refresh_reduction", &exp, || {
        zr_bench::figures::fig14_refresh_reduction_for(&[Benchmark::Gcc, Benchmark::Sphinx3], &exp)
    })
    .expect("child figure run failed");
}

/// A fresh per-run working directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("zr-lens-e2e-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Re-execs this test binary as an instrumented child run with all
/// five capture layers pointed at `<root>/out`, returning the child's
/// stderr (where the harness summary lands).
fn run_child(root: &Path, threads: &str) -> String {
    let exe = std::env::current_exe().expect("current_exe");
    let output = Command::new(exe)
        .args([
            "child_instrumented_run",
            "--exact",
            "--nocapture",
            "--test-threads",
            "1",
        ])
        .current_dir(root)
        .env(CHILD_ENV, "1")
        .env("ZR_LENS", "out")
        .env("ZR_TELEMETRY", "out")
        .env("ZR_TRACE", "out")
        .env("ZR_XRAY", "out")
        .env("ZR_PROF", "out")
        .env("ZR_THREADS", threads)
        .env("ZR_CAPACITY_MB", "2")
        .env("ZR_WINDOWS", "2")
        .env_remove("ZR_SEED")
        .output()
        .expect("spawn child run");
    assert!(
        output.status.success(),
        "child run (threads={threads}) failed:\n{}{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr),
    );
    String::from_utf8_lossy(&output.stderr).into_owned()
}

fn manifest_path(root: &Path) -> PathBuf {
    root.join("out").join(zr_lens::manifest::FILE_NAME)
}

#[test]
fn manifests_reconcile_and_dashboards_are_thread_invariant() {
    let t1 = scratch("t1");
    let t4 = scratch("t4");
    let t1b = scratch("t1b");
    let stderr1 = run_child(&t1, "1");
    run_child(&t4, "4");
    run_child(&t1b, "1");

    // The harness summary names the config hash and the manifest path.
    let m1 = Manifest::load(&manifest_path(&t1)).expect("load t1 manifest");
    assert!(
        stderr1.contains(&format!("config {}", hex64(m1.config_hash))),
        "summary missing config hash:\n{stderr1}"
    );
    assert!(
        stderr1.contains("manifest "),
        "summary missing manifest path:\n{stderr1}"
    );

    // Every run's layers reconcile.
    for root in [&t1, &t4, &t1b] {
        let report = zr_lens::audit(&manifest_path(root)).expect("audit loads");
        assert!(
            report.is_ok(),
            "audit failed for {}:\n{}",
            root.display(),
            report.render()
        );
    }

    // Two identical runs (same thread count, same knobs): the manifests
    // agree byte-for-byte once the `volatile` section is dropped.
    let m1b = Manifest::load(&manifest_path(&t1b)).expect("load t1b manifest");
    assert_eq!(
        m1.deterministic_json().to_pretty(),
        m1b.deterministic_json().to_pretty(),
        "identical runs disagree outside the volatile section"
    );

    // Thread counts must not change a single byte of any deterministic
    // artifact — checksums in the manifest and the raw files both.
    let m4 = Manifest::load(&manifest_path(&t4)).expect("load t4 manifest");
    let mut deterministic = 0;
    for artifact in m1.artifacts.iter().filter(|a| !a.volatile) {
        let other = m4
            .artifact(&artifact.kind)
            .unwrap_or_else(|| panic!("t4 manifest lacks {}", artifact.kind));
        assert_eq!(
            artifact.bytes, other.bytes,
            "{} length differs at 4 threads",
            artifact.path
        );
        assert_eq!(
            hex64(artifact.fnv),
            hex64(other.fnv),
            "{} checksum differs at 4 threads",
            artifact.path
        );
        let a = fs::read(t1.join("out").join(&artifact.path)).expect("read t1 artifact");
        let b = fs::read(t4.join("out").join(&other.path)).expect("read t4 artifact");
        assert_eq!(a, b, "{} bytes differ at 4 threads", artifact.path);
        deterministic += 1;
    }
    assert!(
        deterministic >= 3,
        "expected at least trace + xray json/csv deterministic artifacts, got {deterministic}"
    );

    // The dashboard is byte-identical at 1 and 4 threads, and leaks no
    // run-local absolute path.
    let run1 = LoadedRun::load_without_trace(&manifest_path(&t1)).expect("load run t1");
    let run4 = LoadedRun::load_without_trace(&manifest_path(&t4)).expect("load run t4");
    let html1 = zr_lens::render(&run1, &PerfHistory::default());
    let html4 = zr_lens::render(&run4, &PerfHistory::default());
    assert_eq!(html1, html4, "lens.html differs between 1 and 4 threads");
    assert!(
        !html1.contains(t1.to_str().expect("utf8 scratch path")),
        "dashboard leaks the run directory"
    );

    // Mutation drills on real run data, reusing the t1/t4 captures.
    // (a) Skewing a harness total makes the audit name the first layer
    // that cross-checks totals against the manifest.
    let mut skewed = m1.clone();
    skewed.totals.rows_skipped += 1;
    skewed
        .write(&t1.join("out"))
        .expect("rewrite skewed manifest");
    let report = zr_lens::audit(&manifest_path(&t1)).expect("audit loads");
    let mismatch = report.mismatch.expect("skewed totals must fail the audit");
    assert_eq!(
        mismatch.layer, "telemetry",
        "first totals cross-check is the telemetry layer"
    );
    assert_eq!(mismatch.key, "dram.refresh.rows_skipped");

    // (b) Corrupting an artifact on disk fails the manifest integrity
    // check, naming the file.
    let xray_csv = t4.join("out").join("xray.csv");
    let mut bytes = fs::read(&xray_csv).expect("read xray.csv");
    bytes.push(b'#');
    fs::write(&xray_csv, bytes).expect("corrupt xray.csv");
    let report = zr_lens::audit(&manifest_path(&t4)).expect("audit loads");
    let mismatch = report
        .mismatch
        .expect("corrupt artifact must fail the audit");
    assert_eq!(mismatch.layer, "manifest");
    assert!(
        mismatch.key.contains("xray.csv"),
        "key should name the file: {}",
        mismatch.key
    );

    for dir in [t1, t4, t1b] {
        let _ = fs::remove_dir_all(dir);
    }
}
