//! Loud-failure drills for the cross-layer audit: a fabricated but
//! internally consistent five-layer run reconciles, and a counter skew
//! injected into any single layer makes `zr-lens audit` exit nonzero
//! naming exactly that layer.
//!
//! The artifacts are fabricated (hand-written snapshot JSON, memory
//! trace, constructed xray/profile documents) so every layer is present
//! and each can be skewed on its own.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use zr_lens::manifest::fnv64;
use zr_lens::{Artifact, Manifest, RunTotals, Volatile};
use zr_trace::{
    EngineMeta, RecordKind, TraceRecord, TraceRecorder, FLAG_TRUSTED, POLICY_CHARGE_AWARE,
};
use zr_xray::{ArRow, EngineCapture, XraySnapshot};

/// Run totals the fabricated layers all agree on.
const TOTALS: RunTotals = RunTotals {
    rows_refreshed: 30,
    rows_skipped: 10,
    ar_commands: 8,
    table_reads: 4,
    table_writes: 2,
};

const SNAPSHOT: &str = r#"{
  "counters": {
    "dram.refresh.ar_commands": 8,
    "dram.refresh.rows_refreshed": 30,
    "dram.refresh.rows_skipped": 10,
    "dram.refresh.table_reads": 4,
    "dram.refresh.table_writes": 2
  },
  "gauges": {},
  "histograms": {
    "span.refresh.window": {
      "bounds": [],
      "buckets": [6],
      "count": 6,
      "sum": 0.0,
      "mean": 0.0,
      "min": 0.0,
      "max": 0.0
    }
  }
}"#;

fn xray_text(first_window_refreshed: u64) -> String {
    let snapshot = XraySnapshot {
        window_cap: 64,
        engines: vec![EngineCapture {
            label: "fabricated".into(),
            policy: "charge_aware".into(),
            num_banks: 1,
            ar_sets_per_bank: 1,
            window_stride: 1,
            windows: vec![
                ArRow {
                    window: 0,
                    bank: 0,
                    set: 0,
                    rows_refreshed: first_window_refreshed,
                    rows_skipped: 0,
                    discharged: 0,
                },
                ArRow {
                    window: 1,
                    bank: 0,
                    set: 0,
                    rows_refreshed: 10,
                    rows_skipped: 10,
                    discharged: 0,
                },
            ],
            bank_discharged: Vec::new(),
        }],
        stages: Vec::new(),
    };
    snapshot.to_json().to_pretty()
}

/// The fabricated refresh engine: trace source id 3, charge-aware, one
/// bank of 20 AR sets, one chip-row per command.
const ENGINE: u8 = 3;

/// The `meta` record announcing [`ENGINE`], without which replay cannot
/// verify its decisions.
fn announcement() -> TraceRecord {
    EngineMeta {
        engine: ENGINE,
        policy: POLICY_CHARGE_AWARE,
        num_banks: 1,
        num_chips: 1,
        ar_rows: 1,
        ar_sets_per_bank: 20,
    }
    .to_record()
}

fn window_start(window: u64) -> TraceRecord {
    let mut start = TraceRecord::new(RecordKind::WindowStart, ENGINE);
    start.a = window;
    start
}

/// The engine's REF decisions in its two windows, as replay verifies
/// them. Window 0 scans every set (power-up leaves every access bit
/// set): 20 rows refreshed, and sets 0–9 found discharged, which the
/// `RefIssue` `c` field carries — a scan result, not a skip count.
/// Window 1 trusts every set: sets 0–9 skip their row and sets 10–19
/// refresh theirs, 10 and 10. Only the first `skips_recorded` of the
/// ten skips are kept, as if the rest were lost.
fn decisions(skips_recorded: u64) -> (Vec<TraceRecord>, Vec<TraceRecord>) {
    let decision = |kind, flags, set, refreshed, c| {
        let mut rec = TraceRecord::new(kind, ENGINE);
        rec.flags = flags;
        rec.a = set;
        rec.b = refreshed;
        rec.c = c;
        rec
    };
    let scans = (0..20)
        .map(|set| decision(RecordKind::RefIssue, 0, set, 1, u64::from(set < 10)))
        .collect();
    let trusted = (0..20)
        .filter(|&set| set >= 10 || set < skips_recorded)
        .map(|set| {
            let skipped = u64::from(set < 10);
            decision(RecordKind::RefSkip, FLAG_TRUSTED, set, 1 - skipped, skipped)
        })
        .collect();
    (scans, trusted)
}

fn trace_of(records: impl IntoIterator<Item = TraceRecord>) -> Vec<u8> {
    let recorder = TraceRecorder::memory();
    for rec in records {
        recorder.record(rec);
    }
    recorder.take_bytes()
}

/// A trace whose totals and per-window buckets match the xray capture
/// when all ten skips are recorded.
fn trace_bytes(skips_recorded: u64) -> Vec<u8> {
    let (scans, trusted) = decisions(skips_recorded);
    let mut records = vec![announcement(), window_start(0)];
    records.extend(scans);
    records.push(window_start(1));
    records.extend(trusted);
    trace_of(records)
}

fn profile_text(calls: u64) -> String {
    let profile = zr_prof::Profile {
        nodes: vec![zr_prof::ProfileNode {
            path: "refresh.window".into(),
            calls,
            wall_ns: 42,
            cpu_ns: 21,
            allocs: 3,
            alloc_bytes: 96,
        }],
        calibration_wall_ns: 1_000,
        threads: 1,
    };
    profile.to_json().to_pretty()
}

/// Writes the consistent five-layer run into `dir` and its manifest,
/// returning the manifest path.
fn build_run(dir: &Path) -> PathBuf {
    let _ = fs::remove_dir_all(dir);
    fs::create_dir_all(dir).expect("create run dir");
    let files: [(&str, &str, Vec<u8>); 4] = [
        ("snapshot", "snapshot.json", SNAPSHOT.as_bytes().to_vec()),
        ("xray-json", "xray.json", xray_text(20).into_bytes()),
        ("trace", "trace.zrt", trace_bytes(10)),
        ("profile-json", "profile.json", profile_text(6).into_bytes()),
    ];
    let mut artifacts = Vec::new();
    for (kind, name, bytes) in files {
        fs::write(dir.join(name), &bytes).expect("write artifact");
        artifacts.push(Artifact {
            kind: kind.into(),
            path: name.into(),
            volatile: false,
            bytes: bytes.len() as u64,
            fnv: fnv64(&bytes),
        });
    }
    let manifest = Manifest {
        figure: "fabricated".into(),
        config_hash: fnv64(b"fabricated"),
        seed: 1,
        threads: 1,
        env: Default::default(),
        totals: TOTALS,
        artifacts,
        volatile: Volatile::default(),
    };
    manifest.write(dir).expect("write manifest")
}

/// Recomputes one artifact's length and checksum after a mutation so
/// the manifest integrity check passes and the audit reaches the
/// layer under test.
fn reseal(manifest_path: &Path, kind: &str) {
    let mut manifest = Manifest::load(manifest_path).expect("load manifest");
    let dir = manifest_path.parent().expect("manifest dir").to_path_buf();
    let artifact = manifest
        .artifacts
        .iter_mut()
        .find(|a| a.kind == kind)
        .expect("artifact to reseal");
    let bytes = fs::read(dir.join(&artifact.path)).expect("read mutated artifact");
    artifact.bytes = bytes.len() as u64;
    artifact.fnv = fnv64(&bytes);
    manifest.write(&dir).expect("rewrite manifest");
}

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("zr-lens-mut-{}-{tag}", std::process::id()))
}

/// Runs the real `zr-lens audit` binary, returning (success, stdout).
fn audit_bin(manifest: &Path) -> (bool, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_zr-lens"))
        .arg("audit")
        .arg(manifest)
        .output()
        .expect("spawn zr-lens");
    (
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
    )
}

/// Asserts the audit fails on `manifest` naming `layer`/`key`, through
/// both the library and the CLI exit code.
fn assert_names_layer(manifest: &Path, layer: &str, key: &str) {
    let report = zr_lens::audit(manifest).expect("audit loads");
    let mismatch = report
        .mismatch
        .unwrap_or_else(|| panic!("{layer} skew must fail the audit"));
    assert_eq!(mismatch.layer, layer);
    assert_eq!(mismatch.key, key);
    let (ok, stdout) = audit_bin(manifest);
    assert!(!ok, "zr-lens audit must exit nonzero on a {layer} skew");
    assert!(
        stdout.contains(&format!("layer={layer}")),
        "audit output must name the layer:\n{stdout}"
    );
}

#[test]
fn consistent_fabricated_run_reconciles() {
    let dir = scratch("ok");
    let manifest = build_run(&dir);
    let report = zr_lens::audit(&manifest).expect("audit loads");
    assert!(report.is_ok(), "{}", report.render());
    assert!(report.render().contains("all layers reconcile"));
    let (ok, stdout) = audit_bin(&manifest);
    assert!(ok, "zr-lens audit must exit zero:\n{stdout}");
    let _ = fs::remove_dir_all(dir);
}

#[test]
fn telemetry_counter_skew_names_the_telemetry_layer() {
    let dir = scratch("telemetry");
    let manifest = build_run(&dir);
    let doctored = SNAPSHOT.replace(
        "\"dram.refresh.rows_skipped\": 10",
        "\"dram.refresh.rows_skipped\": 11",
    );
    assert_ne!(doctored, SNAPSHOT);
    fs::write(dir.join("snapshot.json"), doctored).expect("doctor snapshot");
    reseal(&manifest, "snapshot");
    assert_names_layer(&manifest, "telemetry", "dram.refresh.rows_skipped");
    let _ = fs::remove_dir_all(dir);
}

#[test]
fn xray_row_skew_names_the_xray_layer() {
    let dir = scratch("xray");
    let manifest = build_run(&dir);
    fs::write(dir.join("xray.json"), xray_text(21)).expect("doctor xray");
    reseal(&manifest, "xray-json");
    assert_names_layer(&manifest, "xray", "rows_refreshed");
    let _ = fs::remove_dir_all(dir);
}

#[test]
fn trace_skip_skew_names_the_trace_layer() {
    let dir = scratch("trace");
    let manifest = build_run(&dir);
    // One lost skip record: replay still verifies every decision left.
    fs::write(dir.join("trace.zrt"), trace_bytes(9)).expect("doctor trace");
    reseal(&manifest, "trace");
    assert_names_layer(&manifest, "trace", "rows_skipped");
    let _ = fs::remove_dir_all(dir);
}

#[test]
fn trace_window_shift_names_the_diverging_bucket() {
    let dir = scratch("trace-window");
    let manifest = build_run(&dir);
    // Totals still agree and replay is clean; window 1's decisions
    // moved into window 0, so only the per-window reconciliation
    // against xray can catch it.
    let (scans, trusted) = decisions(10);
    let records = [announcement(), window_start(0)]
        .into_iter()
        .chain(scans)
        .chain(trusted);
    fs::write(dir.join("trace.zrt"), trace_of(records)).expect("doctor trace");
    reseal(&manifest, "trace");
    assert_names_layer(&manifest, "trace", "window 0 rows_refreshed");
    let _ = fs::remove_dir_all(dir);
}

#[test]
fn unannounced_engine_names_its_unverified_decisions() {
    let dir = scratch("trace-unannounced");
    let manifest = build_run(&dir);
    // Every total and window still agrees, but without the `meta`
    // record replay checks none of the engine's 40 decisions.
    let recorded = fs::read(dir.join("trace.zrt")).expect("read trace");
    let stripped = zr_trace::parse_trace(&recorded)
        .expect("parse trace")
        .into_iter()
        .filter(|rec| rec.kind != RecordKind::Meta);
    fs::write(dir.join("trace.zrt"), trace_of(stripped)).expect("doctor trace");
    reseal(&manifest, "trace");
    assert_names_layer(&manifest, "trace", "replay.decisions_unverified");
    let report = zr_lens::audit(&manifest).expect("audit loads");
    assert_eq!(report.mismatch.expect("unverified").lhs, "40");
    let _ = fs::remove_dir_all(dir);
}

#[test]
fn profile_call_skew_names_the_profile_layer() {
    let dir = scratch("profile");
    let manifest = build_run(&dir);
    fs::write(dir.join("profile.json"), profile_text(7)).expect("doctor profile");
    reseal(&manifest, "profile-json");
    assert_names_layer(&manifest, "profile", "span refresh.window");
    let _ = fs::remove_dir_all(dir);
}

#[test]
fn artifact_corruption_fails_manifest_integrity() {
    let dir = scratch("integrity");
    let manifest = build_run(&dir);
    let mut bytes = fs::read(dir.join("trace.zrt")).expect("read trace");
    bytes.push(0xFF);
    fs::write(dir.join("trace.zrt"), bytes).expect("corrupt trace");
    assert_names_layer(&manifest, "manifest", "trace.zrt bytes");
    let _ = fs::remove_dir_all(dir);
}

#[test]
fn empty_snapshot_is_a_corrupt_layer_not_skipped() {
    for (tag, body) in [("empty", ""), ("blank", " \n\t")] {
        let dir = scratch(&format!("snapshot-{tag}"));
        let manifest = build_run(&dir);
        fs::write(dir.join("snapshot.json"), body).expect("blank snapshot");
        reseal(&manifest, "snapshot");
        let err = zr_lens::audit(&manifest).expect_err("a blank snapshot must not load");
        assert!(err.starts_with("snapshot.json: "), "{err}");
        let output = Command::new(env!("CARGO_BIN_EXE_zr-lens"))
            .arg("audit")
            .arg(&manifest)
            .output()
            .expect("spawn zr-lens");
        assert!(!output.status.success(), "zr-lens audit must fail");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("snapshot.json"), "{stderr}");
        let _ = fs::remove_dir_all(dir);
    }
}

#[test]
fn missing_artifact_is_unreadable_not_skipped() {
    let dir = scratch("missing");
    let manifest = build_run(&dir);
    fs::remove_file(dir.join("xray.json")).expect("remove artifact");
    let report = zr_lens::audit(&manifest).expect("audit loads");
    let mismatch = report.mismatch.expect("missing artifact must fail");
    assert_eq!(mismatch.layer, "manifest");
    assert_eq!(mismatch.key, "xray.json");
    let _ = fs::remove_dir_all(dir);
}
