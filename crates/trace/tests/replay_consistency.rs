//! End-to-end replay self-consistency: a trace recorded from the real
//! memory controller must replay with zero divergences, and any
//! tampering with a skip decision must be pinpointed at the exact
//! divergent record.

use std::sync::Arc;

use zr_dram::RefreshPolicy;
use zr_memctrl::MemoryController;
use zr_trace::{parse_trace, replay, RecordKind, ReplayReport, TraceRecord, TraceRecorder};
use zr_types::geometry::LineAddr;
use zr_types::rng::cases;
use zr_types::SystemConfig;

/// Records a deterministic mixed read/write/refresh workload through the
/// full controller stack and returns the parsed records.
fn record_workload() -> Vec<TraceRecord> {
    let cfg = SystemConfig::small_test();
    let trace = Arc::new(TraceRecorder::memory());
    let mut mc = {
        let _trace = TraceRecorder::push_current(Arc::clone(&trace));
        MemoryController::new(&cfg, RefreshPolicy::ChargeAware).unwrap()
    };

    let total = mc.geometry().total_lines();
    let mut s = 0x5EEDu64;
    for step in 0..400u64 {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
        let addr = LineAddr(s % total);
        if s & 4 == 0 {
            mc.write_line(addr, &[(s >> 32) as u8; 64]).unwrap();
        } else {
            let _ = mc.read_line(addr).unwrap();
        }
        if step % 80 == 79 {
            mc.run_refresh_window();
        }
    }
    mc.run_refresh_window();
    parse_trace(&trace.take_bytes()).unwrap()
}

#[test]
fn recorded_run_replays_with_zero_divergences() {
    let records = record_workload();
    let report = replay(&records);
    assert!(
        report.is_clean(),
        "replay diverged: {:?}",
        report.divergences
    );
    assert_eq!(report.engines_replayed, 1);
    assert!(report.decisions_checked > 0, "no decisions verified");
    assert!(report.writes_applied > 0, "no writes fed to the shadow");
}

#[test]
fn mutated_skip_decision_reports_the_exact_record() {
    let mut records = record_workload();
    // Tamper with the first trusted skip: claim one fewer row skipped.
    let target = records
        .iter()
        .position(|r| r.kind == RecordKind::RefSkip && r.c > 0)
        .expect("workload produced a trusted skip");
    records[target].b += 1;
    records[target].c -= 1;
    let report = replay(&records);
    assert!(!report.is_clean(), "tampering went undetected");
    assert_eq!(
        report.divergences[0].index, target,
        "divergence not pinned to the mutated record"
    );
    assert_eq!(report.divergences[0].bank, records[target].bank);
    assert_eq!(report.divergences[0].set, records[target].a);
}

#[test]
fn flipped_decision_kind_reports_the_exact_record() {
    let mut records = record_workload();
    // Turn a trusted skip into a claimed full refresh: replay expects the
    // access bit to still be clear, so the kind flip must be flagged.
    let target = records
        .iter()
        .position(|r| r.kind == RecordKind::RefSkip)
        .expect("workload produced a trusted skip");
    records[target].kind = RecordKind::RefIssue;
    records[target].flags = 0;
    let report = replay(&records);
    assert!(!report.is_clean());
    assert_eq!(report.divergences[0].index, target);
    assert!(report.divergences[0].expected.contains("trusted"));
}

/// The file form of `records`: the header and one frame.
fn serialize(records: &[TraceRecord]) -> Vec<u8> {
    let mut bytes = zr_trace::encode_header().to_vec();
    let payload: Vec<u8> = records.iter().flat_map(|r| r.encode()).collect();
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&(records.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&payload);
    bytes
}

#[test]
fn replay_survives_reserialization() {
    // Serialize → parse → replay must agree with the in-memory records
    // (the CLI path goes through the file form).
    let records = record_workload();
    let reparsed = parse_trace(&serialize(&records)).unwrap();
    assert_eq!(reparsed, records);
    assert!(replay(&reparsed).is_clean());
}

/// A corrupt `.zrt` (flipped bytes, a truncation, or a meta field
/// rewritten to an edge value) either fails to parse or replays to a
/// report: no panic, and no allocation sized by a record field (a meta
/// claiming 2^32 banks of 2^63 sets would otherwise ask for more memory
/// than exists).
#[test]
fn corrupt_traces_parse_or_replay_without_panic() {
    let records = record_workload();
    let clean = serialize(&records);
    let meta = records
        .iter()
        .position(|r| r.kind == RecordKind::Meta)
        .expect("workload announced its engine");
    let edges = [0, 1, 3, 64, 128, 8192, 1 << 32, 1 << 63, u64::MAX];
    cases("corrupt_traces_parse_or_replay_without_panic", 256, |rng| {
        let bytes = match rng.below(3) {
            0 => {
                let mut bytes = clean.clone();
                for _ in 0..=rng.below(8) {
                    let at = rng.below(bytes.len() as u64) as usize;
                    bytes[at] ^= 1 << rng.below(8);
                }
                bytes
            }
            1 => clean[..rng.below(clean.len() as u64) as usize].to_vec(),
            _ => {
                let mut corrupt = records.clone();
                let value = match rng.below(2) {
                    0 => edges[rng.below(edges.len() as u64) as usize],
                    _ => rng.next_u64(),
                };
                let m = &mut corrupt[meta];
                match rng.below(4) {
                    0 => m.bank = value as u32,
                    1 => m.a = value,
                    2 => m.b = value,
                    _ => m.c = value,
                }
                serialize(&corrupt)
            }
        };
        if let Ok(parsed) = parse_trace(&bytes) {
            let report = replay(&parsed);
            assert!(report.divergences.len() <= ReplayReport::MAX_DIVERGENCES);
        }
    });
}

#[test]
fn forked_controller_replays_as_its_own_engine() {
    // A fork taken after population records as a second engine: its own
    // meta record, then its own windows. Both replay from the power-up
    // shadow state.
    let cfg = SystemConfig::small_test();
    let trace = Arc::new(TraceRecorder::memory());
    let _trace = TraceRecorder::push_current(Arc::clone(&trace));
    let mut base = MemoryController::new(&cfg, RefreshPolicy::ChargeAware).unwrap();
    for a in 0..64u64 {
        base.write_line(LineAddr(a * 7), &[a as u8 + 1; 64])
            .unwrap();
    }
    let mut fork = base.fork();
    assert_ne!(
        fork.engine().trace_engine_id(),
        base.engine().trace_engine_id()
    );
    for mc in [&mut fork, &mut base] {
        mc.run_refresh_window();
        mc.write_line(LineAddr(3), &[9; 64]).unwrap();
        mc.run_refresh_window();
        mc.run_refresh_window();
    }
    let records = parse_trace(&trace.take_bytes()).unwrap();
    let metas = records.iter().filter(|r| r.kind == RecordKind::Meta);
    assert_eq!(metas.count(), 2);
    let report = replay(&records);
    assert!(report.is_clean(), "{:?}", report.divergences);
    assert_eq!(report.engines_replayed, 2);
    assert_eq!(report.decisions_unverified, 0);
}

/// Runs `zr-trace replay` on `records` written to a file named `name`.
fn replay_cli(name: &str, records: &[TraceRecord]) -> std::process::Output {
    let recorder = TraceRecorder::memory();
    for &rec in records {
        recorder.record(rec);
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, recorder.take_bytes()).unwrap();
    std::process::Command::new(env!("CARGO_BIN_EXE_zr-trace"))
        .arg("replay")
        .arg(&path)
        .output()
        .unwrap()
}

#[test]
fn replay_cli_fails_when_meta_records_are_stripped() {
    let records = record_workload();
    let full = replay_cli("replay-cli-full.zrt", &records);
    let stdout = String::from_utf8_lossy(&full.stdout);
    assert_eq!(full.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("replay clean"), "{stdout}");

    // Without its meta record the engine's decisions cannot be checked:
    // the run must neither pass nor claim a divergence.
    let stripped: Vec<TraceRecord> = records
        .into_iter()
        .filter(|r| r.kind != RecordKind::Meta)
        .collect();
    let out = replay_cli("replay-cli-stripped.zrt", &stripped);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(3), "{stdout}");
    assert!(!stdout.contains("clean"), "{stdout}");
    assert!(stdout.contains("NOT VERIFIED"), "{stdout}");
}
