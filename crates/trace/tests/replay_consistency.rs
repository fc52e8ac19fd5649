//! End-to-end replay self-consistency: a trace recorded from the real
//! memory controller must replay with zero divergences, and any
//! tampering with a skip decision must be pinpointed at the exact
//! divergent record.

use std::sync::Arc;

use zr_dram::RefreshPolicy;
use zr_memctrl::MemoryController;
use zr_trace::{parse_trace, replay, RecordKind, TraceRecord, TraceRecorder};
use zr_types::geometry::LineAddr;
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

#[test]
fn replay_survives_reserialization() {
    // Serialize → parse → replay must agree with the in-memory records
    // (the CLI path goes through the file form).
    let records = record_workload();
    let mut bytes = zr_trace::encode_header().to_vec();
    let payload: Vec<u8> = records.iter().flat_map(|r| r.encode()).collect();
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&(records.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&payload);
    let reparsed = parse_trace(&bytes).unwrap();
    assert_eq!(reparsed, records);
    assert!(replay(&reparsed).is_clean());
}
