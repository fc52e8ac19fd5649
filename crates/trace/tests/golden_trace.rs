//! Golden-trace test: a small deterministic workload recorded through
//! the real refresh engine must produce a byte-identical trace on every
//! run, with the exact record sequence the instrumentation contract
//! promises (meta first, writes before their window, windows bracketed,
//! one decision per bank × AR set, second window fully trusted).

use std::sync::Arc;

use zr_dram::{DramRank, RefreshEngine, RefreshPolicy};
use zr_trace::{
    parse_trace, EngineMeta, RecordKind, TraceRecord, TraceRecorder, FLAG_TRUSTED,
    POLICY_CHARGE_AWARE,
};
use zr_types::geometry::{BankId, RowIndex};
use zr_types::SystemConfig;

/// Runs the reference workload hermetically and returns the serialized
/// trace plus the engine id it recorded under.
fn run_workload() -> (Vec<u8>, u8) {
    let cfg = SystemConfig::small_test();
    let mut rank = DramRank::new(&cfg).unwrap();
    let trace = Arc::new(TraceRecorder::memory());
    let mut engine = {
        let _trace = TraceRecorder::push_current(Arc::clone(&trace));
        RefreshEngine::new(&cfg, RefreshPolicy::ChargeAware).unwrap()
    };

    // One charged line so the scan sees a non-uniform population.
    rank.write_encoded_line(BankId(1), RowIndex(3), 0, &[0x5A; 64])
        .unwrap();
    engine.note_write(&rank, BankId(1), RowIndex(3));

    engine.run_window(&mut rank); // window 0: full scan everywhere
    engine.run_window(&mut rank); // window 1: fully trusted

    (trace.take_bytes(), engine.trace_engine_id())
}

#[test]
fn identical_workloads_produce_identical_traces() {
    let (first, id_a) = run_workload();
    let (second, id_b) = run_workload();
    // Engine ids are process-unique, so mask the src byte before the
    // byte-exact comparison; everything else must match exactly.
    let records_a = parse_trace(&first).unwrap();
    let records_b = parse_trace(&second).unwrap();
    assert_eq!(records_a.len(), records_b.len());
    for (i, (a, b)) in records_a.iter().zip(&records_b).enumerate() {
        assert_eq!(a.src, id_a, "record {i} from a foreign source");
        assert_eq!(b.src, id_b, "record {i} from a foreign source");
        let mut b_masked = *b;
        b_masked.src = a.src;
        assert_eq!(*a, b_masked, "record {i} diverged between identical runs");
    }
}

#[test]
fn golden_sequence_matches_the_instrumentation_contract() {
    let (bytes, engine_id) = run_workload();
    let records = parse_trace(&bytes).unwrap();
    let cfg = SystemConfig::small_test();
    let geom = cfg.geometry();
    let banks = geom.num_banks() as u64;
    let sets = geom.ar_sets_per_bank();
    let rows_per_cmd = geom.ar_rows() * geom.num_chips() as u64;

    // Prologue: registration, the observed write, the window opening.
    let meta = EngineMeta::from_record(&records[0]).expect("meta record first");
    assert_eq!(meta.engine, engine_id);
    assert_eq!(meta.policy, POLICY_CHARGE_AWARE);
    assert_eq!(meta.num_banks as u64, banks);
    assert_eq!(meta.ar_sets_per_bank, sets);
    assert_eq!(records[1].kind, RecordKind::Write);
    assert_eq!((records[1].bank, records[1].a), (1, 3));
    assert_eq!(records[2].kind, RecordKind::WindowStart);
    assert_eq!(records[2].a, 0);

    // Window 0: every decision is an untrusted full refresh.
    let window0: Vec<&TraceRecord> = records
        .iter()
        .take_while(|r| r.kind != RecordKind::WindowEnd)
        .filter(|r| matches!(r.kind, RecordKind::RefIssue | RecordKind::RefSkip))
        .collect();
    assert_eq!(window0.len() as u64, banks * sets);
    for rec in &window0 {
        assert_eq!(rec.kind, RecordKind::RefIssue, "window 0 must scan");
        assert_eq!(rec.b, rows_per_cmd);
        assert!(rec.c <= rows_per_cmd);
    }

    // Window 1: every decision is a trusted skip whose counts echo the
    // discharged population window 0 just learned.
    let end0 = records
        .iter()
        .position(|r| r.kind == RecordKind::WindowEnd)
        .unwrap();
    assert_eq!(records[end0].a, 0);
    assert_eq!(records[end0 + 1].kind, RecordKind::WindowStart);
    assert_eq!(records[end0 + 1].a, 1);
    let window1: Vec<&TraceRecord> = records[end0 + 1..]
        .iter()
        .filter(|r| matches!(r.kind, RecordKind::RefIssue | RecordKind::RefSkip))
        .collect();
    assert_eq!(window1.len() as u64, banks * sets);
    for rec in &window1 {
        assert_eq!(rec.kind, RecordKind::RefSkip, "window 1 must trust");
        assert_ne!(rec.flags & FLAG_TRUSTED, 0);
        assert_eq!(rec.b + rec.c, rows_per_cmd);
        let scan = window0
            .iter()
            .find(|w| w.bank == rec.bank && w.a == rec.a)
            .expect("window 0 scanned this set");
        assert_eq!(rec.c, scan.c, "skips must equal the scanned population");
    }

    // Epilogue: the second WindowEnd closes the trace with the window's
    // aggregate counts.
    let last = records.last().unwrap();
    assert_eq!(last.kind, RecordKind::WindowEnd);
    assert_eq!(last.a, 1);
    let total: u64 = window1.iter().map(|r| r.b).sum();
    let skipped: u64 = window1.iter().map(|r| r.c).sum();
    assert_eq!(last.b, total);
    assert_eq!(last.c, skipped);
}
