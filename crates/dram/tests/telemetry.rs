//! Cross-checks the refresh engine's telemetry wiring against its own
//! `WindowStats` accounting: per-window counter deltas must equal the
//! window's stats, and the accumulated totals must equal the summed
//! counters.

use std::sync::Arc;

use zr_dram::{DramRank, RefreshEngine, RefreshPolicy, WindowStats};
use zr_telemetry::Telemetry;
use zr_transform::ValueTransformer;
use zr_types::geometry::{BankId, RowIndex};
use zr_types::SystemConfig;

fn counter_window(snapshot: &zr_telemetry::Snapshot) -> WindowStats {
    WindowStats {
        rows_refreshed: snapshot.counter("dram.refresh.rows_refreshed"),
        rows_skipped: snapshot.counter("dram.refresh.rows_skipped"),
        ar_commands: snapshot.counter("dram.refresh.ar_commands"),
        table_reads: snapshot.counter("dram.refresh.table_reads"),
        table_writes: snapshot.counter("dram.refresh.table_writes"),
    }
}

/// An engine built with `telemetry` as its current instance.
fn engine_on(
    telemetry: &Arc<Telemetry>,
    cfg: &SystemConfig,
    policy: RefreshPolicy,
) -> RefreshEngine {
    let _telemetry = Telemetry::push_current(Arc::clone(telemetry));
    RefreshEngine::new(cfg, policy).unwrap()
}

fn delta(after: &WindowStats, before: &WindowStats) -> WindowStats {
    WindowStats {
        rows_refreshed: after.rows_refreshed - before.rows_refreshed,
        rows_skipped: after.rows_skipped - before.rows_skipped,
        ar_commands: after.ar_commands - before.ar_commands,
        table_reads: after.table_reads - before.table_reads,
        table_writes: after.table_writes - before.table_writes,
    }
}

#[test]
fn accumulated_window_stats_match_summed_counter_deltas() {
    let cfg = SystemConfig::small_test();
    let mut rank = DramRank::new(&cfg).unwrap();
    let telemetry = Arc::new(Telemetry::new());
    let mut eng = engine_on(&telemetry, &cfg, RefreshPolicy::ChargeAware);

    let mut accumulated = WindowStats::default();
    let mut prev = counter_window(&telemetry.snapshot());
    let line = vec![0xA5u8; 64];
    for window in 0..4 {
        if window == 2 {
            // Vary the workload: a write forces a scan window.
            rank.write_encoded_line(BankId(0), RowIndex(2), 0, &line)
                .unwrap();
            eng.note_write(&rank, BankId(0), RowIndex(2));
        }
        let stats = eng.run_window(&mut rank);
        accumulated.accumulate(&stats);
        let now = counter_window(&telemetry.snapshot());
        assert_eq!(delta(&now, &prev), stats, "window {window} counter delta");
        prev = now;
    }

    let finals = telemetry.snapshot();
    assert_eq!(counter_window(&finals), accumulated);
    assert_eq!(counter_window(&finals), eng.totals());
    assert_eq!(finals.counter("dram.refresh.windows"), 4);

    // One skip-fraction observation per window.
    let hist = finals
        .histograms
        .get("dram.refresh.window_skip_fraction")
        .expect("skip fraction histogram");
    assert_eq!(hist.count, 4);
    assert!(hist.max <= 1.0);

    // Tracking-table sizing gauges are published.
    assert!(
        *finals
            .gauges
            .get("dram.tracking.access_bit_table_bytes")
            .unwrap()
            > 0.0
    );
}

/// Skip decisions and transform stages are recorded once, by the trace
/// (`ref_skip`/`ref_issue` and `transform` records); the event stream
/// keeps one summary per refresh window.
#[test]
fn encoded_writes_and_windows_record_only_window_summaries() {
    let cfg = SystemConfig::small_test();
    let mut rank = DramRank::new(&cfg).unwrap();
    let telemetry = Arc::new(Telemetry::new());
    let sink = telemetry.install_memory_sink();
    let mut eng = engine_on(&telemetry, &cfg, RefreshPolicy::ChargeAware);
    let transformer = {
        let _telemetry = Telemetry::push_current(Arc::clone(&telemetry));
        ValueTransformer::new(&cfg).unwrap()
    };
    for row in 0..16 {
        let mut line = vec![row as u8; cfg.line.line_bytes];
        transformer
            .encode_in_place(&mut line, RowIndex(row))
            .unwrap();
        rank.write_encoded_line(BankId(0), RowIndex(row), 0, &line)
            .unwrap();
        eng.note_write(&rank, BankId(0), RowIndex(row));
    }
    eng.run_window(&mut rank);
    eng.run_window(&mut rank);

    // One RefreshWindow summary per window, and nothing else.
    let lines = sink.take_lines();
    assert_eq!(lines.len(), 2, "{lines:#?}");
    assert_eq!(sink.recorded(), 2);
    for line in &lines {
        assert!(line.contains("\"type\":\"refresh_window\""), "{line}");
    }
}

#[test]
fn detached_engine_records_nothing_on_the_private_instance() {
    let cfg = SystemConfig::small_test();
    let mut rank = DramRank::new(&cfg).unwrap();
    let telemetry = Arc::new(Telemetry::new());
    let mut eng = engine_on(&telemetry, &cfg, RefreshPolicy::Conventional);
    // Inactive instance: counters still accumulate (cheap), no events.
    eng.run_window(&mut rank);
    assert!(telemetry.snapshot().counter("dram.refresh.rows_refreshed") > 0);
    assert!(telemetry.snapshot().span("refresh.window").is_none());
}
