//! The three observability crates share one per-thread override stack
//! (`zr_par::context::Stack`) behind their `current()` / `push_current()`
//! APIs. This test forks all three layers inside one pooled sweep —
//! exactly what `zr_sim::experiments::parallel::sweep_with` does — and
//! proves the submission-order round-trip: whatever order the workers
//! *ran* in, the absorbed telemetry counters, trace records and xray
//! engines come back in job-index order, identical to a serial run.

use std::sync::Arc;

use zr_telemetry::Telemetry;
use zr_trace::{RecordKind, TraceRecord, TraceRecorder};
use zr_xray::XrayRecorder;

const JOBS: usize = 16;

/// Runs `JOBS` jobs at `threads`, forking all three contexts per job,
/// and returns `(trace payloads in absorb order, xray engine labels in
/// absorb order, total counter)`.
fn run_all_layers(threads: usize) -> (Vec<u64>, Vec<String>, u64) {
    let parent_telemetry = Arc::new(Telemetry::new());
    let parent_trace = Arc::new(TraceRecorder::memory());
    let parent_xray = Arc::new(XrayRecorder::memory_with_cap(zr_xray::DEFAULT_WINDOW_CAP));

    let _tel = Telemetry::push_current(Arc::clone(&parent_telemetry));
    let _trace = TraceRecorder::push_current(Arc::clone(&parent_trace));
    let _xray = XrayRecorder::push_current(Arc::clone(&parent_xray));

    let outcomes = zr_par::run_jobs(threads, JOBS, |i| {
        let job_telemetry = parent_telemetry.fork_job();
        let job_trace = Arc::new(TraceRecorder::memory());
        let job_xray = Arc::new(parent_xray.fork_job());
        let _tg = Telemetry::push_current(Arc::clone(&job_telemetry));
        let _rg = TraceRecorder::push_current(Arc::clone(&job_trace));
        let _xg = XrayRecorder::push_current(Arc::clone(&job_xray));

        // Every layer must resolve `current()` to this job's fork, on
        // whatever worker thread the pool scheduled it on.
        assert!(Arc::ptr_eq(&Telemetry::current(), &job_telemetry));
        assert!(Arc::ptr_eq(&TraceRecorder::current(), &job_trace));
        assert!(Arc::ptr_eq(&XrayRecorder::current(), &job_xray));

        // Stagger completion order so pooled runs absorb out of
        // finish order; indices must still come back sorted.
        if i % 3 == 0 {
            std::thread::yield_now();
        }

        Telemetry::current().counter("ctx.jobs").add(1);
        let mut rec = TraceRecord::new(RecordKind::Transform, 0);
        rec.a = i as u64;
        TraceRecorder::current().record(rec);
        let xray = XrayRecorder::current();
        let engine = xray.announce_engine(&format!("job{i}"), "charge_aware", 1, 1);
        xray.record_ar(engine, 0, 0, 0, 1, i as u64, 0);

        (job_telemetry, job_trace, job_xray)
    });

    for (job_telemetry, job_trace, job_xray) in outcomes {
        parent_telemetry.absorb_job(&job_telemetry);
        parent_trace.absorb_bytes(&job_trace.take_bytes());
        parent_xray.absorb(&job_xray);
    }

    let trace_payloads: Vec<u64> = zr_trace::parse_trace(&parent_trace.take_bytes())
        .expect("parse absorbed trace")
        .iter()
        .filter(|r| r.kind == RecordKind::Transform)
        .map(|r| r.a)
        .collect();
    let snapshot = parent_xray.snapshot();
    let labels: Vec<String> = snapshot.engines.iter().map(|e| e.label.clone()).collect();
    let counter = parent_telemetry.snapshot().counter("ctx.jobs");
    (trace_payloads, labels, counter)
}

#[test]
fn all_three_contexts_round_trip_in_submission_order() {
    for threads in [1, 2, 4, 8] {
        let (trace_payloads, labels, counter) = run_all_layers(threads);
        assert_eq!(
            trace_payloads,
            (0..JOBS as u64).collect::<Vec<_>>(),
            "trace records out of submission order at threads={threads}"
        );
        assert_eq!(
            labels,
            (0..JOBS).map(|i| format!("job{i}")).collect::<Vec<_>>(),
            "xray engines out of submission order at threads={threads}"
        );
        assert_eq!(counter, JOBS as u64, "threads={threads}");
    }
}

#[test]
fn serial_and_pooled_runs_absorb_identically() {
    let serial = run_all_layers(1);
    let pooled = run_all_layers(4);
    assert_eq!(serial, pooled);
}

#[test]
fn nested_overrides_unwind_to_the_parent() {
    let parent = Arc::new(Telemetry::new());
    let _g = Telemetry::push_current(Arc::clone(&parent));
    {
        let inner = parent.fork_job();
        let _g2 = Telemetry::push_current(Arc::clone(&inner));
        assert!(Arc::ptr_eq(&Telemetry::current(), &inner));
    }
    assert!(Arc::ptr_eq(&Telemetry::current(), &parent));
}
