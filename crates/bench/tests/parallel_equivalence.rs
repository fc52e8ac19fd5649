//! Parallel ≡ serial equivalence of the figure sweeps.
//!
//! Each test runs a figure function twice — once with the experiment
//! pinned to the exact serial path (`threads: Some(1)`) and once on a
//! four-worker pool — and asserts the returned figure data AND its
//! serialized JSON report (`report::report_json`, the bytes
//! `report::write_json` writes) are byte-identical. This is the user-facing
//! half of the determinism contract in
//! `crates/sim/src/experiments/parallel.rs`; `ZR_THREADS` must never
//! change a reported number.

use std::sync::Arc;

use zr_bench::figures;
use zr_bench::report::report_json;
use zr_sim::experiments::{ipc_sim, ExperimentConfig};
use zr_telemetry::Telemetry;
use zr_types::json::{to_compact, Json};
use zr_workloads::Benchmark;

/// Fast representative slice: a friendly scientific workload, a hostile
/// pointer-chaser and a database scan.
const SUBSET: [Benchmark; 3] = [Benchmark::GemsFdtd, Benchmark::Mcf, Benchmark::TpchQ6];

fn exp_at(threads: usize) -> ExperimentConfig {
    ExperimentConfig {
        capacity_bytes: 4 << 20,
        windows: 2,
        threads: Some(threads),
        ..ExperimentConfig::default()
    }
}

#[test]
fn fig14_report_is_byte_identical_across_thread_counts() {
    let serial = figures::fig14_refresh_reduction_for(&SUBSET, &exp_at(1)).unwrap();
    let pooled = figures::fig14_refresh_reduction_for(&SUBSET, &exp_at(4)).unwrap();
    assert_eq!(serial, pooled, "fig14 data diverged under the pool");
    assert_eq!(
        report_json(&serial),
        report_json(&pooled),
        "fig14 JSON report must be byte-identical"
    );
}

#[test]
fn fig14_counters_are_identical_across_thread_counts() {
    // Pooled jobs fold their registries into the parent; every counter a
    // serial run registers must come back, zero-valued ones included.
    let counters = |threads: usize| {
        let telemetry = Arc::new(Telemetry::new());
        let _guard = Telemetry::push_current(Arc::clone(&telemetry));
        figures::fig14_refresh_reduction_for(&SUBSET, &exp_at(threads)).unwrap();
        telemetry.snapshot().counters
    };
    let serial = counters(1);
    assert_eq!(serial.get("memctrl.reads"), Some(&0), "{serial:?}");
    assert_eq!(
        serial,
        counters(4),
        "fig14 counters diverged under the pool"
    );
}

#[test]
fn fig14_events_are_identical_across_thread_counts() {
    // Every event kind is recorded unsampled, so the merged stream of a
    // pooled sweep is the serial stream but for the wall-clock `t_us`
    // and the per-job `seq`.
    let events = |threads: usize| {
        let telemetry = Arc::new(Telemetry::new());
        let sink = telemetry.install_memory_sink();
        let _guard = Telemetry::push_current(Arc::clone(&telemetry));
        figures::fig14_refresh_reduction_for(&SUBSET, &exp_at(threads)).unwrap();
        let lines = sink.take_lines();
        lines
            .iter()
            .map(|line| match Json::parse(line).expect("event line") {
                Json::Obj(mut fields) => {
                    fields.retain(|(key, _)| key != "seq" && key != "t_us");
                    to_compact(&Json::Obj(fields))
                }
                other => panic!("event line is not an object: {other:?}"),
            })
            .collect::<Vec<_>>()
    };
    let serial = events(1);
    assert!(
        serial
            .iter()
            .any(|l| l.contains("\"type\":\"refresh_window\"")),
        "{serial:?}"
    );
    assert_eq!(serial, events(4), "fig14 events diverged under the pool");
}

#[test]
fn fig15_report_is_byte_identical_across_thread_counts() {
    let serial = figures::fig15_energy_for(&SUBSET, &exp_at(1)).unwrap();
    let pooled = figures::fig15_energy_for(&SUBSET, &exp_at(4)).unwrap();
    assert_eq!(serial, pooled, "fig15 data diverged under the pool");
    assert_eq!(
        report_json(&serial),
        report_json(&pooled),
        "fig15 JSON report must be byte-identical"
    );
}

#[test]
fn fig16_report_is_byte_identical_across_thread_counts() {
    let serial = figures::fig16_temperature_for(&SUBSET, &exp_at(1)).unwrap();
    let pooled = figures::fig16_temperature_for(&SUBSET, &exp_at(4)).unwrap();
    assert_eq!(serial, pooled, "fig16 data diverged under the pool");
    assert_eq!(
        report_json(&serial),
        report_json(&pooled),
        "fig16 JSON report must be byte-identical"
    );
}

#[test]
fn fig17_reports_are_byte_identical_across_thread_counts() {
    // Fig. 17 runs every benchmark; the smallest capacity keeps it quick.
    let exp = |threads| ExperimentConfig {
        capacity_bytes: 1 << 20,
        ..exp_at(threads)
    };
    let serial = figures::fig17_ipc(&exp(1)).unwrap();
    let pooled = figures::fig17_ipc(&exp(4)).unwrap();
    assert_eq!(serial, pooled, "fig17 data diverged under the pool");
    assert_eq!(
        report_json(&serial),
        report_json(&pooled),
        "fig17_ipc JSON report must be byte-identical"
    );
    let serial = ipc_sim::suite_sweep(&exp(1)).unwrap();
    let pooled = ipc_sim::suite_sweep(&exp(4)).unwrap();
    assert_eq!(serial, pooled, "fig17 event data diverged under the pool");
    assert_eq!(
        report_json(&serial),
        report_json(&pooled),
        "fig17_ipc_event JSON report must be byte-identical"
    );
}

#[test]
fn oversubscribed_pool_is_still_identical() {
    // More workers than jobs (and than machine cores): the pool caps at
    // the job count and ordering still holds.
    let serial = figures::fig14_refresh_reduction_for(&SUBSET[..2], &exp_at(1)).unwrap();
    let pooled = figures::fig14_refresh_reduction_for(&SUBSET[..2], &exp_at(8)).unwrap();
    assert_eq!(serial, pooled);
}
