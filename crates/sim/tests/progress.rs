//! `ZR_PROGRESS` must be purely observational: enabling the live sweep
//! progress reporter cannot change any sweep result, at any thread
//! count.
//!
//! One test in one file: the knob is a process-global environment
//! variable, so concurrently running tests in the same binary could
//! race on it.

use zr_sim::experiments::{parallel, refresh, ExperimentConfig};
use zr_types::knobs::PROGRESS;
use zr_workloads::Benchmark;

const SUBSET: [Benchmark; 3] = [Benchmark::GemsFdtd, Benchmark::Mcf, Benchmark::TpchQ6];

fn sweep(threads: usize) -> Vec<refresh::RefreshMeasurement> {
    let exp = ExperimentConfig {
        capacity_bytes: 4 << 20,
        windows: 2,
        ..ExperimentConfig::default()
    };
    parallel::sweep_with(threads, SUBSET.len(), |i| {
        refresh::measure(SUBSET[i], 1.0, &exp)
    })
    .expect("sweep")
}

#[test]
fn progress_reporting_never_changes_sweep_results() {
    std::env::remove_var(PROGRESS.name);
    assert!(!PROGRESS.on());
    let quiet_serial = sweep(1);
    let quiet_pooled = sweep(4);
    assert_eq!(quiet_serial, quiet_pooled, "pool determinism baseline");

    std::env::set_var(PROGRESS.name, "1");
    assert!(PROGRESS.on());
    let loud_serial = sweep(1);
    let loud_pooled = sweep(4);
    std::env::remove_var(PROGRESS.name);

    assert_eq!(
        quiet_serial, loud_serial,
        "ZR_PROGRESS=1 changed serial sweep results"
    );
    assert_eq!(
        quiet_pooled, loud_pooled,
        "ZR_PROGRESS=1 changed pooled sweep results"
    );
}
