//! Event-driven IPC experiment: the Fig. 17 question answered with the
//! bank-timing simulator of `zr-timing` instead of the closed-form model.
//!
//! For each benchmark, the measured refresh reduction (Fig. 14) is fed
//! into the timing simulator as shorter auto-refresh busy windows; the
//! same synthetic request stream is then timed under conventional refresh
//! and under ZERO-REFRESH, and the latency difference becomes an IPC
//! ratio through the standard memory-boundedness formula.

use zr_timing::{MemoryTimingSim, RefreshDurations, RequestGenerator};
use zr_types::json::{Json, ToJson};
use zr_types::Result;
use zr_workloads::Benchmark;

use super::refresh;
use super::ExperimentConfig;

/// Core-model constants shared with [`crate::timing::IpcModel`].
const BASE_CPI: f64 = 0.6;
const MLP: f64 = 5.0;
const FREQ_GHZ: f64 = 4.0;

/// Requests to simulate per benchmark (enough to cover hundreds of
/// refresh windows at memory-bound arrival rates).
const REQUESTS: usize = 60_000;

/// One benchmark's event-driven timing comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct IpcSimMeasurement {
    /// Benchmark name.
    pub benchmark: &'static str,
    /// Normalized refresh operations driving the refresh durations.
    pub normalized_refreshes: f64,
    /// Mean request latency under conventional refresh (ns).
    pub latency_conventional_ns: f64,
    /// Mean request latency under ZERO-REFRESH (ns).
    pub latency_zero_refresh_ns: f64,
    /// Normalized IPC (> 1.0 is a speedup).
    pub normalized_ipc: f64,
}

impl ToJson for IpcSimMeasurement {
    fn to_json(&self) -> Json {
        Json::obj([
            ("benchmark", self.benchmark.to_json()),
            ("normalized_refreshes", self.normalized_refreshes.to_json()),
            (
                "latency_conventional_ns",
                self.latency_conventional_ns.to_json(),
            ),
            (
                "latency_zero_refresh_ns",
                self.latency_zero_refresh_ns.to_json(),
            ),
            ("normalized_ipc", self.normalized_ipc.to_json()),
        ])
    }
}

/// Runs the event-driven comparison for one benchmark at 100% allocation.
///
/// # Errors
///
/// Returns configuration/address errors from the underlying layers.
pub fn measure(benchmark: Benchmark, exp: &ExperimentConfig) -> Result<IpcSimMeasurement> {
    let profile = benchmark.profile();
    let normalized = refresh::measure(benchmark, 1.0, exp)?.normalized;

    let mut cfg = exp.system_config();
    // Table II's tRFC = 28 ns is the scaled DRAMSim2 setting; the
    // bank-blocking cost at the paper's reference density uses the JEDEC
    // 16 Gb refresh cycle time — halved for *per-bank* refresh commands,
    // which cover one bank and complete in roughly half the all-bank time
    // (the LPDDR tRFCpb:tRFCab ratio).
    cfg.timing.t_rfc_ns = zr_energy::DevicePowerModel::t_rfc_ns(16) / 2.0;
    // Arrival rate from memory-boundedness: accesses/ns =
    // (mpki/1000) x (instructions/ns ~ freq/base_cpi, damped by MLP
    // exposure). A simple, monotone mapping is enough: memory-bound
    // workloads stress the banks, compute-bound ones do not.
    let accesses_per_ns = (profile.mpki / 1000.0) * (FREQ_GHZ / BASE_CPI) * 0.5;
    let interval = (1.0 / accesses_per_ns).clamp(5.0, 2000.0);
    let mut gen = RequestGenerator::new(&cfg, benchmark.derive_seed(exp.seed));
    gen.arrival_interval_ns(interval)
        .row_locality(0.6)
        .write_fraction(profile.write_fraction);
    let requests = gen.generate(REQUESTS)?;

    let mut conv = MemoryTimingSim::new(&cfg, RefreshDurations::Conventional)?;
    let mut zr = MemoryTimingSim::new(
        &cfg,
        RefreshDurations::Uniform {
            refreshed_fraction: normalized,
        },
    )?;
    let sc = conv.process(&requests)?;
    let sz = zr.process(&requests)?;
    let ipc_c = sc.ipc_estimate(BASE_CPI, profile.mpki, MLP, FREQ_GHZ);
    let ipc_z = sz.ipc_estimate(BASE_CPI, profile.mpki, MLP, FREQ_GHZ);
    Ok(IpcSimMeasurement {
        benchmark: benchmark.name(),
        normalized_refreshes: normalized,
        latency_conventional_ns: sc.mean_latency_ns(),
        latency_zero_refresh_ns: sz.mean_latency_ns(),
        normalized_ipc: ipc_z / ipc_c,
    })
}

/// The full event-driven Fig. 17 sweep: one [`super::parallel`] pool
/// job per benchmark at [`ExperimentConfig::effective_threads`], in
/// suite order.
///
/// # Errors
///
/// See [`measure`]; the error of the first failing benchmark.
pub fn suite_sweep(exp: &ExperimentConfig) -> Result<Vec<IpcSimMeasurement>> {
    let benches = Benchmark::all();
    super::parallel::sweep_with(exp.effective_threads(), benches.len(), |i| {
        measure(benches[i], exp)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_refresh_never_slows_down() {
        let exp = ExperimentConfig::tiny_test();
        let m = measure(Benchmark::Mcf, &exp).unwrap();
        assert!(m.normalized_ipc >= 1.0 - 1e-9, "ipc {}", m.normalized_ipc);
        assert!(m.latency_zero_refresh_ns <= m.latency_conventional_ns + 1e-9);
    }

    #[test]
    fn memory_bound_gains_more_in_the_event_model() {
        let exp = ExperimentConfig::tiny_test();
        let gems = measure(Benchmark::GemsFdtd, &exp).unwrap();
        let gobmk = measure(Benchmark::Gobmk, &exp).unwrap();
        assert!(
            gems.normalized_ipc >= gobmk.normalized_ipc,
            "gems {} vs gobmk {}",
            gems.normalized_ipc,
            gobmk.normalized_ipc
        );
    }
}
