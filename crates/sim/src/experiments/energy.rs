//! Refresh-energy experiment (Fig. 15): normalized energy including every
//! ZERO-REFRESH overhead (EBDI operations, status-table traffic, SRAM
//! leakage).

use zero_refresh::EnergyAccountant;
use zr_dram::RefreshPolicy;
use zr_types::Result;
use zr_workloads::Benchmark;

use super::refresh::{self, RefreshMeasurement};
use super::ExperimentConfig;

/// Measured energy behaviour of one benchmark/scenario pair.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyMeasurement {
    /// Benchmark name.
    pub benchmark: &'static str,
    /// Allocated memory fraction of the scenario.
    pub alloc_fraction: f64,
    /// Refresh energy (with all overheads) normalized to the conventional
    /// baseline — the Fig. 15 y-axis.
    pub normalized_energy: f64,
    /// Normalized refresh *operations* of the same run, for correlation
    /// with Fig. 14.
    pub normalized_refreshes: f64,
}

/// Measures the normalized refresh energy for one benchmark at one
/// allocation fraction: prices the refresh activity of the Fig. 14 cell
/// ([`refresh::measure_cell`] under the charge-aware policy). Only the
/// steady-state measurement windows are priced (population and the scan
/// window are excluded on both sides of the comparison).
///
/// # Errors
///
/// Returns configuration/address errors from the underlying layers.
pub fn measure(
    benchmark: Benchmark,
    alloc_fraction: f64,
    exp: &ExperimentConfig,
) -> Result<EnergyMeasurement> {
    let policy = RefreshPolicy::ChargeAware;
    let (refresh, ebdi_writes) =
        refresh::measure_cell(benchmark, alloc_fraction, policy, exp, |_| {})?;
    price(benchmark, &refresh, ebdi_writes, exp)
}

/// Prices one measured charge-aware cell: its refresh statistics and the
/// lines written in its measured windows.
fn price(
    benchmark: Benchmark,
    refresh: &RefreshMeasurement,
    ebdi_writes: u64,
    exp: &ExperimentConfig,
) -> Result<EnergyMeasurement> {
    // The trace generates writes; the EBDI module also runs on every read.
    // Estimate reads from the workload's write fraction.
    let profile = benchmark.profile();
    let read_ops = if profile.write_fraction > 0.0 {
        (ebdi_writes as f64 * (1.0 - profile.write_fraction) / profile.write_fraction) as u64
    } else {
        0
    };

    let accountant = EnergyAccountant::new(&exp.system_config())?;
    let sram_bytes = zr_energy::accounting::ACCESS_TABLE_FULLSCALE_BYTES;
    let breakdown = accountant.breakdown(
        refresh.stats.rows_refreshed,
        refresh.stats.table_reads,
        refresh.stats.table_writes,
        ebdi_writes + read_ops,
        sram_bytes,
        exp.windows,
    );
    Ok(EnergyMeasurement {
        benchmark: benchmark.name(),
        alloc_fraction: refresh.alloc_fraction,
        normalized_energy: accountant.normalized(&breakdown, exp.windows),
        normalized_refreshes: refresh.normalized,
    })
}

/// The Fig. 15 sweep: normalized refresh energy of each of `benches` at
/// each of `allocs`, one row per benchmark — the cells of
/// [`refresh::allocation_sweep`] (one pool job per benchmark, one
/// populated image per job), priced.
///
/// # Errors
///
/// Returns the error of the first failing benchmark.
pub fn allocation_sweep(
    benches: &[Benchmark],
    allocs: &[f64],
    exp: &ExperimentConfig,
) -> Result<Vec<Vec<f64>>> {
    refresh::allocation_grid(benches, allocs, exp)?
        .iter()
        .zip(benches)
        .map(|(row, &b)| {
            row.iter()
                .map(|(refresh, writes)| Ok(price(b, refresh, *writes, exp)?.normalized_energy))
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_tracks_refresh_reduction_with_small_overhead() {
        let exp = ExperimentConfig::tiny_test();
        let m = measure(Benchmark::Gcc, 0.5, &exp).unwrap();
        // Fig. 15 sits slightly above Fig. 14 (overheads), but far below 1.
        assert!(m.normalized_energy < 1.0);
        assert!(
            m.normalized_energy >= m.normalized_refreshes - 1e-9,
            "energy {} below refresh {}",
            m.normalized_energy,
            m.normalized_refreshes
        );
        assert!(
            m.normalized_energy - m.normalized_refreshes < 0.15,
            "overhead too large: {} vs {}",
            m.normalized_energy,
            m.normalized_refreshes
        );
    }

    #[test]
    fn idle_memory_energy_is_small() {
        let exp = ExperimentConfig::tiny_test();
        let m = measure(Benchmark::Gcc, 0.0, &exp).unwrap();
        assert!(m.normalized_energy < 0.2, "energy {}", m.normalized_energy);
    }
}
