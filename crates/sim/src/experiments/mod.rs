//! Experiment drivers, one module per evaluation axis.
//!
//! Every refresh and energy cell runs the same populate → scan window →
//! measured windows loop, [`refresh::measure_cell`]; [`energy::measure`]
//! prices that loop's refresh activity instead of running its own. The
//! Fig. 14, 15 and 16 sweeps live here as well
//! ([`refresh::allocation_sweep`], [`energy::allocation_sweep`],
//! [`refresh::temperature_sweep`]): one [`parallel`] pool job per
//! benchmark, returning one row per benchmark. An allocation sweep's job
//! populates the benchmark's image once ([`population::populate`]) and
//! measures each allocation on a fork of it; a Fig. 16 job measures
//! both temperatures on one image. The figure builders of
//! `zr-bench`, the data-center scenarios and `zr-serve` all call them.

pub mod datacenter;
pub mod energy;
pub mod ipc;
pub mod ipc_sim;
pub mod parallel;
pub mod population;
pub mod priorwork;
pub mod refresh;
pub mod scalability;
pub mod zeros;

/// The mean of each column of a bench-major figure table (one row per
/// benchmark), summed in row order.
pub fn column_means(table: &[Vec<f64>]) -> Vec<f64> {
    let mut means = vec![0.0; table.first().map_or(0, Vec::len)];
    for row in table {
        for (m, c) in means.iter_mut().zip(row) {
            *m += c;
        }
    }
    for m in &mut means {
        *m /= table.len() as f64;
    }
    means
}

/// Shared knobs for the experiment drivers.
///
/// The paper simulates a 32 GB memory; the mechanism is value-based, so
/// *normalized* results are capacity-invariant (demonstrated by
/// [`scalability`]) and the default scales the memory down for wall-clock
/// reasons. The window count matches the paper's "more than 256 ms to
/// achieve 8 refresh operations".
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Simulated memory capacity in bytes.
    pub capacity_bytes: u64,
    /// Rank-row (row buffer) size in bytes.
    pub row_bytes: usize,
    /// Measured retention windows (after one unmeasured scan window).
    pub windows: u64,
    /// Temperature mode (retention time).
    pub temperature: zr_types::TemperatureMode,
    /// Seed for all stochastic content/traffic generation.
    pub seed: u64,
    /// Transformation stage toggles (ablations disable stages).
    pub transform: zr_types::TransformConfig,
    /// Sweep-pool width override: `None` defers to `ZR_THREADS` /
    /// available parallelism (see [`zr_types::knobs::thread_count`]); `Some(1)`
    /// pins the exact serial path. Results are byte-identical for every
    /// value — this knob trades wall time only.
    pub threads: Option<usize>,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            capacity_bytes: 64 << 20,
            row_bytes: 4096,
            windows: 8,
            temperature: zr_types::TemperatureMode::Extended,
            seed: 0x5EED,
            transform: zr_types::TransformConfig::paper_default(),
            threads: None,
        }
    }
}

impl ExperimentConfig {
    /// A deliberately tiny configuration for unit tests.
    pub fn tiny_test() -> Self {
        ExperimentConfig {
            capacity_bytes: 4 << 20,
            windows: 3,
            ..ExperimentConfig::default()
        }
    }

    /// The configuration the conformance golden gates (`zr-conform`)
    /// run the figure experiments at: as small as [`Self::tiny_test`] but
    /// with its own fixed seed, so blessing a golden snapshot does not
    /// couple to the unit-test knobs.
    pub fn conform_test() -> Self {
        ExperimentConfig {
            capacity_bytes: 4 << 20,
            windows: 3,
            seed: 0x00C0_F042,
            ..ExperimentConfig::default()
        }
    }

    /// The sweep-pool width this experiment runs at: the explicit
    /// [`ExperimentConfig::threads`] override when set, otherwise the
    /// process-wide [`zr_types::knobs::thread_count`] resolution.
    pub fn effective_threads(&self) -> usize {
        self.threads
            .unwrap_or_else(zr_types::knobs::thread_count)
            .max(1)
    }

    /// A canonical key/value rendering of every field that affects
    /// simulation *results*. The sweep-pool width is deliberately
    /// excluded: results are byte-identical at every thread count, so
    /// two runs differing only in `threads` are the same experiment.
    /// Run manifests fingerprint configurations by hashing this string
    /// (`zr-lens`, see `docs/LENS.md`); the leading `v1` versions the
    /// rendering itself.
    pub fn canonical_string(&self) -> String {
        format!(
            "v1 capacity_bytes={} row_bytes={} windows={} temperature={:?} seed={} \
             ebdi={} bit_plane={} rotation={} cell_aware={}",
            self.capacity_bytes,
            self.row_bytes,
            self.windows,
            self.temperature,
            self.seed,
            self.transform.ebdi,
            self.transform.bit_plane,
            self.transform.rotation,
            self.transform.cell_aware,
        )
    }

    /// Validates the experiment knobs and the [`zr_types::SystemConfig`]
    /// they derive.
    ///
    /// The zero-row-size guard runs *before* [`Self::system_config`] is
    /// built, because deriving the geometry divides by `row_bytes` — on
    /// protocol-reachable paths (zr-serve) a degenerate request must
    /// surface as an error, never a panic.
    ///
    /// # Errors
    ///
    /// [`zr_types::Error::InvalidConfig`] for zero windows (a figure
    /// computed from no measured window), a zero row size, any
    /// inconsistency [`zr_types::SystemConfig::validate`] reports in the
    /// derived system, or a row size that leaves a bank fewer rows than
    /// the refresh stagger spans ([`zr_dram::refresh::check_stagger_geometry`]).
    pub fn validate(&self) -> zr_types::Result<()> {
        if self.windows == 0 {
            return Err(zr_types::Error::invalid_config(
                "windows must be at least 1",
            ));
        }
        if self.row_bytes == 0 {
            return Err(zr_types::Error::invalid_config(
                "row_bytes must be non-zero",
            ));
        }
        let geometry = zr_types::Geometry::new(&self.system_config())?;
        zr_dram::refresh::check_stagger_geometry(&geometry)
    }

    /// The [`zr_types::SystemConfig`] realizing this experiment setup.
    ///
    /// The true/anti-cell block size scales with the capacity (1/8 of the
    /// rows per bank, capped at the physical 512) so that scaled-down
    /// memories still contain both cell types in the same proportion as
    /// the full-size device — otherwise small simulations would see only
    /// true cells and the cell-type machinery would be dead code.
    pub fn system_config(&self) -> zr_types::SystemConfig {
        let mut cfg = zr_types::SystemConfig::paper_default();
        cfg.dram.capacity_bytes = self.capacity_bytes;
        cfg.dram.row_bytes = self.row_bytes;
        cfg.dram.cell_block_rows = (cfg.dram.rows_per_bank() / 8).clamp(1, 512);
        cfg.timing.temperature = self.temperature;
        cfg.transform = self.transform;
        cfg
    }

    /// Wall-clock scale of one retention window relative to the 32 ms
    /// extended-temperature base: workloads issue twice the writes in a
    /// 64 ms window.
    pub fn window_scale(&self) -> f64 {
        match self.temperature {
            zr_types::TemperatureMode::Extended => 1.0,
            zr_types::TemperatureMode::Normal => 2.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_configs_validate() {
        ExperimentConfig::default().validate().unwrap();
        ExperimentConfig::tiny_test().validate().unwrap();
        ExperimentConfig::conform_test().validate().unwrap();
    }

    #[test]
    fn degenerate_configs_error_instead_of_panicking() {
        // Zero row size would divide-by-zero in rows_per_bank() if it
        // reached system_config(); validate() must catch it first.
        let mut zero_row = ExperimentConfig::tiny_test();
        zero_row.row_bytes = 0;
        assert!(zero_row.validate().is_err());
        let mut odd_row = ExperimentConfig::tiny_test();
        odd_row.row_bytes = 3000;
        assert!(odd_row.validate().is_err());
        let mut ragged = ExperimentConfig::tiny_test();
        ragged.capacity_bytes = 4096 * 8 + 17;
        assert!(ragged.validate().is_err());
        let mut empty = ExperimentConfig::tiny_test();
        empty.capacity_bytes = 0;
        assert!(empty.validate().is_err());
        let mut unmeasured = ExperimentConfig::tiny_test();
        unmeasured.windows = 0;
        let message = unmeasured.validate().unwrap_err().to_string();
        assert!(message.contains("windows"), "{message}");
    }

    #[test]
    fn banks_with_fewer_rows_than_chips_are_rejected_by_name() {
        // 1 MiB over 8 banks of 64 KiB rows: 2 rows per bank for the 8
        // chips of the refresh stagger.
        let config = ExperimentConfig {
            capacity_bytes: 1 << 20,
            row_bytes: 65536,
            ..ExperimentConfig::tiny_test()
        };
        let message = config.validate().unwrap_err().to_string();
        assert!(message.contains("row_bytes 65536"), "{message}");
        assert!(message.contains("capacity 1048576 bytes"), "{message}");
        assert!(message.contains("2 rows per bank"), "{message}");
        // One row per chip is enough.
        let fits = ExperimentConfig {
            capacity_bytes: 4 << 20,
            ..config
        };
        fits.validate().unwrap();
    }
}
