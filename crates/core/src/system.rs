//! The top-level ZERO-REFRESH system handle.

use zr_dram::{RefreshPolicy, WindowStats};
use zr_energy::{EnergyAccountant, EnergyBreakdown};
use zr_memctrl::MemoryController;
use zr_types::geometry::LineAddr;
use zr_types::units::Picojoules;
use zr_types::{Geometry, Result, SystemConfig, TemperatureMode};

/// Summary of the refresh activity since the system was built.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefreshSummary {
    /// Accumulated refresh statistics.
    pub stats: WindowStats,
    /// Retention windows completed.
    pub windows: u64,
    /// Refresh operations normalized to the conventional baseline
    /// (the Fig. 14 metric): 1.0 means no savings.
    pub normalized_refreshes: f64,
    /// Refresh energy (including all ZERO-REFRESH overheads) normalized
    /// to the conventional baseline (the Fig. 15 metric).
    pub normalized_energy: f64,
}

/// A configured ZERO-REFRESH memory system: transformer + controller +
/// rank + refresh engine + energy accounting.
///
/// See the [crate docs](crate) for the architecture overview and a usage
/// example.
#[derive(Debug, Clone)]
pub struct ZeroRefreshSystem {
    config: SystemConfig,
    controller: MemoryController,
    accountant: EnergyAccountant,
    windows: u64,
}

impl ZeroRefreshSystem {
    /// Builds a system with the paper's charge-aware policy.
    ///
    /// # Errors
    ///
    /// Returns [`zr_types::Error::InvalidConfig`] if the configuration
    /// does not validate.
    pub fn new(config: &SystemConfig) -> Result<Self> {
        Self::with_policy(config, RefreshPolicy::ChargeAware)
    }

    /// Builds a system with an explicit refresh policy (conventional and
    /// naive-SRAM policies serve as baselines/ablations).
    ///
    /// # Errors
    ///
    /// Returns [`zr_types::Error::InvalidConfig`] if the configuration
    /// does not validate.
    pub fn with_policy(config: &SystemConfig, policy: RefreshPolicy) -> Result<Self> {
        Ok(ZeroRefreshSystem {
            controller: MemoryController::new(config, policy)?,
            accountant: EnergyAccountant::new(config)?,
            config: config.clone(),
            windows: 0,
        })
    }

    /// A copy of this system for a separate measurement: the stored
    /// image is shared copy-on-write, and the copy's refresh engine takes
    /// a fresh trace engine id and announces itself to the trace and xray
    /// recorders as a newly built one does ([`MemoryController::fork`]).
    /// A plain clone keeps the engine's id.
    ///
    /// Valid only before the first refresh window: trace replay models
    /// every engine from power-up, with every access bit set, and writes
    /// leave the bits that way, so only an unrefreshed system's copy
    /// matches that model (checked in debug builds).
    pub fn fork(&self) -> ZeroRefreshSystem {
        debug_assert_eq!(
            self.windows, 0,
            "a system can only be forked before its first refresh window"
        );
        ZeroRefreshSystem {
            config: self.config.clone(),
            controller: self.controller.fork(),
            accountant: self.accountant.clone(),
            windows: self.windows,
        }
    }

    /// Sets the temperature mode this system is priced at: the mode in
    /// [`Self::config`], and the [`EnergyAccountant`] rebuilt from that
    /// configuration. Nothing else reads the temperature, so a system
    /// populated at one temperature can be measured at another.
    ///
    /// Valid only before the first refresh window (checked in debug
    /// builds, as [`Self::fork`] is): the accountant prices every
    /// window at the current temperature, so a later retarget would
    /// price the windows already run at the new one.
    ///
    /// # Errors
    ///
    /// Returns [`zr_types::Error::InvalidConfig`] if the retargeted
    /// configuration does not validate.
    pub fn retarget_temperature(&mut self, mode: TemperatureMode) -> Result<()> {
        debug_assert_eq!(
            self.windows, 0,
            "a system can only be retargeted before its first refresh window"
        );
        let mut config = self.config.clone();
        config.timing.temperature = mode;
        self.accountant = EnergyAccountant::new(&config)?;
        self.config = config;
        Ok(())
    }

    /// The configuration the system was built with.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The derived geometry.
    pub fn geometry(&self) -> &Geometry {
        self.controller.geometry()
    }

    /// The underlying memory controller.
    pub fn controller(&self) -> &MemoryController {
        &self.controller
    }

    /// Mutable access to the controller (experiments, failure injection).
    pub fn controller_mut(&mut self) -> &mut MemoryController {
        &mut self.controller
    }

    /// Writes one cacheline at line address `addr`.
    ///
    /// # Errors
    ///
    /// Propagates the controller's length/address errors.
    pub fn write_line(&mut self, addr: LineAddr, data: &[u8]) -> Result<()> {
        self.controller.write_line(addr, data)
    }

    /// Reads one cacheline.
    ///
    /// # Errors
    ///
    /// Propagates the controller's address errors.
    pub fn read_line(&mut self, addr: LineAddr) -> Result<Vec<u8>> {
        self.controller.read_line(addr)
    }

    /// Zero-fills a range of cachelines (the OS cleansing path of §III-B).
    ///
    /// # Errors
    ///
    /// Propagates the controller's address errors.
    pub fn zero_fill_lines(&mut self, start: LineAddr, count: u64) -> Result<()> {
        self.controller.zero_fill_lines(start, count)
    }

    /// Runs one retention window of refresh and returns its statistics.
    pub fn run_refresh_window(&mut self) -> WindowStats {
        self.windows += 1;
        self.controller.run_refresh_window()
    }

    /// The ZERO-REFRESH energy breakdown for the activity so far
    /// (refreshes performed, status-table traffic, EBDI operations and
    /// tracking-SRAM leakage).
    pub fn energy_breakdown(&self) -> EnergyBreakdown {
        let totals = self.controller.engine().totals();
        // Leakage is charged for the *full-scale* tracking structure of the
        // policy (reference-scale accounting; see `zr_energy::accounting`).
        let sram_bytes = match self.controller.engine().policy() {
            RefreshPolicy::Conventional => 0,
            RefreshPolicy::ChargeAware => zr_energy::accounting::ACCESS_TABLE_FULLSCALE_BYTES,
            RefreshPolicy::NaiveSram => zr_energy::accounting::NAIVE_TABLE_FULLSCALE_BYTES,
        };
        let ebdi_ops = match self.controller.engine().policy() {
            // The conventional baseline has no EBDI module on the path.
            RefreshPolicy::Conventional => 0,
            _ => self.controller.stats().ebdi_operations(),
        };
        self.accountant.breakdown(
            totals.rows_refreshed,
            totals.table_reads,
            totals.table_writes,
            ebdi_ops,
            sram_bytes,
            self.windows.max(1),
        )
    }

    /// Energy of the conventional baseline over the same number of
    /// windows.
    pub fn conventional_energy(&self) -> Picojoules {
        self.accountant.conventional_energy(self.windows.max(1))
    }

    /// Summary of refresh and energy activity so far.
    pub fn refresh_summary(&self) -> RefreshSummary {
        let stats = self.controller.engine().totals();
        let breakdown = self.energy_breakdown();
        RefreshSummary {
            stats,
            windows: self.windows,
            normalized_refreshes: stats.normalized_refreshes(),
            normalized_energy: self.accountant.normalized(&breakdown, self.windows.max(1)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> ZeroRefreshSystem {
        ZeroRefreshSystem::new(&SystemConfig::small_test()).unwrap()
    }

    /// Writes `data` as consecutive cachelines from line `first` on.
    fn write_lines(s: &mut ZeroRefreshSystem, first: u64, data: &[u8]) {
        for (i, line) in data.chunks_exact(64).enumerate() {
            s.write_line(LineAddr(first + i as u64), line).unwrap();
        }
    }

    #[test]
    fn round_trip_through_public_api() {
        let mut s = sys();
        let data: Vec<u8> = (0..192u8).collect();
        write_lines(&mut s, 1, &data);
        for (i, line) in data.chunks_exact(64).enumerate() {
            assert_eq!(s.read_line(LineAddr(1 + i as u64)).unwrap(), line);
        }
    }

    #[test]
    fn idle_memory_stops_refreshing() {
        let mut s = sys();
        s.run_refresh_window();
        let w = s.run_refresh_window();
        assert_eq!(w.rows_refreshed, 0);
        assert_eq!(s.refresh_summary().windows, 2);
    }

    #[test]
    fn summary_tracks_normalization() {
        let mut s = sys();
        s.run_refresh_window(); // full scan
        s.run_refresh_window(); // full skip
        let summary = s.refresh_summary();
        assert!((summary.normalized_refreshes - 0.5).abs() < 1e-12);
        assert!(summary.normalized_energy < 1.0);
        assert_eq!(summary.windows, 2);
    }

    #[test]
    fn conventional_policy_normalizes_to_one() {
        let mut s = ZeroRefreshSystem::with_policy(
            &SystemConfig::small_test(),
            RefreshPolicy::Conventional,
        )
        .unwrap();
        s.run_refresh_window();
        let summary = s.refresh_summary();
        assert_eq!(summary.normalized_refreshes, 1.0);
        // No EBDI module, no tracking SRAM: energy is exactly baseline.
        assert!((summary.normalized_energy - 1.0).abs() < 1e-12);
    }

    #[test]
    fn charge_aware_beats_conventional_energy_on_idle_memory() {
        let mut zr = sys();
        for _ in 0..4 {
            zr.run_refresh_window();
        }
        let summary = zr.refresh_summary();
        assert!(
            summary.normalized_energy < 0.5,
            "normalized energy {}",
            summary.normalized_energy
        );
    }

    #[test]
    fn retargeted_system_prices_like_one_built_at_that_temperature() {
        let build = |mode: TemperatureMode| {
            let mut cfg = SystemConfig::small_test();
            cfg.timing.temperature = mode;
            let mut s = ZeroRefreshSystem::new(&cfg).unwrap();
            write_lines(&mut s, 0, &[0x5Au8; 8192]);
            write_lines(&mut s, 3 << 10, &(0..=255u8).collect::<Vec<_>>());
            s
        };
        let mut retargeted = build(TemperatureMode::Extended);
        retargeted
            .retarget_temperature(TemperatureMode::Normal)
            .unwrap();
        let mut built = build(TemperatureMode::Normal);
        assert_eq!(retargeted.config(), built.config());
        for _ in 0..3 {
            assert_eq!(retargeted.run_refresh_window(), built.run_refresh_window());
            write_lines(&mut retargeted, 1, &[7u8; 128]);
            write_lines(&mut built, 1, &[7u8; 128]);
        }
        assert_eq!(retargeted.energy_breakdown(), built.energy_breakdown());
        assert_eq!(
            retargeted.conventional_energy(),
            built.conventional_energy()
        );
        assert_eq!(retargeted.refresh_summary(), built.refresh_summary());
        // And the retarget is not a no-op: a 32 ms window leaks half as
        // much tracking-SRAM energy as a 64 ms one.
        let mut extended = build(TemperatureMode::Extended);
        for _ in 0..3 {
            extended.run_refresh_window();
            write_lines(&mut extended, 1, &[7u8; 128]);
        }
        assert_ne!(extended.energy_breakdown(), built.energy_breakdown());
    }

    #[test]
    fn new_rejects_bad_config() {
        let mut cfg = SystemConfig::small_test();
        cfg.dram.capacity_bytes = 12345; // not a whole number of rows
        assert!(ZeroRefreshSystem::new(&cfg).is_err());
    }

    #[test]
    fn naive_policy_accounts_big_sram() {
        // At realistic scale the naive per-row SRAM (1 bit per rank-row)
        // is 4x the access-bit table (1 bit per AR set), and grows with
        // capacity while the access-bit table stays at 8 KB beyond 8 GB.
        let cfg = SystemConfig::paper_default(); // 1 GiB scaled default
        let naive = ZeroRefreshSystem::with_policy(&cfg, RefreshPolicy::NaiveSram).unwrap();
        let split = ZeroRefreshSystem::new(&cfg).unwrap();
        let e_naive = naive.energy_breakdown().sram_leakage;
        let e_split = split.energy_breakdown().sram_leakage;
        assert!(
            e_naive.0 > 3.0 * e_split.0,
            "{} vs {}",
            e_naive.0,
            e_split.0
        );
    }

    #[test]
    fn zero_fill_path() {
        let mut s = sys();
        write_lines(&mut s, 0, &[9u8; 4096]);
        s.zero_fill_lines(LineAddr(0), 64).unwrap();
        s.run_refresh_window();
        let w = s.run_refresh_window();
        assert_eq!(w.skip_fraction(), 1.0);
    }
}
