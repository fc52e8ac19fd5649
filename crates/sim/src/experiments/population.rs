//! Populating a memory system with a benchmark image.

use zero_refresh::ZeroRefreshSystem;
use zr_dram::RefreshPolicy;
use zr_types::geometry::LineAddr;
use zr_types::rng::SplitMix64;
use zr_types::Result;
use zr_workloads::content::LineClass;
use zr_workloads::image::{region_classes, LINES_PER_REGION, REGION_BYTES};
use zr_workloads::Benchmark;

use super::ExperimentConfig;

/// A memory system populated with a benchmark image.
#[derive(Debug)]
pub struct PopulatedSystem {
    /// The system holding the image.
    pub system: ZeroRefreshSystem,
    /// Content class of each allocated 2 KB region, in address order.
    pub region_classes: Vec<LineClass>,
    /// Total regions the capacity holds (allocated + idle).
    pub total_regions: u64,
}

impl PopulatedSystem {
    /// Allocated fraction of the memory.
    pub fn allocated_fraction(&self) -> f64 {
        self.region_classes.len() as f64 / self.total_regions as f64
    }
}

/// Builds a system and fills `alloc_fraction` of it with the benchmark's
/// content image; the rest stays OS-cleansed (all zeros, discharged).
///
/// Zero-class regions are not physically written: an all-zero write
/// through the transformation stores exactly the cleansed pattern the
/// rank already holds, so skipping the writes is behaviour-preserving
/// (verified by a test below) and keeps population fast.
///
/// # Errors
///
/// Returns configuration/address errors from the underlying layers.
pub fn build_system(
    benchmark: Benchmark,
    alloc_fraction: f64,
    policy: RefreshPolicy,
    exp: &ExperimentConfig,
) -> Result<PopulatedSystem> {
    build_system_with(benchmark, alloc_fraction, policy, exp, |_| {})
}

/// [`build_system`] with a configuration hook applied before the system is
/// built (used by ablations that tweak knobs `ExperimentConfig` does not
/// expose, e.g. the EBDI word size).
///
/// # Errors
///
/// Returns configuration/address errors from the underlying layers.
pub fn build_system_with(
    benchmark: Benchmark,
    alloc_fraction: f64,
    policy: RefreshPolicy,
    exp: &ExperimentConfig,
    tweak: impl FnOnce(&mut zr_types::SystemConfig),
) -> Result<PopulatedSystem> {
    let mut cfg = exp.system_config();
    tweak(&mut cfg);
    let mut system = ZeroRefreshSystem::with_policy(&cfg, policy)?;
    let total_regions = exp.capacity_bytes / REGION_BYTES as u64;
    let allocated = (alloc_fraction.clamp(0.0, 1.0) * total_regions as f64).round() as u64;
    let profile = benchmark.profile();
    let classes = region_classes(&profile, allocated, benchmark.derive_seed(exp.seed));
    let mut rng = SplitMix64::new(benchmark.derive_seed(exp.seed) ^ 0xC0FFEE);
    for (r, &class) in classes.iter().enumerate() {
        if matches!(class, LineClass::Zero) {
            continue; // cleansed rank already holds the zero image
        }
        let base = r as u64 * LINES_PER_REGION as u64;
        for i in 0..LINES_PER_REGION {
            let line = class.generate_line(&mut rng);
            system.write_line(LineAddr(base + i as u64), &line)?;
        }
    }
    Ok(PopulatedSystem {
        system,
        region_classes: classes,
        total_regions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn population_respects_alloc_fraction() {
        let exp = ExperimentConfig::tiny_test();
        let ps = build_system(Benchmark::Gcc, 0.5, RefreshPolicy::ChargeAware, &exp).unwrap();
        assert!((ps.allocated_fraction() - 0.5).abs() < 0.01);
        assert_eq!(ps.total_regions, (4 << 20) / 2048);
    }

    #[test]
    fn zero_region_skip_is_behaviour_preserving() {
        // Explicitly writing zeros must leave the rank in the same state
        // as not writing at all (the fast path).
        let exp = ExperimentConfig::tiny_test();
        let mut ps = build_system(Benchmark::Gcc, 0.3, RefreshPolicy::ChargeAware, &exp).unwrap();
        // Pick an address inside an (unwritten) zero region if any exist,
        // otherwise use unallocated space — both must read zero.
        let zero_region = ps
            .region_classes
            .iter()
            .position(|c| matches!(c, LineClass::Zero))
            .unwrap_or(ps.region_classes.len());
        let addr = LineAddr(zero_region as u64 * LINES_PER_REGION as u64);
        assert!(ps.system.read_line(addr).unwrap().iter().all(|&b| b == 0));
        // And writing zeros there changes nothing about discharge.
        ps.system.run_refresh_window();
        let before = ps.system.run_refresh_window().rows_skipped;
        ps.system
            .zero_fill_lines(addr, LINES_PER_REGION as u64)
            .unwrap();
        ps.system.run_refresh_window();
        let after = ps.system.run_refresh_window().rows_skipped;
        assert_eq!(before, after);
    }

    #[test]
    fn image_reads_back_consistently() {
        let exp = ExperimentConfig::tiny_test();
        let mut ps = build_system(Benchmark::Mcf, 1.0, RefreshPolicy::ChargeAware, &exp).unwrap();
        // Reads across several refresh windows return stable content.
        let probe: Vec<u64> = (0..20).map(|i| i * 977).collect();
        let snapshot: Vec<Vec<u8>> = probe
            .iter()
            .map(|&a| ps.system.read_line(LineAddr(a)).unwrap())
            .collect();
        for _ in 0..2 {
            ps.system.run_refresh_window();
        }
        for (a, snap) in probe.iter().zip(&snapshot) {
            assert_eq!(&ps.system.read_line(LineAddr(*a)).unwrap(), snap);
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let exp = ExperimentConfig::tiny_test();
        let mut a = build_system(Benchmark::Astar, 0.4, RefreshPolicy::ChargeAware, &exp).unwrap();
        let mut b = build_system(Benchmark::Astar, 0.4, RefreshPolicy::ChargeAware, &exp).unwrap();
        assert_eq!(a.region_classes, b.region_classes);
        for addr in [0u64, 100, 999] {
            assert_eq!(
                a.system.read_line(LineAddr(addr)).unwrap(),
                b.system.read_line(LineAddr(addr)).unwrap()
            );
        }
    }
}
