//! Prior-work comparison (§II-D): ZERO-REFRESH against the refresh-
//! skipping families the paper positions itself against, on identical
//! images.
//!
//! | scheme | skips | needs |
//! |---|---|---|
//! | ZERO-REFRESH | discharged rows (incl. transformed values) | nothing new |
//! | ZIB (Patel et al.) | naturally all-zero rows | 1/8–1/32 capacity |
//! | Validity oracle (SRA/ESKIMO/PARIS) | unallocated rows | OS↔DRAM interface |
//! | Smart Refresh | rows touched this window | per-row counters |

use zr_baselines::ZibModel;
use zr_dram::RefreshPolicy;
use zr_types::json::{Json, ToJson};
use zr_types::{Result, TransformConfig};
use zr_workloads::Benchmark;

use super::population::build_system;
use super::{refresh, scalability, ExperimentConfig};

/// One benchmark's normalized refresh operations under each scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct PriorWorkComparison {
    /// Benchmark name.
    pub benchmark: &'static str,
    /// Allocated fraction of the scenario.
    pub alloc_fraction: f64,
    /// ZERO-REFRESH (full transformation).
    pub zero_refresh: f64,
    /// ZIB on the untransformed image (plus its capacity overhead).
    pub zib: f64,
    /// ZIB's DRAM capacity overhead (indicator bits, 8-bit granules).
    pub zib_overhead: f64,
    /// The validity oracle: refreshes exactly the allocated rows.
    pub validity_oracle: f64,
    /// Smart Refresh at the paper's reference 32 GB capacity.
    pub smart_refresh: f64,
}

impl ToJson for PriorWorkComparison {
    fn to_json(&self) -> Json {
        Json::obj([
            ("benchmark", self.benchmark.to_json()),
            ("alloc_fraction", self.alloc_fraction.to_json()),
            ("zero_refresh", self.zero_refresh.to_json()),
            ("zib", self.zib.to_json()),
            ("zib_overhead", self.zib_overhead.to_json()),
            ("validity_oracle", self.validity_oracle.to_json()),
            ("smart_refresh", self.smart_refresh.to_json()),
        ])
    }
}

/// Compares all schemes for one benchmark/allocation pair.
///
/// # Errors
///
/// Returns configuration/address errors from the underlying layers.
pub fn compare(
    benchmark: Benchmark,
    alloc_fraction: f64,
    exp: &ExperimentConfig,
) -> Result<PriorWorkComparison> {
    // ZERO-REFRESH: the standard measurement.
    let zero = refresh::measure(benchmark, alloc_fraction, exp)?.normalized;

    // ZIB: same image stored *without* transformation; skippable rows are
    // the naturally discharged ones.
    let raw_exp = ExperimentConfig {
        transform: TransformConfig::disabled(),
        ..exp.clone()
    };
    let ps = build_system(
        benchmark,
        alloc_fraction,
        RefreshPolicy::Conventional,
        &raw_exp,
    )?;
    let zib_model = ZibModel::new(8)?;
    let zib = 1.0 - zib_model.skippable_fraction(ps.system.controller().rank());

    // Validity oracle: exactly the allocated fraction refreshes.
    let validity_oracle = alloc_fraction;

    // Smart Refresh at reference capacity: the touched working set skips.
    let smart_refresh = scalability::smart_refresh_normalized(benchmark, 32 << 30, exp)?;

    Ok(PriorWorkComparison {
        benchmark: benchmark.name(),
        alloc_fraction,
        zero_refresh: zero,
        zib,
        zib_overhead: zib_model.capacity_overhead(),
        validity_oracle,
        smart_refresh,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_refresh_beats_zib_on_allocated_memory() {
        // ZIB only harvests natural zeros; the transformation is the
        // difference between ~2% and ~35% reduction at 100% allocation.
        let exp = ExperimentConfig::tiny_test();
        let c = compare(Benchmark::Gcc, 1.0, &exp).unwrap();
        assert!(
            c.zero_refresh + 0.15 < c.zib,
            "zero {} vs zib {}",
            c.zero_refresh,
            c.zib
        );
        assert!((c.zib_overhead - 0.125).abs() < 1e-12);
    }

    #[test]
    fn oracle_cannot_skip_allocated_memory() {
        let exp = ExperimentConfig::tiny_test();
        let c = compare(Benchmark::GemsFdtd, 1.0, &exp).unwrap();
        assert_eq!(c.validity_oracle, 1.0);
        assert!(c.zero_refresh < 0.7);
    }

    #[test]
    fn oracle_and_zero_refresh_agree_on_idle_memory() {
        // For mostly-idle memory both skip the idle part; ZERO-REFRESH
        // additionally harvests the allocated values.
        let exp = ExperimentConfig::tiny_test();
        let c = compare(Benchmark::Gcc, 0.3, &exp).unwrap();
        assert!(c.zero_refresh <= c.validity_oracle + 0.02);
    }
}
