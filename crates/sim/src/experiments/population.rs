//! Populating a memory system with a benchmark image, once for a
//! whole list of allocation fractions ([`populate`]).

use std::ops::Range;

use zero_refresh::ZeroRefreshSystem;
use zr_dram::RefreshPolicy;
use zr_telemetry::Telemetry;
use zr_types::geometry::LineAddr;
use zr_types::rng::SplitMix64;
use zr_types::{Result, SystemConfig};
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
/// This is [`populate`] with one fraction.
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
    let mut images = populate(
        benchmark,
        &[alloc_fraction],
        policy,
        exp,
        |_| {},
        |_, ps| Ok(ps),
    )?;
    Ok(images.pop().expect("one image per fraction"))
}

/// Populates one system with the benchmark's content image at each of
/// `fractions` in one ascending pass, handing each image to `visit` (with
/// its fraction) as soon as the pass reaches its boundary. Returns the
/// visits' results in `fractions` order.
///
/// The image of a smaller fraction is an exact prefix of a larger one:
/// both take `round(fraction × total_regions)` regions from the same
/// class stream ([`region_classes`] truncates it) and draw line contents
/// from one stream in address order. So each boundary's image is the
/// system as populated so far. Every fraction but the largest gets a
/// [`ZeroRefreshSystem::fork`] of it, and the largest gets the system
/// itself. A visit runs before population goes on, so at most one fork
/// is alive at a time; forks share unwritten rows copy-on-write.
///
/// `tweak` is applied to the configuration before the system is built
/// (for knobs [`ExperimentConfig`] does not expose, e.g. the EBDI word
/// size). Each stretch of writes between two boundaries is one
/// `sim.populate` telemetry span.
///
/// Zero-class regions are not physically written: an all-zero write
/// through the transformation stores exactly the cleansed pattern the
/// rank already holds, so skipping the writes is behaviour-preserving
/// (verified by a test below) and keeps population fast.
///
/// # Errors
///
/// Returns configuration/address errors from the underlying layers, and
/// the first error a visit returns.
pub fn populate<T>(
    benchmark: Benchmark,
    fractions: &[f64],
    policy: RefreshPolicy,
    exp: &ExperimentConfig,
    tweak: impl FnOnce(&mut SystemConfig),
    mut visit: impl FnMut(f64, PopulatedSystem) -> Result<T>,
) -> Result<Vec<T>> {
    let total_regions = exp.capacity_bytes / REGION_BYTES as u64;
    let regions = |f: f64| (f.clamp(0.0, 1.0) * total_regions as f64).round() as usize;
    // Boundaries in ascending order (a stable sort keeps ties in input
    // order, so the last of equal fractions gets the system itself).
    let mut order: Vec<usize> = (0..fractions.len()).collect();
    order.sort_by_key(|&i| regions(fractions[i]));
    let Some((&largest, smaller)) = order.split_last() else {
        return Ok(Vec::new());
    };

    let telemetry = Telemetry::current();
    let mut span = telemetry.span("sim.populate");
    let mut cfg = exp.system_config();
    tweak(&mut cfg);
    let mut system = ZeroRefreshSystem::with_policy(&cfg, policy)?;
    let seed = benchmark.derive_seed(exp.seed);
    let classes = region_classes(
        &benchmark.profile(),
        regions(fractions[largest]) as u64,
        seed,
    );
    let mut rng = SplitMix64::new(seed ^ 0xC0FFEE);
    let mut results: Vec<Option<T>> = fractions.iter().map(|_| None).collect();
    let mut written = 0;
    for &i in smaller {
        let boundary = regions(fractions[i]);
        write_regions(&mut system, &classes, written..boundary, &mut rng)?;
        written = boundary;
        drop(span);
        let image = PopulatedSystem {
            system: system.fork(),
            region_classes: classes[..boundary].to_vec(),
            total_regions,
        };
        results[i] = Some(visit(fractions[i], image)?);
        span = telemetry.span("sim.populate");
    }
    write_regions(&mut system, &classes, written..classes.len(), &mut rng)?;
    drop(span);
    let image = PopulatedSystem {
        system,
        region_classes: classes,
        total_regions,
    };
    results[largest] = Some(visit(fractions[largest], image)?);
    Ok(results
        .into_iter()
        .map(|r| r.expect("every fraction visited"))
        .collect())
}

/// Writes the lines of `classes[range]`, drawing their contents from
/// `rng` in address order.
fn write_regions(
    system: &mut ZeroRefreshSystem,
    classes: &[LineClass],
    range: Range<usize>,
    rng: &mut SplitMix64,
) -> Result<()> {
    for r in range {
        let class = classes[r];
        if matches!(class, LineClass::Zero) {
            continue; // cleansed rank already holds the zero image
        }
        let base = r as u64 * LINES_PER_REGION as u64;
        for i in 0..LINES_PER_REGION {
            let line = class.generate_line(rng);
            system.write_line(LineAddr(base + i as u64), &line)?;
        }
    }
    Ok(())
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
    fn populate_visits_ascending_and_answers_in_input_order() {
        let exp = ExperimentConfig {
            capacity_bytes: 256 << 10,
            ..ExperimentConfig::default()
        };
        let fractions = [0.5, 0.0, 0.5, 0.25];
        let mut visited = Vec::new();
        let out = populate(
            Benchmark::Gcc,
            &fractions,
            RefreshPolicy::ChargeAware,
            &exp,
            |_| {},
            |f, ps| {
                visited.push(f);
                Ok(ps.region_classes.len())
            },
        )
        .unwrap();
        assert_eq!(visited, [0.0, 0.25, 0.5, 0.5]);
        assert_eq!(out, [64, 0, 64, 32]);
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
