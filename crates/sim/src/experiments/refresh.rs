//! Refresh-reduction experiments: Fig. 14 (allocation scenarios),
//! Fig. 16 (temperature) and Fig. 18 (row size), and the one measured
//! cell loop behind them and Fig. 15 ([`measure_cell`]). An allocation
//! sweep populates each benchmark's image once and measures every
//! allocation on a fork of it; Fig. 16 measures both temperatures on
//! one image the same way.

use zr_dram::{RefreshPolicy, WindowStats};
use zr_types::geometry::LineAddr;
use zr_types::{Result, SystemConfig, TemperatureMode};
use zr_workloads::image::LINES_PER_REGION;
use zr_workloads::trace::TraceGenerator;
use zr_workloads::trace::TraceWrite;
use zr_workloads::Benchmark;

use super::population::{populate, PopulatedSystem};
use super::ExperimentConfig;

/// The allocation scenarios of Figs. 14 and 15, in column order: 100%,
/// 88% (Alibaba), 70% (Google) and 28% (Bitbrains) allocated.
pub const PAPER_ALLOCS: [f64; 4] = [1.0, 0.88, 0.70, 0.28];

/// The measured refresh behaviour of one benchmark/scenario pair.
#[derive(Debug, Clone, PartialEq)]
pub struct RefreshMeasurement {
    /// Benchmark name.
    pub benchmark: &'static str,
    /// Allocated memory fraction of the scenario.
    pub alloc_fraction: f64,
    /// Refresh operations normalized to the conventional baseline
    /// (lower is better; the Fig. 14 y-axis).
    pub normalized: f64,
    /// Raw accumulated window statistics over the measured windows.
    pub stats: WindowStats,
}

/// Measures the normalized refresh operations for one benchmark at one
/// allocation fraction, over `exp.windows` retention windows of
/// steady-state write traffic (after one unmeasured scan window).
///
/// # Errors
///
/// Returns configuration/address errors from the underlying layers.
pub fn measure(
    benchmark: Benchmark,
    alloc_fraction: f64,
    exp: &ExperimentConfig,
) -> Result<RefreshMeasurement> {
    measure_with_policy(benchmark, alloc_fraction, RefreshPolicy::ChargeAware, exp)
}

/// [`measure`] with an explicit refresh policy (ablations use the naive
/// tracker or a transformation-disabled system via `exp.system_config()`).
///
/// # Errors
///
/// Returns configuration/address errors from the underlying layers.
pub fn measure_with_policy(
    benchmark: Benchmark,
    alloc_fraction: f64,
    policy: RefreshPolicy,
    exp: &ExperimentConfig,
) -> Result<RefreshMeasurement> {
    Ok(measure_cell(benchmark, alloc_fraction, policy, exp, |_| {})?.0)
}

/// One refresh or energy cell: populates the system (with `tweak` applied
/// to its configuration, for knobs [`ExperimentConfig`] does not expose,
/// e.g. the EBDI word size), runs one unmeasured scan window, then
/// `exp.windows` windows of the benchmark's write traffic.
///
/// Returns the measurement and the number of lines written during the
/// measured windows (the EBDI write operations Fig. 15 prices). A sweep
/// cell of [`allocation_sweep`] measures the same thing on a fork of the
/// benchmark's shared image, and equals this bit for bit.
///
/// # Errors
///
/// Returns configuration/address errors from the underlying layers.
pub fn measure_cell(
    benchmark: Benchmark,
    alloc_fraction: f64,
    policy: RefreshPolicy,
    exp: &ExperimentConfig,
    tweak: impl FnOnce(&mut SystemConfig),
) -> Result<(RefreshMeasurement, u64)> {
    let mut cells = measure_prefixes(benchmark, &[alloc_fraction], policy, exp, tweak)?;
    Ok(cells.pop().expect("one cell per fraction"))
}

/// Measures `benchmark` at each of `allocs` from one populated image
/// ([`populate`]): each cell runs on its fork as soon as population
/// reaches its boundary. Returns the cells in `allocs` order.
fn measure_prefixes(
    benchmark: Benchmark,
    allocs: &[f64],
    policy: RefreshPolicy,
    exp: &ExperimentConfig,
    tweak: impl FnOnce(&mut SystemConfig),
) -> Result<Vec<(RefreshMeasurement, u64)>> {
    let telemetry = zr_telemetry::Telemetry::current();
    // Everything recorded inside this run — refresh-window and
    // experiment summaries, xray engine labels — is tagged with the
    // workload.
    let _scope = telemetry.scope(benchmark.name());
    populate(benchmark, allocs, policy, exp, tweak, |alloc, mut ps| {
        run_windows(benchmark, alloc, &mut ps, exp)
    })
}

/// The scan window and the measured windows of one cell, on its
/// populated image.
fn run_windows(
    benchmark: Benchmark,
    alloc_fraction: f64,
    ps: &mut PopulatedSystem,
    exp: &ExperimentConfig,
) -> Result<(RefreshMeasurement, u64)> {
    let telemetry = zr_telemetry::Telemetry::current();
    let profile = benchmark.profile();
    let mut trace = TraceGenerator::new(
        profile,
        ps.region_classes.clone(),
        LINES_PER_REGION,
        benchmark.derive_seed(exp.seed) ^ 0xACCE55,
    );
    // Scan window: populates the discharged-status table (unmeasured, as
    // the paper measures steady state).
    let mut writes: Vec<TraceWrite> = Vec::new();
    ps.system.run_refresh_window();
    let mut stats = WindowStats::default();
    let mut written = 0u64;
    for _ in 0..exp.windows {
        let _window_span = telemetry.span("sim.window");
        trace.window_writes_into(exp.window_scale(), &mut writes);
        for w in &writes {
            let line = LineAddr(w.page * LINES_PER_REGION as u64 + w.line_in_page as u64);
            ps.system.write_line(line, &w.data)?;
        }
        written += writes.len() as u64;
        stats.accumulate(&ps.system.run_refresh_window());
    }
    telemetry.emit(|| zr_telemetry::Event::ExperimentSummary {
        benchmark: benchmark.name(),
        alloc_fraction,
        normalized: stats.normalized_refreshes(),
        windows: exp.windows,
    });
    let measurement = RefreshMeasurement {
        benchmark: benchmark.name(),
        alloc_fraction,
        normalized: stats.normalized_refreshes(),
        stats,
    };
    Ok((measurement, written))
}

/// The Fig. 14 sweep: normalized refreshes of each of `benches` at each
/// of `allocs`, one row per benchmark.
///
/// # Errors
///
/// Returns the error of the first failing benchmark.
pub fn allocation_sweep(
    benches: &[Benchmark],
    allocs: &[f64],
    exp: &ExperimentConfig,
) -> Result<Vec<Vec<f64>>> {
    Ok(allocation_grid(benches, allocs, exp)?
        .iter()
        .map(|row| row.iter().map(|(m, _)| m.normalized).collect())
        .collect())
}

/// The benchmark × allocation grid of charge-aware cells behind the
/// Fig. 14 and Fig. 15 sweeps, one row per benchmark in `allocs` order.
/// Each benchmark is one job on the [`super::parallel`] sweep pool at
/// [`ExperimentConfig::effective_threads`], in bench-major order; a job
/// populates its image once and measures every allocation on a fork of
/// it ([`populate`]). The grid is identical for any width, as is every
/// byte of downstream reporting, trace and xray capture.
pub(super) fn allocation_grid(
    benches: &[Benchmark],
    allocs: &[f64],
    exp: &ExperimentConfig,
) -> Result<Vec<Vec<(RefreshMeasurement, u64)>>> {
    super::parallel::sweep_with(exp.effective_threads(), benches.len(), |i| {
        measure_prefixes(benches[i], allocs, RefreshPolicy::ChargeAware, exp, |_| {})
    })
}

/// The Fig. 16 sweep: each of `benches` at extended (32 ms) and normal
/// (64 ms) temperature, 100% allocated — one row of the two normalized
/// refresh counts per benchmark, one pool job per benchmark.
///
/// # Errors
///
/// Returns the error of the first failing benchmark.
pub fn temperature_sweep(benches: &[Benchmark], exp: &ExperimentConfig) -> Result<Vec<Vec<f64>>> {
    super::parallel::sweep_with(exp.effective_threads(), benches.len(), |i| {
        let (extended, normal) = temperature_compare(benches[i], exp)?;
        Ok(vec![extended.normalized, normal.normalized])
    })
}

/// The Fig. 16 comparison: normalized refreshes at extended (32 ms) vs
/// normal (64 ms) temperature, 100% allocated. Each equals [`measure`]
/// at that temperature bit for bit.
///
/// Population does not read the temperature, so both cells share one
/// populated image ([`populate`] at two equal fractions): the extended
/// cell runs on its fork, then the normal cell on the system itself,
/// retargeted ([`ZeroRefreshSystem::retarget_temperature`]) and driven
/// at the normal window scale.
///
/// [`ZeroRefreshSystem::retarget_temperature`]: zero_refresh::ZeroRefreshSystem::retarget_temperature
///
/// # Errors
///
/// Returns configuration/address errors from the underlying layers.
pub fn temperature_compare(
    benchmark: Benchmark,
    exp: &ExperimentConfig,
) -> Result<(RefreshMeasurement, RefreshMeasurement)> {
    let cells =
        [TemperatureMode::Extended, TemperatureMode::Normal].map(|temperature| ExperimentConfig {
            temperature,
            ..exp.clone()
        });
    let telemetry = zr_telemetry::Telemetry::current();
    let _scope = telemetry.scope(benchmark.name());
    // Equal fractions are visited in input order: the fork first.
    let mut next = cells.iter();
    let mut measured = populate(
        benchmark,
        &[1.0, 1.0],
        RefreshPolicy::ChargeAware,
        &cells[0],
        |_| {},
        |alloc, mut ps| {
            let cell = next.next().expect("one visit per cell");
            ps.system.retarget_temperature(cell.temperature)?;
            Ok(run_windows(benchmark, alloc, &mut ps, cell)?.0)
        },
    )?;
    let normal = measured.pop().expect("normal cell");
    let extended = measured.pop().expect("extended cell");
    Ok((extended, normal))
}

/// The Fig. 18 sweep: normalized refreshes with 2 KB / 4 KB / 8 KB rows,
/// 100% allocated.
///
/// # Errors
///
/// Returns configuration/address errors from the underlying layers.
pub fn row_size_sweep(
    benchmark: Benchmark,
    exp: &ExperimentConfig,
) -> Result<Vec<(usize, RefreshMeasurement)>> {
    [2048usize, 4096, 8192]
        .iter()
        .map(|&row_bytes| {
            let m = measure(
                benchmark,
                1.0,
                &ExperimentConfig {
                    row_bytes,
                    ..exp.clone()
                },
            )?;
            Ok((row_bytes, m))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::energy;

    /// Small enough for debug-build sweeps, large enough that every
    /// scenario allocates a few dozen regions.
    fn small() -> ExperimentConfig {
        ExperimentConfig {
            capacity_bytes: 1 << 20,
            windows: 2,
            ..ExperimentConfig::default()
        }
    }

    const SAMPLE: [Benchmark; 4] = [
        Benchmark::GemsFdtd,
        Benchmark::Mcf,
        Benchmark::TpchQ6,
        Benchmark::SpC,
    ];

    /// A table's values as bit patterns, so that equality is exact.
    fn bits(table: &[Vec<f64>]) -> Vec<Vec<u64>> {
        let row = |r: &Vec<f64>| r.iter().map(|v| v.to_bits()).collect();
        table.iter().map(row).collect()
    }

    #[test]
    fn sweep_cells_equal_independent_cells_bit_for_bit() {
        let exp = small();
        let policy = RefreshPolicy::ChargeAware;
        let cells: Vec<Vec<(RefreshMeasurement, u64)>> = SAMPLE
            .iter()
            .map(|&b| {
                PAPER_ALLOCS
                    .iter()
                    .map(|&a| measure_cell(b, a, policy, &exp, |_| {}).unwrap())
                    .collect()
            })
            .collect();
        let normalized: Vec<Vec<f64>> = cells
            .iter()
            .map(|row| row.iter().map(|(m, _)| m.normalized).collect())
            .collect();
        let energies: Vec<Vec<f64>> = SAMPLE
            .iter()
            .map(|&b| {
                PAPER_ALLOCS
                    .iter()
                    .map(|&a| energy::measure(b, a, &exp).unwrap().normalized_energy)
                    .collect()
            })
            .collect();
        for threads in [1, 4] {
            let exp = ExperimentConfig {
                threads: Some(threads),
                ..small()
            };
            // Whole cells, `WindowStats` and measured-window writes included.
            let grid = allocation_grid(&SAMPLE, &PAPER_ALLOCS, &exp).unwrap();
            assert_eq!(grid, cells, "grid at {threads} threads");
            let sweep = allocation_sweep(&SAMPLE, &PAPER_ALLOCS, &exp).unwrap();
            assert_eq!(
                bits(&sweep),
                bits(&normalized),
                "fig14 at {threads} threads"
            );
            let sweep = energy::allocation_sweep(&SAMPLE, &PAPER_ALLOCS, &exp).unwrap();
            assert_eq!(bits(&sweep), bits(&energies), "fig15 at {threads} threads");
        }
    }

    #[test]
    fn every_fork_ends_its_windows_hazard_free() {
        let exp = small();
        for b in SAMPLE {
            let policy = RefreshPolicy::ChargeAware;
            populate(
                b,
                &PAPER_ALLOCS,
                policy,
                &exp,
                |_| {},
                |alloc, mut ps| {
                    run_windows(b, alloc, &mut ps, &exp)?;
                    let controller = ps.system.controller();
                    let hazards = controller.engine().audit_hazards(controller.rank());
                    assert_eq!(hazards, 0, "{} at {alloc}", b.name());
                    Ok(())
                },
            )
            .unwrap();
        }
    }

    #[test]
    fn temperature_cells_equal_independent_cells_bit_for_bit() {
        let independent: Vec<(RefreshMeasurement, RefreshMeasurement)> = SAMPLE
            .iter()
            .map(|&b| {
                let at = |temperature| {
                    let exp = ExperimentConfig {
                        temperature,
                        ..small()
                    };
                    measure(b, 1.0, &exp).unwrap()
                };
                (at(TemperatureMode::Extended), at(TemperatureMode::Normal))
            })
            .collect();
        let table: Vec<Vec<f64>> = independent
            .iter()
            .map(|(e, n)| vec![e.normalized, n.normalized])
            .collect();
        for threads in [1, 4] {
            let exp = ExperimentConfig {
                threads: Some(threads),
                ..small()
            };
            // Whole cells, `WindowStats` included, one pool job each.
            let pairs = super::super::parallel::sweep_with(threads, SAMPLE.len(), |i| {
                temperature_compare(SAMPLE[i], &exp)
            })
            .unwrap();
            assert_eq!(pairs, independent, "cells at {threads} threads");
            let sweep = temperature_sweep(&SAMPLE, &exp).unwrap();
            assert_eq!(bits(&sweep), bits(&table), "fig16 at {threads} threads");
        }
    }

    #[test]
    fn every_temperature_cell_ends_its_windows_hazard_free() {
        // The cells as `temperature_compare` measures them.
        let cells = [TemperatureMode::Extended, TemperatureMode::Normal].map(|temperature| {
            ExperimentConfig {
                temperature,
                ..small()
            }
        });
        for b in SAMPLE {
            let mut next = cells.iter();
            populate(
                b,
                &[1.0, 1.0],
                RefreshPolicy::ChargeAware,
                &cells[0],
                |_| {},
                |alloc, mut ps| {
                    let cell = next.next().unwrap();
                    ps.system.retarget_temperature(cell.temperature)?;
                    run_windows(b, alloc, &mut ps, cell)?;
                    let controller = ps.system.controller();
                    let hazards = controller.engine().audit_hazards(controller.rank());
                    assert_eq!(hazards, 0, "{} at {:?}", b.name(), cell.temperature);
                    Ok(())
                },
            )
            .unwrap();
        }
    }

    #[test]
    fn fully_idle_memory_skips_everything() {
        let exp = ExperimentConfig::tiny_test();
        let m = measure(Benchmark::Gcc, 0.0, &exp).unwrap();
        assert!(m.normalized < 0.01, "normalized {}", m.normalized);
    }

    #[test]
    fn reduction_grows_with_idle_fraction() {
        let exp = ExperimentConfig::tiny_test();
        let full = measure(Benchmark::Gcc, 1.0, &exp).unwrap();
        let half = measure(Benchmark::Gcc, 0.5, &exp).unwrap();
        assert!(
            half.normalized < full.normalized,
            "half {} vs full {}",
            half.normalized,
            full.normalized
        );
    }

    #[test]
    fn friendly_beats_hostile_content() {
        let exp = ExperimentConfig::tiny_test();
        let gems = measure(Benchmark::GemsFdtd, 1.0, &exp).unwrap();
        let sp = measure(Benchmark::SpC, 1.0, &exp).unwrap();
        assert!(
            gems.normalized + 0.2 < sp.normalized,
            "gems {} vs sp.C {}",
            gems.normalized,
            sp.normalized
        );
    }

    #[test]
    fn conventional_policy_never_skips() {
        let exp = ExperimentConfig::tiny_test();
        let m =
            measure_with_policy(Benchmark::Gcc, 0.5, RefreshPolicy::Conventional, &exp).unwrap();
        assert_eq!(m.normalized, 1.0);
    }

    #[test]
    fn row_size_ordering() {
        let exp = ExperimentConfig::tiny_test();
        let sweep = row_size_sweep(Benchmark::Gcc, &exp).unwrap();
        assert_eq!(sweep.len(), 3);
        // Smaller rows harvest more short friendly runs (Fig. 18).
        assert!(
            sweep[0].1.normalized < sweep[2].1.normalized,
            "2K {} vs 8K {}",
            sweep[0].1.normalized,
            sweep[2].1.normalized
        );
    }

    #[test]
    fn normal_temperature_loses_a_little() {
        let exp = ExperimentConfig::tiny_test();
        let (ext, norm) = temperature_compare(Benchmark::Lbm, &exp).unwrap();
        // Twice the writes per (64 ms) window can only hurt.
        assert!(
            norm.normalized >= ext.normalized - 1e-9,
            "normal {} vs extended {}",
            norm.normalized,
            ext.normalized
        );
    }
}
