//! Refresh-reduction experiments: Fig. 14 (allocation scenarios),
//! Fig. 16 (temperature) and Fig. 18 (row size), and the one measured
//! cell loop behind them and Fig. 15 ([`measure_cell`]).

use zr_dram::{RefreshPolicy, WindowStats};
use zr_types::geometry::LineAddr;
use zr_types::{Result, SystemConfig, TemperatureMode};
use zr_workloads::image::LINES_PER_REGION;
use zr_workloads::trace::TraceGenerator;
use zr_workloads::trace::TraceWrite;
use zr_workloads::Benchmark;

use super::population::build_system_with;
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

/// The one populate → scan window → measured windows loop behind every
/// refresh and energy cell: builds the system (with `tweak` applied to
/// its configuration, for knobs [`ExperimentConfig`] does not expose,
/// e.g. the EBDI word size), runs one unmeasured scan window, then
/// `exp.windows` windows of the benchmark's write traffic.
///
/// Returns the measurement and the number of lines written during the
/// measured windows (the EBDI write operations Fig. 15 prices).
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
    let telemetry = zr_telemetry::Telemetry::current();
    // Everything recorded inside this run — refresh-window summaries,
    // skip decisions, transform events — is tagged with the workload.
    let _scope = telemetry.scope(benchmark.name());
    let populate_span = telemetry.span("sim.populate");
    let mut ps = build_system_with(benchmark, alloc_fraction, policy, exp, tweak)?;
    drop(populate_span);
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
/// Returns the error of the first failing cell.
pub fn allocation_sweep(
    benches: &[Benchmark],
    allocs: &[f64],
    exp: &ExperimentConfig,
) -> Result<Vec<Vec<f64>>> {
    allocation_grid(benches, allocs, exp, |b, a| {
        Ok(measure(b, a, exp)?.normalized)
    })
}

/// The benchmark × allocation grid behind the Fig. 14 and Fig. 15
/// sweeps: `cell` runs on the [`super::parallel`] sweep pool at
/// [`ExperimentConfig::effective_threads`], one job per cell in
/// bench-major order, and the grid comes back one row per benchmark —
/// identical for any width, as is every byte of downstream reporting,
/// trace and xray capture.
pub(super) fn allocation_grid<F>(
    benches: &[Benchmark],
    allocs: &[f64],
    exp: &ExperimentConfig,
    cell: F,
) -> Result<Vec<Vec<f64>>>
where
    F: Fn(Benchmark, f64) -> Result<f64> + Sync,
{
    let cols = allocs.len();
    let jobs = benches.len() * cols;
    let mut cells = super::parallel::sweep_with(exp.effective_threads(), jobs, |i| {
        cell(benches[i / cols], allocs[i % cols])
    })?
    .into_iter();
    Ok(benches
        .iter()
        .map(|_| cells.by_ref().take(cols).collect())
        .collect())
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
/// normal (64 ms) temperature, 100% allocated.
///
/// # Errors
///
/// Returns configuration/address errors from the underlying layers.
pub fn temperature_compare(
    benchmark: Benchmark,
    exp: &ExperimentConfig,
) -> Result<(RefreshMeasurement, RefreshMeasurement)> {
    let extended = measure(
        benchmark,
        1.0,
        &ExperimentConfig {
            temperature: TemperatureMode::Extended,
            ..exp.clone()
        },
    )?;
    let normal = measure(
        benchmark,
        1.0,
        &ExperimentConfig {
            temperature: TemperatureMode::Normal,
            ..exp.clone()
        },
    )?;
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
