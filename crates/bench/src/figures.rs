//! One function per table/figure of the paper's evaluation.
//!
//! Every function runs the experiment through `zr-sim`, prints the same
//! rows/series the paper reports, and returns the data for programmatic
//! use (the harness smoke tests assert on the returned values).

use zr_dram::RefreshPolicy;
use zr_energy::{power::DevicePowerModel, sram};
use zr_sim::experiments::{
    column_means, datacenter, energy, ipc, ipc_sim, parallel, priorwork, refresh, scalability,
    zeros, ExperimentConfig,
};
use zr_sim::IpcModel;
use zr_types::{Result, SystemConfig, TemperatureMode, TransformConfig};
use zr_workloads::{Benchmark, DatacenterTrace};

use crate::report;

/// Table I — average allocated memory of the three data-center traces.
pub fn table1_traces() -> Vec<(String, f64)> {
    report::header("Table I: Average allocated memory of three traces");
    report::columns("trace", &["alloc"]);
    let mut out = Vec::new();
    for t in DatacenterTrace::all() {
        let m = t.mean_utilization();
        report::row(t.name(), &[m]);
        out.push((t.name().to_string(), m));
    }
    report::line("(paper: google 70%, alibaba 88%, bitbrains 28%)");
    report::write_json("table1_traces", &out);
    out
}

/// Fig. 4 — refresh power share versus device density, both temperature
/// modes.
pub fn fig4_refresh_power() -> Vec<(u32, f64, f64)> {
    report::header("Fig. 4: Refresh share of device power vs density (8% rd / 2% wr)");
    let model = DevicePowerModel::paper_default();
    let densities = [2u32, 4, 8, 16, 32, 64];
    report::columns("density(Gb)", &["64ms", "32ms"]);
    let mut out = Vec::new();
    for &d in &densities {
        let normal = model.breakdown(d, TemperatureMode::Normal).refresh_share();
        let hot = model
            .breakdown(d, TemperatureMode::Extended)
            .refresh_share();
        report::row(&format!("{d}"), &[normal, hot]);
        out.push((d, normal, hot));
    }
    report::line("(paper: refresh exceeds half of device power at 16 Gb / 32 ms)");
    report::write_json("fig4_refresh_power", &out);
    out
}

/// Fig. 5 — cumulative distribution of memory utilization, three traces.
pub fn fig5_util_cdf() -> Vec<(String, Vec<(f64, f64)>)> {
    report::header("Fig. 5: Memory-utilization CDFs of the three traces");
    report::columns("quantile", &["google", "alibaba", "bitbrns"]);
    let traces = DatacenterTrace::all();
    for i in 0..=10 {
        let q = i as f64 / 10.0;
        let cells: Vec<f64> = traces.iter().map(|t| t.quantile(q)).collect();
        report::row(&format!("p{:<3}", i * 10), &cells);
    }
    traces
        .iter()
        .map(|t| (t.name().to_string(), t.cdf_points()))
        .collect()
}

/// Fig. 6 — zero fractions at 1 KB and 1-byte granularity per benchmark.
///
/// # Errors
///
/// Propagates experiment errors.
pub fn fig6_zero_fraction(exp: &ExperimentConfig) -> Result<Vec<zeros::ZeroMeasurement>> {
    report::header("Fig. 6: Portion of zeros at 1KB and 1B granularity");
    report::columns("benchmark", &["1KB", "1Byte"]);
    let sweep = zeros::suite_sweep(exp)?;
    for m in &sweep {
        report::row(m.benchmark, &[m.kb_block_fraction, m.byte_fraction]);
    }
    let (kb, byte) = zeros::means(&sweep);
    report::row("mean", &[kb, byte]);
    report::line("(paper means: ~2.3% of 1KB blocks, ~43% of bytes)");
    report::write_json("fig6_zero_fraction", &sweep);
    Ok(sweep)
}

/// Fig. 14 — normalized refresh operations for the four allocation
/// scenarios.
///
/// # Errors
///
/// Propagates experiment errors.
pub fn fig14_refresh_reduction(exp: &ExperimentConfig) -> Result<Vec<(String, [f64; 4])>> {
    fig14_refresh_reduction_for(Benchmark::all(), exp)
}

/// [`fig14_refresh_reduction`] restricted to a benchmark subset (the
/// conformance golden gate pins a fast representative slice).
///
/// Cells are measured on the sweep pool ([`refresh::allocation_sweep`])
/// and printed serially afterwards, so stdout and the JSON report are
/// byte-identical for every `ZR_THREADS`.
///
/// # Errors
///
/// Propagates experiment errors.
pub fn fig14_refresh_reduction_for(
    benches: &[Benchmark],
    exp: &ExperimentConfig,
) -> Result<Vec<(String, [f64; 4])>> {
    report::header("Fig. 14: Normalized refresh operations (100/88/70/28% alloc)");
    report::columns("benchmark", &["100%", "88%", "70%", "28%"]);
    let table = refresh::allocation_sweep(benches, &refresh::PAPER_ALLOCS, exp)?;
    print_table(benches, &table);
    report::line("(paper means: 0.629 / 0.54 / 0.43 / 0.17 — i.e. 37/46/57/83% reduction)");
    let rows = named_rows(benches, &table);
    report::write_json("fig14_refresh_reduction", &rows);
    Ok(rows)
}

/// Fig. 15 — normalized refresh energy including all overheads.
///
/// # Errors
///
/// Propagates experiment errors.
pub fn fig15_energy(exp: &ExperimentConfig) -> Result<Vec<(String, [f64; 4])>> {
    fig15_energy_for(Benchmark::all(), exp)
}

/// [`fig15_energy`] restricted to a benchmark subset (the conformance
/// golden gate pins a fast representative slice).
///
/// # Errors
///
/// Propagates experiment errors.
pub fn fig15_energy_for(
    benches: &[Benchmark],
    exp: &ExperimentConfig,
) -> Result<Vec<(String, [f64; 4])>> {
    report::header("Fig. 15: Normalized refresh energy (overheads included)");
    report::columns("benchmark", &["100%", "88%", "70%", "28%"]);
    let table = energy::allocation_sweep(benches, &refresh::PAPER_ALLOCS, exp)?;
    print_table(benches, &table);
    report::line("(paper means: 0.635 / 0.56 / 0.45 / 0.18 — 36.5/44/55/82% saved)");
    let rows = named_rows(benches, &table);
    report::write_json("fig15_energy", &rows);
    Ok(rows)
}

/// Fig. 16 — normalized refresh at extended (32 ms) vs normal (64 ms)
/// temperature, 100% allocated.
///
/// # Errors
///
/// Propagates experiment errors.
pub fn fig16_temperature(exp: &ExperimentConfig) -> Result<Vec<(String, f64, f64)>> {
    fig16_temperature_for(Benchmark::all(), exp)
}

/// [`fig16_temperature`] restricted to a benchmark subset (the
/// conformance golden gate pins a fast representative slice).
///
/// # Errors
///
/// Propagates experiment errors.
pub fn fig16_temperature_for(
    benches: &[Benchmark],
    exp: &ExperimentConfig,
) -> Result<Vec<(String, f64, f64)>> {
    report::header("Fig. 16: Normalized refresh, extended (32ms) vs normal (64ms)");
    report::columns("benchmark", &["32ms", "64ms"]);
    let table = refresh::temperature_sweep(benches, exp)?;
    print_table(benches, &table);
    report::line("(paper: ~4.4 pp less reduction at normal temperature)");
    let out: Vec<(String, f64, f64)> = benches
        .iter()
        .zip(&table)
        .map(|(b, cells)| (b.name().to_string(), cells[0], cells[1]))
        .collect();
    report::write_json("fig16_temperature", &out);
    Ok(out)
}

/// Prints a bench-major figure table — one row per benchmark — and its
/// column means.
fn print_table(benches: &[Benchmark], table: &[Vec<f64>]) {
    for (b, cells) in benches.iter().zip(table) {
        report::row(b.name(), cells);
    }
    report::row("mean", &column_means(table));
}

/// The rows of a bench-major figure table under their benchmark names.
fn named_rows<const N: usize>(
    benches: &[Benchmark],
    table: &[Vec<f64>],
) -> Vec<(String, [f64; N])> {
    benches
        .iter()
        .zip(table)
        .map(|(b, cells)| {
            let cells = cells.as_slice().try_into().expect("one cell per column");
            (b.name().to_string(), cells)
        })
        .collect()
}

/// Fig. 17 — normalized IPC per benchmark, from both the closed-form
/// model and the event-driven bank-timing simulator.
///
/// # Errors
///
/// Propagates experiment errors.
pub fn fig17_ipc(exp: &ExperimentConfig) -> Result<Vec<ipc::IpcMeasurement>> {
    report::header("Fig. 17: Normalized IPC vs conventional refresh");
    report::columns("benchmark", &["model", "evt-sim", "refresh"]);
    let sweep = ipc::suite_sweep(exp)?;
    let events = ipc_sim::suite_sweep(exp)?;
    let mut sim_mean = 0.0;
    for (m, e) in sweep.iter().zip(&events) {
        report::row(
            m.benchmark,
            &[m.normalized_ipc, e.normalized_ipc, m.normalized_refreshes],
        );
        sim_mean += e.normalized_ipc;
    }
    report::row(
        "mean",
        &[
            ipc::mean_ipc(&sweep),
            sim_mean / events.len() as f64,
            f64::NAN,
        ],
    );
    report::line("(paper: +5.7% mean, max +10.8% gemsFDTD, min +0.3% gobmk)");
    report::write_json("fig17_ipc", &sweep);
    report::write_json("fig17_ipc_event", &events);
    Ok(sweep)
}

/// Fig. 18 — row-size sensitivity (2 KB / 4 KB / 8 KB), 100% allocated.
///
/// # Errors
///
/// Propagates experiment errors.
pub fn fig18_row_size(exp: &ExperimentConfig) -> Result<Vec<(String, [f64; 3])>> {
    report::header("Fig. 18: Normalized refresh with 2K/4K/8K row buffers");
    report::columns("benchmark", &["2KB", "4KB", "8KB"]);
    let benches = Benchmark::all();
    let table = parallel::sweep_with(exp.effective_threads(), benches.len(), |i| {
        let sweep = refresh::row_size_sweep(benches[i], exp)?;
        Ok(sweep.iter().map(|(_, m)| m.normalized).collect())
    })?;
    print_table(benches, &table);
    report::line("(paper mean reductions: 46.3% / 37.7% / 33.9%)");
    let rows = named_rows(benches, &table);
    report::write_json("fig18_row_size", &rows);
    Ok(rows)
}

/// Fig. 19 — Smart Refresh vs ZERO-REFRESH from 4 GB to 32 GB (mcf),
/// plus the +30% idle variant.
///
/// # Errors
///
/// Propagates experiment errors.
pub fn fig19_scalability(exp: &ExperimentConfig) -> Result<Vec<scalability::ScalabilityPoint>> {
    report::header("Fig. 19: Smart Refresh vs ZERO-REFRESH scalability (mcf)");
    let capacities = [4u64 << 30, 8 << 30, 16 << 30, 32 << 30];
    let flat = scalability::capacity_sweep(Benchmark::Mcf, &capacities, 0.0, exp)?;
    let idle = scalability::capacity_sweep(Benchmark::Mcf, &capacities, 0.30, exp)?;
    report::columns("capacity", &["smart", "zero", "zero+30%idle"]);
    for (p, q) in flat.iter().zip(&idle) {
        report::row(
            &format!("{}GB", p.capacity_bytes >> 30),
            &[p.smart_normalized, p.zero_normalized, q.zero_normalized],
        );
    }
    report::line("(paper: smart degrades 52.6% -> 94.1% for mcf; zero stays flat)");
    report::write_json("fig19_scalability", &flat);
    report::write_json("fig19_scalability_idle30", &idle);
    Ok(flat)
}

/// §IV-B overhead numbers — tracking-structure sizing, leakage and area
/// across capacities.
pub fn table_overheads() -> Vec<(u64, u64, u64, f64, f64)> {
    report::header("Tracking-structure overheads (SRAM sizing, CACTI-model leakage)");
    report::columns(
        "capacity",
        &["naiveKB", "accessKB", "naive_mW", "acc_mW", "area_mm2"],
    );
    let mut out = Vec::new();
    for cap_gb in [1u64, 4, 8, 16, 32] {
        let mut cfg = SystemConfig::paper_default();
        cfg.dram.capacity_bytes = cap_gb << 30;
        let geom = cfg.geometry();
        let naive_bytes = (geom.rows_per_bank() * geom.num_banks() as u64).div_ceil(8);
        let access_bytes = geom.access_bit_count().div_ceil(8);
        report::row(
            &format!("{cap_gb}GB"),
            &[
                naive_bytes as f64 / 1024.0,
                access_bytes as f64 / 1024.0,
                sram::leakage(naive_bytes).0,
                sram::leakage(access_bytes).0,
                sram::area_mm2(access_bytes),
            ],
        );
        out.push((
            cap_gb,
            naive_bytes,
            access_bytes,
            sram::leakage(naive_bytes).0,
            sram::leakage(access_bytes).0,
        ));
    }
    report::line("(paper at 32GB: naive 1MB / 337.14mW vs 8KB / 2.71mW, 0.076mm^2)");
    report::write_json("table_overheads", &out);
    out
}

/// Design-choice ablations called out in DESIGN.md: each transformation
/// stage disabled in turn, the cell-type-oblivious encoder, and the naive
/// SRAM tracker — all measured on the suite at 100% allocation.
///
/// # Errors
///
/// Propagates experiment errors.
pub fn ablations(exp: &ExperimentConfig) -> Result<Vec<(String, f64)>> {
    report::header("Ablations: suite-mean normalized refresh at 100% alloc");
    let variants: Vec<(&str, TransformConfig, RefreshPolicy)> = vec![
        (
            "full",
            TransformConfig::paper_default(),
            RefreshPolicy::ChargeAware,
        ),
        (
            "no-ebdi",
            TransformConfig {
                ebdi: false,
                ..TransformConfig::paper_default()
            },
            RefreshPolicy::ChargeAware,
        ),
        (
            "no-bitplane",
            TransformConfig {
                bit_plane: false,
                ..TransformConfig::paper_default()
            },
            RefreshPolicy::ChargeAware,
        ),
        (
            "no-rotation",
            TransformConfig {
                rotation: false,
                ..TransformConfig::paper_default()
            },
            RefreshPolicy::ChargeAware,
        ),
        (
            "cell-oblivious",
            TransformConfig {
                cell_aware: false,
                ..TransformConfig::paper_default()
            },
            RefreshPolicy::ChargeAware,
        ),
        (
            "no-transform",
            TransformConfig::disabled(),
            RefreshPolicy::ChargeAware,
        ),
        (
            "naive-sram",
            TransformConfig::paper_default(),
            RefreshPolicy::NaiveSram,
        ),
    ];
    report::columns("variant", &["norm", "reduct"]);
    let benches = Benchmark::all();
    // One pool job per (variant, benchmark) cell, variant-major.
    let cells = parallel::sweep_with(
        exp.effective_threads(),
        variants.len() * benches.len(),
        |i| {
            let (_, transform, policy) = variants[i / benches.len()];
            let e = ExperimentConfig {
                transform,
                ..exp.clone()
            };
            Ok(
                refresh::measure_with_policy(benches[i % benches.len()], 1.0, policy, &e)?
                    .normalized,
            )
        },
    )?;
    let mut out = Vec::new();
    for ((name, _, _), row) in variants.iter().zip(cells.chunks(benches.len())) {
        let norm = row.iter().sum::<f64>() / benches.len() as f64;
        report::row(name, &[norm, 1.0 - norm]);
        out.push((name.to_string(), norm));
    }
    report::line("notes:");
    report::line("  no-bitplane  — without transposition the non-zero delta bytes stay");
    report::line("                 scattered one-per-word, so only zero pages skip.");
    report::line("  no-rotation  — per-chip-row skip counts are rotation-invariant; the");
    report::line("                 rotation aligns discharged rows into common refresh");
    report::line("                 groups (Sec. V-D), which matters for command timing,");
    report::line("                 not for the energy/ops metric shown here.");
    report::line("  cell-obliv.  — anti-cell rows (half the device) store logical zeros");
    report::line("                 charged and lose their skip opportunity.");
    report::line("  naive-sram   — the DIMM-level table only sees rank-rows, so rows");
    report::line("                 holding any base/delta chip segment never qualify;");
    report::line("                 per-chip in-DRAM status tracking is what makes the");
    report::line("                 transformed layout skippable at all.");
    Ok(out)
}

/// The abstract's data-center headline: suite-mean reduction under the
/// three trace scenarios.
///
/// # Errors
///
/// Propagates experiment errors.
pub fn datacenter_scenarios(exp: &ExperimentConfig) -> Result<Vec<datacenter::ScenarioResult>> {
    report::header("Data-center scenarios: suite-mean reduction per trace");
    report::columns("trace", &["alloc", "norm", "reduct"]);
    let results = datacenter::all_scenarios(exp)?;
    for r in &results {
        report::row(
            r.trace,
            &[r.mean_allocated, r.mean_normalized, 1.0 - r.mean_normalized],
        );
    }
    report::line("(paper: 46% / 57% / 83% reduction for alibaba/google/bitbrains)");
    report::write_json("datacenter_scenarios", &results);
    Ok(results)
}

/// EBDI word-size ablation: the paper fixes the word at 8 bytes (§V-B);
/// this sweep shows how 2/4/8-byte words trade delta magnitude against
/// the number of deltas per line, on a suite sample at 100% allocation.
///
/// # Errors
///
/// Propagates experiment errors.
pub fn word_size_ablation(exp: &ExperimentConfig) -> Result<Vec<(usize, f64)>> {
    report::header("EBDI word-size ablation: sample-mean normalized refresh");
    report::columns("word", &["norm", "reduct"]);
    let sample = [
        Benchmark::GemsFdtd,
        Benchmark::Mcf,
        Benchmark::Gcc,
        Benchmark::Omnetpp,
        Benchmark::TpchQ6,
    ];
    let words = [2usize, 4, 8];
    // One pool job per (word size, benchmark) cell, word-major.
    let cells = parallel::sweep_with(exp.effective_threads(), words.len() * sample.len(), |i| {
        let word_bytes = words[i / sample.len()];
        let b = sample[i % sample.len()];
        let (m, _) = refresh::measure_cell(b, 1.0, RefreshPolicy::ChargeAware, exp, |cfg| {
            cfg.line.word_bytes = word_bytes
        })?;
        Ok(m.normalized)
    })?;
    let mut out = Vec::new();
    for (&word_bytes, row) in words.iter().zip(cells.chunks(sample.len())) {
        let norm = row.iter().sum::<f64>() / sample.len() as f64;
        report::row(&format!("{word_bytes}B"), &[norm, 1.0 - norm]);
        out.push((word_bytes, norm));
    }
    report::line("(the paper evaluates 8-byte words; smaller words shorten deltas)");
    report::write_json("word_size_ablation", &out);
    Ok(out)
}

/// Prior-work comparison (§II-D): ZERO-REFRESH vs ZIB vs the validity
/// oracle vs Smart Refresh on a suite sample, at 100% and 70% allocation.
///
/// # Errors
///
/// Propagates experiment errors.
pub fn prior_work(exp: &ExperimentConfig) -> Result<Vec<priorwork::PriorWorkComparison>> {
    report::header("Prior-work comparison: normalized refresh operations");
    let sample = [
        Benchmark::GemsFdtd,
        Benchmark::Mcf,
        Benchmark::Gcc,
        Benchmark::Omnetpp,
        Benchmark::SpC,
    ];
    report::columns("bench@alloc", &["zero", "zib", "oracle", "smart"]);
    let allocs = [1.0, 0.70];
    // One pool job per (allocation, benchmark) cell, allocation-major.
    let out = parallel::sweep_with(exp.effective_threads(), allocs.len() * sample.len(), |i| {
        priorwork::compare(sample[i % sample.len()], allocs[i / sample.len()], exp)
    })?;
    for c in &out {
        report::row(
            &format!("{}@{:.0}%", c.benchmark, 100.0 * c.alloc_fraction),
            &[c.zero_refresh, c.zib, c.validity_oracle, c.smart_refresh],
        );
    }
    report::line("notes:");
    report::line("  zib    — zero-indicator bits on the raw image; pays 12.5% of DRAM");
    report::line("           capacity in indicator bits and harvests only natural zeros.");
    report::line("  oracle — perfect allocation knowledge (SRA/ESKIMO/PARIS family);");
    report::line("           needs a new OS-DRAM interface and never skips allocated rows.");
    report::line("  smart  — access-recency skipping at the reference 32 GB capacity.");
    report::write_json("prior_work", &out);
    Ok(out)
}

/// Quick consistency check used by the harness smoke test: the IPC model
/// calibration points.
pub fn ipc_calibration() -> (f64, f64) {
    let model = IpcModel::paper_default();
    let gems = model.normalized_ipc(&Benchmark::GemsFdtd.profile(), 0.45);
    let gobmk = model.normalized_ipc(&Benchmark::Gobmk.profile(), 0.73);
    (gems, gobmk)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentConfig {
        ExperimentConfig::tiny_test()
    }

    #[test]
    fn analytic_figures_print() {
        let t1 = table1_traces();
        assert_eq!(t1.len(), 3);
        let f4 = fig4_refresh_power();
        assert_eq!(f4.len(), 6);
        assert!(f4[3].2 > 0.4, "16Gb/32ms share {}", f4[3].2);
        let f5 = fig5_util_cdf();
        assert_eq!(f5.len(), 3);
        let ov = table_overheads();
        assert_eq!(ov.len(), 5);
        // 32 GB row: naive 1 MiB, access 8 KiB.
        let last = ov.last().unwrap();
        assert_eq!(last.1, 1 << 20);
        assert_eq!(last.2, 8 << 10);
    }

    #[test]
    fn fig6_runs_at_tiny_scale() {
        let sweep = fig6_zero_fraction(&tiny()).unwrap();
        assert_eq!(sweep.len(), 23);
    }

    #[test]
    fn prior_work_smoke() {
        let out = prior_work(&tiny()).unwrap();
        assert_eq!(out.len(), 10); // 5 benchmarks x 2 allocations
        for c in &out {
            assert!(c.zero_refresh <= 1.0 && c.zib <= 1.0);
            assert!(c.zero_refresh <= c.validity_oracle + 0.05);
        }
    }

    #[test]
    fn word_size_ablation_smoke() {
        let out = word_size_ablation(&tiny()).unwrap();
        assert_eq!(out.len(), 3);
        // The paper's 8-byte word is the best of the sweep.
        let best = out
            .iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        assert_eq!(best.0, 8, "8B words should win: {out:?}");
    }

    #[test]
    fn ipc_calibration_in_range() {
        let (gems, gobmk) = ipc_calibration();
        assert!(gems > 1.04 && gems < 1.14);
        assert!(gobmk > 1.0 && gobmk < 1.01);
    }
}
