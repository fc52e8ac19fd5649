//! Differential battery: packed discharged-bitmap path vs the retained
//! scalar byte-scan oracle.
//!
//! Two `DramRank`s receive an identical command stream; one is pinned to
//! the scalar reference path with `set_force_scalar(true)` (available
//! under the `scalar-oracle` feature). Every window's `WindowStats`,
//! every per-set `ArOutcome` skip decision, and the discharged counts at
//! rank, bank, and chip-row granularity must be bit-identical.
//!
//! The seeded sweep runs 300 reproducible cases: five seeds for each of
//! the 60 geometry variant × policy × write pattern combinations.

use zr_dram::{DramRank, RefreshEngine, RefreshPolicy, WindowStats};
use zr_types::geometry::{BankId, ChipId, RowIndex};
use zr_types::rng::{cases, SplitMix64};
use zr_types::SystemConfig;

/// Geometry variants mirroring the differential_dram sweep: stock small
/// config, anti-cells-first phase, smaller cell blocks, four banks.
fn config_variants() -> Vec<SystemConfig> {
    let base = SystemConfig::small_test();
    let mut anti_first = base.clone();
    anti_first.dram.anti_cells_first = true;
    let mut small_blocks = base.clone();
    small_blocks.dram.cell_block_rows = 8;
    let mut four_banks = base.clone();
    four_banks.dram.num_banks = 4;
    for cfg in [&anti_first, &small_blocks, &four_banks] {
        cfg.validate().expect("variant config must validate");
    }
    vec![base, anti_first, small_blocks, four_banks]
}

fn policies() -> [RefreshPolicy; 3] {
    [
        RefreshPolicy::ChargeAware,
        RefreshPolicy::Conventional,
        RefreshPolicy::NaiveSram,
    ]
}

/// The write-content patterns the sweep rotates through. Zeros/ones land
/// exactly on the true/anti discharged byte patterns, so they overwrite
/// charged segments with discharged ones and exercise the rescan that
/// decides whether a chip-row's charged bit falls; the sparse pattern
/// flips single bytes back and forth across the threshold.
#[derive(Clone, Copy, Debug)]
enum WritePattern {
    Random,
    Zeros,
    Ones,
    SparseFlip,
    Alternating,
}

const PATTERNS: [WritePattern; 5] = [
    WritePattern::Random,
    WritePattern::Zeros,
    WritePattern::Ones,
    WritePattern::SparseFlip,
    WritePattern::Alternating,
];

fn fill_line(pattern: WritePattern, rng: &mut SplitMix64, line: &mut [u8]) {
    match pattern {
        WritePattern::Random => {
            for b in line.iter_mut() {
                *b = rng.next_u64() as u8;
            }
        }
        WritePattern::Zeros => line.fill(0x00),
        WritePattern::Ones => line.fill(0xFF),
        WritePattern::SparseFlip => {
            let base = if rng.next_u64() & 1 == 0 { 0x00 } else { 0xFF };
            line.fill(base);
            let idx = rng.below(line.len() as u64) as usize;
            line[idx] ^= 0xA5;
        }
        WritePattern::Alternating => {
            for (i, b) in line.iter_mut().enumerate() {
                *b = if i % 2 == 0 { 0x0F } else { 0xF0 };
            }
        }
    }
}

/// Asserts every discharge observable agrees between the two ranks.
fn assert_state_identical(packed: &DramRank, scalar: &DramRank, ctx: &str) {
    assert_eq!(
        packed.count_discharged_chip_rows(),
        scalar.count_discharged_chip_rows(),
        "{ctx}: rank-level discharged count diverged"
    );
    let geom = packed.geometry();
    for bank in 0..geom.num_banks() {
        assert_eq!(
            packed.count_discharged_chip_rows_in_bank(BankId(bank)),
            scalar.count_discharged_chip_rows_in_bank(BankId(bank)),
            "{ctx}: bank {bank} discharged count diverged"
        );
        for chip in 0..geom.num_chips() {
            for row in 0..geom.rows_per_bank() {
                let p = packed.chip_row_is_discharged(ChipId(chip), BankId(bank), RowIndex(row));
                let s = scalar.chip_row_is_discharged(ChipId(chip), BankId(bank), RowIndex(row));
                assert_eq!(p, s, "{ctx}: chip {chip} bank {bank} row {row} diverged");
            }
        }
    }
}

/// Runs one case: an identical op stream through a packed rank and a
/// scalar-forced rank, comparing stats, skip decisions, and counts after
/// every window.
fn run_case(
    config: &SystemConfig,
    policy: RefreshPolicy,
    pattern: WritePattern,
    rng: &mut SplitMix64,
) {
    let mut packed = DramRank::new(config).expect("packed rank");
    let mut scalar = DramRank::new(config).expect("scalar rank");
    scalar.set_force_scalar(true);
    let mut packed_engine = RefreshEngine::new(config, policy).expect("packed engine");
    let mut scalar_engine = RefreshEngine::new(config, policy).expect("scalar engine");

    let geom = packed.geometry().clone();
    let mut line = vec![0u8; geom.line_bytes()];
    let mut packed_total = WindowStats::default();
    let mut scalar_total = WindowStats::default();

    for window in 0..3u32 {
        for _ in 0..16 {
            let bank = BankId(rng.below(geom.num_banks() as u64) as usize);
            let row = RowIndex(rng.below(geom.rows_per_bank()));
            let slot = rng.below(geom.lines_per_row() as u64) as usize;
            match rng.below(8) {
                0 => {
                    packed.cleanse_row(bank, row).expect("cleanse packed");
                    scalar.cleanse_row(bank, row).expect("cleanse scalar");
                }
                1 => {
                    let chip = ChipId(rng.below(geom.num_chips() as u64) as usize);
                    packed
                        .force_charge_chip_row(chip, bank, row)
                        .expect("force packed");
                    scalar
                        .force_charge_chip_row(chip, bank, row)
                        .expect("force scalar");
                    packed_engine.note_write(&packed, bank, row);
                    scalar_engine.note_write(&scalar, bank, row);
                }
                _ => {
                    fill_line(pattern, rng, &mut line);
                    packed
                        .write_encoded_line(bank, row, slot, &line)
                        .expect("write packed");
                    scalar
                        .write_encoded_line(bank, row, slot, &line)
                        .expect("write scalar");
                    packed_engine.note_write(&packed, bank, row);
                    scalar_engine.note_write(&scalar, bank, row);
                }
            }
        }
        // Probe a few AR sets on engine clones so per-set skip decisions
        // are compared at the finest observable granularity without
        // perturbing the staggered schedule of the real engines.
        for probe in 0..4 {
            let bank = BankId(rng.below(geom.num_banks() as u64) as usize);
            let set = rng.below(geom.ar_rows());
            let p = packed_engine.clone().process_ar(&packed, bank, set);
            let s = scalar_engine.clone().process_ar(&scalar, bank, set);
            assert_eq!(p, s, "window {window} probe {probe}: ArOutcome diverged");
        }
        let pw = packed_engine.run_window(&mut packed);
        let sw = scalar_engine.run_window(&mut scalar);
        assert_eq!(pw, sw, "window {window}: WindowStats diverged");
        packed_total.accumulate(&pw);
        scalar_total.accumulate(&sw);
        assert_state_identical(&packed, &scalar, &format!("window {window}"));
    }
    assert_eq!(packed_total, scalar_total, "accumulated stats diverged");
    assert_eq!(
        packed_engine.totals(),
        scalar_engine.totals(),
        "engine totals diverged"
    );
}

#[test]
fn seeded_sweep_packed_matches_scalar() {
    for (vi, config) in config_variants().iter().enumerate() {
        for policy in policies() {
            for pattern in PATTERNS {
                let name = format!("packed_matches_scalar/{vi}/{policy:?}/{pattern:?}");
                cases(&name, 5, |rng| run_case(config, policy, pattern, rng));
            }
        }
    }
}
