//! The rank's packed charge bits against the reference oracle: after
//! every write, cleanse and forced charge over segments of 1 to 128
//! bytes, and on populated benchmark images read back line by line,
//! every chip-row's discharge and the rank and per-bank discharged counts
//! must equal `RefOracle`'s.

use zr_conform::{charge_divergence, OraclePolicy, RefOracle};
use zr_dram::{DramRank, RefreshPolicy};
use zr_sim::experiments::population::build_system;
use zr_sim::ExperimentConfig;
use zr_types::geometry::{BankId, ChipId, RowIndex};
use zr_types::rng::SplitMix64;
use zr_types::SystemConfig;
use zr_workloads::Benchmark;

/// A rank config of `num_chips` chips on `line_bytes` lines (8-byte
/// words), 2 banks of 16 rows of 512 bytes, true and anti cells
/// alternating every 2 rows.
fn seg_config(line_bytes: usize, num_chips: usize) -> SystemConfig {
    let mut cfg = SystemConfig::small_test();
    cfg.line.line_bytes = line_bytes;
    cfg.dram.num_chips = num_chips;
    cfg.dram.row_bytes = 512;
    cfg.dram.capacity_bytes = 2 * 16 * 512;
    cfg.dram.cell_block_rows = 2;
    cfg
}

#[test]
fn packed_bits_match_the_oracle_after_every_operation() {
    // (line bytes, chips): segments of 32, 16, 8, 4, 2 and 1 bytes on
    // 64-byte lines, then 128, 64 and 128 bytes on wider lines.
    let shapes = [
        (64, 2),
        (64, 4),
        (64, 8),
        (64, 16),
        (64, 32),
        (64, 64),
        (128, 1),
        (256, 4),
        (256, 2),
    ];
    let spared = [(0, 1), (1, 2), (1, 7)];
    let mut rng = SplitMix64::new(0x0C0D_EC0D_E5E6);
    for (line_bytes, chips) in shapes {
        let config = seg_config(line_bytes, chips);
        let mut rank = DramRank::new(&config).unwrap();
        let mut oracle = RefOracle::new(&config, OraclePolicy::Conventional);
        let g = rank.geometry().clone();
        assert_eq!(g.line_bytes_per_chip(), line_bytes / chips);
        for (bank, row) in spared {
            rank.add_spared_row(BankId(bank), RowIndex(row));
        }
        let (mut charges, mut discharges) = (0u32, 0u32);
        let mut line = vec![0u8; line_bytes];
        for step in 0..1500 {
            let bank = rng.below(2);
            // Few rows and slots, so chip-rows often return to
            // discharged.
            let row = rng.below(8);
            let slot = [0, g.lines_per_row() - 1][rng.below(2) as usize];
            let (bank_id, row_id) = (BankId(bank as usize), RowIndex(row));
            let pattern = oracle.discharged_byte(row);
            let what = format!("{line_bytes} B lines, {chips} chips, step {step}");
            match rng.below(16) {
                0 => {
                    rank.cleanse_row(bank_id, row_id).unwrap();
                    oracle.cleanse(bank, row);
                }
                1 => {
                    let chip = rng.below(chips as u64);
                    rank.force_charge_chip_row(ChipId(chip as usize), bank_id, row_id)
                        .unwrap();
                    oracle.force_charge(chip, bank, row);
                }
                op => {
                    match op {
                        2..=5 => line.fill(pattern),
                        6 => line.fill(!pattern),
                        7 => rng.fill_bytes(&mut line),
                        _ => {
                            // Each segment either discharged or holding a
                            // few charged bytes anywhere in it.
                            line.fill(pattern);
                            for segment in line.chunks_exact_mut(g.line_bytes_per_chip()) {
                                if rng.below(2) == 0 {
                                    for _ in 0..=rng.below(3) {
                                        let at = rng.below(segment.len() as u64) as usize;
                                        segment[at] = rng.next_u64() as u8;
                                    }
                                }
                            }
                        }
                    }
                    let before: Vec<bool> = (0..chips as u64)
                        .map(|c| oracle.chip_row_discharged(c, bank, row))
                        .collect();
                    rank.write_encoded_line(bank_id, row_id, slot, &line)
                        .unwrap();
                    oracle.write_line(bank, row, slot as u64, &line);
                    for (c, was) in before.into_iter().enumerate() {
                        let now = oracle.chip_row_discharged(c as u64, bank, row);
                        charges += u32::from(was && !now);
                        discharges += u32::from(!was && now);
                    }
                    assert_eq!(
                        rank.read_encoded_line(bank_id, row_id, slot).unwrap(),
                        line,
                        "{what}"
                    );
                }
            }
            if let Some((field, expected, actual)) = charge_divergence(&rank, &oracle) {
                panic!("{what}: {field}: oracle {expected}, rank {actual}");
            }
            for (b, r) in (0..2).flat_map(|b| (0..g.rows_per_bank()).map(move |r| (b, r))) {
                let is_spared = rank.is_spared(BankId(b), RowIndex(r));
                assert_eq!(
                    is_spared,
                    spared.contains(&(b, r)),
                    "bank {b} row {r}, {what}"
                );
            }
        }
        assert!(
            charges > 20 && discharges > 20,
            "{line_bytes} B lines, {chips} chips: {charges} charging and \
             {discharges} discharging zero-crossings"
        );
    }
}

/// Fully allocated images of two SPEC benchmarks and one TPC-H query:
/// the oracle, fed every stored line, must see the same charge in every
/// chip-row and decide the same two windows.
#[test]
fn populated_images_match_the_oracle() {
    let exp = ExperimentConfig::conform_test();
    for benchmark in [Benchmark::Mcf, Benchmark::Gcc, Benchmark::TpchQ6] {
        let mut image = build_system(benchmark, 1.0, RefreshPolicy::ChargeAware, &exp)
            .expect("benchmark image must populate");
        let mut oracle = RefOracle::new(image.system.config(), OraclePolicy::ChargeAware);
        let rank = image.system.controller().rank();
        let g = rank.geometry();
        for bank in 0..g.num_banks() {
            for row in 0..g.rows_per_bank() {
                for slot in 0..g.lines_per_row() {
                    let line = rank
                        .read_encoded_line(BankId(bank), RowIndex(row), slot)
                        .unwrap();
                    oracle.write_line(bank as u64, row, slot as u64, &line);
                }
            }
        }
        if let Some((field, expected, actual)) = charge_divergence(rank, &oracle) {
            panic!("{benchmark:?}: {field}: oracle {expected}, rank {actual}");
        }
        for window in 0..2 {
            let e = oracle.run_window();
            let a = image.system.run_refresh_window();
            assert_eq!(
                [
                    e.rows_refreshed,
                    e.rows_skipped,
                    e.ar_commands,
                    e.table_reads,
                    e.table_writes
                ],
                [
                    a.rows_refreshed,
                    a.rows_skipped,
                    a.ar_commands,
                    a.table_reads,
                    a.table_writes
                ],
                "{benchmark:?} window {window}"
            );
        }
    }
}
