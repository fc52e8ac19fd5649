//! Property-based tests for the DRAM model and refresh engine.

use zr_dram::{DramRank, RefreshEngine, RefreshPolicy};
use zr_types::geometry::{BankId, ChipId, RowIndex};
use zr_types::rng::{cases, SplitMix64};
use zr_types::SystemConfig;

const CASES: u64 = 32;

/// Up to 39 writes as (bank, row, slot, fill byte).
fn arb_writes(rng: &mut SplitMix64) -> Vec<(usize, u64, usize, u8)> {
    (0..rng.below(40))
        .map(|_| {
            (
                rng.below(2) as usize,
                rng.below(64),
                rng.below(64) as usize,
                rng.next_u64() as u8,
            )
        })
        .collect()
}

#[test]
fn storage_round_trips_any_write_sequence() {
    cases("storage_round_trips_any_write_sequence", CASES, |rng| {
        let writes = arb_writes(rng);
        let cfg = SystemConfig::small_test();
        let mut rank = DramRank::new(&cfg).unwrap();
        let mut shadow = std::collections::HashMap::new();
        for (bank, row, slot, fill) in writes {
            let line = vec![fill; 64];
            rank.write_encoded_line(BankId(bank), RowIndex(row), slot, &line)
                .unwrap();
            shadow.insert((bank, row, slot), line);
        }
        for ((bank, row, slot), line) in shadow {
            assert_eq!(
                rank.read_encoded_line(BankId(bank), RowIndex(row), slot)
                    .unwrap(),
                line
            );
        }
    });
}

#[test]
fn window_conservation_under_any_traffic() {
    cases("window_conservation_under_any_traffic", CASES, |rng| {
        let writes = arb_writes(rng);
        let windows = 1 + rng.below(3);
        let cfg = SystemConfig::small_test();
        let mut rank = DramRank::new(&cfg).unwrap();
        let mut engine = RefreshEngine::new(&cfg, RefreshPolicy::ChargeAware).unwrap();
        let total = rank.geometry().total_chip_row_refreshes_per_window();
        for chunk in writes.chunks(10) {
            for &(bank, row, slot, fill) in chunk {
                let line = vec![fill; 64];
                rank.write_encoded_line(BankId(bank), RowIndex(row), slot, &line)
                    .unwrap();
                engine.note_write(&rank, BankId(bank), RowIndex(row));
            }
            for _ in 0..windows {
                let w = engine.run_window(&mut rank);
                assert_eq!(w.rows_refreshed + w.rows_skipped, total);
            }
        }
        // The audit must stay clean under the note_write contract.
        assert_eq!(engine.audit_hazards(&rank), 0);
    });
}

#[test]
fn discharged_count_matches_manual_scan() {
    cases("discharged_count_matches_manual_scan", CASES, |rng| {
        let writes = arb_writes(rng);
        let cfg = SystemConfig::small_test();
        let mut rank = DramRank::new(&cfg).unwrap();
        for (bank, row, slot, fill) in writes {
            rank.write_encoded_line(BankId(bank), RowIndex(row), slot, &[fill; 64])
                .unwrap();
        }
        let geom = rank.geometry().clone();
        let mut manual = 0u64;
        for bank in 0..geom.num_banks() {
            for row in 0..geom.rows_per_bank() {
                for chip in 0..geom.num_chips() {
                    if rank.chip_row_is_discharged(ChipId(chip), BankId(bank), RowIndex(row)) {
                        manual += 1;
                    }
                }
            }
        }
        assert_eq!(rank.count_discharged_chip_rows(), manual);
    });
}

#[test]
fn cleanse_always_restores_full_skipping() {
    cases("cleanse_always_restores_full_skipping", CASES, |rng| {
        let writes = arb_writes(rng);
        let cfg = SystemConfig::small_test();
        let mut rank = DramRank::new(&cfg).unwrap();
        let mut engine = RefreshEngine::new(&cfg, RefreshPolicy::ChargeAware).unwrap();
        let mut touched = std::collections::HashSet::new();
        for (bank, row, slot, fill) in writes {
            rank.write_encoded_line(BankId(bank), RowIndex(row), slot, &[fill; 64])
                .unwrap();
            engine.note_write(&rank, BankId(bank), RowIndex(row));
            touched.insert((bank, row));
        }
        for (bank, row) in touched {
            rank.cleanse_row(BankId(bank), RowIndex(row)).unwrap();
            engine.note_write(&rank, BankId(bank), RowIndex(row));
        }
        engine.run_window(&mut rank); // rescan
        let w = engine.run_window(&mut rank);
        assert_eq!(w.rows_refreshed, 0);
    });
}
