//! The slow-but-obviously-correct reference model of the charge-aware
//! refresh subsystem.
//!
//! Everything here is re-derived from the raw [`SystemConfig`] fields and
//! the paper's prose, *not* from `zr-types::Geometry` or `zr-dram` — the
//! whole point is that two independent formulations of §IV must agree.
//! Where the production engine uses packed bit tables, block arithmetic
//! and batched table traffic, the oracle keeps explicit maps and explicit
//! loops:
//!
//! - charge state is a set of *charged slots* per chip-row (a chip-row is
//!   discharged exactly when no slot in it holds charged content);
//! - the §IV-C staggered schedule is evaluated step by step, and the
//!   inverse mapping (which AR sets does a write to rank-row `r` touch?)
//!   is found by exhaustively scanning the step block instead of the
//!   closed-form set-range arithmetic the production `note_write` uses;
//! - skip decisions re-walk the maps per command.
//!
//! It is the one reference for §IV: the differential runner compares the
//! production rank's charge state, the engine's decisions and all three of
//! its tracking tables (bits and traffic counters) with this model after
//! every command.
//!
//! An optional `stagger_skew` mirrors the production engine's
//! fault-injection knob so tests can put the off-by-one on either side of
//! the differential and watch the harness catch it.

use std::collections::{BTreeMap, BTreeSet};

use zr_types::SystemConfig;

/// Which refresh-management policy the oracle models. Mirrors
/// `zr_dram::RefreshPolicy` without depending on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OraclePolicy {
    /// Refresh everything.
    Conventional,
    /// The paper's split access-bit / status-table design (§IV-B).
    ChargeAware,
    /// The naive rank-row SRAM mirror ablation.
    NaiveSram,
}

/// What one reference AR command did; field-for-field comparable with the
/// production `ArOutcome`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OracleOutcome {
    /// Chip-rows refreshed.
    pub rows_refreshed: u64,
    /// Chip-rows skipped.
    pub rows_skipped: u64,
    /// Batched status-table reads.
    pub table_reads: u64,
    /// Batched status-table writes.
    pub table_writes: u64,
}

/// Reference window statistics; comparable with the production
/// `WindowStats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OracleWindow {
    /// Chip-rows refreshed.
    pub rows_refreshed: u64,
    /// Chip-rows skipped.
    pub rows_skipped: u64,
    /// AR commands issued.
    pub ar_commands: u64,
    /// Batched status-table reads.
    pub table_reads: u64,
    /// Batched status-table writes.
    pub table_writes: u64,
}

impl OracleWindow {
    /// Adds one AR command's outcome.
    pub(crate) fn add(&mut self, out: &OracleOutcome) {
        self.rows_refreshed += out.rows_refreshed;
        self.rows_skipped += out.rows_skipped;
        self.ar_commands += 1;
        self.table_reads += out.table_reads;
        self.table_writes += out.table_writes;
    }
}

/// The reference model. See the module docs for what it re-derives.
#[derive(Debug, Clone)]
pub struct RefOracle {
    chips: u64,
    banks: u64,
    rows_per_bank: u64,
    ar_rows: u64,
    ar_sets: u64,
    lines_per_row: u64,
    line_bytes_per_chip: usize,
    cell_block_rows: u64,
    anti_cells_first: bool,
    policy: OraclePolicy,
    /// Fault-injection offset added inside the staggered formula (0 in a
    /// correct model).
    pub stagger_skew: u64,
    /// Charged slots per (chip, bank, row); a missing or empty entry
    /// means the chip-row is fully discharged.
    pub(crate) charged: BTreeMap<(u64, u64, u64), BTreeSet<u64>>,
    /// Coarse access bits per (bank, AR set); all start *set* so the
    /// first window of every set scans (§IV-B).
    pub(crate) access: Vec<Vec<bool>>,
    /// Access bits that went from clear to set (the SRAM write events).
    pub(crate) access_set_events: u64,
    /// The in-DRAM discharged-status table: (chip, bank, row) → known
    /// discharged. Missing entries mean "charged" — the conservative
    /// power-up state.
    pub(crate) status: BTreeMap<(u64, u64, u64), bool>,
    /// The naive ablation's rank-row mirror: (bank, row) → discharged.
    /// Missing entries mean "discharged" (the tracker is accurate from
    /// power-up where everything is cleansed).
    pub(crate) naive: BTreeMap<(u64, u64), bool>,
    /// Writes recorded into the naive mirror.
    pub(crate) naive_updates: u64,
    /// Rows remapped to spares; never skipped, never recorded discharged.
    spared: BTreeSet<(u64, u64)>,
    /// Every AR command so far, summed; its table reads and writes are the
    /// status table's traffic.
    pub(crate) totals: OracleWindow,
}

impl RefOracle {
    /// Derives the reference geometry straight from the config fields.
    ///
    /// # Panics
    ///
    /// Panics when the config is not self-consistent (non-dividing
    /// capacities); conformance inputs are always the repo's own
    /// validated configs, so an inconsistency is itself a finding.
    pub fn new(config: &SystemConfig, policy: OraclePolicy) -> Self {
        let chips = config.dram.num_chips as u64;
        let banks = config.dram.num_banks as u64;
        let row_bytes = config.dram.row_bytes as u64;
        assert_eq!(
            config.dram.capacity_bytes % (row_bytes * banks),
            0,
            "capacity must divide into bank rows"
        );
        let rows_per_bank = config.dram.capacity_bytes / row_bytes / banks;
        // §IV-C: 8192 REF commands per tRET window; each covers
        // rows_per_bank/8192 steps per bank, at least one.
        let ar_rows = std::cmp::max(rows_per_bank / 8192, 1);
        assert_eq!(rows_per_bank % ar_rows, 0, "AR sets must tile the bank");
        let ar_sets = rows_per_bank / ar_rows;
        assert_eq!(
            config.line.line_bytes % config.dram.num_chips,
            0,
            "lines must stripe evenly across chips"
        );
        RefOracle {
            chips,
            banks,
            rows_per_bank,
            ar_rows,
            ar_sets,
            lines_per_row: row_bytes / config.line.line_bytes as u64,
            line_bytes_per_chip: config.line.line_bytes / config.dram.num_chips,
            cell_block_rows: config.dram.cell_block_rows,
            anti_cells_first: config.dram.anti_cells_first,
            policy,
            stagger_skew: 0,
            charged: BTreeMap::new(),
            access: vec![vec![true; ar_sets as usize]; banks as usize],
            access_set_events: 0,
            status: BTreeMap::new(),
            naive: BTreeMap::new(),
            naive_updates: 0,
            spared: BTreeSet::new(),
            totals: OracleWindow::default(),
        }
    }

    /// Number of AR sets per bank in the reference geometry.
    pub fn ar_sets(&self) -> u64 {
        self.ar_sets
    }

    /// Number of banks in the reference geometry.
    pub fn banks(&self) -> u64 {
        self.banks
    }

    /// Rows per bank in the reference geometry.
    pub fn rows_per_bank(&self) -> u64 {
        self.rows_per_bank
    }

    /// Number of chips in the reference geometry.
    pub fn chips(&self) -> u64 {
        self.chips
    }

    /// The byte value that leaves a cell of `row` discharged (§II-B:
    /// true-cell rows discharge to 0x00, anti-cell rows to 0xFF, types
    /// alternating every `cell_block_rows`).
    pub fn discharged_byte(&self, row: u64) -> u8 {
        let block_is_odd = (row / self.cell_block_rows) % 2 == 1;
        let anti = block_is_odd ^ self.anti_cells_first;
        if anti {
            0xFF
        } else {
            0x00
        }
    }

    /// The §IV-C staggered schedule: the row chip `chip` refreshes at
    /// step `n` (plus the fault-injection skew, if set).
    pub fn staggered(&self, n: u64, chip: u64) -> u64 {
        let k = self.chips;
        let group_base = n - n % k;
        group_base + (n % k + chip + self.stagger_skew) % k
    }

    /// Marks `row` of `bank` as remapped to a spare: always refreshed,
    /// never skipped.
    pub fn spare(&mut self, bank: u64, row: u64) {
        self.spared.insert((bank, row));
    }

    /// Whether the chip-row holds no charged content (the wired-OR check
    /// of §IV-B).
    pub fn chip_row_discharged(&self, chip: u64, bank: u64, row: u64) -> bool {
        self.charged
            .get(&(chip, bank, row))
            .is_none_or(|slots| slots.is_empty())
    }

    /// Discharged chip-rows of `bank`, over all chips.
    pub fn discharged_chip_rows_in_bank(&self, bank: u64) -> u64 {
        let charged = self
            .charged
            .iter()
            .filter(|(&(_, b, _), slots)| b == bank && !slots.is_empty())
            .count() as u64;
        self.chips * self.rows_per_bank - charged
    }

    /// Discharged chip-rows of the whole rank.
    pub fn discharged_chip_rows(&self) -> u64 {
        (0..self.banks)
            .map(|bank| self.discharged_chip_rows_in_bank(bank))
            .sum()
    }

    /// Applies the content of one chip-major encoded line write: slot
    /// `slot` of (`bank`, `row`). Each chip's segment either charges or
    /// discharges that chip's copy of the slot.
    pub fn write_line(&mut self, bank: u64, row: u64, slot: u64, chip_major: &[u8]) {
        let seg = self.line_bytes_per_chip;
        assert_eq!(chip_major.len(), seg * self.chips as usize);
        let discharged_byte = self.discharged_byte(row);
        for chip in 0..self.chips {
            let segment = &chip_major[chip as usize * seg..(chip as usize + 1) * seg];
            let segment_discharged = segment.iter().all(|&b| b == discharged_byte);
            let slots = self.charged.entry((chip, bank, row)).or_default();
            if segment_discharged {
                slots.remove(&slot);
            } else {
                slots.insert(slot);
            }
        }
    }

    /// Charges every slot of one chip-row, whatever its cell type (the
    /// failure-injection hook of a disturbed row).
    pub fn force_charge(&mut self, chip: u64, bank: u64, row: u64) {
        self.charged
            .insert((chip, bank, row), (0..self.lines_per_row).collect());
    }

    /// Applies an OS cleanse of a rank-row: every chip's copy returns to
    /// the fully discharged pattern.
    pub fn cleanse(&mut self, bank: u64, row: u64) {
        for chip in 0..self.chips {
            self.charged.remove(&(chip, bank, row));
        }
    }

    /// The tracking-structure side of a write notification, applied
    /// *after* the content change (same contract as the production
    /// engine's `note_write`).
    pub fn note_write(&mut self, bank: u64, row: u64) {
        match self.policy {
            OraclePolicy::Conventional => {}
            OraclePolicy::ChargeAware => {
                // Which AR sets must rescan? Exhaustively: every step `n`
                // whose staggered row equals `row` for some chip. The
                // schedule visits a row only within its own k-step group,
                // so scanning that group is exhaustive. The skew is *not*
                // applied here — note_write marks whole step groups and a
                // group covers the same rows under any rotation.
                let k = self.chips;
                let group_base = (row / k) * k;
                let saved = std::mem::replace(&mut self.stagger_skew, 0);
                for n in group_base..group_base + k {
                    for chip in 0..k {
                        if self.staggered(n, chip) == row {
                            let bit = &mut self.access[bank as usize][(n / self.ar_rows) as usize];
                            self.access_set_events += u64::from(!*bit);
                            *bit = true;
                        }
                    }
                }
                self.stagger_skew = saved;
            }
            OraclePolicy::NaiveSram => {
                let discharged = (0..self.chips).all(|c| self.chip_row_discharged(c, bank, row));
                self.naive.insert((bank, row), discharged);
                self.naive_updates += 1;
            }
        }
    }

    /// One reference per-bank AR command over AR set `set` of `bank`.
    pub fn process_ar(&mut self, bank: u64, set: u64) -> OracleOutcome {
        assert!(set < self.ar_sets, "AR set out of range");
        let mut out = OracleOutcome::default();
        let steps = set * self.ar_rows..(set + 1) * self.ar_rows;
        match self.policy {
            OraclePolicy::Conventional => {
                out.rows_refreshed = self.ar_rows * self.chips;
            }
            OraclePolicy::ChargeAware => {
                let trusted = !self.access[bank as usize][set as usize];
                if trusted {
                    out.table_reads = self.chips;
                    for n in steps {
                        for chip in 0..self.chips {
                            let row = self.staggered(n, chip);
                            let known_discharged =
                                *self.status.get(&(chip, bank, row)).unwrap_or(&false);
                            if !self.spared.contains(&(bank, row)) && known_discharged {
                                out.rows_skipped += 1;
                            } else {
                                out.rows_refreshed += 1;
                            }
                        }
                    }
                } else {
                    out.table_writes = self.chips;
                    for n in steps {
                        for chip in 0..self.chips {
                            let row = self.staggered(n, chip);
                            out.rows_refreshed += 1;
                            let discharged = !self.spared.contains(&(bank, row))
                                && self.chip_row_discharged(chip, bank, row);
                            self.status.insert((chip, bank, row), discharged);
                        }
                    }
                    self.access[bank as usize][set as usize] = false;
                }
            }
            OraclePolicy::NaiveSram => {
                for n in steps {
                    for chip in 0..self.chips {
                        let row = self.staggered(n, chip);
                        let discharged = *self.naive.get(&(bank, row)).unwrap_or(&true);
                        if !self.spared.contains(&(bank, row)) && discharged {
                            out.rows_skipped += 1;
                        } else {
                            out.rows_refreshed += 1;
                        }
                    }
                }
            }
        }
        self.totals.add(&out);
        out
    }

    /// Counts the stale skip promises: chip-rows the status table marks
    /// discharged in an AR set whose access bit is clear (so its next
    /// command trusts the entry and skips), that are not spared and hold
    /// charge. Under the write contract there are none; a write the engine
    /// is not told about leaves some. A set whose access bit is set costs
    /// one lookup, so sets no command has scanned are nearly free.
    pub fn audit_hazards(&self) -> u64 {
        if self.policy != OraclePolicy::ChargeAware {
            return 0;
        }
        let mut hazards = 0;
        for set in 0..self.ar_sets {
            for bank in 0..self.banks {
                if self.access[bank as usize][set as usize] {
                    continue; // the next command rescans this set
                }
                for n in set * self.ar_rows..(set + 1) * self.ar_rows {
                    for chip in 0..self.chips {
                        let row = self.staggered(n, chip);
                        if self.status.get(&(chip, bank, row)) == Some(&true)
                            && !self.spared.contains(&(bank, row))
                            && !self.chip_row_discharged(chip, bank, row)
                        {
                            hazards += 1;
                        }
                    }
                }
            }
        }
        hazards
    }

    /// One full reference retention window: one per-bank command for
    /// every AR set of every bank.
    pub fn run_window(&mut self) -> OracleWindow {
        let mut window = OracleWindow::default();
        for set in 0..self.ar_sets {
            for bank in 0..self.banks {
                let out = self.process_ar(bank, set);
                window.add(&out);
            }
        }
        window
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle(policy: OraclePolicy) -> RefOracle {
        RefOracle::new(&SystemConfig::small_test(), policy)
    }

    #[test]
    fn geometry_matches_small_test_expectations() {
        let o = oracle(OraclePolicy::ChargeAware);
        assert_eq!(o.chips(), 8);
        assert_eq!(o.banks(), 2);
        assert_eq!(o.rows_per_bank(), 64);
        assert_eq!(o.ar_sets(), 64);
    }

    #[test]
    fn staggered_is_a_permutation_within_each_group() {
        let o = oracle(OraclePolicy::Conventional);
        for chip in 0..o.chips() {
            let rows: BTreeSet<u64> = (0..o.rows_per_bank())
                .map(|n| o.staggered(n, chip))
                .collect();
            assert_eq!(rows.len() as u64, o.rows_per_bank());
        }
    }

    #[test]
    fn cell_types_alternate_in_blocks() {
        let o = oracle(OraclePolicy::Conventional);
        // small_test: 16-row blocks, true cells first.
        assert_eq!(o.discharged_byte(0), 0x00);
        assert_eq!(o.discharged_byte(15), 0x00);
        assert_eq!(o.discharged_byte(16), 0xFF);
        assert_eq!(o.discharged_byte(32), 0x00);
    }

    #[test]
    fn first_window_scans_second_skips_everything() {
        let mut o = oracle(OraclePolicy::ChargeAware);
        let total = o.rows_per_bank() * o.banks() * o.chips();
        let w1 = o.run_window();
        assert_eq!(w1.rows_refreshed, total);
        assert_eq!(w1.rows_skipped, 0);
        let w2 = o.run_window();
        assert_eq!(w2.rows_skipped, total);
        assert_eq!(w2.table_writes, 0);
    }

    #[test]
    fn charged_then_discharged_slot_restores_the_skip() {
        let mut o = oracle(OraclePolicy::ChargeAware);
        o.run_window();
        let line_len = 64;
        let charged = vec![0xABu8; line_len];
        o.write_line(0, 2, 0, &charged);
        o.note_write(0, 2);
        let w = o.run_window();
        assert!(w.rows_refreshed > 0);
        // Overwrite the same slot with the discharged pattern.
        let discharged = vec![0x00u8; line_len];
        o.write_line(0, 2, 0, &discharged);
        o.note_write(0, 2);
        o.run_window(); // rescans
        let w = o.run_window();
        assert_eq!(w.rows_refreshed, 0);
    }

    #[test]
    fn naive_mirror_skips_from_power_up() {
        let mut o = oracle(OraclePolicy::NaiveSram);
        let total = o.rows_per_bank() * o.banks() * o.chips();
        let w = o.run_window();
        assert_eq!(w.rows_skipped, total);
    }

    #[test]
    fn spared_rows_never_skip() {
        let mut o = oracle(OraclePolicy::ChargeAware);
        o.spare(0, 1);
        o.run_window();
        let w = o.run_window();
        assert_eq!(w.rows_refreshed, o.chips());
    }
}
