//! Discharged-row tracking structures (§IV-B).
//!
//! Tracking which rows are discharged is the crux of making charge-aware
//! refresh practical. The paper considers two designs:
//!
//! - a **naive full SRAM table** with one bit per row, updated on every
//!   write — 1 MB of SRAM at 32 GB/4 KB rows, burning 337.14 mW of leakage
//!   ([`NaiveSramTracker`], kept as an ablation baseline);
//! - the proposed split design: the per-row *discharged-status table* lives
//!   in DRAM ([`DischargedStatusTable`]) and a tiny coarse-grained SRAM
//!   *access-bit table* ([`AccessBitTable`], one bit per auto-refresh set,
//!   8 KB / 2.71 mW at full scale) filters which AR commands may trust it.

use zr_types::geometry::{BankId, ChipId, RowIndex};
use zr_types::Geometry;

/// The coarse-grained SRAM access-bit table (§IV-B).
///
/// One bit per (bank, auto-refresh set): set when any write lands in a row
/// covered by that AR command since the set's last refresh, cleared when
/// the AR command is processed. While the bit is clear, the DRAM-resident
/// discharged-status bits for the set are known to be current.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessBitTable {
    bits: Vec<u64>,
    sets_per_bank: u64,
    num_banks: usize,
    set_events: u64,
}

impl AccessBitTable {
    /// Builds the table for a geometry, with every bit initially set —
    /// after power-up nothing is known about row contents, so the first
    /// window refreshes (and scans) everything.
    pub fn new(geom: &Geometry) -> Self {
        let total = geom.access_bit_count() as usize;
        AccessBitTable {
            bits: vec![u64::MAX; total.div_ceil(64)],
            sets_per_bank: geom.ar_sets_per_bank(),
            num_banks: geom.num_banks(),
            set_events: 0,
        }
    }

    /// Total bits in the table (the SRAM size in bits).
    pub fn bit_count(&self) -> u64 {
        self.sets_per_bank * self.num_banks as u64
    }

    /// SRAM size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.bit_count().div_ceil(8)
    }

    /// Marks the AR set of `bank` as written.
    ///
    /// # Panics
    ///
    /// Panics if `bank` or `set` are out of range.
    pub fn mark_written(&mut self, bank: BankId, set: u64) {
        let idx = self.index(bank, set);
        self.bits[idx / 64] |= 1u64 << (idx % 64);
        self.set_events += 1;
    }

    /// Marks AR sets `first ..= last` of `bank` as written, a word at a
    /// time, counting one write event per bit that was clear (a set bit
    /// needs no SRAM write).
    ///
    /// # Panics
    ///
    /// Panics if `bank` or the sets are out of range.
    pub(crate) fn mark_sets_written(&mut self, bank: BankId, first: u64, last: u64) {
        let (mut idx, end) = (self.index(bank, first), self.index(bank, last) + 1);
        while idx < end {
            let bit = idx % 64;
            let n = (end - idx).min(64 - bit);
            let mask = (u64::MAX >> (64 - n)) << bit;
            let word = &mut self.bits[idx / 64];
            self.set_events += u64::from((mask & !*word).count_ones());
            *word |= mask;
            idx += n;
        }
    }

    /// Whether the AR set of `bank` has seen a write since its last
    /// refresh.
    pub fn is_written(&self, bank: BankId, set: u64) -> bool {
        let idx = self.index(bank, set);
        self.bits[idx / 64] >> (idx % 64) & 1 == 1
    }

    /// Clears the bit after the AR command has refreshed the set.
    pub fn clear(&mut self, bank: BankId, set: u64) {
        let idx = self.index(bank, set);
        self.bits[idx / 64] &= !(1u64 << (idx % 64));
    }

    /// Number of `mark_written` events (SRAM write activity, for the
    /// energy model).
    pub fn write_events(&self) -> u64 {
        self.set_events
    }

    fn index(&self, bank: BankId, set: u64) -> usize {
        assert!(bank.0 < self.num_banks, "bank out of range");
        assert!(set < self.sets_per_bank, "set out of range");
        (bank.0 as u64 * self.sets_per_bank + set) as usize
    }
}

/// The DRAM-resident discharged-status table (§IV-B).
///
/// One bit per (chip, bank, row), telling the refresh logic whether the
/// chip-row was fully discharged when it was last refreshed. The table
/// occupies DRAM, so the model counts *table reads* and *table writes* —
/// one each per AR command per chip at most — which the paper charges in
/// its energy analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DischargedStatusTable {
    /// One flat word-packed plane, `[bank][chip][word]` strided: bank `b`,
    /// chip `c` starts at `(b * num_chips + c) * words_per_bank`, so one
    /// AR command's batch for every chip sits in one bank region. A single
    /// contiguous allocation instead of nested `Vec`s.
    bits: Vec<u64>,
    words_per_bank: usize,
    num_chips: usize,
    num_banks: usize,
    rows_per_bank: u64,
    reads: u64,
    writes: u64,
}

impl DischargedStatusTable {
    /// Builds the table with every status initially "charged" (safe: a
    /// stale "charged" only costs a refresh, a stale "discharged" would
    /// lose data).
    pub fn new(geom: &Geometry) -> Self {
        let words_per_bank = (geom.rows_per_bank() as usize).div_ceil(64);
        DischargedStatusTable {
            bits: vec![0u64; geom.num_chips() * geom.num_banks() * words_per_bank],
            words_per_bank,
            num_chips: geom.num_chips(),
            num_banks: geom.num_banks(),
            rows_per_bank: geom.rows_per_bank(),
            reads: 0,
            writes: 0,
        }
    }

    /// Size of the table in DRAM bits: one bit per chip-row.
    pub fn bit_count(&self) -> u64 {
        self.num_chips as u64 * self.num_banks as u64 * self.rows_per_bank
    }

    fn word_index(&self, chip: ChipId, bank: BankId, row: RowIndex) -> usize {
        assert!(chip.0 < self.num_chips, "chip out of range");
        assert!(bank.0 < self.num_banks, "bank out of range");
        assert!(row.0 < self.rows_per_bank, "row out of range");
        (bank.0 * self.num_chips + chip.0) * self.words_per_bank + (row.0 / 64) as usize
    }

    /// Reads the stored status of one chip-row *without* counting a table
    /// access (used inside a batch covered by [`Self::note_read`]).
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    pub fn get(&self, chip: ChipId, bank: BankId, row: RowIndex) -> bool {
        self.bits[self.word_index(chip, bank, row)] >> (row.0 % 64) & 1 == 1
    }

    /// Stores the status of one chip-row *without* counting a table access
    /// (used inside a batch covered by [`Self::note_write`]).
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    pub fn set(&mut self, chip: ChipId, bank: BankId, row: RowIndex, discharged: bool) {
        let idx = self.word_index(chip, bank, row);
        let word = &mut self.bits[idx];
        if discharged {
            *word |= 1u64 << (row.0 % 64);
        } else {
            *word &= !(1u64 << (row.0 % 64));
        }
    }

    /// Words per (bank, chip) region: chip `c`'s status bits for rows
    /// `64 * w ..` of a bank are word `c * words_per_bank() + w` of
    /// [`Self::bank_words`].
    pub(crate) fn words_per_bank(&self) -> usize {
        self.words_per_bank
    }

    /// Bank `bank`'s status words for every chip (bit `r % 64` set = row
    /// `r` known discharged), *without* counting a table access — the
    /// refresh engine reads one command's batch word by word inside a
    /// [`Self::note_read`].
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn bank_words(&self, bank: BankId) -> &[u64] {
        let len = self.num_chips * self.words_per_bank;
        &self.bits[bank.0 * len..(bank.0 + 1) * len]
    }

    /// Mutable [`Self::bank_words`], for a batch covered by
    /// [`Self::note_write`].
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub(crate) fn bank_words_mut(&mut self, bank: BankId) -> &mut [u64] {
        let len = self.num_chips * self.words_per_bank;
        &mut self.bits[bank.0 * len..(bank.0 + 1) * len]
    }

    /// Records one batched DRAM read of the status bits for an AR command
    /// (the 128-bit register fill of §IV-D).
    pub fn note_read(&mut self) {
        self.reads += 1;
    }

    /// Records one batched DRAM write of the status bits for an AR command
    /// (the end-of-AR register write-back of §IV-D).
    pub fn note_write(&mut self) {
        self.writes += 1;
    }

    /// Batched table reads performed so far.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Batched table writes performed so far.
    pub fn writes(&self) -> u64 {
        self.writes
    }
}

/// The naive design §IV-B argues against: a full SRAM mirror of the
/// discharged status on the DIMM, one bit per *rank-row*, updated on every
/// memory write.
///
/// Its status is never stale, but it needs 1 MB of SRAM at the paper's
/// scale (8.3 M rank-rows), whose leakage (337.14 mW by CACTI) dwarfs the
/// refresh savings. The ablation bench quantifies exactly that trade. The
/// rank-row granularity also means a row group is skipped only when *all*
/// chips are discharged, unlike the per-chip in-DRAM table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NaiveSramTracker {
    /// One flat word-packed bitmap over rank-rows, strided per bank
    /// (bank `b` starts at `b * words_per_bank`).
    bits: Vec<u64>,
    words_per_bank: usize,
    num_banks: usize,
    rows_per_bank: u64,
    updates: u64,
}

impl NaiveSramTracker {
    /// Builds the tracker for a geometry, all rows initially discharged —
    /// the naive design can start accurate because it observes every write.
    pub fn new(geom: &Geometry) -> Self {
        let words_per_bank = (geom.rows_per_bank() as usize).div_ceil(64);
        NaiveSramTracker {
            bits: vec![u64::MAX; geom.num_banks() * words_per_bank],
            words_per_bank,
            num_banks: geom.num_banks(),
            rows_per_bank: geom.rows_per_bank(),
            updates: 0,
        }
    }

    /// SRAM size in bytes: one bit per rank-row, the paper's accounting
    /// ("more than 8.3 million rows which require a 1 MB SRAM", §IV-B).
    pub fn size_bytes(&self) -> u64 {
        (self.num_banks as u64 * self.rows_per_bank).div_ceil(8)
    }

    fn word_index(&self, bank: BankId, row: RowIndex) -> usize {
        assert!(bank.0 < self.num_banks, "bank out of range");
        assert!(row.0 < self.rows_per_bank, "row out of range");
        bank.0 * self.words_per_bank + (row.0 / 64) as usize
    }

    /// Updates the status of one rank-row after a write (one SRAM write
    /// per memory write — the cost the split design avoids).
    ///
    /// # Panics
    ///
    /// Panics if `bank` or `row` are out of range.
    pub fn record_write(&mut self, bank: BankId, row: RowIndex, discharged: bool) {
        let idx = self.word_index(bank, row);
        let word = &mut self.bits[idx];
        if discharged {
            *word |= 1u64 << (row.0 % 64);
        } else {
            *word &= !(1u64 << (row.0 % 64));
        }
        self.updates += 1;
    }

    /// Whether the tracker believes the rank-row is fully discharged.
    ///
    /// # Panics
    ///
    /// Panics if `bank` or `row` are out of range.
    pub fn is_discharged(&self, bank: BankId, row: RowIndex) -> bool {
        self.bits[self.word_index(bank, row)] >> (row.0 % 64) & 1 == 1
    }

    /// Bank `bank`'s tracker words: bit `r % 64` of word `r / 64` set =
    /// rank-row `r` believed discharged.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn bank_words(&self, bank: BankId) -> &[u64] {
        &self.bits[bank.0 * self.words_per_bank..(bank.0 + 1) * self.words_per_bank]
    }

    /// Number of SRAM update events.
    pub fn updates(&self) -> u64 {
        self.updates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zr_types::SystemConfig;

    fn geom() -> Geometry {
        SystemConfig::small_test().geometry()
    }

    #[test]
    fn access_bits_start_set_and_clear() {
        let g = geom();
        let mut t = AccessBitTable::new(&g);
        assert!(t.is_written(BankId(0), 0));
        t.clear(BankId(0), 0);
        assert!(!t.is_written(BankId(0), 0));
        t.mark_written(BankId(0), 0);
        assert!(t.is_written(BankId(0), 0));
        assert_eq!(t.write_events(), 1);
    }

    #[test]
    fn access_bits_are_independent() {
        let g = geom();
        let mut t = AccessBitTable::new(&g);
        for b in 0..g.num_banks() {
            for s in 0..g.ar_sets_per_bank() {
                t.clear(BankId(b), s);
            }
        }
        t.mark_written(BankId(1), 3);
        assert!(t.is_written(BankId(1), 3));
        assert!(!t.is_written(BankId(0), 3));
        assert!(!t.is_written(BankId(1), 2));
    }

    #[test]
    fn set_ranges_mark_like_single_sets() {
        // 128 sets per bank: ranges inside one word, across a word
        // boundary and at either end of a bank, against one mark_written
        // per clear bit.
        let mut cfg = SystemConfig::small_test();
        cfg.dram.capacity_bytes *= 2;
        let g = cfg.geometry();
        let sets = g.ar_sets_per_bank();
        assert_eq!(sets, 128);
        for (bank, first, last) in [
            (0, 3, 9),
            (1, 60, 70),
            (1, 0, 1),
            (0, sets - 2, sets - 1),
            (0, 5, 5),
        ] {
            let (mut ranged, mut single) = (AccessBitTable::new(&g), AccessBitTable::new(&g));
            for t in [&mut ranged, &mut single] {
                for b in 0..g.num_banks() {
                    for s in 0..sets {
                        t.clear(BankId(b), s);
                    }
                }
                t.mark_written(BankId(bank), first + 1);
            }
            ranged.mark_sets_written(BankId(bank), first, last);
            for set in first..=last {
                if !single.is_written(BankId(bank), set) {
                    single.mark_written(BankId(bank), set);
                }
            }
            assert_eq!(
                ranged.bits, single.bits,
                "bank {bank} sets {first}..={last}"
            );
            assert_eq!(ranged.write_events(), single.write_events());
        }
    }

    #[test]
    fn paper_scale_access_table_is_8_kib() {
        let mut cfg = SystemConfig::paper_default();
        cfg.dram.capacity_bytes = 32u64 << 30;
        let t = AccessBitTable::new(&cfg.geometry());
        assert_eq!(t.bit_count(), 8192 * 8);
        assert_eq!(t.size_bytes(), 8192);
    }

    #[test]
    fn status_table_starts_charged() {
        let g = geom();
        let t = DischargedStatusTable::new(&g);
        assert!(!t.get(ChipId(0), BankId(0), RowIndex(0)));
    }

    #[test]
    fn status_table_set_get() {
        let g = geom();
        let mut t = DischargedStatusTable::new(&g);
        t.set(ChipId(2), BankId(1), RowIndex(33), true);
        assert!(t.get(ChipId(2), BankId(1), RowIndex(33)));
        assert!(!t.get(ChipId(2), BankId(1), RowIndex(32)));
        assert!(!t.get(ChipId(1), BankId(1), RowIndex(33)));
        t.set(ChipId(2), BankId(1), RowIndex(33), false);
        assert!(!t.get(ChipId(2), BankId(1), RowIndex(33)));
    }

    #[test]
    fn status_table_counts_batched_accesses() {
        let g = geom();
        let mut t = DischargedStatusTable::new(&g);
        t.note_read();
        t.note_read();
        t.note_write();
        assert_eq!(t.reads(), 2);
        assert_eq!(t.writes(), 1);
    }

    #[test]
    fn naive_tracker_starts_discharged_and_observes_writes() {
        let g = geom();
        let mut n = NaiveSramTracker::new(&g);
        assert!(n.is_discharged(BankId(0), RowIndex(0)));
        n.record_write(BankId(0), RowIndex(0), false);
        assert!(!n.is_discharged(BankId(0), RowIndex(0)));
        n.record_write(BankId(0), RowIndex(0), true);
        assert!(n.is_discharged(BankId(0), RowIndex(0)));
        assert_eq!(n.updates(), 2);
    }

    #[test]
    fn naive_tracker_size_at_paper_scale() {
        // "more than 8.3 million rows which require a 1MB SRAM" (§IV-B):
        // 2^20 rows/bank x 8 banks = 8.4M rank-rows -> 1 MiB of SRAM bits.
        let mut cfg = SystemConfig::paper_default();
        cfg.dram.capacity_bytes = 32u64 << 30;
        let n = NaiveSramTracker::new(&cfg.geometry());
        assert_eq!(n.size_bytes(), 1 << 20);
    }

    #[test]
    #[should_panic]
    fn out_of_range_bank_panics() {
        let g = geom();
        let t = AccessBitTable::new(&g);
        t.is_written(BankId(99), 0);
    }
}
