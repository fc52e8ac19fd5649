//! Derived DRAM geometry and physical address mapping.
//!
//! [`Geometry`] folds a validated [`SystemConfig`] into
//! the quantities the simulator needs constantly: bytes per chip-row,
//! cachelines per row, auto-refresh set sizing (§IV-B) and the staggered
//! refresh-counter schedule of §IV-C.

use crate::config::{SystemConfig, REFRESH_COMMANDS_PER_TRET};
use crate::error::Error;
use crate::Result;

/// Identifies one DRAM chip (device) within the rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ChipId(pub usize);

/// Identifies one bank (the same bank index exists in every chip).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BankId(pub usize);

/// Identifies one row within a bank. Row indices are shared across chips:
/// rank-row `r` consists of chip-row `r` in every chip (before the refresh
/// stagger is applied).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RowIndex(pub u64);

/// A global cacheline-granularity address: byte address divided by the
/// cacheline size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(pub u64);

/// Where a cacheline lives inside the DRAM rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LineLocation {
    /// Bank holding the line.
    pub bank: BankId,
    /// Row within the bank.
    pub row: RowIndex,
    /// Cacheline slot within the row (0 ..= lines_per_row - 1).
    pub slot: usize,
}

/// Derived geometry of the simulated DRAM rank.
///
/// # Examples
///
/// ```
/// use zr_types::{Geometry, SystemConfig};
///
/// let cfg = SystemConfig::paper_default();
/// let geom = Geometry::new(&cfg)?;
/// assert_eq!(geom.lines_per_row(), 64);       // 4 KiB row / 64 B lines
/// assert_eq!(geom.chip_row_bytes(), 512);     // 4 KiB over 8 chips
/// # Ok::<(), zr_types::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Geometry {
    num_chips: usize,
    num_banks: usize,
    row_bytes: usize,
    line_bytes: usize,
    word_bytes: usize,
    rows_per_bank: u64,
    ar_rows: u64,
    capacity_bytes: u64,
    /// `capacity_bytes / line_bytes`, fixed at construction.
    total_lines: u64,
    /// log2 of the lines per row, a quotient of validated powers of two.
    line_shift: u32,
    /// log2 of the bank count when it is a power of two; other counts
    /// are valid too and locate by division.
    bank_shift: Option<u32>,
}

impl Geometry {
    /// Builds the derived geometry for a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the configuration does not
    /// validate.
    pub fn new(config: &SystemConfig) -> Result<Self> {
        config.validate()?;
        let rows_per_bank = config.dram.rows_per_bank();
        // Each per-bank auto-refresh command covers rows_per_bank / 8192
        // rows (128 at the paper's 32 GB / 8-bank point). Scaled-down
        // simulations with fewer than 8192 rows per bank refresh one row
        // per command.
        let ar_rows = (rows_per_bank / REFRESH_COMMANDS_PER_TRET).max(1);
        Ok(Geometry {
            num_chips: config.dram.num_chips,
            num_banks: config.dram.num_banks,
            row_bytes: config.dram.row_bytes,
            line_bytes: config.line.line_bytes,
            word_bytes: config.line.word_bytes,
            rows_per_bank,
            ar_rows,
            capacity_bytes: config.dram.capacity_bytes,
            total_lines: config.dram.capacity_bytes / config.line.line_bytes as u64,
            line_shift: (config.dram.row_bytes / config.line.line_bytes).trailing_zeros(),
            bank_shift: config
                .dram
                .num_banks
                .is_power_of_two()
                .then(|| config.dram.num_banks.trailing_zeros()),
        })
    }

    /// Number of chips in the rank.
    pub fn num_chips(&self) -> usize {
        self.num_chips
    }

    /// Number of banks per chip.
    pub fn num_banks(&self) -> usize {
        self.num_banks
    }

    /// Rank-level row size in bytes.
    pub fn row_bytes(&self) -> usize {
        self.row_bytes
    }

    /// Cacheline size in bytes.
    pub fn line_bytes(&self) -> usize {
        self.line_bytes
    }

    /// EBDI word size in bytes.
    pub fn word_bytes(&self) -> usize {
        self.word_bytes
    }

    /// Simulated capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Rows per bank.
    pub fn rows_per_bank(&self) -> u64 {
        self.rows_per_bank
    }

    /// Bytes of one row stored in one chip. The chip count is a
    /// validated power of two, so this and [`Self::line_bytes_per_chip`]
    /// are shifts.
    pub fn chip_row_bytes(&self) -> usize {
        self.row_bytes >> self.num_chips.trailing_zeros()
    }

    /// Cachelines per rank-row.
    pub fn lines_per_row(&self) -> usize {
        1 << self.line_shift
    }

    /// Bytes of one cacheline stored in one chip.
    pub fn line_bytes_per_chip(&self) -> usize {
        self.line_bytes >> self.num_chips.trailing_zeros()
    }

    /// Rows refreshed by a single per-bank auto-refresh command (§IV-B;
    /// 128 at the paper's full-scale configuration).
    pub fn ar_rows(&self) -> u64 {
        self.ar_rows
    }

    /// Number of per-bank auto-refresh sets in a bank (the number of AR
    /// commands one bank receives within tRET). Both terms are validated
    /// powers of two, so this is a shift.
    pub fn ar_sets_per_bank(&self) -> u64 {
        self.rows_per_bank >> self.ar_rows.trailing_zeros()
    }

    /// Total per-chip row refresh operations in one conventional retention
    /// window: every row of every bank of every chip.
    pub fn total_chip_row_refreshes_per_window(&self) -> u64 {
        self.rows_per_bank * self.num_banks as u64 * self.num_chips as u64
    }

    /// Total cachelines in the simulated memory.
    pub fn total_lines(&self) -> u64 {
        self.total_lines
    }

    /// Size of the coarse-grained SRAM access-bit table in bits: one bit
    /// per (bank, AR set) pair (§IV-B).
    pub fn access_bit_count(&self) -> u64 {
        self.ar_sets_per_bank() * self.num_banks as u64
    }

    /// Maps a global cacheline address to its bank/row/slot location.
    ///
    /// Rows are interleaved across banks at rank-row granularity, the
    /// common open-page mapping: consecutive rows of the physical address
    /// space land in consecutive banks. The slot is a shift and a mask,
    /// and so are the bank and row when the bank count is a power of two
    /// (every figure's geometry). The bank count is not validated as one,
    /// so other counts cost one division for the bank and row.
    ///
    /// # Errors
    ///
    /// Returns [`Error::AddressOutOfRange`] if the line does not fit in the
    /// simulated capacity.
    ///
    /// # Examples
    ///
    /// ```
    /// use zr_types::{SystemConfig, geometry::{Geometry, LineAddr}};
    /// let geom = SystemConfig::paper_default().geometry();
    /// let loc = geom.locate(LineAddr(0))?;
    /// assert_eq!(loc.bank.0, 0);
    /// assert_eq!(loc.slot, 0);
    /// // The next row of the address space sits in the next bank.
    /// let loc2 = geom.locate(LineAddr(geom.lines_per_row() as u64))?;
    /// assert_eq!(loc2.bank.0, 1);
    /// # Ok::<(), zr_types::Error>(())
    /// ```
    pub fn locate(&self, line: LineAddr) -> Result<LineLocation> {
        if line.0 >= self.total_lines() {
            return Err(Error::AddressOutOfRange {
                addr: line.0.saturating_mul(self.line_bytes as u64),
                capacity: self.capacity_bytes,
            });
        }
        let global_row = line.0 >> self.line_shift;
        let slot = (line.0 & ((1 << self.line_shift) - 1)) as usize;
        let (bank, row) = match self.bank_shift {
            Some(shift) => (global_row & ((1 << shift) - 1), global_row >> shift),
            None => (
                global_row % self.num_banks as u64,
                global_row / self.num_banks as u64,
            ),
        };
        Ok(LineLocation {
            bank: BankId(bank as usize),
            row: RowIndex(row),
            slot,
        })
    }

    /// Inverse of [`Self::locate`].
    ///
    /// # Examples
    ///
    /// ```
    /// use zr_types::{SystemConfig, geometry::LineAddr};
    /// let geom = SystemConfig::paper_default().geometry();
    /// let addr = LineAddr(123_456);
    /// let loc = geom.locate(addr)?;
    /// assert_eq!(geom.line_addr(loc), addr);
    /// # Ok::<(), zr_types::Error>(())
    /// ```
    pub fn line_addr(&self, loc: LineLocation) -> LineAddr {
        let global_row = loc.row.0 * self.num_banks as u64 + loc.bank.0 as u64;
        LineAddr(global_row << self.line_shift | loc.slot as u64)
    }

    /// The row that `chip` refreshes at staggered refresh step `n` (§IV-C).
    ///
    /// Refresh counters are initialized to the chip number, so refresh
    /// groups form diagonals across chips within each block of `num_chips`
    /// rows (Fig. 8): at step `n`, chip `c` refreshes row
    /// `num_chips * (n / num_chips) + (c + n) mod num_chips`.
    ///
    /// (The paper prints the formula as `((initRow + n) mod numChip) +
    /// n/numChip`; taken literally that would revisit rows, so we use the
    /// schedule Fig. 8 actually depicts, where the second term advances by
    /// whole blocks.) `num_chips` is a validated power of two, so the
    /// block and the rotation are masks rather than divisions.
    ///
    /// # Examples
    ///
    /// ```
    /// use zr_types::{SystemConfig, geometry::ChipId};
    /// let geom = SystemConfig::paper_default().geometry();
    /// // Step 0 refreshes the diagonal row c in chip c.
    /// assert_eq!(geom.staggered_row(0, ChipId(3)).0, 3);
    /// // Step 8 moves to the next block of 8 rows.
    /// assert_eq!(geom.staggered_row(8, ChipId(0)).0, 8);
    /// ```
    pub fn staggered_row(&self, n: u64, chip: ChipId) -> RowIndex {
        let m = self.num_chips as u64 - 1;
        RowIndex((n & !m) | ((chip.0 as u64).wrapping_add(n) & m))
    }

    /// Inverse of [`Self::staggered_row`]: the refresh step at which `chip`
    /// refreshes `row`.
    ///
    /// # Examples
    ///
    /// ```
    /// use zr_types::{SystemConfig, geometry::{ChipId, RowIndex}};
    /// let geom = SystemConfig::paper_default().geometry();
    /// for n in [0, 5, 9, 100] {
    ///     let row = geom.staggered_row(n, ChipId(5));
    ///     assert_eq!(geom.staggered_step(row, ChipId(5)), n);
    /// }
    /// ```
    pub fn staggered_step(&self, row: RowIndex, chip: ChipId) -> u64 {
        let m = self.num_chips as u64 - 1;
        (row.0 & !m) | (row.0.wrapping_sub(chip.0 as u64) & m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;

    fn geom() -> Geometry {
        SystemConfig::paper_default().geometry()
    }

    #[test]
    fn derived_quantities_match_paper_scale() {
        let g = geom();
        assert_eq!(g.chip_row_bytes(), 512);
        assert_eq!(g.lines_per_row(), 64);
        assert_eq!(g.line_bytes_per_chip(), 8);
        // 1 GiB / (8 banks * 4 KiB) = 32768 rows per bank.
        assert_eq!(g.rows_per_bank(), 32768);
        // 32768 / 8192 = 4 rows per per-bank AR at this scale.
        assert_eq!(g.ar_rows(), 4);
        assert_eq!(g.ar_sets_per_bank(), 8192);
    }

    #[test]
    fn full_scale_ar_rows_match_paper() {
        // At the paper's 32 GB, a per-bank AR covers 128 rows (§II-C).
        let mut cfg = SystemConfig::paper_default();
        cfg.dram.capacity_bytes = 32u64 << 30;
        let g = cfg.geometry();
        assert_eq!(g.rows_per_bank(), 1 << 20);
        assert_eq!(g.ar_rows(), 128);
        // Access-bit table: 8192 sets x 8 banks = 64 Kibit = 8 KiB SRAM.
        assert_eq!(g.access_bit_count(), 8192 * 8);
    }

    #[test]
    fn tiny_config_refreshes_one_row_per_ar() {
        let g = SystemConfig::small_test().geometry();
        assert_eq!(g.ar_rows(), 1);
        assert_eq!(g.ar_sets_per_bank(), g.rows_per_bank());
    }

    #[test]
    fn locate_round_trips() {
        let g = geom();
        for line in [0u64, 1, 63, 64, 65, 12345, g.total_lines() - 1] {
            let loc = g.locate(LineAddr(line)).unwrap();
            assert_eq!(g.line_addr(loc), LineAddr(line));
        }
    }

    #[test]
    fn locate_rejects_out_of_range() {
        let g = geom();
        assert!(g.locate(LineAddr(g.total_lines())).is_err());
    }

    #[test]
    fn locate_round_trips_on_seeded_small_geometries() {
        // 1-16 banks (not all powers of two), small capacities, several
        // row and line sizes: every located line is in range, maps back
        // to its address, and agrees with the division formula; the
        // first line past the capacity is rejected.
        crate::rng::cases(
            "locate_round_trips_on_seeded_small_geometries",
            200,
            |rng| {
                let mut cfg = SystemConfig::small_test();
                cfg.dram.num_banks = 1 + rng.below(16) as usize;
                cfg.dram.row_bytes = 512 << rng.below(4);
                cfg.line.line_bytes = 64 << rng.below(3);
                let rows = 8u64 << rng.below(5);
                cfg.dram.capacity_bytes =
                    rows * cfg.dram.num_banks as u64 * cfg.dram.row_bytes as u64;
                let g = Geometry::new(&cfg).unwrap();
                let lpr = (cfg.dram.row_bytes / cfg.line.line_bytes) as u64;
                assert_eq!(g.lines_per_row() as u64, lpr);
                assert_eq!(
                    g.total_lines(),
                    cfg.dram.capacity_bytes / cfg.line.line_bytes as u64
                );
                let probes = (0..64).map(|_| rng.below(g.total_lines()));
                for line in probes.chain([0, g.total_lines() - 1]) {
                    let loc = g.locate(LineAddr(line)).unwrap();
                    let global_row = line / lpr;
                    assert_eq!(loc.slot as u64, line % lpr, "{cfg:?} line {line}");
                    assert_eq!(loc.bank.0 as u64, global_row % g.num_banks() as u64);
                    assert_eq!(loc.row.0, global_row / g.num_banks() as u64);
                    assert!(loc.row.0 < g.rows_per_bank());
                    assert_eq!(g.line_addr(loc), LineAddr(line));
                }
                let past = g.total_lines();
                assert_eq!(
                    g.locate(LineAddr(past)),
                    Err(Error::AddressOutOfRange {
                        addr: past * cfg.line.line_bytes as u64,
                        capacity: cfg.dram.capacity_bytes,
                    })
                );
            },
        );
    }

    #[test]
    fn bank_interleaving_at_row_granularity() {
        let g = geom();
        let lpr = g.lines_per_row() as u64;
        for r in 0..20u64 {
            let loc = g.locate(LineAddr(r * lpr)).unwrap();
            assert_eq!(loc.bank.0, (r % 8) as usize);
            assert_eq!(loc.row.0, r / 8);
            assert_eq!(loc.slot, 0);
        }
    }

    #[test]
    fn staggered_schedule_is_a_permutation_per_chip() {
        let g = geom();
        let rows = 64u64;
        for chip in 0..g.num_chips() {
            let mut seen = vec![false; rows as usize];
            for n in 0..rows {
                let r = g.staggered_row(n, ChipId(chip));
                assert!(r.0 < rows, "row {} out of block range", r.0);
                assert!(!seen[r.0 as usize], "row revisited");
                seen[r.0 as usize] = true;
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn staggered_groups_are_diagonals() {
        let g = geom();
        // Within block 0, group n holds row (c + n) % 8 in chip c.
        for n in 0..8u64 {
            for c in 0..8usize {
                assert_eq!(g.staggered_row(n, ChipId(c)).0, (c as u64 + n) % 8);
            }
        }
    }

    #[test]
    fn staggered_step_inverts() {
        let g = geom();
        for chip in [0usize, 3, 7] {
            for n in [0u64, 1, 7, 8, 9, 4095, 32767] {
                let row = g.staggered_row(n, ChipId(chip));
                assert_eq!(g.staggered_step(row, ChipId(chip)), n);
            }
        }
    }

    #[test]
    fn access_bit_table_scales_with_capacity() {
        let g = geom();
        // 8192 sets per bank x 8 banks = 65536 bits = 8 KiB.
        assert_eq!(g.access_bit_count(), 65536);
    }

    #[test]
    fn total_refreshes_per_window() {
        let g = geom();
        assert_eq!(
            g.total_chip_row_refreshes_per_window(),
            32768 * 8 * 8 // rows x banks x chips
        );
    }
}
