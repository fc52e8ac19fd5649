//! Sparse byte storage for one DRAM rank.
//!
//! Storage is per *rank-row*: bank `b`, row `r` holds one slot-major
//! image of `row_bytes` bytes. Cacheline slot `s` occupies bytes
//! `s * line_bytes ..`, and within it chip `c`'s segment sits at
//! `c * line_bytes_per_chip ..` — exactly the chip-major line the
//! memory controller writes and reads, so a line access touches one
//! contiguous run (one host cache line at the paper's 64 B lines).
//! Chip `c`'s row is the union of its segments across all slots.
//! Absent rows represent memory never written since the OS cleansed it —
//! their stored image is the discharged pattern of the row's cell type,
//! which reads back as logical zeros through the value-transformation
//! inverse.
//!
//! # The packed charge bitplane
//!
//! Every bank additionally maintains a word-packed *charged bitmap* with
//! one bit per chip-row (bit set = at least one charged cell, i.e. a byte
//! that differs from the discharged pattern). A write keeps it exact
//! without counting bytes: a chip's bit is set when its new segment holds
//! a charged byte, which is tested a word at a time by XORing the segment
//! with the pattern repeated across a `u64`. Only when a charged segment
//! is overwritten by a discharged one can the bit fall, and only then are
//! that chip's segments of the row rescanned, stopping at the first
//! charged one. So the §IV-B wired-OR check
//! ([`DramRank::chip_row_is_discharged`]) is a single bit probe,
//! `BankBits::charged` answers 64 rows of one chip at once for the
//! refresh engine, and [`DramRank::count_discharged_chip_rows_in_bank`]
//! is a `u64::count_ones` loop — no byte-pattern scans on the sweep hot
//! path. Spared rows are a per-bank bitmap in the same word layout.
//!
//! The original per-cell byte-scan path is retained behind
//! `#[cfg(any(test, feature = "scalar-oracle"))]` as the differential
//! reference oracle ([`DramRank::set_force_scalar`]); debug builds with
//! the oracle compiled in assert the two paths agree on every query. A
//! seeded battery in the tests checks every packed bit against it after
//! each write, cleanse and forced charge, for segments of 1 to 128 bytes.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::iter;
use std::sync::Arc;

use zr_types::geometry::{BankId, ChipId, RowIndex};
use zr_types::{CellType, DramConfig, Error, Geometry, Result, SystemConfig};

/// Multiply-shift hasher for row indices (splitmix64 finalizer). Row keys
/// are already well-distributed small integers; SipHash's DoS resistance
/// buys nothing here and costs ~8 ns per probe on the write hot path.
#[derive(Debug, Default)]
pub struct RowKeyHasher(u64);

impl Hasher for RowKeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // FNV-1a fallback for non-u64 keys (unused by the row maps).
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, value: u64) {
        let mut x = value;
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 = x ^ (x >> 31);
    }
}

type RowMap = HashMap<u64, RowStore, BuildHasherDefault<RowKeyHasher>>;

/// Explicit storage for one written rank-row.
#[derive(Debug, Clone)]
struct RowStore {
    /// The whole rank-row image, slot-major (see the module docs), in
    /// exactly one allocation.
    ///
    /// The buffer is shared copy-on-write: cloning a rank copies row
    /// pointers, and a writer goes through [`Arc::make_mut`], which
    /// copies a row only while another rank still shares it.
    bytes: Arc<[u8]>,
    /// Bit `c` set: chip `c` holds explicit (written) storage. Kept so
    /// [`DramRank::resident_chip_rows`] preserves the semantics of the
    /// old per-chip sparse maps (a forced charge touches one chip, a line
    /// write all of them).
    written: u128,
}

impl RowStore {
    /// A row store holding `blank`, the never-written image of its cell
    /// type. It shares the rank's copy until its first write, which
    /// copies it into the row's own buffer: one allocation and a memcpy.
    fn fresh(blank: &Arc<[u8]>) -> Self {
        RowStore {
            bytes: Arc::clone(blank),
            written: 0,
        }
    }

    /// Chip `chip`'s segments of the image, one per slot.
    #[cfg(any(test, feature = "scalar-oracle"))]
    fn chip_segments<'a>(
        &'a self,
        geom: &Geometry,
        chip: usize,
    ) -> impl Iterator<Item = &'a [u8]> + 'a {
        let seg = geom.line_bytes_per_chip();
        self.bytes
            .chunks_exact(geom.line_bytes())
            .map(move |line| &line[chip * seg..(chip + 1) * seg])
    }
}

/// Whether `segment` holds a charged byte, one that differs from the
/// discharged byte `pattern`: eight bytes at a time, XOR with the pattern
/// in every byte leaves exactly the charged bytes non-zero.
#[inline(always)]
fn holds_charge(segment: &[u8], pattern: u8) -> bool {
    let repeated = u64::from_le_bytes([pattern; 8]);
    let mut words = segment.chunks_exact(8);
    let mut diff = 0;
    for word in &mut words {
        diff |= u64::from_le_bytes(word.try_into().expect("8-byte chunk")) ^ repeated;
    }
    for &b in words.remainder() {
        diff |= u64::from(b ^ pattern);
    }
    diff != 0
}

/// One bank: its written rows plus the packed charged bitmap over all
/// (chip, row) pairs and the spared-row bitmap.
#[derive(Debug, Clone)]
struct BankStore {
    rows: RowMap,
    /// Chip `c` owns words `c * words_per_chip ..`; within a chip's
    /// region, row `r` is bit `r % 64` of word `r / 64`. Padding bits
    /// (when `rows_per_bank` is not a multiple of 64) stay zero, so
    /// popcounts over the whole vector need no masking.
    charged: Vec<u64>,
    /// Rows remapped by row sparing, one bit per rank-row in the same
    /// word layout as one chip's region of `charged`.
    spared: Vec<u64>,
}

/// One rank of DRAM devices: `num_chips` chips × `num_banks` banks of
/// sparse rows.
///
/// The stored bytes are the *physical* (already transformed) lines, each
/// chip-major and stored contiguously (see the [module docs](self)).
/// Whether a byte pattern means "discharged" depends on the row's
/// cell type; [`DramRank::chip_row_is_discharged`] performs the wired-OR
/// sense-amplifier check of §IV-B.
#[derive(Debug, Clone)]
pub struct DramRank {
    geom: Geometry,
    dram: DramConfig,
    banks: Vec<BankStore>,
    /// Packed-bitmap stride: words per chip region in each bank's
    /// `charged` vector (and the length of its `spared` bitmap).
    words_per_chip: usize,
    /// The image of a never-written row of each cell type (true, anti):
    /// the discharged pattern.
    blank: [Arc<[u8]>; 2],
    /// Differential-oracle toggle: route all discharge queries through
    /// the retained byte-scan path.
    #[cfg(any(test, feature = "scalar-oracle"))]
    force_scalar: bool,
}

impl DramRank {
    /// Builds an empty (fully cleansed) rank for `config`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the configuration does not
    /// validate.
    pub fn new(config: &SystemConfig) -> Result<Self> {
        let geom = Geometry::new(config)?;
        let words_per_chip = (geom.rows_per_bank() as usize).div_ceil(64);
        let banks = (0..geom.num_banks())
            .map(|_| BankStore {
                rows: RowMap::default(),
                charged: vec![0u64; geom.num_chips() * words_per_chip],
                spared: vec![0u64; words_per_chip],
            })
            .collect();
        let blank = [CellType::True, CellType::Anti]
            .map(|cell| iter::repeat_n(cell.discharged_byte(), geom.row_bytes()).collect());
        Ok(DramRank {
            geom,
            dram: config.dram.clone(),
            banks,
            words_per_chip,
            blank,
            #[cfg(any(test, feature = "scalar-oracle"))]
            force_scalar: false,
        })
    }

    /// The derived geometry of this rank.
    pub fn geometry(&self) -> &Geometry {
        &self.geom
    }

    /// The cell type of rank-row `row` (§II-B).
    pub fn cell_type(&self, row: RowIndex) -> CellType {
        CellType::of_row_index(row, &self.dram)
    }

    /// Marks a row as spared: it will always be refreshed (§IV-B: the
    /// spare may live in a different cell-type region).
    ///
    /// # Panics
    ///
    /// Panics if `bank` or `row` are out of range.
    pub fn add_spared_row(&mut self, bank: BankId, row: RowIndex) {
        assert!(row.0 < self.geom.rows_per_bank(), "row out of range");
        self.banks[bank.0].spared[(row.0 / 64) as usize] |= 1u64 << (row.0 % 64);
    }

    /// Whether a row is spared.
    ///
    /// # Panics
    ///
    /// Panics if `bank` or `row` are out of range.
    pub fn is_spared(&self, bank: BankId, row: RowIndex) -> bool {
        assert!(row.0 < self.geom.rows_per_bank(), "row out of range");
        self.banks[bank.0].spared[(row.0 / 64) as usize] >> (row.0 % 64) & 1 == 1
    }

    /// Bank `bank`'s packed charge and sparing bits, for a word-at-a-time
    /// pass over one AR command.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub(crate) fn bank_bits(&self, bank: BankId) -> BankBits<'_> {
        let store = &self.banks[bank.0];
        BankBits {
            #[cfg(any(test, feature = "scalar-oracle"))]
            rank: self,
            #[cfg(any(test, feature = "scalar-oracle"))]
            bank,
            charged: &store.charged,
            spared: &store.spared,
        }
    }

    /// Forces every discharge query through the retained per-cell byte
    /// scans instead of the packed bitmap — the differential reference
    /// oracle the conformance battery compares against. Results must be
    /// bit-identical either way; only the access pattern differs.
    #[cfg(any(test, feature = "scalar-oracle"))]
    pub fn set_force_scalar(&mut self, force: bool) {
        self.force_scalar = force;
    }

    /// Word index and bit mask of (chip, row) in a bank's packed bitmap.
    #[inline]
    fn charged_locus(&self, chip: usize, row: u64) -> (usize, u64) {
        (
            chip * self.words_per_chip + (row / 64) as usize,
            1u64 << (row % 64),
        )
    }

    /// Writes an encoded, chip-major cacheline into `slot` of
    /// (`bank`, `row`). Segment `c` of the buffer goes to chip `c`; the
    /// slot-major image stores the line as one contiguous run.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadLength`] if the buffer is not one cacheline, or
    /// [`Error::AddressOutOfRange`] if bank/row/slot are out of range.
    pub fn write_encoded_line(
        &mut self,
        bank: BankId,
        row: RowIndex,
        slot: usize,
        chip_major: &[u8],
    ) -> Result<()> {
        self.check_location(bank, row, slot)?;
        if chip_major.len() != self.geom.line_bytes() {
            return Err(Error::BadLength {
                got: chip_major.len(),
                expected: self.geom.line_bytes(),
            });
        }
        let seg = self.geom.line_bytes_per_chip();
        let line_bytes = self.geom.line_bytes();
        let num_chips = self.geom.num_chips();
        let cell = self.cell_type(row);
        let pattern = cell.discharged_byte();
        let (word_off, mask) = ((row.0 / 64) as usize, 1u64 << (row.0 % 64));
        let words_per_chip = self.words_per_chip;
        let blank = &self.blank[usize::from(cell == CellType::Anti)];
        let BankStore { rows, charged, .. } = &mut self.banks[bank.0];
        let store = rows.entry(row.0).or_insert_with(|| RowStore::fresh(blank));
        store.written |= u128::MAX >> (128 - num_chips);
        let image = Arc::make_mut(&mut store.bytes);
        let dst_line = &mut image[slot * line_bytes..(slot + 1) * line_bytes];
        // Chips whose charged segment is overwritten by a discharged one:
        // their bit stays set only if another of their segments holds
        // charge, which is known once the line is stored.
        let mut rescan = 0u128;
        let pairs = dst_line.chunks_exact(seg).zip(chip_major.chunks_exact(seg));
        for (c, (old, new)) in pairs.enumerate() {
            let word = &mut charged[c * words_per_chip + word_off];
            if holds_charge(new, pattern) {
                *word |= mask;
            } else if *word & mask != 0 && holds_charge(old, pattern) {
                rescan |= 1 << c;
            }
        }
        dst_line.copy_from_slice(chip_major);
        while rescan != 0 {
            let c = rescan.trailing_zeros() as usize;
            rescan &= rescan - 1;
            let mut segments = image
                .chunks_exact(line_bytes)
                .map(|line| &line[c * seg..][..seg]);
            if !segments.any(|segment| holds_charge(segment, pattern)) {
                charged[c * words_per_chip + word_off] &= !mask;
            }
        }
        Ok(())
    }

    /// Reads the encoded, chip-major cacheline stored in `slot` of
    /// (`bank`, `row`) into `line` (cleared and refilled; capacity is
    /// reused across calls).
    ///
    /// # Errors
    ///
    /// Returns [`Error::AddressOutOfRange`] if bank/row/slot are out of
    /// range.
    pub fn read_encoded_line_into(
        &self,
        bank: BankId,
        row: RowIndex,
        slot: usize,
        line: &mut Vec<u8>,
    ) -> Result<()> {
        self.check_location(bank, row, slot)?;
        let line_bytes = self.geom.line_bytes();
        line.clear();
        match self.banks[bank.0].rows.get(&row.0) {
            Some(store) => {
                // Never-written chip regions hold the discharged pattern
                // by construction, so the slot's run is the whole line.
                line.extend_from_slice(&store.bytes[slot * line_bytes..(slot + 1) * line_bytes]);
            }
            None => {
                let pattern = self.cell_type(row).discharged_byte();
                line.resize(self.geom.line_bytes(), pattern);
            }
        }
        Ok(())
    }

    /// Reads the encoded, chip-major cacheline stored in `slot` of
    /// (`bank`, `row`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::AddressOutOfRange`] if bank/row/slot are out of
    /// range.
    pub fn read_encoded_line(&self, bank: BankId, row: RowIndex, slot: usize) -> Result<Vec<u8>> {
        let mut line = Vec::with_capacity(self.geom.line_bytes());
        self.read_encoded_line_into(bank, row, slot, &mut line)?;
        Ok(line)
    }

    /// The wired-OR discharged check of §IV-B for one chip-row: true iff
    /// every cell of the row is discharged. One packed-bitmap probe.
    ///
    /// # Panics
    ///
    /// Panics if `chip`, `bank` or `row` are out of range.
    pub fn chip_row_is_discharged(&self, chip: ChipId, bank: BankId, row: RowIndex) -> bool {
        assert!(chip.0 < self.geom.num_chips(), "chip out of range");
        assert!(row.0 < self.geom.rows_per_bank(), "row out of range");
        #[cfg(any(test, feature = "scalar-oracle"))]
        if self.force_scalar {
            return self.scalar_chip_row_is_discharged(chip, bank, row);
        }
        let (word, mask) = self.charged_locus(chip.0, row.0);
        let packed = self.banks[bank.0].charged[word] & mask == 0;
        #[cfg(any(test, feature = "scalar-oracle"))]
        debug_assert_eq!(
            packed,
            self.scalar_chip_row_is_discharged(chip, bank, row),
            "packed bitmap diverges from byte scan at chip {} bank {} row {}",
            chip.0,
            bank.0,
            row.0
        );
        packed
    }

    /// The retained per-cell reference path: scan the stored bytes
    /// against the discharged pattern (absent rows are discharged by
    /// construction).
    #[cfg(any(test, feature = "scalar-oracle"))]
    fn scalar_chip_row_is_discharged(&self, chip: ChipId, bank: BankId, row: RowIndex) -> bool {
        let pattern = self.cell_type(row).discharged_byte();
        match self.banks[bank.0].rows.get(&row.0) {
            Some(store) => store
                .chip_segments(&self.geom, chip.0)
                .all(|segment| segment.iter().all(|&b| b == pattern)),
            None => true,
        }
    }

    /// [`BankBits::charged`] through the byte scans, one row per set bit
    /// of `mask`.
    #[cfg(any(test, feature = "scalar-oracle"))]
    fn scalar_charged_bits(&self, chip: ChipId, bank: BankId, word: usize, mask: u64) -> u64 {
        let mut bits = 0;
        let mut rest = mask;
        while rest != 0 {
            let bit = rest & rest.wrapping_neg();
            let row = RowIndex(word as u64 * 64 + u64::from(bit.trailing_zeros()));
            if row.0 < self.geom.rows_per_bank()
                && !self.scalar_chip_row_is_discharged(chip, bank, row)
            {
                bits |= bit;
            }
            rest &= rest - 1;
        }
        bits
    }

    /// Restores a whole rank-row to the cleansed (all-logical-zero,
    /// discharged) state — the §III-B deallocation-time zero-filling,
    /// collapsed to its storage effect.
    ///
    /// # Errors
    ///
    /// Returns [`Error::AddressOutOfRange`] if bank/row are out of range.
    pub fn cleanse_row(&mut self, bank: BankId, row: RowIndex) -> Result<()> {
        self.check_location(bank, row, 0)?;
        let num_chips = self.geom.num_chips();
        let (word_off, mask) = ((row.0 / 64) as usize, 1u64 << (row.0 % 64));
        let words_per_chip = self.words_per_chip;
        let BankStore { rows, charged, .. } = &mut self.banks[bank.0];
        if rows.remove(&row.0).is_some() {
            for c in 0..num_chips {
                charged[c * words_per_chip + word_off] &= !mask;
            }
        }
        Ok(())
    }

    /// Forces one chip-row fully charged regardless of cell type — a
    /// failure-injection hook (e.g. modeling a disturbed row) used by
    /// integrity tests.
    ///
    /// # Errors
    ///
    /// Returns [`Error::AddressOutOfRange`] if bank/row are out of range.
    pub fn force_charge_chip_row(
        &mut self,
        chip: ChipId,
        bank: BankId,
        row: RowIndex,
    ) -> Result<()> {
        self.check_location(bank, row, 0)?;
        let cell = self.cell_type(row);
        let pattern = cell.discharged_byte();
        let seg = self.geom.line_bytes_per_chip();
        let line_bytes = self.geom.line_bytes();
        let (word, mask) = self.charged_locus(chip.0, row.0);
        let blank = &self.blank[usize::from(cell == CellType::Anti)];
        let BankStore { rows, charged, .. } = &mut self.banks[bank.0];
        let store = rows.entry(row.0).or_insert_with(|| RowStore::fresh(blank));
        store.written |= 1u128 << chip.0;
        for line in Arc::make_mut(&mut store.bytes).chunks_exact_mut(line_bytes) {
            line[chip.0 * seg..(chip.0 + 1) * seg].fill(!pattern);
        }
        charged[word] |= mask;
        Ok(())
    }

    /// Number of chip-rows currently holding explicit (written) storage.
    pub fn resident_chip_rows(&self) -> usize {
        self.banks
            .iter()
            .map(|b| {
                b.rows
                    .values()
                    .map(|s| s.written.count_ones() as usize)
                    .sum::<usize>()
            })
            .sum()
    }

    /// Counts discharged chip-rows across the whole rank, the quantity the
    /// refresh experiments normalize by.
    pub fn count_discharged_chip_rows(&self) -> u64 {
        (0..self.geom.num_banks())
            .map(|bank| self.count_discharged_chip_rows_in_bank(BankId(bank)))
            .sum()
    }

    /// Counts discharged chip-rows in one bank (across all chips) — the
    /// per-bank end-of-window state the xray capture records. A popcount
    /// loop over the packed bitmap.
    pub fn count_discharged_chip_rows_in_bank(&self, bank: BankId) -> u64 {
        #[cfg(any(test, feature = "scalar-oracle"))]
        if self.force_scalar {
            return self.scalar_count_discharged_chip_rows_in_bank(bank);
        }
        let total = self.geom.rows_per_bank() * self.geom.num_chips() as u64;
        let charged: u64 = self.banks[bank.0]
            .charged
            .iter()
            .map(|w| u64::from(w.count_ones()))
            .sum();
        let packed = total - charged;
        #[cfg(any(test, feature = "scalar-oracle"))]
        debug_assert_eq!(
            packed,
            self.scalar_count_discharged_chip_rows_in_bank(bank),
            "packed popcount diverges from byte scan in bank {}",
            bank.0
        );
        packed
    }

    /// The retained per-cell reference count: absent chip-rows are
    /// discharged; resident ones are byte-scanned.
    #[cfg(any(test, feature = "scalar-oracle"))]
    fn scalar_count_discharged_chip_rows_in_bank(&self, bank: BankId) -> u64 {
        let mut discharged = self.geom.rows_per_bank() * self.geom.num_chips() as u64;
        for &row in self.banks[bank.0].rows.keys() {
            for c in 0..self.geom.num_chips() {
                if !self.scalar_chip_row_is_discharged(ChipId(c), bank, RowIndex(row)) {
                    discharged -= 1;
                }
            }
        }
        discharged
    }

    fn check_location(&self, bank: BankId, row: RowIndex, slot: usize) -> Result<()> {
        if bank.0 >= self.geom.num_banks()
            || row.0 >= self.geom.rows_per_bank()
            || slot >= self.geom.lines_per_row()
        {
            return Err(Error::AddressOutOfRange {
                addr: row.0 * self.geom.row_bytes() as u64,
                capacity: self.geom.capacity_bytes(),
            });
        }
        Ok(())
    }
}

/// One bank's packed bits, borrowed from a [`DramRank`] by
/// [`DramRank::bank_bits`]. Word `w` covers rows `64 * w .. 64 * w + 63`
/// of the bank, row `r` at bit `r % 64`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BankBits<'a> {
    /// The rank and bank, for the scalar oracle's byte scans.
    #[cfg(any(test, feature = "scalar-oracle"))]
    rank: &'a DramRank,
    #[cfg(any(test, feature = "scalar-oracle"))]
    bank: BankId,
    /// The bank's `charged` words, chip-major.
    charged: &'a [u64],
    spared: &'a [u64],
}

impl BankBits<'_> {
    /// Spared bits of row word `word` (bit set = row spared).
    ///
    /// # Panics
    ///
    /// Panics if `word` is out of range.
    #[inline]
    pub(crate) fn spared(&self, word: usize) -> u64 {
        self.spared[word]
    }

    /// The wired-OR check of §IV-B for up to 64 rows of one chip at once:
    /// the charged bits of `chip`'s row word `word`, restricted to `mask`
    /// (bit set = row holds charge). This is the word the refresh engine
    /// latches per command. Only rows in `mask` are queried, so under the
    /// scalar oracle the byte scans cover exactly the rows a per-row walk
    /// would probe.
    ///
    /// # Panics
    ///
    /// Panics if `chip` or `word` are out of range.
    #[inline]
    pub(crate) fn charged(&self, chip: ChipId, word: usize, mask: u64) -> u64 {
        let words_per_chip = self.spared.len();
        assert!(word < words_per_chip, "row word out of range");
        #[cfg(any(test, feature = "scalar-oracle"))]
        if self.rank.force_scalar {
            return self.rank.scalar_charged_bits(chip, self.bank, word, mask);
        }
        let packed = self.charged[chip.0 * words_per_chip + word] & mask;
        #[cfg(any(test, feature = "scalar-oracle"))]
        debug_assert_eq!(
            packed,
            self.rank.scalar_charged_bits(chip, self.bank, word, mask),
            "packed bitmap diverges from byte scan at chip {} bank {} word {}",
            chip.0,
            self.bank.0,
            word
        );
        packed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rank() -> DramRank {
        DramRank::new(&SystemConfig::small_test()).unwrap()
    }

    #[test]
    fn fresh_rank_is_fully_discharged() {
        let r = rank();
        let g = r.geometry().clone();
        assert_eq!(
            r.count_discharged_chip_rows(),
            g.rows_per_bank() * g.num_banks() as u64 * g.num_chips() as u64
        );
        assert_eq!(r.resident_chip_rows(), 0);
    }

    #[test]
    fn absent_rows_read_as_discharged_pattern() {
        let r = rank();
        // Row 0 is a true-cell row in the small config: zeros.
        let line = r.read_encoded_line(BankId(0), RowIndex(0), 0).unwrap();
        assert!(line.iter().all(|&b| b == 0x00));
        // Row 16 starts an anti-cell block (16-row blocks): ones.
        let line = r.read_encoded_line(BankId(0), RowIndex(16), 0).unwrap();
        assert!(line.iter().all(|&b| b == 0xFF));
    }

    #[test]
    fn write_read_round_trip() {
        let mut r = rank();
        let line: Vec<u8> = (0..64).collect();
        r.write_encoded_line(BankId(1), RowIndex(5), 3, &line)
            .unwrap();
        assert_eq!(
            r.read_encoded_line(BankId(1), RowIndex(5), 3).unwrap(),
            line
        );
        // Untouched slots of the same row keep the discharged pattern.
        let other = r.read_encoded_line(BankId(1), RowIndex(5), 4).unwrap();
        assert!(other.iter().all(|&b| b == 0x00));
    }

    #[test]
    fn chip_major_segments_land_in_chips() {
        let mut r = rank();
        let mut line = vec![0u8; 64];
        line[2 * 8..3 * 8].copy_from_slice(&[9; 8]); // segment for chip 2
        r.write_encoded_line(BankId(0), RowIndex(1), 0, &line)
            .unwrap();
        assert!(r.chip_row_is_discharged(ChipId(0), BankId(0), RowIndex(1)));
        assert!(!r.chip_row_is_discharged(ChipId(2), BankId(0), RowIndex(1)));
    }

    #[test]
    fn discharged_check_respects_cell_type() {
        let mut r = rank();
        // Writing 0xFF into an anti-cell row keeps it discharged.
        let line = vec![0xFFu8; 64];
        r.write_encoded_line(BankId(0), RowIndex(17), 0, &line)
            .unwrap();
        for c in 0..8 {
            assert!(r.chip_row_is_discharged(ChipId(c), BankId(0), RowIndex(17)));
        }
        // Writing 0xFF into a true-cell row charges it.
        r.write_encoded_line(BankId(0), RowIndex(2), 0, &line)
            .unwrap();
        assert!(!r.chip_row_is_discharged(ChipId(0), BankId(0), RowIndex(2)));
    }

    #[test]
    fn partial_write_in_anti_row_keeps_rest_discharged() {
        let mut r = rank();
        let line = vec![0xFFu8; 64];
        // Writing the discharged pattern into one slot of an anti row must
        // initialize the rest of the row to 0xFF, not 0x00.
        r.write_encoded_line(BankId(0), RowIndex(16), 2, &line)
            .unwrap();
        assert!(r.chip_row_is_discharged(ChipId(0), BankId(0), RowIndex(16)));
    }

    #[test]
    fn cleanse_restores_discharge() {
        let mut r = rank();
        let line = vec![0xA5u8; 64];
        r.write_encoded_line(BankId(0), RowIndex(3), 0, &line)
            .unwrap();
        assert!(!r.chip_row_is_discharged(ChipId(0), BankId(0), RowIndex(3)));
        r.cleanse_row(BankId(0), RowIndex(3)).unwrap();
        assert!(r.chip_row_is_discharged(ChipId(0), BankId(0), RowIndex(3)));
        assert_eq!(r.resident_chip_rows(), 0);
    }

    #[test]
    fn force_charge_hook() {
        let mut r = rank();
        r.force_charge_chip_row(ChipId(4), BankId(1), RowIndex(20))
            .unwrap();
        assert!(!r.chip_row_is_discharged(ChipId(4), BankId(1), RowIndex(20)));
        // Row 20 is anti (block 1): forced pattern is 0x00 logically.
        let line = r.read_encoded_line(BankId(1), RowIndex(20), 0).unwrap();
        assert_eq!(&line[4 * 8..5 * 8], &[0u8; 8]);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut r = rank();
        let g = r.geometry().clone();
        let line = vec![0u8; 64];
        assert!(r
            .write_encoded_line(BankId(g.num_banks()), RowIndex(0), 0, &line)
            .is_err());
        assert!(r
            .write_encoded_line(BankId(0), RowIndex(g.rows_per_bank()), 0, &line)
            .is_err());
        assert!(r
            .write_encoded_line(BankId(0), RowIndex(0), g.lines_per_row(), &line)
            .is_err());
        assert!(r.read_encoded_line(BankId(0), RowIndex(0), 9999).is_err());
        assert!(r
            .write_encoded_line(BankId(0), RowIndex(0), 0, &[0u8; 8])
            .is_err());
    }

    #[test]
    fn spared_rows_tracked() {
        let mut r = rank();
        assert!(!r.is_spared(BankId(0), RowIndex(1)));
        r.add_spared_row(BankId(0), RowIndex(1));
        r.add_spared_row(BankId(0), RowIndex(1));
        assert!(r.is_spared(BankId(0), RowIndex(1)));
    }

    #[test]
    fn count_discharged_tracks_writes() {
        let mut r = rank();
        let g = r.geometry().clone();
        let total = g.rows_per_bank() * g.num_banks() as u64 * g.num_chips() as u64;
        let line = vec![0x01u8; 64];
        r.write_encoded_line(BankId(0), RowIndex(0), 0, &line)
            .unwrap();
        // Every chip got one non-discharged byte segment... all 8 chips
        // now have a charged row 0.
        assert_eq!(r.count_discharged_chip_rows(), total - 8);
    }

    #[test]
    fn per_bank_discharged_counts_sum_to_rank_total() {
        let mut r = rank();
        let g = r.geometry().clone();
        let line = vec![0x01u8; 64];
        r.write_encoded_line(BankId(0), RowIndex(0), 0, &line)
            .unwrap();
        r.write_encoded_line(BankId(1), RowIndex(3), 1, &line)
            .unwrap();
        let per_bank: Vec<u64> = (0..g.num_banks())
            .map(|b| r.count_discharged_chip_rows_in_bank(BankId(b)))
            .collect();
        assert_eq!(per_bank.iter().sum::<u64>(), r.count_discharged_chip_rows());
        // Each written bank lost one chip-row per chip.
        let full_bank = g.rows_per_bank() * g.num_chips() as u64;
        assert!(per_bank
            .iter()
            .all(|&d| d == full_bank - g.num_chips() as u64));
    }

    // --- packed-bitmap specific behaviour -------------------------------

    #[test]
    fn overwrite_with_pattern_clears_packed_bit_again() {
        // Charge a segment, then overwrite the same slot with the
        // discharged pattern: the zero-crossing must clear the bit.
        let mut r = rank();
        let line = vec![0x5Au8; 64];
        r.write_encoded_line(BankId(0), RowIndex(2), 1, &line)
            .unwrap();
        assert!(!r.chip_row_is_discharged(ChipId(3), BankId(0), RowIndex(2)));
        let zeros = vec![0u8; 64];
        r.write_encoded_line(BankId(0), RowIndex(2), 1, &zeros)
            .unwrap();
        for c in 0..8 {
            assert!(r.chip_row_is_discharged(ChipId(c), BankId(0), RowIndex(2)));
        }
        // The row stays resident (written != cleansed) yet fully
        // discharged — exactly the state the popcount must report.
        assert_eq!(r.resident_chip_rows(), 8);
        let g = r.geometry().clone();
        assert_eq!(
            r.count_discharged_chip_rows(),
            g.rows_per_bank() * g.num_banks() as u64 * g.num_chips() as u64
        );
    }

    #[test]
    fn packed_and_scalar_paths_agree_under_mixed_traffic() {
        let mut r = rank();
        let g = r.geometry().clone();
        // A deterministic mix of charging writes, pattern rewrites,
        // cleanses and forced charges.
        for i in 0..200u64 {
            let bank = BankId((i % g.num_banks() as u64) as usize);
            let row = RowIndex((i * 7) % g.rows_per_bank());
            let slot = (i % g.lines_per_row() as u64) as usize;
            match i % 5 {
                0 | 1 => {
                    let line = vec![(i % 251) as u8 + 1; 64];
                    r.write_encoded_line(bank, row, slot, &line).unwrap();
                }
                2 => {
                    let pattern = r.cell_type(row).discharged_byte();
                    let line = vec![pattern; 64];
                    r.write_encoded_line(bank, row, slot, &line).unwrap();
                }
                3 => r.cleanse_row(bank, row).unwrap(),
                _ => r
                    .force_charge_chip_row(ChipId((i % 8) as usize), bank, row)
                    .unwrap(),
            }
        }
        let packed: Vec<u64> = (0..g.num_banks())
            .map(|b| r.count_discharged_chip_rows_in_bank(BankId(b)))
            .collect();
        r.set_force_scalar(true);
        let scalar: Vec<u64> = (0..g.num_banks())
            .map(|b| r.count_discharged_chip_rows_in_bank(BankId(b)))
            .collect();
        assert_eq!(packed, scalar);
        for bank in 0..g.num_banks() {
            for row in 0..g.rows_per_bank() {
                for chip in 0..g.num_chips() {
                    r.set_force_scalar(true);
                    let s = r.chip_row_is_discharged(ChipId(chip), BankId(bank), RowIndex(row));
                    r.set_force_scalar(false);
                    let p = r.chip_row_is_discharged(ChipId(chip), BankId(bank), RowIndex(row));
                    assert_eq!(p, s, "bank {bank} row {row} chip {chip}");
                }
            }
        }
    }

    /// A rank with `rows_per_bank` rows (power of two, may be smaller
    /// than one 64-bit bitmap word) across `num_banks` banks.
    fn tiny_rank(rows_per_bank: u64, num_banks: usize) -> DramRank {
        let mut cfg = SystemConfig::small_test();
        cfg.dram.num_banks = num_banks;
        cfg.dram.capacity_bytes = num_banks as u64 * rows_per_bank * cfg.dram.row_bytes as u64;
        cfg.dram.cell_block_rows = (rows_per_bank / 2).max(1);
        DramRank::new(&cfg).unwrap()
    }

    #[test]
    fn rows_below_word_width_count_exactly() {
        // 16 rows per bank: the bitmap word is 3/4 padding. Padding bits
        // must never be counted as charged or discharged.
        for rows in [2u64, 4, 16, 32] {
            let mut r = tiny_rank(rows, 2);
            let g = r.geometry().clone();
            let full = rows * g.num_banks() as u64 * g.num_chips() as u64;
            assert_eq!(r.count_discharged_chip_rows(), full, "{rows} rows fresh");
            let line = vec![0xA7u8; g.line_bytes()];
            for row in 0..rows {
                r.write_encoded_line(BankId(0), RowIndex(row), 0, &line)
                    .unwrap();
            }
            // Every chip-row of bank 0 charged, bank 1 untouched.
            assert_eq!(
                r.count_discharged_chip_rows_in_bank(BankId(0)),
                0,
                "{rows} rows charged"
            );
            assert_eq!(
                r.count_discharged_chip_rows_in_bank(BankId(1)),
                rows * g.num_chips() as u64
            );
            for row in 0..rows {
                r.cleanse_row(BankId(0), RowIndex(row)).unwrap();
            }
            assert_eq!(r.count_discharged_chip_rows(), full, "{rows} rows cleansed");
        }
    }

    #[test]
    fn single_row_banks_track_charge_per_bank() {
        let mut r = tiny_rank(1, 4);
        let g = r.geometry().clone();
        let line = vec![0x5Cu8; g.line_bytes()];
        r.write_encoded_line(BankId(2), RowIndex(0), 0, &line)
            .unwrap();
        for bank in 0..4 {
            let expected = if bank == 2 { 0 } else { g.num_chips() as u64 };
            assert_eq!(
                r.count_discharged_chip_rows_in_bank(BankId(bank)),
                expected,
                "bank {bank}"
            );
            assert_eq!(
                r.chip_row_is_discharged(ChipId(0), BankId(bank), RowIndex(0)),
                bank != 2
            );
        }
        r.cleanse_row(BankId(2), RowIndex(0)).unwrap();
        assert_eq!(r.count_discharged_chip_rows(), 4 * g.num_chips() as u64);
    }

    #[test]
    fn spared_row_forced_charged_counts_as_charged() {
        // Sparing is a refresh-engine decision; the rank's packed bitmap
        // must still report the true charge state of a spared row.
        let mut r = tiny_rank(4, 2);
        let g = r.geometry().clone();
        r.add_spared_row(BankId(1), RowIndex(3));
        r.force_charge_chip_row(ChipId(5), BankId(1), RowIndex(3))
            .unwrap();
        assert!(r.is_spared(BankId(1), RowIndex(3)));
        assert!(!r.chip_row_is_discharged(ChipId(5), BankId(1), RowIndex(3)));
        assert!(r.chip_row_is_discharged(ChipId(4), BankId(1), RowIndex(3)));
        assert_eq!(
            r.count_discharged_chip_rows_in_bank(BankId(1)),
            4 * g.num_chips() as u64 - 1
        );
        // Cleansing restores discharge but not the sparing mark.
        r.cleanse_row(BankId(1), RowIndex(3)).unwrap();
        assert!(r.chip_row_is_discharged(ChipId(5), BankId(1), RowIndex(3)));
        assert!(r.is_spared(BankId(1), RowIndex(3)));
    }

    #[test]
    fn never_written_rank_answers_from_the_fast_path() {
        // A fresh tiny rank holds no row stores: every discharge answer
        // comes straight from the (all-charged-bits-clear) bitmap.
        let r = tiny_rank(16, 2);
        let g = r.geometry().clone();
        assert_eq!(r.resident_chip_rows(), 0);
        for bank in 0..g.num_banks() {
            for row in 0..g.rows_per_bank() {
                for chip in 0..g.num_chips() {
                    assert!(r.chip_row_is_discharged(ChipId(chip), BankId(bank), RowIndex(row)));
                }
            }
        }
        assert_eq!(
            r.count_discharged_chip_rows(),
            16 * g.num_banks() as u64 * g.num_chips() as u64
        );
    }

    // --- packed charged bits against the byte scan ----------------------

    /// A rank of `num_chips` chips on `line_bytes` lines (8-byte words),
    /// 2 banks of 16 rows of 512 bytes, true and anti cells alternating
    /// every 2 rows.
    fn seg_rank(line_bytes: usize, num_chips: usize) -> DramRank {
        let mut cfg = SystemConfig::small_test();
        cfg.line.line_bytes = line_bytes;
        cfg.dram.num_chips = num_chips;
        cfg.dram.row_bytes = 512;
        cfg.dram.capacity_bytes = 2 * 16 * 512;
        cfg.dram.cell_block_rows = 2;
        DramRank::new(&cfg).unwrap()
    }

    /// Every packed charged bit of `r` is what a byte scan of its
    /// chip-row says, no padding bit is set, and exactly the rows in
    /// `spared` are spared.
    fn assert_bits_match_the_bytes(r: &DramRank, spared: &[(usize, u64)], what: &str) {
        let g = r.geometry();
        for (b, store) in r.banks.iter().enumerate() {
            let mut charged_rows = 0;
            for row in 0..g.rows_per_bank() {
                for chip in 0..g.num_chips() {
                    let (word, mask) = r.charged_locus(chip, row);
                    let packed = store.charged[word] & mask != 0;
                    let scan =
                        !r.scalar_chip_row_is_discharged(ChipId(chip), BankId(b), RowIndex(row));
                    assert_eq!(packed, scan, "bank {b} row {row} chip {chip}, {what}");
                    charged_rows += u32::from(scan);
                }
                assert_eq!(
                    r.is_spared(BankId(b), RowIndex(row)),
                    spared.contains(&(b, row)),
                    "bank {b} row {row} spared, {what}"
                );
            }
            let set: u32 = store.charged.iter().map(|w| w.count_ones()).sum();
            assert_eq!(set, charged_rows, "bank {b} padding bits, {what}");
        }
    }

    #[test]
    fn packed_bits_match_the_byte_scan_after_every_operation() {
        // (line bytes, chips): segments of 32, 16, 8, 4, 2 and 1 bytes
        // on 64-byte lines, then 128, 64 and 128 bytes on wider lines.
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
        let mut rng = zr_types::rng::SplitMix64::new(0x0C0D_EC0D_E5E6);
        for (line_bytes, chips) in shapes {
            let mut r = seg_rank(line_bytes, chips);
            let g = r.geometry().clone();
            assert_eq!(g.line_bytes_per_chip(), line_bytes / chips);
            for (bank, row) in spared {
                r.add_spared_row(BankId(bank), RowIndex(row));
            }
            let (mut charges, mut discharges) = (0u32, 0u32);
            let mut line = vec![0u8; line_bytes];
            for step in 0..1500 {
                let bank = BankId(rng.below(2) as usize);
                // Few rows and slots, so chip-rows often return to
                // discharged.
                let row = RowIndex(rng.below(8));
                let slot = [0, g.lines_per_row() - 1][rng.below(2) as usize];
                let pattern = r.cell_type(row).discharged_byte();
                let what = format!("{line_bytes} B lines, {chips} chips, step {step}");
                match rng.below(16) {
                    0 => {
                        r.cleanse_row(bank, row).unwrap();
                        assert_bits_match_the_bytes(&r, &spared, &what);
                        continue;
                    }
                    1 => {
                        let chip = ChipId(rng.below(chips as u64) as usize);
                        r.force_charge_chip_row(chip, bank, row).unwrap();
                        assert_bits_match_the_bytes(&r, &spared, &what);
                        continue;
                    }
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
                let before = r.banks[bank.0].charged.clone();
                r.write_encoded_line(bank, row, slot, &line).unwrap();
                for (old, new) in before.iter().zip(&r.banks[bank.0].charged) {
                    charges += (new & !old).count_ones();
                    discharges += (old & !new).count_ones();
                }
                assert_eq!(
                    r.read_encoded_line(bank, row, slot).unwrap(),
                    line,
                    "{what}"
                );
                assert_bits_match_the_bytes(&r, &spared, &what);
            }
            assert!(
                charges > 20 && discharges > 20,
                "{line_bytes} B lines, {chips} chips: {charges} charging and \
                 {discharges} discharging zero-crossings"
            );
        }
    }
}
