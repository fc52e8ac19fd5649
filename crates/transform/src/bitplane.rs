//! The bit-plane transposition stage (§V-C, Fig. 12).
//!
//! After EBDI each delta word has long runs of zero *high-order* bits, but
//! the non-zero low-order bits are scattered one-per-word across the line.
//! Transposing the delta words as a bit matrix regroups bit position `b` of
//! every delta into one contiguous *bit plane*. Packing planes from the
//! most significant down means the all-zero high planes coalesce at the
//! front of the delta region and every non-zero bit concentrates in the
//! trailing *delta word* — exactly the layout the rotation stage then
//! spreads over chips.
//!
//! The stage is a pure bit permutation: no logic, only wire routing in
//! hardware, and losslessly invertible here.
//!
//! # Layout
//!
//! With `D` delta words of `bits = 8 · word_bytes` bits each, bit
//! `p · D + d` of the delta region (bits numbered MSB-first within each
//! byte) holds bit `bits − 1 − p` of delta `d`: plane 0 collects the MSBs,
//! the final plane the LSBs.
//!
//! # Kernel
//!
//! Byte lane `L` of the deltas (their bits `8L .. 8L + 8`) feeds exactly
//! eight consecutive planes, which fill the `D` whole bytes starting at
//! region byte `D · (word_bytes − 1 − L)`. The kernel therefore works in
//! lanes, on groups of up to eight deltas: it loads each delta with one
//! word load, turns the group into lane words with an 8×8 byte
//! transpose (three word-swap rounds at 32, 16 and 8 bits), and
//! transposes each lane word as an 8×8 bit matrix in three delta swaps,
//! which leaves the lane's eight plane chunks in its eight bytes. When
//! the deltas fit one group (`D ≤ 8`, as at the paper's 64-byte lines of
//! 8-byte words) a lane's chunks are contiguous in the output, so three
//! mask rounds squeeze them into the top `8 · D` bits of one word, which
//! is stored whole. Longer lines pack each plane's chunks from every
//! group MSB-first. Every delta is loaded before any plane is written, so
//! the stage runs in place. Untransposing runs the same steps backwards.
//!
//! The kernel is written once per direction and inlined into a
//! constant-shape copy for the paper's default geometry, where every
//! shift, mask, offset and bound folds to a constant; every other
//! geometry runs the same code with runtime shapes. The per-bit walk it
//! replaced is kept as a test-only reference, and a differential battery
//! compares the two on every valid geometry with lines of up to 256
//! bytes, one-group and multi-group shapes alike.

use zr_types::{CachelineConfig, Error, Result};

/// Transposes the delta region (words `1..`) of an EBDI-encoded line in
/// place, packing bit planes MSB-first.
///
/// The base word (word 0) is left untouched.
///
/// # Errors
///
/// Returns [`Error::BadLength`] if `line` does not match the configured
/// cacheline size.
///
/// # Examples
///
/// ```
/// use zr_transform::{bitplane, ebdi};
/// use zr_types::CachelineConfig;
///
/// let cfg = CachelineConfig::paper_default();
/// let mut line = [0u8; 64];
/// // Consecutive small values: EBDI leaves small deltas…
/// for (i, w) in line.chunks_exact_mut(8).enumerate() {
///     w.copy_from_slice(&(500u64 + i as u64).to_le_bytes());
/// }
/// ebdi::encode_in_place(&mut line, &cfg)?;
/// bitplane::transpose_in_place(&mut line, &cfg)?;
/// // …and the transposition turns words 1..=6 into pure zeros.
/// assert!(line[8..56].iter().all(|&b| b == 0));
/// assert!(line[56..].iter().any(|&b| b != 0));
/// # Ok::<(), zr_types::Error>(())
/// ```
pub fn transpose_in_place(line: &mut [u8], config: &CachelineConfig) -> Result<()> {
    transpose_in_place_with(line, config, &mut Vec::new())
}

/// [`transpose_in_place`] with caller-provided scratch (cleared and
/// refilled with the transposed lane blocks; capacity reused across
/// calls) — the allocation-free form the memory controller's scratch
/// feeds. Output bytes are identical to the scratch-less form.
///
/// # Errors
///
/// Returns [`Error::BadLength`] if `line` does not match the configured
/// cacheline size.
pub fn transpose_in_place_with(
    line: &mut [u8],
    config: &CachelineConfig,
    scratch: &mut Vec<u64>,
) -> Result<()> {
    check_len(line, config)?;
    match (config.line_bytes, config.word_bytes) {
        (64, 8) => transpose_lanes(line, 8, 7, scratch),
        (_, wb) => transpose_lanes(line, wb, config.words_per_line() - 1, scratch),
    }
    Ok(())
}

/// Inverse of [`transpose_in_place`].
///
/// # Errors
///
/// Returns [`Error::BadLength`] if `line` does not match the configured
/// cacheline size.
pub fn untranspose_in_place(line: &mut [u8], config: &CachelineConfig) -> Result<()> {
    untranspose_in_place_with(line, config, &mut Vec::new())
}

/// [`untranspose_in_place`] with caller-provided scratch — the
/// allocation-free form the memory controller's scratch feeds.
///
/// # Errors
///
/// Returns [`Error::BadLength`] if `line` does not match the configured
/// cacheline size.
pub fn untranspose_in_place_with(
    line: &mut [u8],
    config: &CachelineConfig,
    scratch: &mut Vec<u64>,
) -> Result<()> {
    check_len(line, config)?;
    match (config.line_bytes, config.word_bytes) {
        (64, 8) => untranspose_lanes(line, 8, 7, scratch),
        (_, wb) => untranspose_lanes(line, wb, config.words_per_line() - 1, scratch),
    }
    Ok(())
}

/// The kernel behind [`transpose_in_place_with`] for `d` deltas of `wb`
/// bytes. Always inlined, so a call with literal shapes compiles to a
/// fully unrolled constant-shape copy.
#[inline(always)]
fn transpose_lanes(line: &mut [u8], wb: usize, d: usize, scratch: &mut Vec<u64>) {
    let groups = d.div_ceil(8);
    let region = &mut line[wb..wb * (d + 1)];
    if groups == 1 {
        // Every delta is loaded before any plane is written, and each
        // lane's eight plane chunks are contiguous: one squeezed word,
        // stored whole in ascending region order. A word spills past its
        // lane's `d` bytes only into lanes stored after it.
        let lanes = group_lanes(region, wb, d, 0);
        for lane in (0..wb).rev() {
            let at = d * (wb - 1 - lane);
            let planes = squeeze(lanes[lane], d).to_be_bytes();
            match region.get_mut(at..at + 8) {
                Some(word) => word.copy_from_slice(&planes),
                None => region[at..at + d].copy_from_slice(&planes[..d]),
            }
        }
        return;
    }
    let blocks = lane_blocks(scratch, wb * groups);
    // Every block is gathered before any plane is written: the planes
    // overwrite the deltas in place.
    for g in 0..groups {
        let lanes = group_lanes(region, wb, d, g);
        for (lane, &m) in lanes[..wb].iter().enumerate() {
            blocks[lane * groups + g] = m;
        }
    }
    for lane in 0..wb {
        let mut sink = BitSink::new(&mut region[d * (wb - 1 - lane)..][..d]);
        for plane in 0..8 {
            for g in 0..groups {
                let chunk = (blocks[lane * groups + g] >> (56 - 8 * plane)) as u8;
                sink.put(chunk, group_len(d, g) as u32);
            }
        }
        sink.finish();
    }
}

/// The kernel behind [`untranspose_in_place_with`]: [`transpose_lanes`]
/// run backwards.
#[inline(always)]
fn untranspose_lanes(line: &mut [u8], wb: usize, d: usize, scratch: &mut Vec<u64>) {
    let groups = d.div_ceil(8);
    let region = &mut line[wb..wb * (d + 1)];
    if groups == 1 {
        let mut lanes = [0u64; 8];
        for (lane, m) in lanes[..wb].iter_mut().enumerate() {
            // A whole word where the region has one: the bytes past this
            // lane's `d` land below the chunks, like `unsqueeze`'s copies.
            let at = d * (wb - 1 - lane);
            let planes = match region.get(at..at + 8) {
                Some(word) => u64::from_be_bytes(word.try_into().expect("8 bytes")),
                None => {
                    region[at..at + d]
                        .iter()
                        .fold(0, |w, &b| w << 8 | u64::from(b))
                        << (64 - 8 * d)
                }
            };
            *m = unsqueeze(planes, d);
        }
        scatter_group(lanes, region, wb, d, 0);
        return;
    }
    let blocks = lane_blocks(scratch, wb * groups);
    for lane in 0..wb {
        let mut source = BitSource::new(&region[d * (wb - 1 - lane)..][..d]);
        for plane in 0..8 {
            for g in 0..groups {
                let chunk = u64::from(source.take(group_len(d, g) as u32));
                blocks[lane * groups + g] |= chunk << (56 - 8 * plane);
            }
        }
    }
    for g in 0..groups {
        let mut lanes = [0u64; 8];
        for (lane, m) in lanes[..wb].iter_mut().enumerate() {
            *m = blocks[lane * groups + g];
        }
        scatter_group(lanes, region, wb, d, g);
    }
}

/// `len` zeroed lane blocks at the front of `scratch`.
#[inline(always)]
fn lane_blocks(scratch: &mut Vec<u64>, len: usize) -> &mut [u64] {
    scratch.clear();
    scratch.resize(len, 0);
    &mut scratch[..len]
}

/// Deltas in group `g` (deltas `8g..8g+8`), which is also the bits each of
/// its plane chunks carries: eight, except in a final partial group.
#[inline(always)]
fn group_len(d: usize, g: usize) -> usize {
    (d - 8 * g).min(8)
}

/// The lane words of deltas `8g..8g+8` of the little-endian delta
/// `region`: word `L` (for `L < wb`; the rest are unspecified) holds the
/// [`transpose8`] of byte `L` of each delta as the rows of an 8×8 bit
/// matrix, the first delta in the most significant byte (rows past the
/// last delta are zero). Each delta is one word load; an 8×8 byte
/// transpose turns the deltas into lanes.
#[inline(always)]
fn group_lanes(region: &[u8], wb: usize, d: usize, g: usize) -> [u64; 8] {
    let mut words = [0u64; 8];
    for r in 0..group_len(d, g) {
        // A whole-word load where the region has one: the bytes past the
        // delta go to lanes past `wb`, which are not used. Delta `r` in
        // word `7 − r` puts its byte `L` in byte `7 − r` of lane word `L`.
        let at = (8 * g + r) * wb;
        words[7 - r] = match region.get(at..at + 8) {
            Some(word) => u64::from_le_bytes(word.try_into().expect("8 bytes")),
            None => region[at..at + wb]
                .iter()
                .rev()
                .fold(0, |w, &b| w << 8 | u64::from(b)),
        };
    }
    transpose_bytes(&mut words);
    for m in &mut words[..wb] {
        *m = transpose8(*m);
    }
    words
}

/// Inverse of [`group_lanes`]: stores the deltas whose lane words are
/// `lanes` (words past `wb` unused) as deltas `8g..8g+8` of `region`, in
/// ascending order. A whole-word store spills past its delta only into
/// deltas stored after it, so the caller reads every lane first.
#[inline(always)]
fn scatter_group(mut lanes: [u64; 8], region: &mut [u8], wb: usize, d: usize, g: usize) {
    for m in &mut lanes[..wb] {
        *m = transpose8(*m);
    }
    transpose_bytes(&mut lanes);
    for r in 0..group_len(d, g) {
        let at = (8 * g + r) * wb;
        let delta = lanes[7 - r].to_le_bytes();
        match region.get_mut(at..at + 8) {
            Some(word) => word.copy_from_slice(&delta),
            None => region[at..at + wb].copy_from_slice(&delta[..wb]),
        }
    }
}

/// Transposes an 8×8 byte matrix held one row per word: byte `c` of word
/// `r` trades places with byte `r` of word `c`. Three word-swap rounds
/// exchange the off-diagonal 4×4, then 2×2, then 1×1 blocks (32-, 16-
/// and 8-bit units). An involution, so it also undoes itself.
#[inline(always)]
fn transpose_bytes(words: &mut [u64; 8]) {
    for (k, mask) in [
        (4, 0x0000_0000_FFFF_FFFF),
        (2, 0x0000_FFFF_0000_FFFF),
        (1, 0x00FF_00FF_00FF_00FF),
    ] {
        for i in (0..8).filter(|i| i & k == 0) {
            let t = ((words[i] >> (8 * k)) ^ words[i + k]) & mask;
            words[i] ^= t << (8 * k);
            words[i + k] ^= t;
        }
    }
}

/// Transposes an 8×8 bit matrix held one row per byte: bit `8r + c`
/// trades places with bit `8c + r`. Three delta swaps exchange the
/// off-diagonal 1×1, then 2×2, then 4×4 blocks. An involution, so it also
/// undoes itself.
///
/// With rows gathered first-delta-most-significant, byte `7 − i` of the
/// result is plane chunk `i` of the lane with delta order MSB-first.
#[inline(always)]
fn transpose8(mut x: u64) -> u64 {
    let t = (x ^ (x >> 7)) & 0x00AA_00AA_00AA_00AA;
    x ^= t ^ (t << 7);
    let t = (x ^ (x >> 14)) & 0x0000_CCCC_0000_CCCC;
    x ^= t ^ (t << 14);
    let t = (x ^ (x >> 28)) & 0x0000_0000_F0F0_F0F0;
    x ^ t ^ (t << 28)
}

/// Packs the top `n` (1..=8) bits of each byte of `x`, whose other bits
/// are zero, into its top `8n` bits, most significant byte first: three
/// rounds close the gaps between bytes, byte pairs, then halves.
#[inline(always)]
fn squeeze(x: u64, n: usize) -> u64 {
    let gap = 8 - n as u32;
    let x = x & 0xFF00_FF00_FF00_FF00 | (x & 0x00FF_00FF_00FF_00FF) << gap;
    let x = x & 0xFFFF_0000_FFFF_0000 | (x & 0x0000_FFFF_0000_FFFF) << (2 * gap);
    x & 0xFFFF_FFFF_0000_0000 | (x & 0x0000_0000_FFFF_FFFF) << (4 * gap)
}

/// Inverse of [`squeeze`]: spreads the top `8n` bits of `x` back over
/// the top `n` bits of each byte. The bits below each byte's top `n` are
/// left holding copies of later chunks, not zeros: [`scatter_group`]'s
/// transposes carry them into the rows past the group's last delta,
/// which are never stored.
#[inline(always)]
fn unsqueeze(x: u64, n: usize) -> u64 {
    let gap = 8 - n as u32;
    let x = x & 0xFFFF_FFFF_0000_0000 | (x >> (4 * gap)) & 0x0000_0000_FFFF_FFFF;
    let x = x & 0xFFFF_0000_FFFF_0000 | (x >> (2 * gap)) & 0x0000_FFFF_0000_FFFF;
    x & 0xFF00_FF00_FF00_FF00 | (x >> gap) & 0x00FF_00FF_00FF_00FF
}

/// MSB-first bit stream into a byte slice, flushed seven bytes at a time.
struct BitSink<'a> {
    out: &'a mut [u8],
    pos: usize,
    acc: u64,
    pending: u32,
}

impl<'a> BitSink<'a> {
    fn new(out: &'a mut [u8]) -> Self {
        BitSink {
            out,
            pos: 0,
            acc: 0,
            pending: 0,
        }
    }

    /// Appends the top `n` (1..=8) bits of `chunk`.
    #[inline(always)]
    fn put(&mut self, chunk: u8, n: u32) {
        self.acc = self.acc << n | u64::from(chunk >> (8 - n));
        self.pending += n;
        if self.pending >= 56 {
            self.pending -= 56;
            self.flush(7, self.acc >> self.pending);
        }
    }

    /// Writes the whole bytes still pending (a stream of whole bytes
    /// leaves none over).
    #[inline(always)]
    fn finish(mut self) {
        self.flush(self.pending as usize / 8, self.acc);
    }

    /// Stores the low `k` (0..=7) bytes of `bits` big-endian.
    #[inline(always)]
    fn flush(&mut self, k: usize, bits: u64) {
        self.out[self.pos..self.pos + k].copy_from_slice(&bits.to_be_bytes()[8 - k..]);
        self.pos += k;
    }
}

/// MSB-first bit stream out of a byte slice: the reader [`BitSink`]
/// pairs with.
struct BitSource<'a> {
    src: &'a [u8],
    pos: usize,
    acc: u64,
    pending: u32,
}

impl<'a> BitSource<'a> {
    fn new(src: &'a [u8]) -> Self {
        BitSource {
            src,
            pos: 0,
            acc: 0,
            pending: 0,
        }
    }

    /// Takes the next `n` (1..=8) bits, returned in the top of a byte.
    #[inline(always)]
    fn take(&mut self, n: u32) -> u8 {
        if self.pending < n {
            self.acc = self.acc << 8 | u64::from(self.src[self.pos]);
            self.pos += 1;
            self.pending += 8;
        }
        self.pending -= n;
        ((self.acc >> self.pending) as u8) << (8 - n)
    }
}

fn check_len(line: &[u8], config: &CachelineConfig) -> Result<()> {
    if line.len() != config.line_bytes {
        return Err(Error::BadLength {
            got: line.len(),
            expected: config.line_bytes,
        });
    }
    Ok(())
}

/// The per-bit walks the kernel replaced, kept as the differential
/// reference: each visits only the set bits and routes them one at a time.
#[cfg(test)]
pub(crate) mod reference {
    use zr_types::CachelineConfig;

    /// Per-bit [`super::transpose_in_place`] (line length pre-checked).
    pub(crate) fn transpose(line: &mut [u8], config: &CachelineConfig) {
        let wb = config.word_bytes;
        let deltas = read_deltas(line, wb);
        let d_count = deltas.len();
        let bits = wb * 8;
        let region = &mut line[wb..];
        region.fill(0);
        for (d, &delta) in deltas.iter().enumerate() {
            let mut rem = delta;
            while rem != 0 {
                let z = rem.trailing_zeros() as usize; // source bit => plane bits-1-z
                let idx = (bits - 1 - z) * d_count + d;
                region[idx / 8] |= 0x80 >> (idx % 8);
                rem &= rem - 1;
            }
        }
    }

    /// Per-bit [`super::untranspose_in_place`] (line length pre-checked).
    pub(crate) fn untranspose(line: &mut [u8], config: &CachelineConfig) {
        let wb = config.word_bytes;
        let bits = wb * 8;
        let d_count = config.words_per_line() - 1;
        let mut deltas = vec![0u64; d_count];
        for (i, &byte) in line[wb..].iter().enumerate() {
            let mut rem = byte;
            while rem != 0 {
                let j = rem.leading_zeros() as usize; // MSB-first bit j of byte i
                let idx = i * 8 + j;
                deltas[idx % d_count] |= 1u64 << (bits - 1 - idx / d_count);
                rem &= !(0x80u8 >> j);
            }
        }
        write_deltas(line, wb, &deltas);
    }

    fn read_deltas(line: &[u8], wb: usize) -> Vec<u64> {
        line[wb..]
            .chunks_exact(wb)
            .map(|c| {
                let mut buf = [0u8; 8];
                buf[..wb].copy_from_slice(c);
                u64::from_le_bytes(buf)
            })
            .collect()
    }

    fn write_deltas(line: &mut [u8], wb: usize, deltas: &[u64]) {
        for (chunk, &d) in line[wb..].chunks_exact_mut(wb).zip(deltas) {
            chunk.copy_from_slice(&d.to_le_bytes()[..wb]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> CachelineConfig {
        CachelineConfig::paper_default()
    }

    #[test]
    fn zero_region_stays_zero() {
        let mut line = [0u8; 64];
        line[..8].copy_from_slice(&0xFFFF_FFFF_FFFF_FFFFu64.to_le_bytes());
        transpose_in_place(&mut line, &cfg()).unwrap();
        assert!(line[8..].iter().all(|&b| b == 0));
        assert_eq!(&line[..8], &0xFFFF_FFFF_FFFF_FFFFu64.to_le_bytes());
    }

    #[test]
    fn small_deltas_zero_all_but_last_word() {
        // Every delta fits in 9 bits => 55 zero planes * 7 = 385 bits, so
        // words 1..=6 (48 bytes = 384 bits) are fully zero.
        let mut line = [0u8; 64];
        for (i, w) in line[8..].chunks_exact_mut(8).enumerate() {
            w.copy_from_slice(&(((i as u64) * 73) % 512).to_le_bytes());
        }
        transpose_in_place(&mut line, &cfg()).unwrap();
        assert!(
            line[8..56].iter().all(|&b| b == 0),
            "leading delta words not zero"
        );
    }

    #[test]
    fn full_width_delta_spreads() {
        // A delta with its MSB set puts a bit in the very first plane.
        let mut line = [0u8; 64];
        line[8..16].copy_from_slice(&(1u64 << 63).to_le_bytes());
        transpose_in_place(&mut line, &cfg()).unwrap();
        // Plane 0, delta 0 -> bit index 0 -> MSB of region byte 0.
        assert_eq!(line[8] & 0x80, 0x80);
    }

    #[test]
    fn round_trip_dense_content() {
        let mut state = 1u64;
        for _ in 0..200 {
            let mut line = [0u8; 64];
            for b in line.iter_mut() {
                state = state
                    .wrapping_mul(2862933555777941757)
                    .wrapping_add(3037000493);
                *b = (state >> 33) as u8;
            }
            let original = line;
            transpose_in_place(&mut line, &cfg()).unwrap();
            untranspose_in_place(&mut line, &cfg()).unwrap();
            assert_eq!(line, original);
        }
    }

    #[test]
    fn transpose_is_a_bit_permutation() {
        // Popcount of the delta region is invariant.
        let mut line = [0u8; 64];
        for (i, b) in line.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(31).wrapping_add(7);
        }
        let before: u32 = line[8..].iter().map(|b| b.count_ones()).sum();
        transpose_in_place(&mut line, &cfg()).unwrap();
        let after: u32 = line[8..].iter().map(|b| b.count_ones()).sum();
        assert_eq!(before, after);
    }

    #[test]
    fn four_byte_words_round_trip() {
        let c = CachelineConfig {
            line_bytes: 32,
            word_bytes: 4,
        };
        let mut line: Vec<u8> = (0..32u8)
            .map(|b| b.wrapping_mul(93).wrapping_add(5))
            .collect();
        let original = line.clone();
        transpose_in_place(&mut line, &c).unwrap();
        untranspose_in_place(&mut line, &c).unwrap();
        assert_eq!(line, original);
    }

    #[test]
    fn fig9a_small_example() {
        // The paper's 4-byte line with 1-byte words: 3 deltas of 8 bits.
        let c = CachelineConfig {
            line_bytes: 4,
            word_bytes: 1,
        };
        let mut line = [0xAB, 0x03, 0x01, 0x02];
        let original = line;
        transpose_in_place(&mut line, &c).unwrap();
        // 3 deltas with values < 4: top 6 planes are zero = first 18 bits
        // of the 24-bit region; so the first two region bytes are zero.
        assert_eq!(line[1], 0);
        assert_eq!(line[2], 0);
        untranspose_in_place(&mut line, &c).unwrap();
        assert_eq!(line, original);
    }

    #[test]
    fn wrong_length_rejected() {
        let mut line = [0u8; 16];
        assert!(transpose_in_place(&mut line, &cfg()).is_err());
        assert!(untranspose_in_place(&mut line, &cfg()).is_err());
    }
}
