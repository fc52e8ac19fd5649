//! Differential battery: the word-parallel EBDI and bit-plane kernels
//! against the per-bit and runtime-width references they replaced, byte
//! for byte, on every valid geometry up to 256-byte lines.
//!
//! A plain seeded loop rather than a property-test macro, so every case
//! runs in every build. The single-bit family is exhaustive: both
//! bit-plane directions are linear over GF(2) (each output bit is one
//! input bit), so agreeing on every single-bit line means agreeing on
//! every line; the other families guard the parts that are not linear
//! (EBDI) and the scratch handling.

use crate::{bitplane, ebdi};
use zr_types::rng::SplitMix64;
use zr_types::CachelineConfig;

/// Every valid geometry with lines of 2–256 bytes: power-of-two lines
/// holding at least two power-of-two words of at most 8 bytes.
fn shapes() -> Vec<CachelineConfig> {
    let mut out = Vec::new();
    for word_bytes in [1usize, 2, 4, 8] {
        for line_bytes in (1..=8).map(|k| 1usize << k) {
            let c = CachelineConfig {
                line_bytes,
                word_bytes,
            };
            if c.validate().is_ok() {
                out.push(c);
            }
        }
    }
    out
}

/// Seeded line-content families.
#[derive(Debug, Clone, Copy)]
enum Family {
    /// Uniformly random bytes.
    Random,
    /// A handful of set bits anywhere in the line.
    Sparse,
    /// A base word plus words close to it: small EBDI deltas of either
    /// sign.
    SmallValue,
}

const FAMILIES: [Family; 3] = [Family::Random, Family::Sparse, Family::SmallValue];
const CASES_PER_FAMILY: usize = 400;

fn fill(line: &mut [u8], family: Family, word_bytes: usize, rng: &mut SplitMix64) {
    match family {
        Family::Random => line.iter_mut().for_each(|b| *b = rng.next_u64() as u8),
        Family::Sparse => {
            line.fill(0);
            for _ in 0..=rng.below(6) {
                let bit = rng.below(8 * line.len() as u64) as usize;
                line[bit / 8] |= 0x80 >> (bit % 8);
            }
        }
        Family::SmallValue => {
            let base = rng.next_u64();
            let width = 1 + rng.below(12); // delta magnitudes below 2^width
            for (i, w) in line.chunks_exact_mut(word_bytes).enumerate() {
                let small = rng.next_u64() & ((1u64 << width) - 1);
                let v = match i {
                    0 => base,
                    _ if rng.next_u64() & 1 == 0 => base.wrapping_add(small),
                    _ => base.wrapping_sub(small),
                };
                w.copy_from_slice(&v.to_le_bytes()[..word_bytes]);
            }
        }
    }
}

/// Runs every kernel direction on `input` and compares it with the
/// reference. `scratch` is shared across all calls and shapes, so stale
/// contents and spare capacity from a larger geometry are exercised too.
fn check(input: &[u8], c: &CachelineConfig, what: &str, scratch: &mut Vec<u64>) {
    let ctx = || {
        format!(
            "{}B lines / {}B words, {what}, input {input:02x?}",
            c.line_bytes, c.word_bytes
        )
    };

    let mut want = input.to_vec();
    bitplane::reference::transpose(&mut want, c);
    let mut got = input.to_vec();
    bitplane::transpose_in_place_with(&mut got, c, scratch).unwrap();
    assert_eq!(got, want, "transpose: {}", ctx());
    bitplane::untranspose_in_place_with(&mut got, c, scratch).unwrap();
    assert_eq!(got, input, "transpose round trip: {}", ctx());

    // Any byte string is a valid transposed region, so the inverse is
    // compared on the raw input as well.
    let mut want = input.to_vec();
    bitplane::reference::untranspose(&mut want, c);
    let mut got = input.to_vec();
    bitplane::untranspose_in_place_with(&mut got, c, scratch).unwrap();
    assert_eq!(got, want, "untranspose: {}", ctx());

    let mut want = input.to_vec();
    ebdi::reference::encode(&mut want, c);
    let mut got = input.to_vec();
    ebdi::encode_in_place(&mut got, c).unwrap();
    assert_eq!(got, want, "ebdi encode: {}", ctx());
    ebdi::decode_in_place(&mut got, c).unwrap();
    assert_eq!(got, input, "ebdi round trip: {}", ctx());

    let mut want = input.to_vec();
    ebdi::reference::decode(&mut want, c);
    let mut got = input.to_vec();
    ebdi::decode_in_place(&mut got, c).unwrap();
    assert_eq!(got, want, "ebdi decode: {}", ctx());
}

#[test]
fn battery_covers_the_26_valid_geometries() {
    assert_eq!(shapes().len(), 26);
}

#[test]
fn battery_covers_one_group_and_multi_group_shapes() {
    // The bit-plane kernel squeezes whole lanes when the deltas fit one
    // group of eight and packs plane chunks otherwise; `check` runs both
    // directions, so every shape below is covered each way.
    let deltas: Vec<usize> = shapes().iter().map(|c| c.words_per_line() - 1).collect();
    let one_group = deltas.iter().filter(|&&d| d <= 8).count();
    let multi_group = deltas.iter().filter(|&&d| d > 8).count();
    assert_eq!((one_group, multi_group), (12, 14));
    assert!(shapes().contains(&CachelineConfig::paper_default()));
}

#[test]
fn every_single_bit_line_matches_the_reference() {
    let mut scratch = Vec::new();
    for c in shapes() {
        let mut line = vec![0u8; c.line_bytes];
        for bit in 0..8 * c.line_bytes {
            line.fill(0);
            line[bit / 8] = 0x80 >> (bit % 8);
            check(&line, &c, &format!("single bit {bit}"), &mut scratch);
        }
    }
}

#[test]
fn seeded_families_match_the_reference() {
    let mut rng = SplitMix64::new(0x5EED_B17A_1A7E);
    let mut scratch = Vec::new();
    for c in shapes() {
        let mut line = vec![0u8; c.line_bytes];
        for family in FAMILIES {
            for case in 0..CASES_PER_FAMILY {
                fill(&mut line, family, c.word_bytes, &mut rng);
                check(&line, &c, &format!("{family:?} case {case}"), &mut scratch);
            }
        }
        for (what, byte) in [("all zeros", 0x00), ("all ones", 0xFF)] {
            line.fill(byte);
            check(&line, &c, what, &mut scratch);
        }
    }
}

#[test]
fn kernels_match_the_reference_on_transformed_content() {
    // Lines as the pipeline hands them to the bit-plane stage: already
    // EBDI-encoded, so the high planes are mostly zero.
    let mut rng = SplitMix64::new(0x0DD_BA11);
    let mut scratch = Vec::new();
    for c in shapes() {
        let mut line = vec![0u8; c.line_bytes];
        for case in 0..CASES_PER_FAMILY {
            fill(&mut line, Family::SmallValue, c.word_bytes, &mut rng);
            ebdi::encode_in_place(&mut line, &c).unwrap();
            let what = format!("EBDI-encoded case {case}");
            check(&line, &c, &what, &mut scratch);
        }
    }
}
