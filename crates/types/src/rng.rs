//! The workspace's one pseudo-random generator, [`SplitMix64`], and its
//! one seeded test-case runner, [`cases`].
//!
//! Every simulated byte of synthetic line content comes from this
//! generator, so the golden figures pin its exact semantics:
//!
//! - [`SplitMix64::new`] takes the seed as the state, with no pre-mixing;
//! - [`SplitMix64::below`] reduces by modulo (bias at most `n / 2^64`);
//! - [`SplitMix64::unit_f64`] keeps the top 53 bits;
//! - [`SplitMix64::chance`] draws nothing when `p >= 1`;
//! - [`SplitMix64::fill_bytes`] writes little-endian words and truncates
//!   the last one.
//!
//! A range `lo..hi` maps to `lo + below(hi - lo)`.

use std::panic::{self, AssertUnwindSafe};

/// Vigna's SplitMix64: a 64-bit state advanced by the golden-ratio
/// increment and finalised by two multiply-xorshift rounds.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator whose state is `seed`.
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n`: `next_u64() % n`. Panics when `n` is 0.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A value in `[0, 1)` with 53 random bits.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// True with probability `p`; `p >= 1` is always true without a draw,
    /// and `p <= 0` is never true.
    pub fn chance(&mut self, p: f64) -> bool {
        if p >= 1.0 {
            return true;
        }
        self.next_u64() < (p.max(0.0) * 18_446_744_073_709_551_616.0) as u64
    }

    /// Fills `dest` with little-endian 64-bit draws; the last draw is
    /// truncated to the bytes left.
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes()[..chunk.len()]);
        }
    }
}

/// Runs `body` on `n` seeded cases of the property `name`.
///
/// Each case gets a fresh [`SplitMix64`] whose seed is the next draw of
/// a generator seeded by the FNV-1a hash of `name`, so the cases are the
/// same on every run. When a case panics, its seed is printed and the
/// panic re-raised; `ZR_TEST_SEED=<seed>` then runs that one case alone
/// (unset or empty runs all `n`).
pub fn cases(name: &str, n: u64, body: impl FnMut(&mut SplitMix64)) {
    let fixed = crate::knobs::TEST_SEED.int();
    if let Err((seed, payload)) = run(name, n, fixed, body) {
        eprintln!("{name}: failed at seed {seed:#x}; re-run with ZR_TEST_SEED={seed:#x}");
        panic::resume_unwind(payload);
    }
}

type Failure = (u64, Box<dyn std::any::Any + Send>);

/// The runner behind [`cases`]: the failing seed and panic payload, or
/// `Ok` when every case passes.
fn run(
    name: &str,
    n: u64,
    fixed: Option<u64>,
    mut body: impl FnMut(&mut SplitMix64),
) -> Result<(), Failure> {
    let mut seeds = SplitMix64::new(crate::fnv64(name.as_bytes()));
    let cases: Vec<u64> = match fixed {
        Some(seed) => vec![seed],
        None => (0..n).map(|_| seeds.next_u64()).collect(),
    };
    for seed in cases {
        let mut rng = SplitMix64::new(seed);
        panic::catch_unwind(AssertUnwindSafe(|| body(&mut rng))).map_err(|p| (seed, p))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    // Known answers. The golden figures depend on these exact semantics:
    // a change to any of them changes every generated line.

    #[test]
    fn matches_the_reference_stream_from_state_zero() {
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(rng.next_u64(), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(rng.next_u64(), 0x06c4_5d18_8009_454f);
    }

    #[test]
    fn below_is_the_draw_modulo_n() {
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.below(1000), 0xe220_a839_7b1d_cdaf % 1000);
        assert_eq!(rng.below(1000), 0x6e78_9e6a_a1b9_65f4 % 1000);
        let mut rng = SplitMix64::new(42);
        let picks: Vec<u64> = (0..4).map(|_| rng.below(10)).collect();
        assert_eq!(picks, [3, 1, 8, 4]);
    }

    #[test]
    fn unit_f64_keeps_the_top_53_bits() {
        let mut rng = SplitMix64::new(0);
        assert_eq!(
            rng.unit_f64(),
            (0xe220_a839_7b1d_cdafu64 >> 11) as f64 / 2f64.powi(53)
        );
        let mut rng = SplitMix64::new(7);
        assert_eq!(rng.unit_f64().to_bits(), 0x3fd8_f2f8_7916_4c82);
    }

    #[test]
    fn chance_compares_one_draw_and_skips_it_at_one() {
        let mut rng = SplitMix64::new(0);
        // First draw 0xe220… ≈ 0.883 of 2^64.
        assert!(!rng.clone().chance(0.88));
        assert!(rng.clone().chance(0.89));
        assert!(!rng.clone().chance(0.0));
        assert!(!rng.clone().chance(-1.0));
        // p = 1 returns true and leaves the stream where it was.
        assert!(rng.chance(1.0));
        assert!(rng.chance(2.0));
        assert_eq!(rng.next_u64(), 0xe220_a839_7b1d_cdaf);
    }

    #[test]
    fn fill_bytes_writes_little_endian_words_and_truncates_the_last() {
        let mut bytes = [0u8; 13];
        SplitMix64::new(0).fill_bytes(&mut bytes);
        assert_eq!(
            bytes,
            [0xaf, 0xcd, 0x1d, 0x7b, 0x39, 0xa8, 0x20, 0xe2, 0xf4, 0x65, 0xb9, 0xa1, 0x6a]
        );
    }

    #[test]
    fn a_failing_case_reports_a_seed_that_reproduces_it() {
        // Fails on the first case whose opening draw lands in the low
        // eighth of the range.
        let fails = |rng: &mut SplitMix64| assert!(rng.next_u64() >= u64::MAX / 8, "low draw");
        let mut ran = 0;
        let (seed, payload) = run("runner-self-test", 256, None, |rng| {
            ran += 1;
            fails(rng)
        })
        .expect_err("some case in 256 draws low");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"low draw"));
        assert!(
            ran > 1,
            "the first case happened to fail; pick another name"
        );
        assert!(SplitMix64::new(seed).next_u64() < u64::MAX / 8);
        // Re-running the reported seed alone reproduces the failure.
        let (again, _) = run("runner-self-test", 256, Some(seed), fails).expect_err("reproduces");
        assert_eq!(again, seed);
        // The cases are the same on every run.
        let (first, _) = run("runner-self-test", 256, None, fails).expect_err("repeats");
        assert_eq!(first, seed);
        assert!(run("runner-self-test", 256, None, |_| {}).is_ok());
    }

    #[test]
    fn seeds_parse_as_decimal_or_hex() {
        use crate::knobs::{Value, TEST_SEED};
        let seed = |text: &str| TEST_SEED.parse(text.as_ref());
        assert_eq!(seed("42"), Ok(Some(Value::Int(42))));
        assert_eq!(seed("0x2A"), Ok(Some(Value::Int(42))));
        assert_eq!(seed("0XfF"), Ok(Some(Value::Int(255))));
        assert_eq!(seed(""), Ok(None));
        assert_eq!(
            seed("forty").unwrap_err().to_string(),
            "invalid configuration: ZR_TEST_SEED=\"forty\" is not a u64 in decimal or 0x hex"
        );
    }
}
