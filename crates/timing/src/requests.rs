//! Synthetic memory-request stream generation.
//!
//! The generator produces an open-page-friendly request stream with the
//! two locality knobs that matter for refresh-blocking experiments: how
//! often consecutive requests stay in the same row (row-buffer locality)
//! and how large the touched footprint is. Determinism comes from an
//! internal LCG, so streams are reproducible without external
//! dependencies.
//!
//! Each request takes four consecutive LCG draws: its inter-arrival
//! time, the locality test, the line and the write test. [`generate`]
//! computes all four from the state before the request with jump-ahead
//! constants, so they do not wait on each other; the stream is the one
//! four single steps would draw. The row-slot and footprint moduli are
//! masks when they are powers of two, and the near-or-far line choice is
//! a select rather than a branch, as the locality test is a coin flip.
//!
//! [`generate`]: RequestGenerator::generate

use zr_types::geometry::LineAddr;
use zr_types::{Error, Geometry, Result, SystemConfig};

/// One memory request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryRequest {
    /// Cacheline address.
    pub addr: LineAddr,
    /// Arrival time at the memory controller, in nanoseconds.
    pub arrival_ns: f64,
    /// Whether the request is a write.
    pub is_write: bool,
}

/// The generator's LCG multiplier: `state ← A·state + C` (mod 2⁶⁴).
const LCG_A: u64 = 6364136223846793005;
/// The generator's LCG increment.
const LCG_C: u64 = 1442695040888963407;

/// `(Aⁿ, C·(Aⁿ⁻¹ + … + A + 1))`: `n` LCG steps as one multiply-add.
const fn lcg_jump(n: u32) -> (u64, u64) {
    let (mut a, mut c) = (1u64, 0u64);
    let mut i = 0;
    while i < n {
        a = a.wrapping_mul(LCG_A);
        c = c.wrapping_mul(LCG_A).wrapping_add(LCG_C);
        i += 1;
    }
    (a, c)
}

/// One to four steps ahead: the four draws of one request.
const DRAW_JUMPS: [(u64, u64); 4] = [lcg_jump(1), lcg_jump(2), lcg_jump(3), lcg_jump(4)];

/// A draw as a uniform `f64` in `[0, 1)`: its top 53 bits.
fn unit_f64(draw: u64) -> f64 {
    (draw >> 11) as f64 / (1u64 << 53) as f64
}

/// Builder-style generator for request streams.
#[derive(Debug, Clone)]
pub struct RequestGenerator {
    geom: Geometry,
    state: u64,
    arrival_interval_ns: f64,
    row_locality: f64,
    write_fraction: f64,
    footprint_lines: u64,
}

impl RequestGenerator {
    /// Creates a generator for `config` with the given seed.
    ///
    /// Defaults: 20 ns mean arrival interval (a memory-bound core),
    /// 60% row locality, 30% writes, footprint = whole memory.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid (construct via
    /// [`SystemConfig::validate`]-checked configs).
    pub fn new(config: &SystemConfig, seed: u64) -> Self {
        let geom = config.geometry();
        let footprint_lines = geom.total_lines();
        RequestGenerator {
            geom,
            state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
            arrival_interval_ns: 20.0,
            row_locality: 0.6,
            write_fraction: 0.3,
            footprint_lines,
        }
    }

    /// Sets the mean inter-arrival time in nanoseconds.
    pub fn arrival_interval_ns(&mut self, ns: f64) -> &mut Self {
        self.arrival_interval_ns = ns;
        self
    }

    /// Sets the probability that a request reuses the previous request's
    /// row (row-buffer locality).
    pub fn row_locality(&mut self, p: f64) -> &mut Self {
        self.row_locality = p.clamp(0.0, 1.0);
        self
    }

    /// Sets the write fraction.
    pub fn write_fraction(&mut self, p: f64) -> &mut Self {
        self.write_fraction = p.clamp(0.0, 1.0);
        self
    }

    /// Restricts the touched footprint to the first `lines` cachelines.
    pub fn footprint_lines(&mut self, lines: u64) -> &mut Self {
        self.footprint_lines = lines.clamp(1, self.geom.total_lines());
        self
    }

    /// Generates `count` requests.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the footprint is empty.
    pub fn generate(&mut self, count: usize) -> Result<Vec<MemoryRequest>> {
        if self.footprint_lines == 0 {
            return Err(Error::invalid_config("empty request footprint"));
        }
        let slot_mask = self.geom.lines_per_row() as u64 - 1;
        let footprint = self.footprint_lines;
        let footprint_mask = footprint.is_power_of_two().then_some(footprint - 1);
        let mut state = self.state;
        let mut t = 0.0f64;
        let mut last_line = 0u64;
        // Collected from a counted range, so no push checks capacity.
        let out = (0..count)
            .map(|_| {
                let [arrival, locality, address, write] =
                    DRAW_JUMPS.map(|(a, c)| state.wrapping_mul(a).wrapping_add(c));
                state = write;
                // Exponential-ish inter-arrival via inverse transform.
                let u = unit_f64(arrival).max(1e-12);
                t += -self.arrival_interval_ns * u.ln();
                // Stay within the same rank-row, different slot; or anywhere
                // in the footprint.
                let near = (last_line & !slot_mask) + (address & slot_mask);
                let far = match footprint_mask {
                    Some(mask) => address & mask,
                    None => address % footprint,
                };
                let line = std::hint::select_unpredictable(
                    unit_f64(locality) < self.row_locality,
                    near,
                    far,
                );
                last_line = line;
                MemoryRequest {
                    addr: LineAddr(line),
                    arrival_ns: t,
                    is_write: unit_f64(write) < self.write_fraction,
                }
            })
            .collect();
        self.state = state;
        Ok(out)
    }
}

/// The generator before its draws were computed together, kept as the
/// reference the unit tests compare against: one LCG step per draw, and
/// both moduli and the near-or-far branch as written.
#[cfg(test)]
mod reference {
    use super::*;

    impl RequestGenerator {
        fn next_u64(&mut self) -> u64 {
            self.state = self
                .state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.state
        }

        fn next_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }

        /// [`RequestGenerator::generate`] as it was.
        pub(super) fn generate_reference(&mut self, count: usize) -> Result<Vec<MemoryRequest>> {
            if self.footprint_lines == 0 {
                return Err(Error::invalid_config("empty request footprint"));
            }
            let lines_per_row = self.geom.lines_per_row() as u64;
            let mut t = 0.0f64;
            let mut last_line = 0u64;
            let mut out = Vec::with_capacity(count);
            for _ in 0..count {
                let u = self.next_f64().max(1e-12);
                t += -self.arrival_interval_ns * u.ln();
                let line = if self.next_f64() < self.row_locality {
                    let row_base = last_line / lines_per_row * lines_per_row;
                    row_base + self.next_u64() % lines_per_row
                } else {
                    self.next_u64() % self.footprint_lines
                };
                last_line = line;
                out.push(MemoryRequest {
                    addr: LineAddr(line),
                    arrival_ns: t,
                    is_write: self.next_f64() < self.write_fraction,
                });
            }
            Ok(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generator() -> RequestGenerator {
        RequestGenerator::new(&SystemConfig::paper_default(), 7)
    }

    #[test]
    fn arrivals_are_monotone_and_positive() {
        let reqs = generator().generate(500).unwrap();
        assert_eq!(reqs.len(), 500);
        let mut prev = 0.0;
        for r in &reqs {
            assert!(r.arrival_ns > prev);
            prev = r.arrival_ns;
        }
    }

    #[test]
    fn addresses_stay_in_footprint() {
        let mut g = generator();
        g.footprint_lines(1000);
        for r in g.generate(2000).unwrap() {
            // Locality may keep us in the row of a footprint line; rows
            // are at most one row beyond the footprint boundary.
            assert!(r.addr.0 < 1000 + 64);
        }
    }

    #[test]
    fn locality_increases_row_reuse() {
        let cfg = SystemConfig::paper_default();
        let geom = cfg.geometry();
        let reuse = |loc: f64| {
            let mut g = RequestGenerator::new(&cfg, 11);
            g.row_locality(loc);
            let reqs = g.generate(4000).unwrap();
            let mut same = 0;
            for w in reqs.windows(2) {
                let a = geom.locate(w[0].addr).unwrap();
                let b = geom.locate(w[1].addr).unwrap();
                if a.bank == b.bank && a.row == b.row {
                    same += 1;
                }
            }
            same as f64 / (reqs.len() - 1) as f64
        };
        assert!(reuse(0.9) > reuse(0.1) + 0.3);
    }

    #[test]
    fn write_fraction_is_respected() {
        let mut g = generator();
        g.write_fraction(0.25);
        let reqs = g.generate(8000).unwrap();
        let writes = reqs.iter().filter(|r| r.is_write).count() as f64;
        let frac = writes / reqs.len() as f64;
        assert!((frac - 0.25).abs() < 0.02, "write fraction {frac}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = RequestGenerator::new(&SystemConfig::paper_default(), 3)
            .generate(100)
            .unwrap();
        let b = RequestGenerator::new(&SystemConfig::paper_default(), 3)
            .generate(100)
            .unwrap();
        assert_eq!(a, b);
    }

    /// Every field of every request as bits, so equality is exact.
    fn request_bits(requests: &[MemoryRequest]) -> Vec<(u64, u64, bool)> {
        requests
            .iter()
            .map(|r| (r.addr.0, r.arrival_ns.to_bits(), r.is_write))
            .collect()
    }

    #[test]
    fn generator_matches_the_reference_bit_for_bit() {
        let mut footprints = [0u64; 2];
        zr_types::rng::cases("generator_matches_the_reference", 64, |rng| {
            let mut cfg = SystemConfig::paper_default();
            if rng.below(2) == 0 {
                // Three banks: the whole-memory footprint is not a power
                // of two.
                cfg.dram.num_banks = 3;
                cfg.dram.capacity_bytes = 3 * 1024 * cfg.dram.row_bytes as u64;
            }
            let total = cfg.geometry().total_lines();
            let footprint = match rng.below(4) {
                0 => total,
                1 => 1000,
                2 => 1 << rng.below(20),
                _ => 1 + rng.below(total),
            };
            let pick = |rng: &mut zr_types::rng::SplitMix64| match rng.below(3) {
                0 => 0.0,
                1 => 1.0,
                _ => rng.unit_f64(),
            };
            let (locality, writes) = (pick(rng), pick(rng));
            let mut gen = RequestGenerator::new(&cfg, rng.next_u64());
            gen.arrival_interval_ns(1.0 + rng.unit_f64() * 400.0)
                .row_locality(locality)
                .write_fraction(writes)
                .footprint_lines(footprint);
            footprints[gen.footprint_lines.is_power_of_two() as usize] += 1;
            let mut reference = gen.clone();
            let context = format!(
                "banks {} footprint {} locality {locality} writes {writes}",
                cfg.dram.num_banks, gen.footprint_lines
            );
            // Two calls on one generator: the state carries over.
            for _ in 0..2 {
                let count = rng.below(3000) as usize;
                let got = gen.generate(count).unwrap();
                let want = reference.generate_reference(count).unwrap();
                assert_eq!(request_bits(&got), request_bits(&want), "{context}");
                assert_eq!(gen.state, reference.state, "{context}");
            }
        });
        assert!(
            footprints.iter().all(|&n| n > 0),
            "battery missed a footprint shape: {footprints:?}"
        );
    }

    #[test]
    fn mean_interarrival_matches_setting() {
        let mut g = generator();
        g.arrival_interval_ns(50.0);
        let reqs = g.generate(20_000).unwrap();
        let mean = reqs.last().unwrap().arrival_ns / reqs.len() as f64;
        assert!((mean - 50.0).abs() < 3.0, "mean inter-arrival {mean}");
    }
}
