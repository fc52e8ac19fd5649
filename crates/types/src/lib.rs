//! Shared configuration, geometry, address and unit types for the
//! ZERO-REFRESH reproduction.
//!
//! ZERO-REFRESH (HPCA 2020) is a value-based DRAM refresh-reduction
//! architecture: rows whose cells are all *discharged* do not need to be
//! refreshed, and a CPU-side value transformation reshapes memory contents so
//! that as many rows as possible end up fully discharged. This crate holds
//! the vocabulary types every other crate in the workspace speaks:
//!
//! - [`SystemConfig`] / [`DramConfig`] / [`TimingParams`] / [`IddParams`] —
//!   the simulated system of Table II in the paper,
//! - [`geometry::Geometry`] — derived DRAM geometry (rows per bank, bytes
//!   per chip-row, auto-refresh set sizing, …),
//! - [`cell::CellType`] and the true/anti-cell layout of §II-B,
//! - [`units`] — thin newtypes for energy, power and time so that model code
//!   cannot mix units by accident,
//! - [`Error`] — the common error type,
//! - [`json`] — the workspace's one JSON codec,
//! - [`knobs`] — every `ZR_*` environment knob and the one parser of
//!   their values,
//! - [`rng`] — the workspace's one PRNG and seeded test-case runner,
//! - [`fnv64`] — the workspace's one FNV-1a 64 hash,
//! - [`Stdout`] — standard output for reports a reader may stop reading.
//!
//! # Examples
//!
//! ```
//! use zr_types::{SystemConfig, cell::CellType};
//!
//! let config = SystemConfig::paper_default();
//! let geom = config.geometry();
//! assert_eq!(geom.chip_row_bytes(), 512); // 4 KiB rank row over 8 chips
//! assert_eq!(CellType::of_row(0, &config.dram), CellType::True);
//! assert_eq!(CellType::of_row(512, &config.dram), CellType::Anti);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cell;
pub mod config;
pub mod error;
pub mod geometry;
pub mod json;
pub mod knobs;
pub mod rng;
mod stdout;
pub mod units;

pub use cell::CellType;
pub use config::{
    CachelineConfig, DramConfig, IddParams, SystemConfig, TemperatureMode, TimingParams,
    TransformConfig,
};
pub use error::Error;
pub use geometry::Geometry;
pub use stdout::Stdout;

/// Result alias using the crate's [`Error`] type.
pub type Result<T> = std::result::Result<T, Error>;

/// FNV-1a 64-bit hash of `bytes`: dependency-free and stable across
/// platforms. Run manifests checksum artifacts with it, and the seeded
/// case runner derives its per-test seeds from it.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    #[test]
    fn fnv64_known_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(super::fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(super::fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(super::fnv64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
