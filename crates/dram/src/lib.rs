//! Functional DDR4 device model with charge-aware refresh reduction
//! (§II and §IV of the ZERO-REFRESH paper).
//!
//! This crate is the DRAM-side substrate of the reproduction. It models a
//! rank of `num_chips` devices, each with `num_banks` banks of rows, at the
//! granularity the refresh mechanism cares about:
//!
//! - [`rank::DramRank`] — sparse per-rank-row byte storage, one contiguous
//!   run per cacheline, with packed per-chip-row charge bits. Rows that were
//!   never written hold the OS-cleansed (all-logical-zero) image, which the
//!   value transformation stores *discharged* in both cell types; that is
//!   exactly the §III-B observation that idle pages need no refresh.
//! - [`tracking`] — the structures of §IV-B: the coarse-grained SRAM
//!   *access-bit table* (one bit per per-bank auto-refresh set), the
//!   DRAM-resident *discharged-status table*, and the naive full-SRAM
//!   tracker the paper rejects on leakage grounds (kept as an ablation).
//! - [`refresh::RefreshEngine`] — the per-bank auto-refresh state machine
//!   with the skip logic of §IV, including the staggered refresh counters
//!   of §IV-C, decided a packed word at a time. Rows remapped by row
//!   sparing ([`DramRank::add_spared_row`]) are never skipped (§IV-B), and
//!   [`RefreshEngine::audit_hazards`] checks that the status table never
//!   promises a skip for a charged row.
//!
//! The model is *functional with counted events*: it stores real bytes,
//! detects discharged rows exactly as a wired-OR sense-amplifier check
//! would, and counts every refresh, skip, table access and SRAM touch so
//! `zr-energy` can turn the counts into energy.
//!
//! # Examples
//!
//! ```
//! use zr_dram::{rank::DramRank, refresh::{RefreshEngine, RefreshPolicy}};
//! use zr_types::SystemConfig;
//!
//! let config = SystemConfig::small_test();
//! let mut rank = DramRank::new(&config)?;
//! let mut engine = RefreshEngine::new(&config, RefreshPolicy::ChargeAware)?;
//!
//! // The first window scans: after power-up nothing is known, so every
//! // row is refreshed while its discharged status is recorded for free.
//! let scan = engine.run_window(&mut rank);
//! assert_eq!(scan.rows_skipped, 0);
//!
//! // Nothing was ever written: from the second window on, every row is
//! // known-discharged and the whole window is skipped.
//! let stats = engine.run_window(&mut rank);
//! assert_eq!(stats.rows_refreshed, 0);
//! assert_eq!(stats.rows_skipped, rank.geometry().total_chip_row_refreshes_per_window());
//! # Ok::<(), zr_types::Error>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod rank;
pub mod refresh;
pub mod tracking;

pub use rank::DramRank;
pub use refresh::{RefreshEngine, RefreshPolicy, WindowStats};
