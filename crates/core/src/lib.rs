//! ZERO-REFRESH: charge-aware DRAM refresh reduction with value
//! transformation (HPCA 2020).
//!
//! A DRAM cell in the *discharged* state needs no refresh: it has no
//! charge to lose. ZERO-REFRESH exploits that in two coordinated parts:
//!
//! - **Charge-aware refresh reduction** (DRAM side, §IV): rows whose cells
//!   are all discharged skip their refresh. A coarse SRAM *access-bit
//!   table* plus a DRAM-resident *discharged-status table* track which
//!   rows qualify without a large SRAM array.
//! - **Value transformation** (CPU side, §V): cachelines are re-encoded on
//!   the way to memory — base-delta (EBDI), bit-plane transposition and
//!   chip rotation — so that typical contents produce as many fully
//!   discharged rows as possible, in both true- and anti-cell regions.
//!
//! Because the mechanism is purely value-based, OS-cleansed (zeroed) idle
//! pages stop being refreshed *automatically*, with no new DRAM interface:
//! that is the paper's headline data-center result (46–83% refresh
//! reduction under real utilization traces, 37% even at 100% allocation).
//!
//! [`ZeroRefreshSystem`] is the top-level handle tying the pieces
//! together; the underlying layers are exposed through the re-exported
//! crates for finer-grained use.
//!
//! # Examples
//!
//! ```
//! use zero_refresh::{SystemConfig, ZeroRefreshSystem};
//! use zr_types::geometry::LineAddr;
//!
//! let mut sys = ZeroRefreshSystem::new(&SystemConfig::small_test())?;
//!
//! // Ordinary memory traffic: the transformation is transparent.
//! sys.write_line(LineAddr(0), &[0xAB; 64])?;
//! assert_eq!(sys.read_line(LineAddr(0))?, vec![0xAB; 64]);
//!
//! // Refresh: after the initial scan window, idle (cleansed) memory
//! // stops being refreshed.
//! sys.run_refresh_window();
//! let w = sys.run_refresh_window();
//! assert!(w.skip_fraction() > 0.99);
//! # Ok::<(), zero_refresh::Error>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod system;

pub use system::{RefreshSummary, ZeroRefreshSystem};

pub use zr_dram::{RefreshPolicy, WindowStats};
pub use zr_energy::{EnergyAccountant, EnergyBreakdown};
pub use zr_types::{
    CachelineConfig, DramConfig, Error, Geometry, IddParams, SystemConfig, TemperatureMode,
    TimingParams, TransformConfig,
};

/// Result alias matching [`zr_types::Result`].
pub type Result<T> = zr_types::Result<T>;
