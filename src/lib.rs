//! Facade crate for the ZERO-REFRESH reproduction workspace.
//!
//! This crate re-exports the workspace's public API so examples, tests
//! and downstream users can depend on a single package. The layering:
//!
//! - [`zero_refresh`] — the paper's contribution: [`zero_refresh::ZeroRefreshSystem`]
//!   ties the value transformation, the charge-aware refresh engine and
//!   the energy accounting together;
//! - [`zr_transform`] — the CPU-side EBDI / bit-plane / rotation pipeline;
//! - [`zr_dram`] — the DDR4 device model with discharged-row tracking;
//! - [`zr_memctrl`] — the transforming memory controller;
//! - [`zr_workloads`] — benchmark content models, traces, data-center
//!   utilization statistics;
//! - [`zr_energy`] — IDD-based power model and SRAM/EBDI overheads;
//! - [`zr_timing`] — the event-driven bank-timing simulator;
//! - [`zr_trace`] — the cycle-level command flight recorder and replay
//!   verifier;
//! - [`zr_par`] — the deterministic scoped-thread work pool driving the
//!   evaluation sweeps (`ZR_THREADS`, see docs/PARALLELISM.md);
//! - [`zr_insight`] — span-level profile differencing and perf-baseline
//!   history over `zr-prof` captures (see docs/INSIGHT.md);
//! - [`zr_baselines`] — Smart Refresh and the conventional baseline;
//! - [`zr_sim`] — the experiment drivers reproducing the evaluation;
//! - [`zr_serve`] — the long-running sweep service with a
//!   content-addressed result cache and single-flight coalescing
//!   (see docs/SERVE.md);
//! - [`zr_types`] — shared configuration and geometry types.
//!
//! # Examples
//!
//! ```
//! use zero_refresh_suite::prelude::*;
//!
//! let mut sys = ZeroRefreshSystem::new(&SystemConfig::small_test())?;
//! sys.write_line(LineAddr(0), &[1u8; 64])?;
//! assert_eq!(sys.read_line(LineAddr(0))?, vec![1u8; 64]);
//! # Ok::<(), Error>(())
//! ```

#![warn(missing_docs)]

pub use zero_refresh;
pub use zr_baselines;
pub use zr_dram;
pub use zr_energy;
pub use zr_insight;
pub use zr_memctrl;
pub use zr_par;
pub use zr_serve;
pub use zr_sim;
pub use zr_timing;
pub use zr_trace;
pub use zr_transform;
pub use zr_types;
pub use zr_workloads;

/// Convenience prelude with the most common entry points.
pub mod prelude {
    pub use zero_refresh::{Error, RefreshPolicy, SystemConfig, WindowStats, ZeroRefreshSystem};
    pub use zr_sim::experiments::ExperimentConfig;
    pub use zr_types::geometry::LineAddr;
    pub use zr_workloads::{Benchmark, DatacenterTrace};
}
