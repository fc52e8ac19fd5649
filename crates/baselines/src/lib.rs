//! Refresh baselines the paper compares against (§II-D, §VI-C).
//!
//! - **Conventional auto-refresh** is the normalization baseline of every
//!   figure; it is provided by
//!   [`zr_dram::RefreshPolicy::Conventional`] and re-exported here.
//! - **Smart Refresh** ([`smart_refresh::SmartRefresh`]) skips refreshes
//!   for rows that were accessed (and therefore implicitly refreshed by
//!   the activation) within the current retention window. Its benefit is
//!   bounded by the fraction of memory the workload touches per window,
//!   which shrinks as capacity grows — the Fig. 19 scalability argument.
//! - **Zero-indicator bits** ([`zib::ZibModel`]) skip refreshes for
//!   naturally all-zero rows without any transformation, paying 1/8–1/32
//!   of the DRAM capacity in indicator bits (Patel et al.).
//! - The **validity oracle** of the SRA/ESKIMO/PARIS family, perfect
//!   allocation knowledge through a new OS↔DRAM interface, needs no model:
//!   it refreshes exactly the allocated fraction, which
//!   `zr_sim::experiments::priorwork` takes directly.
//! - The **naive full-SRAM tracker** ablation is provided by
//!   [`zr_dram::RefreshPolicy::NaiveSram`].

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod smart_refresh;
pub mod zib;

pub use smart_refresh::SmartRefresh;
pub use zib::ZibModel;
pub use zr_dram::RefreshPolicy;
