//! Memory controller for ZERO-REFRESH: the transforming write/read path.
//!
//! [`MemoryController`] is the glue the paper places between the LLC and
//! DRAM (Fig. 7): every cacheline evicted to memory passes through the
//! value transformation of `zr-transform` before it is stored in the
//! `zr-dram` rank, and every fill applies the inverse. The controller also
//! forwards write notifications to the refresh engine so the access-bit
//! table stays coherent, and it drives refresh windows. The workload
//! traces emit the LLC's write-back stream directly, so no cache model
//! sits in front of the controller.
//!
//! # Examples
//!
//! ```
//! use zr_memctrl::MemoryController;
//! use zr_dram::RefreshPolicy;
//! use zr_types::{geometry::LineAddr, SystemConfig};
//!
//! let config = SystemConfig::small_test();
//! let mut mc = MemoryController::new(&config, RefreshPolicy::ChargeAware)?;
//!
//! let data = *b"zero-refresh is value based, so reads must round-trip bytesruns!";
//! mc.write_line(LineAddr(17), &data)?;
//! assert_eq!(mc.read_line(LineAddr(17))?, data);
//! # Ok::<(), zr_types::Error>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod controller;

pub use controller::{AccessStats, MemoryController};
