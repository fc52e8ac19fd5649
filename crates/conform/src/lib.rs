//! zr-conform — the cross-layer differential conformance harness.
//!
//! The repo's headline results (Fig. 14/15/16, the overhead table) only
//! hold if the charge-domain DRAM model, the §IV-C refresh scheduling,
//! and the value-transformation pipeline agree with one another. This
//! crate is the layer that checks them against independent references
//! and fails loudly — with debuggable, offline-readable reports — on any
//! divergence. Three layers:
//!
//! 1. **Reference oracle** ([`oracle`]): a slow-but-obviously-correct
//!    model of charge decay, the staggered refresh-counter schedule and
//!    the §IV-B skip decisions, re-derived from the raw config and the
//!    paper's prose (explicit maps and loops, no packed tables).
//! 2. **Differential runner** ([`diff`]): drives `zr-dram` and the
//!    oracle through identical reproducible command sequences; the first
//!    disagreement produces a [`diff::DivergenceReport`] naming the
//!    exact command index and citing the production engine's `zr-trace`
//!    flight-recorder records. Both sides carry a `stagger_skew`
//!    fault-injection knob so the harness can prove it catches a real
//!    off-by-one in the schedule.
//! 3. **Golden-figure gate** ([`golden`]): small-config runs
//!    of the paper figures snapshotted to `tests/golden/*.json` with
//!    tolerance-aware comparison and a `ZR_BLESS=1` re-bless path.
//!
//! The transform pipeline gets its own law-based oracle
//! ([`transform_oracle`]): round-trip identity plus charge-cost
//! invariants over every stage combination and adversarial content.
//!
//! See `docs/CONFORMANCE.md` for the workflow.

pub mod diff;
pub mod golden;
pub mod oracle;
pub mod transform_oracle;

pub use diff::{generate_commands, run_differential, Command, DiffSetup, DivergenceReport};
pub use golden::{check as golden_check, Tolerance};
pub use oracle::{OraclePolicy, RefOracle};
pub use transform_oracle::{all_transform_configs, ContentFamily};
