//! `zr-trace`: a cycle-level DRAM command flight recorder with
//! deterministic replay and offline trace analysis.
//!
//! The telemetry layer (`zr-telemetry`) answers *how much* — counters,
//! histograms, sampled events. This crate answers *what happened, in
//! exactly what order*: every ACT/RD/WR/PRE, every per-AR-set refresh
//! decision with the access-bit and status-table inputs that produced
//! it, every observed write, charge-state transition and
//! transform-stage selection, captured as fixed-size 32-byte records
//! ([`TraceRecord`]) in a length-prefix-framed binary stream.
//!
//! # Activation
//!
//! Like telemetry, tracing is off by default and costs one relaxed
//! atomic load per hook when inactive. Set `ZR_TRACE=<dir>` (the trace
//! goes to `<dir>/trace.zrt`) or `ZR_TRACE=<file>.zrt` to activate the
//! process-global recorder; instrumented components pick it up
//! automatically. Set `ZR_TRACE_RING=<frames>` to keep only the last N
//! sealed frames in memory (a crash-triage flight recorder that bounds
//! disk use). For hermetic tests, construct a [`TraceRecorder`] and
//! build components under [`TraceRecorder::push_current`]: each binds
//! the current recorder at construction.
//!
//! # Replay
//!
//! [`replay`](replay()) re-drives the charge-aware refresh decision
//! logic from the recorded access stream and verifies every skip
//! decision record-for-record, reporting the exact index of the first
//! divergence — a determinism check for the paper's central mechanism.
//!
//! # CLI
//!
//! The `zr-trace` binary wraps this crate: `inspect` (summary and
//! filtered dumps), `replay` (divergence check), `diff` (align two
//! traces), `export --chrome` (Perfetto / `chrome://tracing` JSON).
//! See `docs/TRACING.md`. Its reports print through `zr_types::Stdout`,
//! which stops quietly when the reader closes the pipe.

#![warn(missing_docs)]

mod analyze;
mod chrome;
mod reader;
mod record;
mod recorder;
mod replay;

pub use analyze::{
    diff_traces, filter_records, summarize, DiffEntry, RecordFilter, TraceDiff, TraceSummary,
};
pub use chrome::{to_chrome_events, write_chrome_json};
pub use reader::{parse_trace, read_trace};
pub use record::{
    check_header, encode_header, EngineMeta, RecordKind, TraceRecord, ENGINE_ID_LIMIT,
    FLAG_BIT_PLANE, FLAG_DECODE, FLAG_DISCHARGED, FLAG_EBDI, FLAG_INVERTED, FLAG_ROTATION,
    FLAG_TRUSTED, FLAG_WRITE, FORMAT_VERSION, FRAME_PREFIX_BYTES, HEADER_BYTES, MAGIC,
    POLICY_CHARGE_AWARE, POLICY_CONVENTIONAL, POLICY_MASK, POLICY_NAIVE_SRAM, RECORDS_PER_FRAME,
    RECORD_BYTES, SRC_MEMCTRL, SRC_TIMING, SRC_TRANSFORM,
};
pub use recorder::{env_trace_path, TraceRecorder, DEFAULT_FILE_NAME};
pub use replay::{replay, Divergence, ReplayReport};
