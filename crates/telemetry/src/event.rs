//! The structured event sink: JSON Lines export of simulator events.
//!
//! Events are only materialized when a sink is installed (see
//! [`crate::Telemetry::emit`]); with no sink the emit path is a single
//! relaxed atomic load, so instrumented hot paths stay at baseline cost.
//!
//! High-rate event kinds (per-AR-set skip decisions, per-line transform
//! outcomes, per-request row-buffer transitions) are sampled: by default
//! one in [`SampleConfig::DEFAULT_RATE`] records reaches the sink, so the
//! stream stays proportional to the interesting low-rate events. The rate
//! is tunable via `ZR_TELEMETRY_SAMPLE` (`1` = keep everything).

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use zr_types::json::{to_compact, Json, ToJson};

/// One structured simulator event.
///
/// Serialized with an adjacent `type` tag, so a JSONL stream can be
/// filtered with `jq 'select(.type == "refresh_window")'`.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// One retention window completed by a refresh engine.
    RefreshWindow {
        /// Policy name (`conventional` / `charge_aware` / `naive_sram`).
        policy: &'static str,
        /// Chip-rows refreshed in this window.
        rows_refreshed: u64,
        /// Chip-rows skipped in this window.
        rows_skipped: u64,
        /// AR commands issued in this window.
        ar_commands: u64,
        /// Batched status-table reads in this window.
        table_reads: u64,
        /// Batched status-table writes in this window.
        table_writes: u64,
        /// Fraction of chip-row refreshes skipped.
        skip_fraction: f64,
    },
    /// One per-AR-set skip decision (sampled).
    SkipDecision {
        /// Bank the AR command addressed.
        bank: usize,
        /// AR set within the bank.
        set: u64,
        /// Whether the access bit allowed the stored status to be
        /// trusted (true = skip path, false = refresh + rescan).
        trusted: bool,
        /// Chip-rows refreshed by this command.
        rows_refreshed: u64,
        /// Chip-rows skipped by this command.
        rows_skipped: u64,
    },
    /// One value-transformation pipeline application (sampled).
    TransformStage {
        /// `"encode"` or `"decode"`.
        op: &'static str,
        /// Destination rank-row.
        row: u64,
        /// Whether the EBDI stage ran.
        ebdi: bool,
        /// Whether the bit-plane transposition ran.
        bit_plane: bool,
        /// Whether the line was inverted for an anti-cell row.
        inverted: bool,
        /// Whether the rotation stage ran.
        rotation: bool,
    },
    /// One row-buffer state transition in the timing simulator (sampled).
    RowBuffer {
        /// Bank index.
        bank: usize,
        /// Addressed rank-row.
        row: u64,
        /// `"hit"`, `"closed"` or `"conflict"`.
        outcome: &'static str,
    },
    /// One experiment summary from a `zr-sim` driver.
    ExperimentSummary {
        /// Benchmark name.
        benchmark: &'static str,
        /// Allocated memory fraction of the scenario.
        alloc_fraction: f64,
        /// Refresh operations normalized to the conventional baseline.
        normalized: f64,
        /// Measured retention windows.
        windows: u64,
    },
    /// Periodic progress of a parallel sweep (`ZR_PROGRESS=1`), emitted
    /// by `zr_sim::experiments::parallel` at the same throttled cadence
    /// as its stderr status line.
    SweepProgress {
        /// Sweep cells completed so far.
        done: u64,
        /// Total sweep cells.
        total: u64,
        /// Chip-row work units completed so far (refreshed + skipped).
        chip_rows: u64,
        /// Microseconds since the sweep started.
        elapsed_us: u64,
    },
    /// A figure/report JSON artifact write attempt from `zr-bench`.
    ReportWrite {
        /// Report name.
        name: String,
        /// Destination path.
        path: String,
        /// Whether the write succeeded.
        ok: bool,
        /// Error message when `ok` is false (omitted when `None`).
        error: Option<String>,
    },
}

impl Event {
    /// The sampling counter of a sampled kind: each kind counts only its
    /// own events, so which ones a sink keeps does not depend on how many
    /// events of other kinds came between them.
    fn sample_slot(&self) -> Option<usize> {
        match self {
            Event::SkipDecision { .. } => Some(0),
            Event::TransformStage { .. } => Some(1),
            Event::RowBuffer { .. } => Some(2),
            _ => None,
        }
    }
}

/// The members of an object keyed by the given bindings' names:
/// `fields!(a, b)` is `vec![("a", a.to_json()), ("b", b.to_json())]`.
macro_rules! fields {
    ($($name:ident),*) => {
        vec![$((stringify!($name), $name.to_json())),*]
    };
}

impl Event {
    /// The `type` tag, then the fields in declaration order.
    fn members(&self) -> Vec<(&'static str, Json)> {
        let (kind, mut fields) = match self {
            Event::RefreshWindow {
                policy,
                rows_refreshed,
                rows_skipped,
                ar_commands,
                table_reads,
                table_writes,
                skip_fraction,
            } => (
                "refresh_window",
                fields!(
                    policy,
                    rows_refreshed,
                    rows_skipped,
                    ar_commands,
                    table_reads,
                    table_writes,
                    skip_fraction
                ),
            ),
            Event::SkipDecision {
                bank,
                set,
                trusted,
                rows_refreshed,
                rows_skipped,
            } => (
                "skip_decision",
                fields!(bank, set, trusted, rows_refreshed, rows_skipped),
            ),
            Event::TransformStage {
                op,
                row,
                ebdi,
                bit_plane,
                inverted,
                rotation,
            } => (
                "transform_stage",
                fields!(op, row, ebdi, bit_plane, inverted, rotation),
            ),
            Event::RowBuffer { bank, row, outcome } => ("row_buffer", fields!(bank, row, outcome)),
            Event::ExperimentSummary {
                benchmark,
                alloc_fraction,
                normalized,
                windows,
            } => (
                "experiment_summary",
                fields!(benchmark, alloc_fraction, normalized, windows),
            ),
            Event::SweepProgress {
                done,
                total,
                chip_rows,
                elapsed_us,
            } => (
                "sweep_progress",
                fields!(done, total, chip_rows, elapsed_us),
            ),
            Event::ReportWrite {
                name,
                path,
                ok,
                error,
            } => {
                // `error` is omitted, not `null`, when absent.
                let mut fields = fields!(name, path, ok);
                fields.extend(error.as_ref().map(|e| ("error", e.to_json())));
                ("report_write", fields)
            }
        };
        fields.insert(0, ("type", kind.to_json()));
        fields
    }
}

impl ToJson for Event {
    fn to_json(&self) -> Json {
        Json::obj(self.members())
    }
}

/// Sampling configuration for high-rate event kinds.
#[derive(Debug, Clone, Copy)]
pub struct SampleConfig {
    /// Keep one of every `rate` sampled-kind events (1 = keep all).
    pub rate: u64,
}

impl SampleConfig {
    /// Default sampling rate for high-rate kinds.
    pub const DEFAULT_RATE: u64 = 64;
}

impl Default for SampleConfig {
    fn default() -> Self {
        SampleConfig {
            rate: Self::DEFAULT_RATE,
        }
    }
}

#[derive(Debug)]
enum Target {
    Memory(Vec<String>),
    File(BufWriter<File>),
}

/// A JSONL event sink writing to a file or an in-memory buffer.
#[derive(Debug)]
pub struct EventSink {
    target: Mutex<Target>,
    seq: AtomicU64,
    dropped: AtomicU64,
    started: Instant,
    sample: SampleConfig,
    /// One counter per sampled kind ([`Event::sample_slot`]).
    sample_counters: [AtomicU64; 3],
}

impl EventSink {
    /// An in-memory sink (tests, programmatic consumers).
    pub fn memory(sample: SampleConfig) -> Self {
        EventSink::with_target(Target::Memory(Vec::new()), sample)
    }

    /// A sink appending JSONL records to `path`.
    ///
    /// # Errors
    ///
    /// Returns the underlying IO error if the file cannot be created.
    pub fn file(path: &Path, sample: SampleConfig) -> std::io::Result<Self> {
        let file = File::create(path)?;
        Ok(EventSink::with_target(
            Target::File(BufWriter::new(file)),
            sample,
        ))
    }

    fn with_target(target: Target, sample: SampleConfig) -> Self {
        EventSink {
            target: Mutex::new(target),
            seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            started: Instant::now(),
            sample,
            sample_counters: Default::default(),
        }
    }

    /// Whether a sampled-kind event should be recorded right now: the
    /// first of every `rate` events of its kind is.
    fn admit(&self, event: &Event) -> bool {
        let Some(slot) = event.sample_slot() else {
            return true;
        };
        let n = self.sample_counters[slot].fetch_add(1, Ordering::Relaxed);
        if n.is_multiple_of(self.sample.rate) {
            true
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            false
        }
    }

    /// Records `event` (subject to sampling) under the given scope/span
    /// context.
    pub fn record(&self, event: &Event, scope: Option<String>, span: Option<String>) {
        if !self.admit(event) {
            return;
        }
        // One JSONL record: `seq`, `t_us`, the optional context tags,
        // then the event's own members.
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let t_us = self.started.elapsed().as_micros() as u64;
        let mut fields = vec![("seq", seq.to_json()), ("t_us", t_us.to_json())];
        fields.extend(scope.map(|s| ("scope", Json::Str(s))));
        fields.extend(span.map(|s| ("span", Json::Str(s))));
        fields.extend(event.members());
        let line = to_compact(&Json::obj(fields));
        let mut target = self.target.lock().expect("sink lock");
        match &mut *target {
            Target::Memory(buf) => buf.push(line),
            Target::File(w) => {
                let _ = writeln!(w, "{line}");
            }
        }
    }

    /// The sampling configuration this sink was built with (per-job
    /// forks copy it so a pooled sweep samples at the same rate).
    pub fn sample_config(&self) -> SampleConfig {
        self.sample
    }

    /// Appends already-serialized JSONL records, bypassing sampling
    /// (the producing sink sampled them already).
    ///
    /// This is the merge path of the parallel sweep layer: each job
    /// records into a private memory sink, and at join time the parent
    /// absorbs every job's lines *in submission order*, so the merged
    /// stream is grouped by job exactly like a serial run — not
    /// interleaved by scheduling. The lines keep the `seq`/`t_us`
    /// values their job sink assigned (per-job sequence numbers restart
    /// at 0).
    pub fn append_lines(&self, lines: Vec<String>) {
        if lines.is_empty() {
            return;
        }
        self.seq.fetch_add(lines.len() as u64, Ordering::Relaxed);
        let mut target = self.target.lock().expect("sink lock");
        match &mut *target {
            Target::Memory(buf) => buf.extend(lines),
            Target::File(w) => {
                for line in &lines {
                    let _ = writeln!(w, "{line}");
                }
            }
        }
    }

    /// Events recorded so far.
    pub fn recorded(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Sampled-kind events dropped by sampling so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Flushes a file-backed sink (no-op for memory sinks).
    pub fn flush(&self) {
        if let Target::File(w) = &mut *self.target.lock().expect("sink lock") {
            let _ = w.flush();
        }
    }

    /// Takes and clears the buffered lines of a memory sink (empty for
    /// file sinks).
    pub fn take_lines(&self) -> Vec<String> {
        match &mut *self.target.lock().expect("sink lock") {
            Target::Memory(buf) => std::mem::take(buf),
            Target::File(_) => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window_event() -> Event {
        Event::RefreshWindow {
            policy: "charge_aware",
            rows_refreshed: 10,
            rows_skipped: 90,
            ar_commands: 4,
            table_reads: 8,
            table_writes: 0,
            skip_fraction: 0.9,
        }
    }

    #[test]
    fn memory_sink_records_jsonl() {
        let sink = EventSink::memory(SampleConfig::default());
        sink.record(&window_event(), Some("fig14.gcc".into()), None);
        let lines = sink.take_lines();
        assert_eq!(lines.len(), 1);
        // `t_us` is wall-clock; everything else is a known answer.
        let t_us = Json::parse(&lines[0])
            .unwrap()
            .get("t_us")
            .and_then(Json::as_u64);
        assert_eq!(
            lines[0],
            format!(
                "{{\"seq\":0,\"t_us\":{},\"scope\":\"fig14.gcc\",\"type\":\"refresh_window\",\
                 \"policy\":\"charge_aware\",\"rows_refreshed\":10,\"rows_skipped\":90,\
                 \"ar_commands\":4,\"table_reads\":8,\"table_writes\":0,\"skip_fraction\":0.9}}",
                t_us.expect("integer t_us")
            )
        );
    }

    #[test]
    fn high_rate_kinds_are_sampled() {
        let sink = EventSink::memory(SampleConfig { rate: 10 });
        for set in 0..100 {
            sink.record(
                &Event::SkipDecision {
                    bank: 0,
                    set,
                    trusted: true,
                    rows_refreshed: 0,
                    rows_skipped: 8,
                },
                None,
                None,
            );
        }
        assert_eq!(sink.take_lines().len(), 10);
        assert_eq!(sink.dropped(), 90);
        // Low-rate kinds always pass.
        sink.record(&window_event(), None, None);
        assert_eq!(sink.take_lines().len(), 1);
    }

    #[test]
    fn each_sampled_kind_keeps_its_own_count() {
        // The skip decisions a rate-4 sink keeps are the same with and
        // without transform events interleaved between them.
        let skip = |set| Event::SkipDecision {
            bank: 1,
            set,
            trusted: set % 3 == 0,
            rows_refreshed: set % 5,
            rows_skipped: 8,
        };
        let stage = |row| Event::TransformStage {
            op: "encode",
            row,
            ebdi: true,
            bit_plane: true,
            inverted: row % 2 == 1,
            rotation: true,
        };
        let kept_skips = |sink: &EventSink| -> Vec<String> {
            let lines = sink.take_lines();
            let skips = lines
                .iter()
                .filter(|l| l.contains("\"type\":\"skip_decision\""));
            // Drop `seq` and `t_us`: only the event members are compared.
            skips
                .map(|l| l[l.find("\"type\"").unwrap()..].to_string())
                .collect()
        };
        let alone = EventSink::memory(SampleConfig { rate: 4 });
        for set in 0..40 {
            alone.record(&skip(set), None, None);
        }
        let mixed = EventSink::memory(SampleConfig { rate: 4 });
        for set in 0..40 {
            for row in 0..set % 7 {
                mixed.record(&stage(row), None, None);
            }
            mixed.record(&skip(set), None, None);
        }
        let want = kept_skips(&alone);
        assert_eq!(want.len(), 10);
        assert!(want[1].contains("\"set\":4,"), "{}", want[1]);
        assert_eq!(kept_skips(&mixed), want);
    }

    #[test]
    fn file_sink_writes_lines() {
        let dir = std::env::temp_dir().join(format!("zr-telemetry-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        let sink = EventSink::file(&path, SampleConfig::default()).unwrap();
        sink.record(&window_event(), None, Some("refresh.window".into()));
        sink.flush();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content.lines().count(), 1);
        assert!(content.contains("\"span\":\"refresh.window\",\"type\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_lines_preserves_order_and_counts() {
        let sink = EventSink::memory(SampleConfig { rate: 2 });
        assert_eq!(sink.sample_config().rate, 2);
        sink.record(&window_event(), None, None);
        // Raw lines append after existing records, in the given order,
        // without being re-sampled.
        sink.append_lines(vec!["{\"job\":0}".into(), "{\"job\":1}".into()]);
        sink.append_lines(Vec::new()); // no-op
        assert_eq!(sink.recorded(), 3);
        let lines = sink.take_lines();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[1], "{\"job\":0}");
        assert_eq!(lines[2], "{\"job\":1}");
    }

    #[test]
    fn report_write_error_field_is_optional() {
        let ok = Event::ReportWrite {
            name: "fig14".into(),
            path: "/tmp/fig14.json".into(),
            ok: true,
            error: None,
        };
        assert_eq!(
            to_compact(&ok.to_json()),
            r#"{"type":"report_write","name":"fig14","path":"/tmp/fig14.json","ok":true}"#
        );
        let failed = Event::ReportWrite {
            name: "fig14".into(),
            path: "/tmp/fig14.json".into(),
            ok: false,
            error: Some("disk full".into()),
        };
        assert!(to_compact(&failed.to_json()).ends_with(r#""ok":false,"error":"disk full"}"#));
    }
}
