//! The structured event sink: JSON Lines export of simulator events.
//!
//! Events are only materialized when a sink is installed (see
//! [`crate::Telemetry::emit`]); with no sink the emit path is a single
//! relaxed atomic load, so instrumented code stays at baseline cost.
//!
//! Every kind is low-rate: one per refresh window, experiment, progress
//! tick or report write. Per-AR-set skip decisions, per-line transform
//! stages and per-request row-buffer outcomes are recorded exactly, once,
//! by `zr-trace` (`docs/TELEMETRY.md` maps each to its trace record).

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
    started: Instant,
}

impl EventSink {
    /// An in-memory sink (tests, programmatic consumers).
    pub fn memory() -> Self {
        EventSink::with_target(Target::Memory(Vec::new()))
    }

    /// A sink appending JSONL records to `path`.
    ///
    /// # Errors
    ///
    /// Returns the underlying IO error if the file cannot be created.
    pub fn file(path: &Path) -> std::io::Result<Self> {
        let file = File::create(path)?;
        Ok(EventSink::with_target(Target::File(BufWriter::new(file))))
    }

    fn with_target(target: Target) -> Self {
        EventSink {
            target: Mutex::new(target),
            seq: AtomicU64::new(0),
            started: Instant::now(),
        }
    }

    /// Records `event` under the given scope/span context.
    pub fn record(&self, event: &Event, scope: Option<String>, span: Option<String>) {
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

    /// Appends already-serialized JSONL records.
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
        let sink = EventSink::memory();
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
    fn file_sink_writes_lines() {
        let dir = std::env::temp_dir().join(format!("zr-telemetry-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        let sink = EventSink::file(&path).unwrap();
        sink.record(&window_event(), None, Some("refresh.window".into()));
        sink.flush();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content.lines().count(), 1);
        assert!(content.contains("\"span\":\"refresh.window\",\"type\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_lines_preserves_order_and_counts() {
        let sink = EventSink::memory();
        sink.record(&window_event(), None, None);
        // Raw lines append after existing records, in the given order.
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
