//! `zr-telemetry`: metrics registry, phase tracing and structured event
//! export for the ZERO-REFRESH simulation stack.
//!
//! The crate has three cooperating pieces, all reachable through one
//! [`Telemetry`] handle:
//!
//! * a [`Registry`] of named counters, gauges and fixed-bucket
//!   histograms with cheap atomic updates and hierarchical
//!   `scope.metric` names (`dram.refresh.rows_skipped`);
//! * span-style phase timers ([`Telemetry::span`]) that record
//!   wall-time histograms under `span.<name>` and nest;
//! * a structured [`EventSink`] emitting JSON Lines (refresh-window
//!   summaries, sampled skip decisions, transform-stage outcomes,
//!   row-buffer transitions) to a file or in-memory buffer.
//!
//! Everything is off by default. Setting `ZR_TELEMETRY=<dir>` before
//! the process starts activates the global instance and appends events
//! to `<dir>/events.jsonl`; [`Telemetry::snapshot`] serializes every
//! registered metric for the bench figure binaries. When inactive,
//! instrumented hot paths pay a single relaxed atomic load per
//! would-be span/event plus relaxed counter increments; per-line
//! counters with one owner are [`LocalCounter`] tallies, which touch no
//! atomic until their owner publishes them.
//!
//! Components default to [`Telemetry::current`] — the thread's
//! installed override if any (see [`Telemetry::push_current`]),
//! falling back to [`Telemetry::global`] — when they are built, so
//! tests build components under a private instance and assert on it
//! hermetically. The parallel sweep layer
//! (`zr-par` / `zr_sim::experiments::parallel`) uses the same two
//! hooks: each pool worker runs its job under a forked per-job
//! instance ([`Telemetry::fork_job`]) and the parent absorbs the jobs
//! in submission order at join ([`Telemetry::absorb_job`]), so pooled
//! sweeps never interleave writes into one sink.
//!
//! The charge-domain xray capture (`zr-xray`, `ZR_XRAY`, see
//! `docs/XRAY.md`) follows the same current/push-current/fork/absorb
//! pattern and reuses [`Telemetry::current_scope_path`] to label its
//! engines, so an `xray.json` row and an `events.jsonl` line from the
//! same sweep cell carry the same scope prefix.

#![warn(missing_docs)]

mod event;
mod registry;
mod span;

pub use event::{Event, EventSink, SampleConfig};
pub use registry::{
    duration_ns_bounds, fraction_bounds, Counter, Gauge, Histogram, HistogramSnapshot,
    LocalCounter, Registry, Snapshot,
};
pub use span::{set_span_observer, ScopeGuard, Span, SpanObserver};

use std::cell::RefCell;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use zr_types::json::ToJson;

thread_local! {
    /// Per-thread stack of [`Telemetry::push_current`] overrides; the
    /// innermost entry is what [`Telemetry::current`] resolves to.
    static CURRENT: zr_par::context::Slot<Telemetry> = const { RefCell::new(Vec::new()) };
}

/// The shared innermost-wins resolution over [`CURRENT`] (see
/// [`zr_par::context`] — the same mechanism backs `zr-trace` and
/// `zr-xray`).
static CURRENT_STACK: zr_par::context::Stack<Telemetry> = zr_par::context::Stack::new(&CURRENT);

/// One telemetry instance: a metric registry, an optional event sink
/// and an activation flag gating all non-counter work.
#[derive(Debug)]
pub struct Telemetry {
    registry: Registry,
    sink: RwLock<Option<Arc<EventSink>>>,
    active: AtomicBool,
    /// Span histograms by static name, so the active span path resolves
    /// its `span.<name>` histogram without formatting the name (and
    /// therefore without allocating) after the first use.
    span_cache: Mutex<HashMap<&'static str, Histogram>>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl Telemetry {
    /// An inactive instance with an empty registry and no sink.
    pub fn new() -> Self {
        Telemetry {
            registry: Registry::new(),
            sink: RwLock::new(None),
            active: AtomicBool::new(false),
            span_cache: Mutex::new(HashMap::new()),
        }
    }

    /// The process-wide instance. First access initializes it from the
    /// environment (see [`Telemetry::init_from_env`]).
    pub fn global() -> &'static Arc<Telemetry> {
        static GLOBAL: OnceLock<Arc<Telemetry>> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let telemetry = Telemetry::new();
            telemetry.init_from_env();
            Arc::new(telemetry)
        })
    }

    /// The telemetry instance instrumented components should bind: the
    /// innermost [`Telemetry::push_current`] override on this thread,
    /// or [`Telemetry::global`] when none is installed.
    ///
    /// Construction-time captures (`Arc::clone(Telemetry::global())`)
    /// across the stack go through this, so building a component inside
    /// a pool worker (or a hermetic test) wires it to the job's private
    /// instance with no plumbing.
    pub fn current() -> Arc<Telemetry> {
        CURRENT_STACK.current_or(|| Arc::clone(Telemetry::global()))
    }

    /// Installs `telemetry` as this thread's [`Telemetry::current`]
    /// until the returned guard drops. Overrides nest (innermost wins).
    pub fn push_current(telemetry: Arc<Telemetry>) -> zr_par::context::Guard<Telemetry> {
        CURRENT_STACK.push(telemetry)
    }

    /// The dot-joined scope path active on this thread, if any — what a
    /// recorded event would carry in its `scope` field right now. The
    /// sweep pool captures this on the submitting thread and re-roots
    /// each worker's scope stack under it, so per-job events keep the
    /// figure-level prefix a serial run would give them.
    pub fn current_scope_path() -> Option<String> {
        span::current_scope()
    }

    /// A fresh private instance mirroring this one's activation, for
    /// one pool job: inactive parents fork inactive children (counters
    /// still count and merge); active parents fork active children; a
    /// parent with a sink forks a child with a *memory* sink at the
    /// same sampling rate, whose lines the parent splices in at
    /// [`Telemetry::absorb_job`] time.
    pub fn fork_job(&self) -> Arc<Telemetry> {
        let job = Telemetry::new();
        if self.is_active() {
            let sample = self
                .sink
                .read()
                .expect("sink lock")
                .as_ref()
                .map(|s| s.sample_config());
            match sample {
                Some(sample) => {
                    job.install_sink(EventSink::memory(sample));
                }
                None => job.activate(),
            }
        }
        Arc::new(job)
    }

    /// Merges a finished [`Telemetry::fork_job`] instance back into
    /// this one: the job's metrics are absorbed into this registry (see
    /// [`Registry::absorb`]) and its buffered event lines are appended
    /// to this sink. Callers absorb jobs in submission order so the
    /// merged registry and event stream are deterministic for any
    /// thread count.
    pub fn absorb_job(&self, job: &Telemetry) {
        self.registry.absorb(&job.registry.snapshot());
        let lines = {
            let guard = job.sink.read().expect("sink lock");
            match guard.as_ref() {
                Some(sink) => sink.take_lines(),
                None => Vec::new(),
            }
        };
        if !lines.is_empty() {
            if let Some(sink) = self.sink.read().expect("sink lock").as_ref() {
                sink.append_lines(lines);
            }
        }
    }

    /// Activates this instance from `ZR_TELEMETRY`: when a directory is
    /// configured, creates it, installs a file sink at
    /// `<dir>/events.jsonl` (sampled at `ZR_TELEMETRY_SAMPLE`) and returns
    /// the directory. Leaves the
    /// instance inactive (and returns `None`) when it is unset.
    pub fn init_from_env(&self) -> Option<PathBuf> {
        let dir = zr_types::knobs::TELEMETRY.path()?;
        if let Err(err) = std::fs::create_dir_all(&dir) {
            eprintln!("zr-telemetry: cannot create {}: {err}", dir.display());
            return None;
        }
        let rate = zr_types::knobs::TELEMETRY_SAMPLE
            .int()
            .unwrap_or(SampleConfig::DEFAULT_RATE);
        match EventSink::file(&dir.join("events.jsonl"), SampleConfig { rate }) {
            Ok(sink) => {
                self.install_sink(sink);
            }
            Err(err) => {
                eprintln!("zr-telemetry: cannot open event sink: {err}");
                self.activate();
            }
        }
        Some(dir)
    }

    /// Whether spans and events are live. Instrumented code checks this
    /// (one relaxed load) before doing anything beyond counter updates.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.active.load(Ordering::Relaxed)
    }

    /// Activates spans (and events, once a sink is installed) without
    /// installing a sink.
    pub fn activate(&self) {
        self.active.store(true, Ordering::Relaxed);
    }

    /// Installs `sink`, activating the instance, and returns a shared
    /// handle to it. Replaces (and flushes) any previous sink.
    pub fn install_sink(&self, sink: EventSink) -> Arc<EventSink> {
        let sink = Arc::new(sink);
        let previous = self
            .sink
            .write()
            .expect("sink lock")
            .replace(Arc::clone(&sink));
        if let Some(previous) = previous {
            previous.flush();
        }
        self.activate();
        sink
    }

    /// Installs an in-memory sink with the default sampling rate
    /// (convenience for tests).
    pub fn install_memory_sink(&self) -> Arc<EventSink> {
        self.install_sink(EventSink::memory(SampleConfig::default()))
    }

    /// Flushes and removes the sink and deactivates the instance.
    pub fn clear_sink(&self) {
        if let Some(sink) = self.sink.write().expect("sink lock").take() {
            sink.flush();
        }
        self.active.store(false, Ordering::Relaxed);
    }

    /// The underlying metric registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Counter registered under `name` (see [`Registry::counter`]).
    pub fn counter(&self, name: &str) -> Counter {
        self.registry.counter(name)
    }

    /// Gauge registered under `name` (see [`Registry::gauge`]).
    pub fn gauge(&self, name: &str) -> Gauge {
        self.registry.gauge(name)
    }

    /// Histogram registered under `name` (see [`Registry::histogram`]).
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        self.registry.histogram(name, bounds)
    }

    /// Starts a phase span named `name`, recording elapsed wall time
    /// into the `span.<name>` histogram when dropped. Returns an inert
    /// guard (no clock read, no allocation) while the instance is
    /// inactive; while active, the histogram handle is cached per name
    /// so only the first span of each name formats and registers it.
    #[inline]
    pub fn span(&self, name: &'static str) -> Span {
        if !self.is_active() {
            return Span::noop();
        }
        Span::enter(name, self.span_histogram(name))
    }

    /// The `span.<name>` histogram for `name`, registering it on first
    /// use and serving cache hits allocation-free afterwards.
    fn span_histogram(&self, name: &'static str) -> Histogram {
        let mut cache = self.span_cache.lock().expect("span cache lock");
        if let Some(histogram) = cache.get(name) {
            return histogram.clone();
        }
        let histogram = self
            .registry
            .histogram(&format!("span.{name}"), &duration_ns_bounds());
        cache.insert(name, histogram.clone());
        histogram
    }

    /// Pushes `name` onto this thread's scope stack; events recorded
    /// while the guard lives carry the dot-joined stack in `scope`.
    pub fn scope(&self, name: &str) -> ScopeGuard {
        ScopeGuard::push(name)
    }

    /// Records the event built by `make` into the installed sink,
    /// tagged with the thread's current scope and span. Does nothing —
    /// without invoking `make` — when inactive or sinkless.
    #[inline]
    pub fn emit(&self, make: impl FnOnce() -> Event) {
        if !self.is_active() {
            return;
        }
        let Some(sink) = self.sink.read().expect("sink lock").clone() else {
            return;
        };
        let event = make();
        sink.record(
            &event,
            span::current_scope(),
            span::current_span().map(str::to_string),
        );
    }

    /// Serializable snapshot of every registered metric.
    pub fn snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }

    /// Writes a pretty-printed JSON snapshot to `path` (serde_json's
    /// layout: no trailing newline).
    ///
    /// # Errors
    ///
    /// Returns the IO error.
    pub fn write_snapshot(&self, path: &Path) -> Result<(), String> {
        let json = self.snapshot().to_json().to_pretty();
        std::fs::write(path, json.trim_end()).map_err(|e| e.to_string())
    }

    /// Flushes the installed sink, if any.
    pub fn flush(&self) {
        if let Some(sink) = self.sink.read().expect("sink lock").as_ref() {
            sink.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_instance_is_inert() {
        let t = Telemetry::new();
        assert!(!t.is_active());
        // Inert span: nothing registered, nothing recorded.
        drop(t.span("refresh.window"));
        assert!(t.snapshot().span("refresh.window").is_none());
        // Emit without a sink must not invoke the constructor.
        t.emit(|| unreachable!("emit must be skipped while inactive"));
    }

    #[test]
    fn spans_record_wall_time_histograms() {
        let t = Telemetry::new();
        t.activate();
        for _ in 0..3 {
            let _span = t.span("refresh.window");
        }
        let snap = t.snapshot();
        let hist = snap.span("refresh.window").expect("span histogram");
        assert_eq!(hist.count, 3);
        assert!(hist.sum >= 0.0);
    }

    #[test]
    fn events_carry_scope_and_span_tags() {
        let t = Telemetry::new();
        let sink = t.install_memory_sink();
        let _scope = t.scope("fig14_refresh_reduction");
        let _inner = t.scope("gcc");
        let _span = t.span("refresh.window");
        t.emit(|| Event::RefreshWindow {
            policy: "charge_aware",
            rows_refreshed: 1,
            rows_skipped: 9,
            ar_commands: 2,
            table_reads: 2,
            table_writes: 0,
            skip_fraction: 0.9,
        });
        let lines = sink.take_lines();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("\"scope\":\"fig14_refresh_reduction.gcc\""));
        assert!(lines[0].contains("\"span\":\"refresh.window\""));
    }

    #[test]
    fn clear_sink_deactivates() {
        let t = Telemetry::new();
        t.install_memory_sink();
        assert!(t.is_active());
        t.clear_sink();
        assert!(!t.is_active());
        t.emit(|| unreachable!("emit must be skipped after clear_sink"));
    }

    #[test]
    fn current_defaults_to_global_and_nests_overrides() {
        assert!(Arc::ptr_eq(&Telemetry::current(), Telemetry::global()));
        let a = Arc::new(Telemetry::new());
        let b = Arc::new(Telemetry::new());
        {
            let _ga = Telemetry::push_current(Arc::clone(&a));
            assert!(Arc::ptr_eq(&Telemetry::current(), &a));
            {
                let _gb = Telemetry::push_current(Arc::clone(&b));
                assert!(Arc::ptr_eq(&Telemetry::current(), &b));
            }
            assert!(Arc::ptr_eq(&Telemetry::current(), &a));
        }
        assert!(Arc::ptr_eq(&Telemetry::current(), Telemetry::global()));
    }

    #[test]
    fn current_override_is_thread_local() {
        let t = Arc::new(Telemetry::new());
        let _guard = Telemetry::push_current(Arc::clone(&t));
        std::thread::scope(|s| {
            s.spawn(|| {
                // Worker threads see the global, not this thread's
                // override — the pool installs per-job overrides.
                assert!(Arc::ptr_eq(&Telemetry::current(), Telemetry::global()));
            });
        });
        assert!(Arc::ptr_eq(&Telemetry::current(), &t));
    }

    #[test]
    fn fork_job_mirrors_activation() {
        let inactive = Telemetry::new();
        assert!(!inactive.fork_job().is_active());

        let active = Telemetry::new();
        active.activate();
        let fork = active.fork_job();
        assert!(fork.is_active());
        // Active-without-sink parents fork sinkless children.
        fork.emit(|| unreachable!("fork of a sinkless parent has no sink"));

        let sinked = Telemetry::new();
        sinked.install_sink(EventSink::memory(SampleConfig { rate: 7 }));
        let fork = sinked.fork_job();
        let fork_sink = fork.sink.read().unwrap().clone().expect("fork sink");
        assert_eq!(fork_sink.sample_config().rate, 7);
    }

    #[test]
    fn absorb_job_merges_metrics_and_event_lines() {
        let parent = Telemetry::new();
        let parent_sink = parent.install_memory_sink();
        parent.counter("dram.refresh.windows").add(2);

        let job = parent.fork_job();
        job.counter("dram.refresh.windows").add(3);
        job.counter("memctrl.writes").add(7);
        job.emit(|| Event::ReportWrite {
            name: "job".into(),
            path: "x".into(),
            ok: true,
            error: None,
        });

        parent.absorb_job(&job);
        let snap = parent.snapshot();
        assert_eq!(snap.counter("dram.refresh.windows"), 5);
        assert_eq!(snap.counter("memctrl.writes"), 7);
        let lines = parent_sink.take_lines();
        assert_eq!(lines.len(), 1);
        // Absorbing twice adds nothing: the job's lines were taken.
        parent.absorb_job(&job);
        assert!(parent_sink.take_lines().is_empty());
    }

    #[test]
    fn write_snapshot_round_trips() {
        let t = Telemetry::new();
        t.counter("dram.refresh.windows").add(5);
        let dir = std::env::temp_dir().join(format!("zr-telemetry-lib-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json");
        t.write_snapshot(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("{\n  \"counters\": {\n    \"dram.refresh.windows\": 5\n  },"));
        assert!(
            text.ends_with("\"histograms\": {}\n}"),
            "no trailing newline"
        );
        let back = Snapshot::from_json(&zr_types::json::Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, t.snapshot());
        std::fs::remove_dir_all(&dir).ok();
    }
}
