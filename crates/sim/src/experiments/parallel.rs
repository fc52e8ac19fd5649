//! Deterministic parallel execution of experiment sweeps.
//!
//! [`sweep_with`] is the one bridge between the experiment drivers and
//! the [`zr_par`] work pool. It owns the part the raw pool cannot know
//! about: the observability substrate. Each job runs against a *forked*
//! [`zr_telemetry::Telemetry`] instance (and a private in-memory
//! [`zr_trace::TraceRecorder`] when tracing is active, and a private
//! [`zr_xray::XrayRecorder`] when the charge-domain capture is active),
//! so workers never contend on — or interleave into — the parent's
//! registry, event sink, trace stream or xray buffers. After the pool
//! joins, the per-job contexts are absorbed back into the parent **in
//! submission order**, which makes the merged counters, histograms,
//! event lines, trace bytes and xray captures independent of the thread
//! count and of scheduling.
//!
//! The determinism contract, concretely:
//!
//! - the returned `Vec` is in submission order for every thread count;
//! - with several failing jobs, the error returned is the one from the
//!   lowest submission index (exactly what a serial loop would surface);
//! - figure JSON reports are byte-identical for `ZR_THREADS=1` and
//!   `ZR_THREADS=N` (asserted by `crates/bench/tests/parallel_equivalence.rs`);
//! - merged telemetry registry snapshots are identical for any thread
//!   count. The raw `events.jsonl` *line order* groups by job rather
//!   than interleaving, and per-line sequence numbers restart per job —
//!   aggregate counts are exact, the interleaving is not promised.
//!
//! `threads <= 1` (or a single job) takes a literal serial path — no
//! pool, no forked contexts — so `ZR_THREADS=1` reproduces the
//! pre-parallelism behaviour bit for bit, event stream included.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use zr_telemetry::{Event, Snapshot, Telemetry};
use zr_trace::TraceRecorder;
use zr_types::Result;
use zr_xray::XrayRecorder;

/// Minimum gap between two progress reports (the final one excepted).
const PROGRESS_THROTTLE_US: u64 = 200_000;

/// Chip-row work units in a registry snapshot: rows refreshed plus rows
/// skipped. Read from [`Snapshot`] (never via `registry().counter()`,
/// which would *register* the counters and perturb snapshot output).
fn snapshot_chip_rows(snap: &Snapshot) -> u64 {
    snap.counter("dram.refresh.rows_refreshed") + snap.counter("dram.refresh.rows_skipped")
}

/// Renders one progress status line (without the trailing newline).
/// Pure so tests can pin the format.
pub(crate) fn render_progress(
    label: &str,
    done: u64,
    total: u64,
    chip_rows: u64,
    elapsed_us: u64,
) -> String {
    let pct = if total == 0 {
        100.0
    } else {
        done as f64 * 100.0 / total as f64
    };
    let secs = elapsed_us as f64 / 1e6;
    let rate = if secs > 0.0 {
        chip_rows as f64 / secs
    } else {
        0.0
    };
    let eta_s = if done == 0 || done >= total {
        0.0
    } else {
        secs / done as f64 * (total - done) as f64
    };
    format!(
        "[zr-progress] {label}: {done}/{total} cells ({pct:.0}%), {rate:.0} chip_rows/s, ETA {eta_s:.0}s"
    )
}

/// The `ZR_PROGRESS=1` reporter: fed per-cell completion callbacks from
/// the pool (or the serial loop), accumulates chip-row work units, and
/// reports at most once per [`PROGRESS_THROTTLE_US`] — always including
/// a final `total/total` report. Reports go to stderr (one `write_all`
/// per line, so concurrent writers cannot shear a line) and, when an
/// event sink is installed, to the parent telemetry as
/// [`Event::SweepProgress`]. Progress never touches stdout, figure JSON
/// or metric snapshots, so enabling it keeps every figure artifact
/// byte-identical.
struct SweepProgress {
    label: String,
    total: u64,
    chip_rows: AtomicU64,
    started: Instant,
    /// Elapsed micros at the last report (throttle state).
    last_report_us: AtomicU64,
    telemetry: Arc<Telemetry>,
}

impl SweepProgress {
    fn new(total: usize, telemetry: Arc<Telemetry>) -> SweepProgress {
        SweepProgress {
            label: Telemetry::current_scope_path().unwrap_or_else(|| "sweep".to_string()),
            total: total as u64,
            chip_rows: AtomicU64::new(0),
            started: Instant::now(),
            last_report_us: AtomicU64::new(0),
            telemetry,
        }
    }

    /// Adds a completed cell's chip-row work units.
    fn add_units(&self, units: u64) {
        self.chip_rows.fetch_add(units, Ordering::Relaxed);
    }

    /// Records that `done` cells have completed and reports if due. The
    /// final cell (`done == total`) always reports, so the last line a
    /// consumer sees reads `total/total`.
    fn cell_done(&self, done: u64) {
        let now_us = self.started.elapsed().as_micros() as u64;
        let is_final = done >= self.total;
        let last = self.last_report_us.load(Ordering::Relaxed);
        if !is_final {
            if now_us.saturating_sub(last) < PROGRESS_THROTTLE_US {
                return;
            }
            // One reporter per throttle window: the CAS loser skips.
            if self
                .last_report_us
                .compare_exchange(last, now_us, Ordering::Relaxed, Ordering::Relaxed)
                .is_err()
            {
                return;
            }
        } else {
            // Never store 0 for the final report: a sub-microsecond sweep
            // would otherwise be indistinguishable from "never reported".
            self.last_report_us.store(now_us.max(1), Ordering::Relaxed);
        }
        let chip_rows = self.chip_rows.load(Ordering::Relaxed);
        let line = render_progress(&self.label, done, self.total, chip_rows, now_us);
        {
            use std::io::Write;
            let mut err = std::io::stderr().lock();
            let _ = err.write_all(format!("{line}\n").as_bytes());
        }
        self.telemetry.emit(|| Event::SweepProgress {
            done,
            total: self.total,
            chip_rows,
            elapsed_us: now_us,
        });
    }
}

/// Runs `jobs` instances of `f` on a deterministic work pool of
/// `threads` workers and returns the results in submission order.
///
/// Each pool job executes with a forked telemetry context (and, when
/// tracing is active, a private memory trace recorder) re-rooted under
/// the submitting thread's current scope path; contexts are merged back
/// in submission order after the join. See the module docs for the full
/// determinism contract.
///
/// # Errors
///
/// Returns the error of the lowest-indexed failing job, as a serial
/// loop would.
pub fn sweep_with<T, F>(threads: usize, jobs: usize, f: F) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(usize) -> Result<T> + Sync,
{
    let progress = (zr_types::knobs::PROGRESS.on() && jobs > 0)
        .then(|| SweepProgress::new(jobs, Telemetry::current()));

    if threads <= 1 || jobs <= 1 {
        let Some(progress) = progress else {
            return (0..jobs).map(f).collect();
        };
        // Serial cells mutate the parent registry directly, so per-cell
        // work units are snapshot deltas against the pre-sweep reading.
        let telemetry = Telemetry::current();
        let mut seen = snapshot_chip_rows(&telemetry.snapshot());
        return (0..jobs)
            .map(|i| {
                let out = f(i);
                let now = snapshot_chip_rows(&telemetry.snapshot());
                progress.add_units(now.saturating_sub(seen));
                seen = now;
                progress.cell_done(i as u64 + 1);
                out
            })
            .collect();
    }

    let parent_telemetry = Telemetry::current();
    let parent_trace = TraceRecorder::current();
    let parent_xray = XrayRecorder::current();
    let parent_scope = Telemetry::current_scope_path();

    let outcomes = zr_par::run_jobs_observed(
        threads,
        jobs,
        |i| {
            let job_telemetry = parent_telemetry.fork_job();
            let job_trace = if parent_trace.is_active() {
                Some(Arc::new(TraceRecorder::memory()))
            } else {
                None
            };
            let job_xray = if parent_xray.is_active() {
                Some(Arc::new(parent_xray.fork_job()))
            } else {
                None
            };

            let _tel_guard = Telemetry::push_current(Arc::clone(&job_telemetry));
            let _trace_guard = job_trace
                .as_ref()
                .map(|t| TraceRecorder::push_current(Arc::clone(t)));
            let _xray_guard = job_xray
                .as_ref()
                .map(|x| XrayRecorder::push_current(Arc::clone(x)));
            // Re-root the worker's (empty) span stack under the submitting
            // thread's scope so per-job events keep the figure-level prefix
            // a serial run would give them.
            let _scope_guard = parent_scope.as_deref().map(|p| job_telemetry.scope(p));

            let out = f(i);
            if let Some(progress) = &progress {
                // The forked instance started from zero counters, so its
                // snapshot is exactly this cell's contribution.
                progress.add_units(snapshot_chip_rows(&job_telemetry.snapshot()));
            }
            (out, job_telemetry, job_trace, job_xray)
        },
        |_, completed, _| {
            if let Some(progress) = &progress {
                progress.cell_done(completed as u64);
            }
        },
    );

    let mut results = Vec::with_capacity(jobs);
    let mut first_err = None;
    for (out, job_telemetry, job_trace, job_xray) in outcomes {
        parent_telemetry.absorb_job(&job_telemetry);
        if let Some(trace) = job_trace {
            parent_trace.absorb_bytes(&trace.take_bytes());
        }
        if let Some(xray) = job_xray {
            parent_xray.absorb(&xray);
        }
        match out {
            Ok(v) => results.push(v),
            Err(e) => {
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
        }
    }
    match first_err {
        None => Ok(results),
        Some(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zr_types::Error;

    #[test]
    fn sweep_matches_serial_order() {
        let serial = sweep_with(1, 16, |i| Ok(i * i)).unwrap();
        let pooled = sweep_with(4, 16, |i| Ok(i * i)).unwrap();
        assert_eq!(serial, (0..16).map(|i| i * i).collect::<Vec<_>>());
        assert_eq!(serial, pooled);
    }

    #[test]
    fn sweep_surfaces_lowest_indexed_error() {
        let err = sweep_with(4, 12, |i| -> Result<usize> {
            if i % 3 == 2 {
                Err(Error::invalid_config(format!("job {i}")))
            } else {
                Ok(i)
            }
        })
        .unwrap_err();
        assert!(err.to_string().contains("job 2"), "got: {err}");
    }

    #[test]
    fn progress_line_format_is_stable() {
        assert_eq!(
            render_progress("fig14", 3, 12, 9_000, 1_000_000),
            "[zr-progress] fig14: 3/12 cells (25%), 9000 chip_rows/s, ETA 3s"
        );
        // Final report: 100%, no ETA left.
        assert_eq!(
            render_progress("fig14", 12, 12, 9_000, 2_000_000),
            "[zr-progress] fig14: 12/12 cells (100%), 4500 chip_rows/s, ETA 0s"
        );
        // Degenerate inputs stay finite.
        assert_eq!(
            render_progress("s", 0, 0, 0, 0),
            "[zr-progress] s: 0/0 cells (100%), 0 chip_rows/s, ETA 0s"
        );
    }

    #[test]
    fn progress_reporter_counts_units_and_always_reports_final() {
        let telemetry = Arc::new(Telemetry::new());
        let progress = SweepProgress::new(4, Arc::clone(&telemetry));
        for done in 1..=4u64 {
            progress.add_units(100);
            progress.cell_done(done);
        }
        assert_eq!(progress.chip_rows.load(Ordering::Relaxed), 400);
        // The final cell reported despite the throttle window.
        assert!(progress.last_report_us.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn snapshot_chip_rows_reads_without_registering() {
        let telemetry = Telemetry::new();
        assert_eq!(snapshot_chip_rows(&telemetry.snapshot()), 0);
        // Reading must not have registered the counters.
        assert!(telemetry.snapshot().counters.is_empty());
        telemetry
            .registry()
            .counter("dram.refresh.rows_refreshed")
            .add(7);
        telemetry
            .registry()
            .counter("dram.refresh.rows_skipped")
            .add(5);
        assert_eq!(snapshot_chip_rows(&telemetry.snapshot()), 12);
    }

    #[test]
    fn pooled_sweep_merges_job_counters_into_parent() {
        let parent = Arc::new(Telemetry::new());
        let _guard = Telemetry::push_current(Arc::clone(&parent));
        sweep_with(4, 8, |i| {
            Telemetry::current()
                .registry()
                .counter("par.test.jobs")
                .add(1 + i as u64);
            Ok(())
        })
        .unwrap();
        let snap = parent.registry().snapshot();
        assert_eq!(
            snap.counters.get("par.test.jobs").copied(),
            Some((1..=8).sum::<u64>())
        );
    }
}
