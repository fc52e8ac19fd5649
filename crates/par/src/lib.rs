//! `zr-par`: a std-only scoped-thread work pool with deterministic
//! result collection.
//!
//! The evaluation sweeps (figure reports, experiment drivers, the
//! differential fuzzer) run many independent jobs — one per
//! benchmark × configuration point. This crate runs them on a small
//! pool of scoped threads while keeping the *observable output
//! byte-identical to a serial run*:
//!
//! - jobs are **indexed** `0..jobs` in submission order;
//! - workers **steal** the next index from a shared atomic cursor, so
//!   an expensive job never serializes the jobs behind it;
//! - each result lands in the **slot of its job index**, and
//!   [`run_jobs`] returns the slots in submission order — which worker
//!   computed what is invisible to the caller.
//!
//! The pool therefore provides *scheduling* nondeterminism only; any
//! caller whose jobs are pure (or whose side effects are merged in
//! submission order, see `zr_sim::experiments::parallel`) gets
//! bit-reproducible output for every thread count.
//!
//! # Pool width
//!
//! Callers pass the width. The figure sweeps take it from the
//! `ZR_THREADS` knob (`zr_types::knobs::thread_count`), whose default is
//! the machine's available parallelism; a width of 1 selects the exact
//! serial path: jobs run inline on the calling thread, in order, with
//! no pool machinery at all.
//!
//! # No dependencies
//!
//! The crate is pure std by design, so the observability crates can use
//! it in tests without dependency cycles and the workspace gains no
//! third-party scheduler.

#![warn(missing_docs)]

pub mod context;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `jobs` indexed jobs on up to `threads` scoped worker threads
/// and returns the results in submission order.
///
/// With `threads <= 1` (or fewer than two jobs) every job runs inline
/// on the calling thread, in index order — the exact serial path, with
/// no threads spawned and no locks taken. Otherwise
/// `min(threads, jobs)` workers repeatedly claim the next unclaimed
/// index from a shared cursor until all jobs are done.
///
/// # Panics
///
/// A panicking job panics the pool: the scope joins every worker and
/// propagates the first panic to the caller.
pub fn run_jobs<T, F>(threads: usize, jobs: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_jobs_observed(threads, jobs, job, |_, _, _| {})
}

/// [`run_jobs`] with a completion observer: after each job finishes,
/// `on_done(index, completed, total)` fires with the job's index and
/// the number of jobs completed so far (including this one, so
/// `completed` reaches `total` exactly once, on the final job).
///
/// On the pool path the observer runs on worker threads and may fire
/// concurrently; `completed` values are taken from a shared atomic and
/// each value 1..=total is delivered exactly once, though not
/// necessarily in ascending order across threads. The serial path
/// calls it inline, in index order. Progress reporters hook in here —
/// see `zr_sim::experiments::parallel`.
///
/// # Panics
///
/// A panicking job or observer panics the pool: the scope joins every
/// worker and propagates the first panic to the caller.
pub fn run_jobs_observed<T, F, O>(threads: usize, jobs: usize, job: F, on_done: O) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    O: Fn(usize, usize, usize) + Sync,
{
    if threads <= 1 || jobs <= 1 {
        return (0..jobs)
            .map(|i| {
                let value = job(i);
                on_done(i, i + 1, jobs);
                value
            })
            .collect();
    }
    let slots: Vec<Mutex<Option<T>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let workers = threads.min(jobs);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= jobs {
                    break;
                }
                let value = job(i);
                *slots[i].lock().expect("result slot lock") = Some(value);
                let completed = done.fetch_add(1, Ordering::Relaxed) + 1;
                on_done(i, completed, jobs);
            });
        }
    });
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.into_inner()
                .expect("result slot lock")
                .unwrap_or_else(|| unreachable!("job {i} joined without a result"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_come_back_in_submission_order() {
        for threads in [1, 2, 4, 8] {
            let out = run_jobs(threads, 32, |i| {
                // Stagger so late-submitted jobs finish first under the
                // pool; order must not change.
                if i % 3 == 0 {
                    std::thread::yield_now();
                }
                i * i
            });
            assert_eq!(out, (0..32).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn serial_and_parallel_agree() {
        let serial = run_jobs(1, 20, |i| (i, i as u64 * 7 + 3));
        let pooled = run_jobs(4, 20, |i| (i, i as u64 * 7 + 3));
        assert_eq!(serial, pooled);
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let ran = AtomicU64::new(0);
        let out = run_jobs(4, 100, |i| {
            ran.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(ran.load(Ordering::Relaxed), 100);
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn zero_and_one_job_edge_cases() {
        assert!(run_jobs(4, 0, |i| i).is_empty());
        assert_eq!(run_jobs(4, 1, |i| i + 1), vec![1]);
    }

    #[test]
    fn observer_sees_every_completion_exactly_once() {
        for threads in [1, 2, 4] {
            let seen = Mutex::new(Vec::new());
            let out = run_jobs_observed(
                threads,
                25,
                |i| i,
                |index, completed, total| {
                    assert_eq!(total, 25);
                    seen.lock().unwrap().push((index, completed));
                },
            );
            assert_eq!(out.len(), 25);
            let mut seen = seen.into_inner().unwrap();
            // Each job index reported once, each completed count 1..=25
            // delivered once, and the final callback says 25/25.
            let mut indices: Vec<usize> = seen.iter().map(|&(i, _)| i).collect();
            indices.sort_unstable();
            assert_eq!(indices, (0..25).collect::<Vec<_>>());
            seen.sort_by_key(|&(_, c)| c);
            let counts: Vec<usize> = seen.iter().map(|&(_, c)| c).collect();
            assert_eq!(counts, (1..=25).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn serial_observer_fires_in_index_order() {
        let seen = Mutex::new(Vec::new());
        run_jobs_observed(1, 5, |i| i, |index, _, _| seen.lock().unwrap().push(index));
        assert_eq!(seen.into_inner().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn pool_threads_see_their_own_thread_locals() {
        thread_local! {
            static LOCAL: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
        }
        LOCAL.with(|l| l.set(99));
        let out = run_jobs(4, 8, |i| {
            // Worker threads start from a fresh thread-local state, the
            // property the per-job context installation relies on.
            let before = LOCAL.with(|l| l.get());
            LOCAL.with(|l| l.set(i));
            before
        });
        assert_eq!(out.iter().filter(|&&v| v == 99).count(), 0);
    }
}
