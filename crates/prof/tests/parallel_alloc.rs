//! Allocation accounting on `zr-par` pool workers: `AllocScope` windows
//! are per-thread, so concurrent jobs never bleed into each other's
//! deltas — the property the `fig14_subset_parallel` perf slice (and
//! any profiling of a pooled sweep) depends on.

use std::hint::black_box;

use zr_prof::alloc::{AllocScope, AllocStats};

/// Each pool job allocates a distinct, known amount inside its own
/// scope; every delta must be exact despite 4 workers interleaving.
#[test]
fn pool_worker_alloc_scopes_are_isolated() {
    let deltas = zr_par::run_jobs(4, 16, |i| {
        let scope = AllocScope::begin();
        let v: Vec<u8> = black_box(Vec::with_capacity(512 + i));
        drop(v);
        scope.delta()
    });
    assert_eq!(deltas.len(), 16);
    for (i, delta) in deltas.into_iter().enumerate() {
        assert_eq!(
            delta,
            AllocStats {
                allocs: 1,
                bytes: 512 + i as u64
            },
            "job {i} delta polluted by a concurrent worker"
        );
    }
}

/// A scope opened on the submitting thread around a whole pool run sees
/// only the submitting thread's allocations (worker allocations are
/// counted on the worker threads), so wrapping a sweep in a scope stays
/// meaningful: it measures orchestration cost, not simulation content.
#[test]
fn submitting_thread_scope_excludes_worker_allocations() {
    // Warm up the pool-free path so Vec growth inside run_jobs itself
    // stays the only submitting-thread traffic.
    let outer = AllocScope::begin();
    let results = zr_par::run_jobs(4, 8, |i| {
        let v: Vec<u8> = black_box(Vec::with_capacity(100_000));
        drop(v);
        i
    });
    let delta = outer.delta();
    assert_eq!(results, (0..8).collect::<Vec<_>>());
    // 8 workers × 100 KB would be ≥ 800 KB; the submitting thread only
    // pays the pool's own bookkeeping (slots, handles), far below that.
    assert!(
        delta.bytes < 100_000,
        "worker allocations leaked into the submitting thread's scope: {delta:?}"
    );
}
