//! Counting-allocator accounting under nested scopes and across
//! threads.

use std::hint::black_box;

use zr_prof::alloc::{process_totals, with_suspended, AllocScope, AllocStats};

#[test]
fn nested_scopes_attribute_allocations_hierarchically() {
    let outer = AllocScope::begin();
    let a: Vec<u8> = black_box(Vec::with_capacity(1000));

    let inner = AllocScope::begin();
    let b: Vec<u8> = black_box(Vec::with_capacity(2000));
    let inner_delta = inner.delta();

    let outer_delta = outer.delta();

    // The inner scope saw exactly its own allocation.
    assert_eq!(
        inner_delta,
        AllocStats {
            allocs: 1,
            bytes: 2000
        }
    );
    // The outer scope saw both.
    assert_eq!(
        outer_delta,
        AllocStats {
            allocs: 2,
            bytes: 3000
        }
    );
    drop((a, b));
}

#[test]
fn scopes_are_thread_local_and_totals_are_global() {
    let before = process_totals();
    let main_scope = AllocScope::begin();

    let handles: Vec<_> = (0..4)
        .map(|i| {
            std::thread::spawn(move || {
                let scope = AllocScope::begin();
                let size = 1024 * (i + 1);
                let v: Vec<u8> = black_box(Vec::with_capacity(size));
                let delta = scope.delta();
                drop(v);
                (size as u64, delta)
            })
        })
        .collect();

    let mut expected_bytes = 0u64;
    for h in handles {
        let (size, delta) = h.join().unwrap();
        // Each thread's scope saw exactly its own allocation, no matter
        // what the other threads were doing concurrently.
        assert_eq!(delta.allocs, 1, "thread with {size}-byte vec: {delta:?}");
        assert_eq!(delta.bytes, size);
        expected_bytes += size;
    }

    // The spawning thread's scope saw none of the worker allocations
    // (thread spawn bookkeeping on this thread is all it may observe,
    // so only assert the workers' vecs are absent).
    let main_delta = main_scope.delta();
    assert!(
        main_delta.bytes < expected_bytes,
        "main scope should not absorb worker allocations: {main_delta:?}"
    );

    // Process totals absorbed all four worker allocations.
    let after = process_totals();
    assert!(after.allocs >= before.allocs + 4);
    assert!(after.bytes >= before.bytes + expected_bytes);
    assert!(after.peak_bytes >= after.live_bytes.min(after.peak_bytes));
}

#[test]
fn suspension_nests_and_restores() {
    let scope = AllocScope::begin();
    with_suspended(|| {
        let hidden: Vec<u8> = black_box(Vec::with_capacity(512));
        with_suspended(|| {
            let deeper: Vec<u8> = black_box(Vec::with_capacity(512));
            drop(deeper);
        });
        // Still suspended after the nested suspension unwinds.
        let still_hidden: Vec<u8> = black_box(Vec::with_capacity(512));
        drop((hidden, still_hidden));
    });
    assert_eq!(scope.delta(), AllocStats::default());

    // Counting resumes after the outermost suspension ends.
    let v: Vec<u8> = black_box(Vec::with_capacity(256));
    assert_eq!(
        scope.delta(),
        AllocStats {
            allocs: 1,
            bytes: 256
        }
    );
    drop(v);
}
