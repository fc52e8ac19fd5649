//! The counting global allocator and per-scope allocation accounting.
//!
//! This module installs [`CountingAlloc`] — a thin wrapper around the
//! system allocator — as the process-wide `#[global_allocator]` of every
//! binary that links zr-prof. Every successful allocation bumps two sets
//! of counters:
//!
//! * process-wide atomics (total allocations, total bytes, live bytes,
//!   peak live bytes), read via [`process_totals`];
//! * plain thread-local cells (allocations and bytes on *this* thread),
//!   read via [`thread_stats`] and windowed by [`AllocScope`].
//!
//! The thread-local side is what makes scoped accounting exact: an
//! [`AllocScope`] delta only sees the current thread, so concurrent
//! test threads or background work cannot pollute a measurement.
//!
//! Measurement tools that must not observe their own bookkeeping wrap
//! it in [`with_suspended`], which stops counting on the calling thread
//! for the duration of the closure (allocation itself still happens,
//! it just goes unrecorded). `zr-prof`'s span profiler uses this so
//! profile capture does not charge its hash-map inserts to the scope
//! under measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Wrapper around the system allocator counting every (unsuspended)
/// allocation. Installed as the global allocator; see the module docs.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingAlloc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

static TOTAL_ALLOCS: AtomicU64 = AtomicU64::new(0);
static TOTAL_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static PEAK_BYTES: AtomicI64 = AtomicI64::new(0);

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static THREAD_BYTES: Cell<u64> = const { Cell::new(0) };
    static SUSPEND_DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// Whether counting is suspended on this thread. Treats an unavailable
/// thread-local (thread teardown) as suspended so the allocator never
/// touches a destroyed cell.
#[inline]
fn suspended() -> bool {
    SUSPEND_DEPTH.try_with(|d| d.get() > 0).unwrap_or(true)
}

#[inline]
fn note_alloc(bytes: usize) {
    if suspended() {
        return;
    }
    TOTAL_ALLOCS.fetch_add(1, Ordering::Relaxed);
    TOTAL_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(bytes as i64, Ordering::Relaxed) + bytes as i64;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = THREAD_BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

#[inline]
fn note_dealloc(bytes: usize) {
    if suspended() {
        return;
    }
    LIVE_BYTES.fetch_sub(bytes as i64, Ordering::Relaxed);
}

// SAFETY: all four methods delegate the actual memory management to the
// system allocator unchanged; the wrapper only updates counters, which
// allocate nothing themselves (atomics and const-initialized
// thread-local cells), so there is no reentrancy into the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        note_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            note_dealloc(layout.size());
            note_alloc(new_size);
        }
        p
    }
}

/// Allocation counts over some window: number of allocations and bytes
/// requested. Deallocations do not subtract — these are gross counts,
/// which is what "how much did this phase allocate" means.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocStats {
    /// Successful allocations (including the alloc half of reallocs).
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub bytes: u64,
}

impl AllocStats {
    /// Component-wise saturating difference (`self - earlier`).
    pub fn since(&self, earlier: &AllocStats) -> AllocStats {
        AllocStats {
            allocs: self.allocs.saturating_sub(earlier.allocs),
            bytes: self.bytes.saturating_sub(earlier.bytes),
        }
    }
}

/// Process-wide allocation totals since process start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocTotals {
    /// Successful allocations across all threads.
    pub allocs: u64,
    /// Bytes requested across all threads.
    pub bytes: u64,
    /// Bytes currently live (allocated minus freed; clamped at zero).
    pub live_bytes: u64,
    /// High-water mark of `live_bytes`.
    pub peak_bytes: u64,
}

/// Process-wide totals since start.
pub fn process_totals() -> AllocTotals {
    AllocTotals {
        allocs: TOTAL_ALLOCS.load(Ordering::Relaxed),
        bytes: TOTAL_BYTES.load(Ordering::Relaxed),
        live_bytes: LIVE_BYTES.load(Ordering::Relaxed).max(0) as u64,
        peak_bytes: PEAK_BYTES.load(Ordering::Relaxed).max(0) as u64,
    }
}

/// This thread's gross allocation counts since thread start.
pub fn thread_stats() -> AllocStats {
    AllocStats {
        allocs: THREAD_ALLOCS.try_with(Cell::get).unwrap_or(0),
        bytes: THREAD_BYTES.try_with(Cell::get).unwrap_or(0),
    }
}

/// Runs `f` with allocation counting suspended on this thread. Nests.
pub fn with_suspended<T>(f: impl FnOnce() -> T) -> T {
    let _ = SUSPEND_DEPTH.try_with(|d| d.set(d.get() + 1));
    let out = f();
    let _ = SUSPEND_DEPTH.try_with(|d| d.set(d.get().saturating_sub(1)));
    out
}

/// RAII window over this thread's allocation counters: construct with
/// [`AllocScope::begin`], read the delta any time with
/// [`AllocScope::delta`]. Scopes nest naturally — an outer scope's
/// delta includes everything inner scopes saw.
#[derive(Debug, Clone, Copy)]
pub struct AllocScope {
    start: AllocStats,
}

impl AllocScope {
    /// Opens a window at the current thread counters.
    pub fn begin() -> Self {
        AllocScope {
            start: thread_stats(),
        }
    }

    /// Allocations on this thread since [`AllocScope::begin`].
    pub fn delta(&self) -> AllocStats {
        thread_stats().since(&self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    #[test]
    fn scope_sees_exact_thread_local_allocation() {
        let scope = AllocScope::begin();
        let v: Vec<u8> = black_box(Vec::with_capacity(4096));
        let delta = scope.delta();
        assert_eq!(delta.allocs, 1, "one Vec allocation expected: {delta:?}");
        assert_eq!(delta.bytes, 4096);
        drop(v);
        // Deallocation does not subtract from gross counts.
        assert_eq!(scope.delta().allocs, 1);
    }

    #[test]
    fn suspended_allocations_go_uncounted() {
        let scope = AllocScope::begin();
        let v = with_suspended(|| black_box(Vec::<u8>::with_capacity(1024)));
        assert_eq!(scope.delta(), AllocStats::default());
        drop(v);
    }

    #[test]
    fn process_totals_track_live_and_peak() {
        let before = process_totals();
        let v: Vec<u8> = black_box(Vec::with_capacity(1 << 16));
        let during = process_totals();
        assert!(during.allocs > before.allocs);
        assert!(during.bytes >= before.bytes + (1 << 16));
        assert!(during.peak_bytes >= during.live_bytes);
        drop(v);
    }
}
