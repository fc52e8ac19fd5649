//! The charge-domain recorder: windowed per-(bank, AR-set) refresh
//! attribution plus per-stage transform savings, captured behind one
//! relaxed atomic load when off.
//!
//! [`XrayRecorder`] mirrors the activation pattern of `zr-telemetry` and
//! `zr-trace`: a process-wide [`XrayRecorder::global`] instance
//! initialized from `ZR_XRAY`, a thread-local
//! [`XrayRecorder::push_current`] override stack so the parallel sweep
//! layer can give each pool worker a private memory recorder, and
//! [`XrayRecorder::absorb`] to splice worker captures into the parent in
//! submission order — which is what makes `xray.json` byte-identical at
//! any `ZR_THREADS`.
//!
//! Memory is bounded: each engine keeps at most [`Inner::window_cap`]
//! distinct window buckets (default [`DEFAULT_WINDOW_CAP`], override
//! with `ZR_XRAY_WINDOWS`). When a run outgrows the cap the engine's
//! window stride doubles and existing buckets merge pairwise — counts
//! add, end-of-window bank state keeps the later window's value — so a
//! million-window soak costs the same memory as a short run and the
//! downsampling is a pure function of the window indexes seen, not of
//! scheduling.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::snapshot::{
    ArRow, BankStateRow, EngineCapture, StageCapture, XraySnapshot, STAGE_COUNT,
};

thread_local! {
    /// Per-thread stack of [`XrayRecorder::push_current`] overrides.
    static CURRENT: zr_par::context::Slot<XrayRecorder> = const { RefCell::new(Vec::new()) };
}

/// The shared innermost-wins resolution over [`CURRENT`] (see
/// [`zr_par::context`] — the same mechanism backs `zr-telemetry` and
/// `zr-trace`).
static CURRENT_STACK: zr_par::context::Stack<XrayRecorder> = zr_par::context::Stack::new(&CURRENT);

/// Default cap on distinct window buckets kept per engine.
pub const DEFAULT_WINDOW_CAP: u64 = 64;

/// Per-(window-bucket, bank, AR-set) refresh attribution counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct ArAgg {
    rows_refreshed: u64,
    rows_skipped: u64,
    discharged: u64,
}

/// Per-combo transform-stage attribution (see [`crate::stage_combo`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct StageAgg {
    lines: u64,
    charged_before: u64,
    charged_after: u64,
    deltas: [i64; STAGE_COUNT],
}

/// One announced refresh engine: identity plus its windowed series.
#[derive(Debug)]
struct EngineState {
    label: String,
    policy: String,
    num_banks: u32,
    ar_sets_per_bank: u64,
    /// Windows per bucket; doubles whenever the run outgrows the cap.
    stride: u64,
    /// (bucket, bank, set) → AR attribution counters.
    ar: BTreeMap<(u64, u32, u64), ArAgg>,
    /// (bucket, bank) → discharged chip rows at end of window; within a
    /// merged bucket the latest window wins (it is the end-of-bucket
    /// state, not a sum).
    bank_state: BTreeMap<(u64, u32), u64>,
}

impl EngineState {
    /// Grows the stride until `window` fits under `cap` buckets, merging
    /// existing buckets pairwise, then returns `window`'s bucket.
    fn bucket_for(&mut self, cap: u64, window: u64) -> u64 {
        while window / self.stride >= cap {
            self.stride *= 2;
            let ar = std::mem::take(&mut self.ar);
            for ((bucket, bank, set), agg) in ar {
                let merged = self.ar.entry((bucket / 2, bank, set)).or_default();
                merged.rows_refreshed += agg.rows_refreshed;
                merged.rows_skipped += agg.rows_skipped;
                merged.discharged += agg.discharged;
            }
            let bank_state = std::mem::take(&mut self.bank_state);
            // Ascending iteration: the higher of two merged buckets is
            // inserted last, so the later window's state wins.
            for ((bucket, bank), rows) in bank_state {
                self.bank_state.insert((bucket / 2, bank), rows);
            }
        }
        window / self.stride
    }
}

#[derive(Debug)]
struct Inner {
    window_cap: u64,
    engines: Vec<EngineState>,
    stages: BTreeMap<u8, StageAgg>,
}

/// The charge-domain recorder. See the [module docs](self).
#[derive(Debug)]
pub struct XrayRecorder {
    active: AtomicBool,
    inner: Mutex<Option<Inner>>,
}

impl Default for XrayRecorder {
    fn default() -> Self {
        XrayRecorder::disabled()
    }
}

impl XrayRecorder {
    /// An inactive recorder: every hook is one relaxed atomic load.
    pub fn disabled() -> Self {
        XrayRecorder {
            active: AtomicBool::new(false),
            inner: Mutex::new(None),
        }
    }

    /// An active in-memory recorder keeping at most `window_cap` window
    /// buckets per engine (clamped to ≥ 1).
    pub fn memory_with_cap(window_cap: u64) -> Self {
        XrayRecorder {
            active: AtomicBool::new(true),
            inner: Mutex::new(Some(Inner {
                window_cap: window_cap.max(1),
                engines: Vec::new(),
                stages: BTreeMap::new(),
            })),
        }
    }

    /// The process-wide recorder. First access initializes it from
    /// `ZR_XRAY` (and its window cap from `ZR_XRAY_WINDOWS`); when unset
    /// (or `0`/empty) it is the inert [`Self::disabled`] instance.
    pub fn global() -> &'static Arc<XrayRecorder> {
        static GLOBAL: OnceLock<Arc<XrayRecorder>> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            Arc::new(if zr_types::knobs::XRAY.on() {
                let cap = zr_types::knobs::XRAY_WINDOWS
                    .int()
                    .unwrap_or(DEFAULT_WINDOW_CAP);
                XrayRecorder::memory_with_cap(cap)
            } else {
                XrayRecorder::disabled()
            })
        })
    }

    /// The recorder instrumented components should bind: the innermost
    /// [`XrayRecorder::push_current`] override on this thread, or
    /// [`XrayRecorder::global`] when none is installed.
    pub fn current() -> Arc<XrayRecorder> {
        CURRENT_STACK.current_or(|| Arc::clone(XrayRecorder::global()))
    }

    /// Installs `recorder` as this thread's [`XrayRecorder::current`]
    /// until the returned guard drops. Overrides nest (innermost wins).
    pub fn push_current(recorder: Arc<XrayRecorder>) -> zr_par::context::Guard<XrayRecorder> {
        CURRENT_STACK.push(recorder)
    }

    /// Forks a private recorder for one parallel sweep job: active with
    /// this recorder's window cap when this recorder is active (so job
    /// captures bucket identically to a serial run), inert otherwise.
    /// Merge the fork back with [`Self::absorb`] in submission order.
    pub fn fork_job(&self) -> XrayRecorder {
        match self.inner.lock().unwrap().as_ref() {
            Some(inner) => XrayRecorder::memory_with_cap(inner.window_cap),
            None => XrayRecorder::disabled(),
        }
    }

    /// Whether recording is live. Instrumented code checks this (one
    /// relaxed load) before computing anything capture-specific.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.active.load(Ordering::Relaxed)
    }

    /// Registers a refresh engine and returns its index for the
    /// `record_*` hooks. Returns 0 when inactive (the hooks are then
    /// no-ops, so the placeholder index is never dereferenced).
    pub fn announce_engine(
        &self,
        label: &str,
        policy: &str,
        num_banks: u32,
        ar_sets_per_bank: u64,
    ) -> u32 {
        if !self.is_active() {
            return 0;
        }
        let mut guard = self.inner.lock().expect("xray lock");
        let Some(inner) = guard.as_mut() else {
            return 0;
        };
        inner.engines.push(EngineState {
            label: label.to_string(),
            policy: policy.to_string(),
            num_banks,
            ar_sets_per_bank,
            stride: 1,
            ar: BTreeMap::new(),
            bank_state: BTreeMap::new(),
        });
        (inner.engines.len() - 1) as u32
    }

    /// Records one per-bank AR command's outcome: rows refreshed and
    /// skipped, plus how many of the set's chip rows held the discharged
    /// pattern. A no-op (single relaxed load) when inactive.
    ///
    /// The argument list mirrors the AR command's full coordinate tuple
    /// on purpose: collapsing it into a struct would make the hot-path
    /// call sites in `zr-dram` build a value even when the recorder is
    /// off.
    #[expect(clippy::too_many_arguments)]
    #[inline]
    pub fn record_ar(
        &self,
        engine: u32,
        window: u64,
        bank: u32,
        set: u64,
        rows_refreshed: u64,
        rows_skipped: u64,
        discharged: u64,
    ) {
        if !self.is_active() {
            return;
        }
        let mut guard = self.inner.lock().expect("xray lock");
        let Some(inner) = guard.as_mut() else {
            return;
        };
        let cap = inner.window_cap;
        let Some(state) = inner.engines.get_mut(engine as usize) else {
            return;
        };
        let bucket = state.bucket_for(cap, window);
        let agg = state.ar.entry((bucket, bank, set)).or_default();
        agg.rows_refreshed += rows_refreshed;
        agg.rows_skipped += rows_skipped;
        agg.discharged += discharged;
    }

    /// Records a bank's end-of-window discharged chip-row count. Within
    /// a downsampled bucket the latest window's value wins. A no-op
    /// (single relaxed load) when inactive.
    #[inline]
    pub fn record_window_state(&self, engine: u32, window: u64, bank: u32, discharged_rows: u64) {
        if !self.is_active() {
            return;
        }
        let mut guard = self.inner.lock().expect("xray lock");
        let Some(inner) = guard.as_mut() else {
            return;
        };
        let cap = inner.window_cap;
        let Some(state) = inner.engines.get_mut(engine as usize) else {
            return;
        };
        let bucket = state.bucket_for(cap, window);
        state.bank_state.insert((bucket, bank), discharged_rows);
    }

    /// Records one encoded line's per-stage charged-cell attribution:
    /// the charged-cell count before any stage, the (signed) reduction
    /// each stage contributed, and the final count. The telescoping
    /// invariant `charged_before - charged_after == deltas.iter().sum()`
    /// holds by construction at the call site and is checked by the
    /// conformance property tests. A no-op (single relaxed load) when
    /// inactive.
    #[inline]
    pub fn record_encode(
        &self,
        combo: u8,
        charged_before: u64,
        deltas: [i64; STAGE_COUNT],
        charged_after: u64,
    ) {
        if !self.is_active() {
            return;
        }
        let mut guard = self.inner.lock().expect("xray lock");
        let Some(inner) = guard.as_mut() else {
            return;
        };
        let agg = inner.stages.entry(combo).or_default();
        agg.lines += 1;
        agg.charged_before += charged_before;
        agg.charged_after += charged_after;
        for (total, delta) in agg.deltas.iter_mut().zip(deltas) {
            *total += delta;
        }
    }

    /// Moves another recorder's capture into this one: its engines are
    /// appended (in its announce order) and its stage aggregates merge
    /// into ours. The other recorder is left inactive and empty. Called
    /// by the sweep layer in job-submission order, which is what keeps
    /// pooled captures byte-identical to serial ones. Does nothing when
    /// this recorder is inactive.
    pub fn absorb(&self, other: &XrayRecorder) {
        if !self.is_active() {
            return;
        }
        let Some(mut theirs) = other.inner.lock().expect("xray lock").take() else {
            return;
        };
        other.active.store(false, Ordering::Relaxed);
        let mut guard = self.inner.lock().expect("xray lock");
        let Some(inner) = guard.as_mut() else {
            return;
        };
        inner.engines.append(&mut theirs.engines);
        for (combo, agg) in theirs.stages {
            let merged = inner.stages.entry(combo).or_default();
            merged.lines += agg.lines;
            merged.charged_before += agg.charged_before;
            merged.charged_after += agg.charged_after;
            for (total, delta) in merged.deltas.iter_mut().zip(agg.deltas) {
                *total += delta;
            }
        }
    }

    /// A deterministic, sorted copy of everything recorded so far.
    pub fn snapshot(&self) -> XraySnapshot {
        let guard = self.inner.lock().expect("xray lock");
        let Some(inner) = guard.as_ref() else {
            return XraySnapshot::default();
        };
        XraySnapshot {
            window_cap: inner.window_cap,
            engines: inner
                .engines
                .iter()
                .map(|e| EngineCapture {
                    label: e.label.clone(),
                    policy: e.policy.clone(),
                    num_banks: e.num_banks,
                    ar_sets_per_bank: e.ar_sets_per_bank,
                    window_stride: e.stride,
                    windows: e
                        .ar
                        .iter()
                        .map(|(&(bucket, bank, set), agg)| ArRow {
                            window: bucket * e.stride,
                            bank,
                            set,
                            rows_refreshed: agg.rows_refreshed,
                            rows_skipped: agg.rows_skipped,
                            discharged: agg.discharged,
                        })
                        .collect(),
                    bank_discharged: e
                        .bank_state
                        .iter()
                        .map(|(&(bucket, bank), &rows)| BankStateRow {
                            window: bucket * e.stride,
                            bank,
                            discharged_rows: rows,
                        })
                        .collect(),
                })
                .collect(),
            stages: inner
                .stages
                .iter()
                .map(|(&combo, agg)| StageCapture {
                    combo,
                    lines: agg.lines,
                    charged_before: agg.charged_before,
                    charged_after: agg.charged_after,
                    deltas: agg.deltas,
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let x = XrayRecorder::disabled();
        assert!(!x.is_active());
        assert_eq!(x.announce_engine("e", "charge_aware", 8, 8), 0);
        x.record_ar(0, 0, 0, 0, 10, 2, 2);
        x.record_window_state(0, 0, 0, 5);
        x.record_encode(3, 100, [10, 5, 0, 0], 85);
        let snap = x.snapshot();
        assert!(snap.engines.is_empty());
        assert!(snap.stages.is_empty());
    }

    #[test]
    fn records_and_snapshots_sorted_rows() {
        let x = XrayRecorder::memory_with_cap(16);
        let e = x.announce_engine("fig/gcc", "charge_aware", 2, 4);
        assert_eq!(e, 0);
        // Out-of-order banks within a window still snapshot sorted.
        x.record_ar(e, 0, 1, 0, 8, 0, 0);
        x.record_ar(e, 0, 0, 0, 6, 2, 2);
        x.record_ar(e, 1, 0, 3, 4, 4, 4);
        x.record_window_state(e, 1, 0, 7);
        x.record_encode(1, 64, [16, 0, 0, 0], 48);
        x.record_encode(1, 32, [8, 0, 0, 0], 24);
        let snap = x.snapshot();
        assert_eq!(snap.engines.len(), 1);
        let eng = &snap.engines[0];
        assert_eq!(eng.label, "fig/gcc");
        assert_eq!(eng.window_stride, 1);
        let keys: Vec<(u64, u32, u64)> = eng
            .windows
            .iter()
            .map(|r| (r.window, r.bank, r.set))
            .collect();
        assert_eq!(keys, vec![(0, 0, 0), (0, 1, 0), (1, 0, 3)]);
        assert_eq!(eng.bank_discharged.len(), 1);
        assert_eq!(eng.bank_discharged[0].discharged_rows, 7);
        assert_eq!(snap.stages.len(), 1);
        let stage = &snap.stages[0];
        assert_eq!(stage.lines, 2);
        assert_eq!(stage.charged_before, 96);
        assert_eq!(stage.charged_after, 72);
        assert_eq!(stage.deltas, [24, 0, 0, 0]);
    }

    #[test]
    fn downsampling_bounds_buckets_and_preserves_sums() {
        let cap = 4;
        let x = XrayRecorder::memory_with_cap(cap);
        let e = x.announce_engine("soak", "charge_aware", 1, 1);
        for w in 0..64u64 {
            x.record_ar(e, w, 0, 0, 10, w, 0);
            x.record_window_state(e, w, 0, 100 + w);
        }
        let snap = x.snapshot();
        let eng = &snap.engines[0];
        // 64 windows under a cap of 4 → stride 16, 4 buckets.
        assert_eq!(eng.window_stride, 16);
        assert_eq!(eng.windows.len(), cap as usize);
        let total_refreshed: u64 = eng.windows.iter().map(|r| r.rows_refreshed).sum();
        let total_skipped: u64 = eng.windows.iter().map(|r| r.rows_skipped).sum();
        assert_eq!(total_refreshed, 64 * 10);
        assert_eq!(total_skipped, (0..64).sum::<u64>());
        assert_eq!(
            eng.windows.iter().map(|r| r.window).collect::<Vec<_>>(),
            vec![0, 16, 32, 48]
        );
        // End-of-window state keeps the latest window of each bucket.
        assert_eq!(
            eng.bank_discharged
                .iter()
                .map(|r| r.discharged_rows)
                .collect::<Vec<_>>(),
            vec![115, 131, 147, 163]
        );
    }

    #[test]
    fn absorb_appends_engines_in_submission_order() {
        let parent = XrayRecorder::memory_with_cap(8);
        let p = parent.announce_engine("parent", "conventional", 1, 1);
        parent.record_ar(p, 0, 0, 0, 1, 0, 0);
        parent.record_encode(0, 8, [0, 0, 0, 0], 8);
        for job in 0..2u64 {
            let worker = XrayRecorder::memory_with_cap(8);
            let w = worker.announce_engine(&format!("job{job}"), "charge_aware", 1, 1);
            worker.record_ar(w, 0, 0, 0, job + 1, 0, 0);
            worker.record_encode(0, 8, [2, 0, 0, 0], 6);
            parent.absorb(&worker);
            assert!(!worker.is_active());
        }
        let snap = parent.snapshot();
        let labels: Vec<&str> = snap.engines.iter().map(|e| e.label.as_str()).collect();
        assert_eq!(labels, vec!["parent", "job0", "job1"]);
        assert_eq!(snap.engines[2].windows[0].rows_refreshed, 2);
        assert_eq!(snap.stages.len(), 1);
        assert_eq!(snap.stages[0].lines, 3);
        assert_eq!(snap.stages[0].deltas, [4, 0, 0, 0]);

        // Inactive parents ignore absorbed captures entirely.
        let disabled = XrayRecorder::disabled();
        let worker = XrayRecorder::memory_with_cap(8);
        worker.announce_engine("w", "charge_aware", 1, 1);
        disabled.absorb(&worker);
        assert!(disabled.snapshot().engines.is_empty());
        // ... and leave the worker untouched for a later real parent.
        assert!(worker.is_active());
    }

    #[test]
    fn current_defaults_to_global_and_is_thread_local() {
        assert!(Arc::ptr_eq(
            &XrayRecorder::current(),
            XrayRecorder::global()
        ));
        let x = Arc::new(XrayRecorder::memory_with_cap(4));
        let _guard = XrayRecorder::push_current(Arc::clone(&x));
        assert!(Arc::ptr_eq(&XrayRecorder::current(), &x));
        std::thread::scope(|s| {
            s.spawn(|| {
                assert!(Arc::ptr_eq(
                    &XrayRecorder::current(),
                    XrayRecorder::global()
                ));
            });
        });
    }

    #[test]
    fn snapshot_json_round_trips() {
        let x = XrayRecorder::memory_with_cap(8);
        let e = x.announce_engine("fig14/mcf", "charge_aware", 2, 2);
        x.record_ar(e, 0, 0, 1, 12, 4, 4);
        x.record_window_state(e, 0, 0, 9);
        x.record_encode(5, 512, [100, 0, 28, 0], 384);
        let snap = x.snapshot();
        let text = snap.to_json().to_pretty();
        let back = XraySnapshot::from_json(&zr_types::json::Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, snap);
    }
}
