//! Regression test for the charge-domain xray hooks: with the capture
//! off (the default), the refresh hot loop must not gain a single
//! allocation. The inactive path of every `XrayRecorder` hook is one
//! relaxed atomic load; this pins that contract with the counting
//! allocator, mirroring `span_alloc_free.rs` for telemetry spans.
//!
//! Runs in its own process so no process-wide observers interfere with
//! the measurement.

use std::sync::Arc;

use zr_dram::{DramRank, RefreshEngine, RefreshPolicy};
use zr_prof::alloc::{AllocScope, AllocStats};
use zr_types::SystemConfig;
use zr_xray::XrayRecorder;

/// A charge-aware engine built with `xray` as its current recorder.
fn engine_on(xray: &Arc<XrayRecorder>, cfg: &SystemConfig) -> RefreshEngine {
    let _xray = XrayRecorder::push_current(Arc::clone(xray));
    RefreshEngine::new(cfg, RefreshPolicy::ChargeAware).unwrap()
}

#[test]
fn refresh_hot_loop_with_xray_off_is_allocation_free() {
    let cfg = SystemConfig::small_test();
    let mut rank = DramRank::new(&cfg).unwrap();
    // Bind an explicitly disabled recorder — the same object shape the
    // hooks see when `ZR_XRAY` is unset.
    let xray = Arc::new(XrayRecorder::disabled());
    let mut eng = engine_on(&xray, &cfg);
    assert!(!xray.is_active());

    // Warm up: the first windows pay one-time costs (scan-path state,
    // TLS registration) that are outside the steady-state hot loop.
    for _ in 0..2 {
        eng.run_window(&mut rank);
    }

    let scope = AllocScope::begin();
    for _ in 0..8 {
        eng.run_window(&mut rank);
    }
    assert_eq!(
        scope.delta(),
        AllocStats::default(),
        "refresh hot loop allocated with the xray capture off"
    );
}

#[test]
fn active_recorder_hooks_do_allocate_so_the_probe_is_live() {
    // Sanity check on the measurement itself: the same loop with an
    // *active* recorder must allocate (columnar buffers grow), proving
    // the counting allocator would catch a regression above.
    let cfg = SystemConfig::small_test();
    let mut rank = DramRank::new(&cfg).unwrap();
    let xray = Arc::new(XrayRecorder::memory_with_cap(16));
    let mut eng = engine_on(&xray, &cfg);

    let scope = AllocScope::begin();
    eng.run_window(&mut rank);
    assert_ne!(
        scope.delta(),
        AllocStats::default(),
        "active xray capture recorded nothing — the alloc probe is not measuring the hot loop"
    );
}
