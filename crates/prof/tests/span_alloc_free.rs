//! Regression test for the span hot path: an inactive
//! `Telemetry::span` must be allocation-free, and an active span whose
//! histogram is already cached must be too (the old code formatted
//! `span.<name>` on every call).
//!
//! Runs in its own process so no span observer is installed — observer
//! bookkeeping is deliberately outside the "span hot path" being
//! measured here.

use zr_prof::alloc::{AllocScope, AllocStats};
use zr_telemetry::Telemetry;

#[test]
fn inactive_span_hot_path_is_allocation_free() {
    let telemetry = Telemetry::new();
    assert!(!telemetry.is_active());

    // Warm up thread-local machinery (TLS registration may allocate
    // once per thread).
    for _ in 0..4 {
        let _span = telemetry.span("refresh.window");
    }

    let scope = AllocScope::begin();
    for _ in 0..1_000 {
        let _span = telemetry.span("refresh.window");
    }
    assert_eq!(
        scope.delta(),
        AllocStats::default(),
        "inactive Telemetry::span allocated on the hot path"
    );
}

#[test]
fn warm_active_span_is_allocation_free() {
    let telemetry = Telemetry::new();
    telemetry.activate();

    // First use per name pays once: histogram registration plus the
    // span-stack TLS. Everything after must be free.
    for _ in 0..4 {
        let _outer = telemetry.span("memctrl.write");
        let _inner = telemetry.span("transform.encode");
    }

    let scope = AllocScope::begin();
    for _ in 0..1_000 {
        let _outer = telemetry.span("memctrl.write");
        let _inner = telemetry.span("transform.encode");
    }
    assert_eq!(
        scope.delta(),
        AllocStats::default(),
        "warm active Telemetry::span allocated on the hot path"
    );
}
