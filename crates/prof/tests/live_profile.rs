//! End-to-end: install the global profiler, drive nested telemetry
//! spans, and check the resulting profile exposes the nesting.
//!
//! This test owns the process-wide span observer (first install wins),
//! so it lives alone in its own integration-test binary.

use zr_prof::Profiler;
use zr_telemetry::Telemetry;

#[test]
fn live_spans_produce_nested_profile_paths() {
    let profiler = Profiler::install_global();
    let telemetry = Telemetry::global();
    assert!(telemetry.is_active(), "install_global must activate spans");

    for _ in 0..3 {
        let _window = telemetry.span("refresh.window");
        {
            let _write = telemetry.span("memctrl.write");
            let _encode = telemetry.span("transform.encode");
            std::hint::black_box(vec![0u8; 64]);
        }
        let _read = telemetry.span("memctrl.read");
    }

    let profile = profiler.snapshot();
    assert!(!profile.is_empty());
    let paths: Vec<&str> = profile.nodes.iter().map(|n| n.path.as_str()).collect();
    assert!(paths.contains(&"refresh.window"), "{paths:?}");
    assert!(paths.contains(&"refresh.window;memctrl.write"), "{paths:?}");
    assert!(
        paths.contains(&"refresh.window;memctrl.write;transform.encode"),
        "{paths:?}"
    );
    assert!(paths.contains(&"refresh.window;memctrl.read"), "{paths:?}");

    for node in &profile.nodes {
        assert_eq!(node.calls, 3, "{}", node.path);
        assert!(node.wall_ns > 0, "{} has zero wall time", node.path);
    }

    // The vec![0u8; 64] under transform.encode is counted (and
    // attributed to every enclosing scope, since totals are inclusive).
    let encode = profile
        .nodes
        .iter()
        .find(|n| n.path.ends_with("transform.encode"))
        .unwrap();
    assert!(encode.allocs >= 3, "{encode:?}");
    assert!(encode.alloc_bytes >= 3 * 64, "{encode:?}");
    let window = profile
        .nodes
        .iter()
        .find(|n| n.path == "refresh.window")
        .unwrap();
    assert!(window.allocs >= encode.allocs, "totals are inclusive");

    let folded = profile.to_folded();
    assert!(!folded.is_empty());
    assert!(
        folded.contains("refresh.window;memctrl.write;transform.encode "),
        "{folded}"
    );

    // Spans re-entered after a snapshot keep accumulating.
    {
        let _w = telemetry.span("refresh.window");
    }
    let later = profiler.snapshot();
    let window = later
        .nodes
        .iter()
        .find(|n| n.path == "refresh.window")
        .unwrap();
    assert_eq!(window.calls, 4);
}
