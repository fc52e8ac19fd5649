//! Hard allocation budget for the steady-state sweep loop.
//!
//! After one warm-up window has grown the controller's scratch and the
//! rank's row stores to their steady-state footprint, a full window of
//! writes plus the refresh sweep must not allocate at all: the scratch
//! is reset-not-freed between lines, row stores are reused in place, and
//! the refresh engine loops over packed bitmap words. This pins the
//! `<0.1 allocs per chip-row` contract of the packed-bitplane refactor
//! at its strictest point (exactly zero in steady state), mirroring
//! `xray_alloc_free.rs` for the full controller write path.
//!
//! The read path is pinned the same way: after warm-up, a read allocates
//! exactly its returned copy and decode allocates nothing.
//!
//! Runs in its own process so no process-wide observers interfere with
//! the measurement.

use zr_dram::RefreshPolicy;
use zr_memctrl::MemoryController;
use zr_prof::alloc::{AllocScope, AllocStats};
use zr_types::geometry::LineAddr;
use zr_types::SystemConfig;

/// Deterministic line content for write `i`: dense enough to charge
/// rows (non-zero bytes) and varied enough to exercise the transform.
fn line_for(i: u64) -> [u8; 64] {
    let mut line = [0u8; 64];
    for (j, b) in line.iter_mut().enumerate() {
        *b = (i as u8)
            .wrapping_mul(31)
            .wrapping_add(j as u8)
            .wrapping_mul(17)
            .wrapping_add(1);
    }
    line
}

#[test]
fn steady_state_window_is_allocation_free() {
    let cfg = SystemConfig::small_test();
    let mut ctrl = MemoryController::new(&cfg, RefreshPolicy::ChargeAware).unwrap();
    let lines = 256u64;

    // Warm-up window: grows the controller scratch, inserts the row stores,
    // and runs one refresh sweep (scan-path one-time state).
    for i in 0..lines {
        ctrl.write_line(LineAddr(i), &line_for(i)).unwrap();
    }
    ctrl.run_refresh_window();
    ctrl.run_refresh_window();

    // Steady state: the same footprint rewritten with fresh content,
    // then swept. Budget: zero allocations for the whole window.
    let scope = AllocScope::begin();
    for i in 0..lines {
        ctrl.write_line(LineAddr(i), &line_for(i + 1)).unwrap();
    }
    ctrl.run_refresh_window();
    assert_eq!(
        scope.delta(),
        AllocStats::default(),
        "steady-state sweep window allocated after scratch warm-up"
    );
}

#[test]
fn warm_reads_allocate_only_the_returned_copy() {
    let cfg = SystemConfig::small_test();
    let mut ctrl = MemoryController::new(&cfg, RefreshPolicy::ChargeAware).unwrap();
    let lines = 256u64;
    for i in 0..lines {
        ctrl.write_line(LineAddr(i), &line_for(i)).unwrap();
    }
    // Warm-up reads grow the controller's line and decode scratch to
    // their read-path footprint.
    for i in 0..lines {
        ctrl.read_line(LineAddr(i)).unwrap();
    }

    // Steady state: each read allocates its returned copy and nothing
    // else — decode runs entirely in the controller's scratch.
    let scope = AllocScope::begin();
    for i in 0..lines {
        let line = ctrl.read_line(LineAddr(i)).unwrap();
        assert!(line == line_for(i), "read {i} returned other data");
    }
    assert_eq!(
        scope.delta(),
        AllocStats {
            allocs: lines,
            bytes: lines * cfg.line.line_bytes as u64,
        },
        "warm reads allocated beyond one returned line copy each"
    );
}

#[test]
fn cold_writes_do_allocate_so_the_probe_is_live() {
    // Sanity check on the measurement: the same loop against *fresh*
    // rows must allocate (row stores are created on first touch), so a
    // budget regression above would be caught.
    let cfg = SystemConfig::small_test();
    let mut ctrl = MemoryController::new(&cfg, RefreshPolicy::ChargeAware).unwrap();

    let scope = AllocScope::begin();
    for i in 0..64u64 {
        ctrl.write_line(LineAddr(i), &line_for(i)).unwrap();
    }
    assert_ne!(
        scope.delta(),
        AllocStats::default(),
        "cold population recorded no allocations — the probe is not measuring the write path"
    );
}

#[test]
fn a_row_store_costs_one_allocation_and_copies_once_when_shared() {
    use zr_dram::DramRank;
    use zr_types::geometry::{BankId, RowIndex};

    let cfg = SystemConfig::small_test();
    let mut rank = DramRank::new(&cfg).unwrap();
    let line = [0xA5u8; 64];
    // The first write also sizes the bank's row map.
    rank.write_encoded_line(BankId(0), RowIndex(0), 0, &line)
        .unwrap();

    // A new resident row: its whole image in one buffer.
    let scope = AllocScope::begin();
    rank.write_encoded_line(BankId(0), RowIndex(1), 0, &line)
        .unwrap();
    assert_eq!(scope.delta().allocs, 1, "a new row store is one allocation");

    // A clone shares the row; the first write after it copies the row
    // once, and later writes find it private again.
    let shared = rank.clone();
    let scope = AllocScope::begin();
    for slot in 1..4 {
        rank.write_encoded_line(BankId(0), RowIndex(1), slot, &line)
            .unwrap();
    }
    assert_eq!(scope.delta().allocs, 1, "a shared row is copied once");
    assert_eq!(
        shared.read_encoded_line(BankId(0), RowIndex(1), 1).unwrap(),
        vec![0u8; 64],
        "the write leaked into the clone"
    );
}
