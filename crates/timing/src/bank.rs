//! Per-bank timing state: row-buffer tracking and refresh windows.

use crate::params::DerivedTiming;
use zr_types::geometry::RowIndex;

/// Outcome class of one access at the bank level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// The addressed row was open: column access only.
    RowHit,
    /// The bank was idle/precharged: activate + column access.
    RowClosed,
    /// A different row was open: precharge + activate + column access.
    RowConflict,
}

/// Timing state of one bank.
///
/// Refresh is periodic: this bank's auto-refresh command `k` begins at
/// `phase + k * tREFI` and occupies the bank for a caller-supplied
/// duration (the skip-aware part). Refresh closes the open row.
#[derive(Debug, Clone)]
pub struct BankTiming {
    /// Bank is busy (with a prior access) until this time.
    ready_at_ns: f64,
    /// The currently open row, if any.
    open_row: Option<RowIndex>,
    /// Phase offset of this bank's refresh schedule (banks are staggered).
    refresh_phase_ns: f64,
    /// Counters.
    hits: u64,
    closed: u64,
    conflicts: u64,
    refresh_waits: u64,
    refresh_wait_ns: f64,
}

impl BankTiming {
    /// Creates an idle bank whose refresh schedule starts at `phase_ns`.
    pub fn new(phase_ns: f64) -> Self {
        BankTiming {
            ready_at_ns: 0.0,
            open_row: None,
            refresh_phase_ns: phase_ns,
            hits: 0,
            closed: 0,
            conflicts: 0,
            refresh_waits: 0,
            refresh_wait_ns: 0.0,
        }
    }

    /// (hits, closed, conflicts) counters.
    pub fn access_counts(&self) -> (u64, u64, u64) {
        (self.hits, self.closed, self.conflicts)
    }

    /// (requests stalled by refresh, total nanoseconds of refresh wait).
    pub fn refresh_wait(&self) -> (u64, f64) {
        (self.refresh_waits, self.refresh_wait_ns)
    }

    /// Index of the last refresh command that *began* at or before `t`.
    fn refresh_index_before(&self, t_ns: f64, timing: &DerivedTiming) -> Option<u64> {
        let rel = t_ns - self.refresh_phase_ns;
        if rel < 0.0 {
            None
        } else {
            Some((rel / timing.t_refi_ns) as u64)
        }
    }

    /// Serves one access to `row` arriving at `arrival_ns`.
    ///
    /// Returns `(finish_time_ns, kind)`. `busy_of` maps a refresh command
    /// index to its busy duration (skip-aware refresh shortens it). The
    /// refresh index of the start time is computed once and answers both
    /// questions a request asks of the schedule: did a refresh begin
    /// since this bank was last busy (it closed the row), and is one still
    /// in progress (wait it out).
    pub fn serve(
        &mut self,
        row: RowIndex,
        arrival_ns: f64,
        timing: &DerivedTiming,
        mut busy_of: impl FnMut(u64) -> f64,
    ) -> (f64, AccessKind) {
        let mut start = arrival_ns.max(self.ready_at_ns);
        let current = self.refresh_index_before(start, timing);
        // A refresh between our last activity and now closed the row.
        let since = self.refresh_index_before(self.ready_at_ns.min(start), timing);
        if index_or_minus_one(current) > index_or_minus_one(since) {
            self.open_row = None;
        }
        // Wait out an in-progress refresh window.
        if let Some(k) = current {
            let began = self.refresh_phase_ns + k as f64 * timing.t_refi_ns;
            let end = began + busy_of(k).clamp(0.0, timing.t_refi_ns);
            if start < end {
                self.refresh_waits += 1;
                self.refresh_wait_ns += end - start;
                start = end;
                self.open_row = None;
            }
        }
        let (service, kind) = match self.open_row {
            Some(open) if open == row => (timing.hit_service_ns(), AccessKind::RowHit),
            Some(_) => (timing.conflict_service_ns(), AccessKind::RowConflict),
            None => (timing.closed_service_ns(), AccessKind::RowClosed),
        };
        match kind {
            AccessKind::RowHit => self.hits += 1,
            AccessKind::RowClosed => self.closed += 1,
            AccessKind::RowConflict => self.conflicts += 1,
        }
        let finish = start + service;
        self.ready_at_ns = finish;
        self.open_row = Some(row);
        (finish, kind)
    }
}

/// A refresh index as the row-closing test compares it: "no refresh
/// yet" orders before every command, as `-1`.
fn index_or_minus_one(k: Option<u64>) -> i64 {
    k.map(|k| k as i64).unwrap_or(-1)
}

/// The request path before the refresh index was computed once per
/// request, kept as the reference the unit tests compare against: one
/// index computation for the row-closing test and another for the
/// in-progress wait, and the busy-time closure behind `&mut dyn`.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    impl BankTiming {
        /// If `t` falls inside a refresh busy window, returns the
        /// window's end.
        fn refresh_block_end(
            &self,
            t_ns: f64,
            timing: &DerivedTiming,
            busy_of: &mut dyn FnMut(u64) -> f64,
        ) -> Option<f64> {
            let k = self.refresh_index_before(t_ns, timing)?;
            let start = self.refresh_phase_ns + k as f64 * timing.t_refi_ns;
            let end = start + busy_of(k).clamp(0.0, timing.t_refi_ns);
            (t_ns < end).then_some(end)
        }

        /// Whether any refresh began in `(from, to]`.
        fn refresh_began_between(&self, from_ns: f64, to_ns: f64, timing: &DerivedTiming) -> bool {
            let a = self
                .refresh_index_before(from_ns, timing)
                .map(|k| k as i64)
                .unwrap_or(-1);
            let b = self
                .refresh_index_before(to_ns, timing)
                .map(|k| k as i64)
                .unwrap_or(-1);
            b > a
        }

        /// [`BankTiming::serve`] as it was.
        pub(crate) fn serve_reference(
            &mut self,
            row: RowIndex,
            arrival_ns: f64,
            timing: &DerivedTiming,
            busy_of: &mut dyn FnMut(u64) -> f64,
        ) -> (f64, AccessKind) {
            let mut start = arrival_ns.max(self.ready_at_ns);
            if self.refresh_began_between(self.ready_at_ns.min(start), start, timing) {
                self.open_row = None;
            }
            if let Some(end) = self.refresh_block_end(start, timing, busy_of) {
                self.refresh_waits += 1;
                self.refresh_wait_ns += end - start;
                start = end;
                self.open_row = None;
            }
            let (service, kind) = match self.open_row {
                Some(open) if open == row => (timing.hit_service_ns(), AccessKind::RowHit),
                Some(_) => (timing.conflict_service_ns(), AccessKind::RowConflict),
                None => (timing.closed_service_ns(), AccessKind::RowClosed),
            };
            match kind {
                AccessKind::RowHit => self.hits += 1,
                AccessKind::RowClosed => self.closed += 1,
                AccessKind::RowConflict => self.conflicts += 1,
            }
            let finish = start + service;
            self.ready_at_ns = finish;
            self.open_row = Some(row);
            (finish, kind)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zr_types::SystemConfig;

    fn timing() -> DerivedTiming {
        DerivedTiming::new(&SystemConfig::paper_default()).unwrap()
    }

    fn full(_: u64) -> f64 {
        28.0
    }

    #[test]
    fn first_access_is_closed_then_hits() {
        let t = timing();
        let mut b = BankTiming::new(f64::MAX / 4.0); // refresh far away
        let (f1, k1) = b.serve(RowIndex(3), 0.0, &t, &mut full);
        assert_eq!(k1, AccessKind::RowClosed);
        assert!((f1 - t.closed_service_ns()).abs() < 1e-9);
        let (f2, k2) = b.serve(RowIndex(3), f1, &t, &mut full);
        assert_eq!(k2, AccessKind::RowHit);
        assert!((f2 - f1 - t.hit_service_ns()).abs() < 1e-9);
        let (_, k3) = b.serve(RowIndex(4), f2, &t, &mut full);
        assert_eq!(k3, AccessKind::RowConflict);
        assert_eq!(b.access_counts(), (1, 1, 1));
    }

    #[test]
    fn requests_queue_behind_each_other() {
        let t = timing();
        let mut b = BankTiming::new(f64::MAX / 4.0);
        let (f1, _) = b.serve(RowIndex(1), 0.0, &t, &mut full);
        // Second request arrives while the first is in flight.
        let (f2, _) = b.serve(RowIndex(1), 1.0, &t, &mut full);
        assert!((f2 - f1 - t.hit_service_ns()).abs() < 1e-9);
    }

    #[test]
    fn refresh_window_blocks_and_closes_row() {
        let t = timing();
        // Refresh at time 0, busy 28 ns.
        let mut b = BankTiming::new(0.0);
        let (f, k) = b.serve(RowIndex(1), 10.0, &t, &mut full);
        // Blocked until 28, then a closed access.
        assert_eq!(k, AccessKind::RowClosed);
        assert!((f - (28.0 + t.closed_service_ns())).abs() < 1e-9);
        let (waits, wait_ns) = b.refresh_wait();
        assert_eq!(waits, 1);
        assert!((wait_ns - 18.0).abs() < 1e-9);
    }

    #[test]
    fn skipped_refresh_blocks_less() {
        let t = timing();
        let mut skip = |_: u64| 5.0; // fully skipped AR
        let mut b = BankTiming::new(0.0);
        let (f, _) = b.serve(RowIndex(1), 1.0, &t, &mut skip);
        assert!((f - (5.0 + t.closed_service_ns())).abs() < 1e-9);
    }

    #[test]
    fn refresh_between_accesses_invalidates_row_buffer() {
        let t = timing();
        let mut b = BankTiming::new(100.0); // refreshes at 100, 100+tREFI, ...
        let (f1, _) = b.serve(RowIndex(7), 0.0, &t, &mut full);
        assert!(f1 < 100.0);
        // Next access long after the refresh at t=100: row was closed.
        let (_, k) = b.serve(RowIndex(7), 200.0, &t, &mut full);
        assert_eq!(k, AccessKind::RowClosed);
    }

    #[test]
    fn no_refresh_before_phase() {
        let t = timing();
        let mut b = BankTiming::new(1000.0);
        // At t=0 no refresh exists yet; the access must not block.
        let (f, _) = b.serve(RowIndex(0), 0.0, &t, &mut full);
        assert!((f - t.closed_service_ns()).abs() < 1e-9);
    }
}
