//! Per-bank timing state: row-buffer tracking and refresh windows.
//!
//! A request asks two questions of its bank's refresh schedule: did a
//! command begin since the bank was last busy (it closed the open row),
//! and is one still in progress (wait it out). Both depend on the index
//! of the command a time falls in, `(t − phase) / tREFI` rounded down.
//! The times a bank asks about never decrease: its ready time, then a
//! start no earlier than that, then, as the next ready time, a finish no
//! earlier than the start. A correctly rounded quotient is monotone in
//! `t`, so each bank keeps the index of the command its latest query fell
//! in, the end of that command's busy window, and a bound below which the
//! index cannot have changed. A query divides only when it reaches the
//! bound, that is when the bank may have entered a new command.
//!
//! The bound is `(k + 1)·tREFI` shrunk by 2⁻⁵⁰. Below it the exact
//! quotient is below `(k + 1)·(1 − 2⁻⁵¹)`, which is more than half an
//! ulp under `k + 1`, so the rounded quotient stays below `k + 1` even
//! with the bound's own two roundings.

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

/// `1 − 2⁻⁵⁰`: shrinks a command boundary to a bound the rounded
/// quotient cannot reach (see the module docs).
const BELOW_BOUNDARY: f64 = 1.0 - 1.0 / (1u64 << 50) as f64;

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
    /// Index of the refresh command the latest query fell in, as the
    /// row-closing test compares it: `-1` before the first command.
    command: i64,
    /// Times whose offset from the phase is below this still fall in
    /// `command`.
    command_until_rel_ns: f64,
    /// End of `command`'s busy window (`-∞` before the first command).
    command_busy_end_ns: f64,
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
            command: -1,
            command_until_rel_ns: 0.0,
            command_busy_end_ns: f64::NEG_INFINITY,
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

    /// The index of the last refresh command that began at or before
    /// `t_ns` (`-1` before the first), from the cache while `t_ns` stays
    /// below its bound. Queries must not decrease.
    #[inline]
    fn command_at(
        &mut self,
        t_ns: f64,
        timing: &DerivedTiming,
        busy_of: &mut impl FnMut(u64) -> f64,
    ) -> i64 {
        let rel = t_ns - self.refresh_phase_ns;
        if rel < self.command_until_rel_ns {
            return self.command;
        }
        self.enter_command(rel, timing, busy_of);
        self.command
    }

    /// Refills the cache with the command `rel` falls in: one division.
    /// The bound is never negative, so `rel` is not either.
    fn enter_command(
        &mut self,
        rel: f64,
        timing: &DerivedTiming,
        busy_of: &mut impl FnMut(u64) -> f64,
    ) {
        let k = (rel / timing.t_refi_ns) as u64;
        let began = self.refresh_phase_ns + k as f64 * timing.t_refi_ns;
        self.command = k as i64;
        self.command_until_rel_ns = (k as f64 + 1.0) * timing.t_refi_ns * BELOW_BOUNDARY;
        self.command_busy_end_ns = began + busy_of(k).clamp(0.0, timing.t_refi_ns);
    }

    /// Serves one access to `row` arriving at `arrival_ns`.
    ///
    /// Returns `(finish_time_ns, kind)`. `busy_of` maps a refresh command
    /// index to its busy duration (skip-aware refresh shortens it); it
    /// must be a function of the index, as it is asked once per command
    /// the bank enters, not once per request.
    pub fn serve(
        &mut self,
        row: RowIndex,
        arrival_ns: f64,
        timing: &DerivedTiming,
        mut busy_of: impl FnMut(u64) -> f64,
    ) -> (f64, AccessKind) {
        let mut start = arrival_ns.max(self.ready_at_ns);
        // A refresh between our last activity and now closed the row.
        let since = self.command_at(self.ready_at_ns, timing, &mut busy_of);
        if self.command_at(start, timing, &mut busy_of) > since {
            self.open_row = None;
        }
        // Wait out an in-progress refresh window.
        let end = self.command_busy_end_ns;
        if start < end {
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
        // The next request's first query is this finish: the cache holds
        // only while a bank's query times never decrease.
        debug_assert!(
            finish >= start,
            "bank query time decreased from {start} ns to {finish} ns"
        );
        self.ready_at_ns = finish;
        self.open_row = Some(row);
        (finish, kind)
    }
}

/// The request path before the refresh index was cached, kept as the
/// reference the unit tests compare against: the index of the ready
/// time and of the start computed by division on every request, and the
/// busy-time closure behind `&mut dyn`.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    /// A refresh index as the row-closing test compares it: "no refresh
    /// yet" orders before every command, as `-1`.
    fn index_or_minus_one(k: Option<u64>) -> i64 {
        k.map(|k| k as i64).unwrap_or(-1)
    }

    impl BankTiming {
        /// Index of the last refresh command that *began* at or before `t`.
        fn refresh_index_before(&self, t_ns: f64, timing: &DerivedTiming) -> Option<u64> {
            let rel = t_ns - self.refresh_phase_ns;
            if rel < 0.0 {
                None
            } else {
                Some((rel / timing.t_refi_ns) as u64)
            }
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
            let current = self.refresh_index_before(start, timing);
            let since = self.refresh_index_before(self.ready_at_ns.min(start), timing);
            if index_or_minus_one(current) > index_or_minus_one(since) {
                self.open_row = None;
            }
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
