//! Offline trace analysis: summaries for `inspect` and trace alignment
//! for `diff`.

use std::collections::BTreeMap;

use crate::record::{EngineMeta, RecordKind, TraceRecord};
use zr_telemetry::{fraction_bounds, Histogram, HistogramSnapshot};
use zr_types::{Error, Result};

/// Filter for `inspect` dumps: a record passes when every set field
/// matches.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecordFilter {
    /// Keep only this bank.
    pub bank: Option<u32>,
    /// Keep only records whose `a` payload (row / AR set) equals this.
    pub row: Option<u64>,
    /// Keep only this kind.
    pub kind: Option<RecordKind>,
    /// Keep only records from this retention window (bounded by the
    /// engine's `WindowStart`/`WindowEnd` markers).
    pub window: Option<u64>,
}

impl RecordFilter {
    /// Whether any field is set.
    pub fn is_some(&self) -> bool {
        self.bank.is_some() || self.row.is_some() || self.kind.is_some() || self.window.is_some()
    }

    fn matches(&self, rec: &TraceRecord, window: u64) -> bool {
        self.bank.is_none_or(|b| rec.bank == b)
            && self.row.is_none_or(|r| rec.a == r)
            && self.kind.is_none_or(|k| rec.kind == k)
            && self.window.is_none_or(|w| window == w)
    }
}

/// Selects the records passing `filter`, with their indices. The window
/// coordinate of a record is the index of the most recent `WindowStart`
/// seen before it (0 before any window opens).
pub fn filter_records<'a>(
    records: &'a [TraceRecord],
    filter: &RecordFilter,
) -> Vec<(usize, &'a TraceRecord)> {
    let mut window = 0u64;
    let mut out = Vec::new();
    for (i, rec) in records.iter().enumerate() {
        if rec.kind == RecordKind::WindowStart {
            window = rec.a;
        }
        if filter.matches(rec, window) {
            out.push((i, rec));
        }
    }
    out
}

/// Aggregate summary of one trace, as printed by `zr-trace inspect`.
#[derive(Debug, Clone)]
pub struct TraceSummary {
    /// Total records.
    pub records: u64,
    /// Record counts by kind name.
    pub by_kind: BTreeMap<&'static str, u64>,
    /// Engines registered in the trace.
    pub engines: Vec<EngineMeta>,
    /// Retention windows completed (max `WindowEnd` index + 1).
    pub windows: u64,
    /// Chip-row refreshes performed across all REF records.
    pub rows_refreshed: u64,
    /// Chip-row refreshes skipped across all REF records.
    pub rows_skipped: u64,
    /// Per-bank (refreshed, skipped) totals.
    pub per_bank: BTreeMap<u32, (u64, u64)>,
    /// Distribution of per-window skip fractions (from `WindowEnd`
    /// records), for percentile reporting.
    pub window_skip_fraction: HistogramSnapshot,
}

impl TraceSummary {
    /// Overall fraction of chip-row refreshes skipped.
    pub fn skip_fraction(&self) -> f64 {
        let total = u128::from(self.rows_refreshed) + u128::from(self.rows_skipped);
        if total == 0 {
            0.0
        } else {
            self.rows_skipped as f64 / total as f64
        }
    }
}

/// Builds the [`TraceSummary`] of a record stream.
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] naming the record and the field
/// when a field of a corrupt trace overflows a count: a window index of
/// `u64::MAX`, or row counts whose total passes `u64::MAX`.
pub fn summarize(records: &[TraceRecord]) -> Result<TraceSummary> {
    let mut by_kind: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut engines = Vec::new();
    let mut windows = 0u64;
    let (mut refreshed, mut skipped) = (0u64, 0u64);
    let mut per_bank: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    let skip_hist = Histogram::detached(&fraction_bounds());
    for (index, rec) in records.iter().enumerate() {
        let overflow = |field: &str, value: u64, what: &str| {
            Error::invalid_config(format!(
                "record {index} ({}): field {field} = {value} overflows the {what}",
                rec.kind.name()
            ))
        };
        *by_kind.entry(rec.kind.name()).or_default() += 1;
        match rec.kind {
            RecordKind::Meta => {
                if let Some(meta) = EngineMeta::from_record(rec) {
                    if !engines.contains(&meta) {
                        engines.push(meta);
                    }
                }
            }
            RecordKind::WindowEnd => {
                let completed = rec
                    .a
                    .checked_add(1)
                    .ok_or_else(|| overflow("a", rec.a, "window count"))?;
                windows = windows.max(completed);
                let total = u128::from(rec.b) + u128::from(rec.c);
                if total > 0 {
                    skip_hist.observe(rec.c as f64 / total as f64);
                }
            }
            RecordKind::RefIssue | RecordKind::RefSkip => {
                let rows_skipped = rec.c * (rec.kind == RecordKind::RefSkip) as u64;
                refreshed = refreshed
                    .checked_add(rec.b)
                    .ok_or_else(|| overflow("b", rec.b, "refreshed-row total"))?;
                skipped = skipped
                    .checked_add(rows_skipped)
                    .ok_or_else(|| overflow("c", rec.c, "skipped-row total"))?;
                // A bank's totals are parts of the two above.
                let entry = per_bank.entry(rec.bank).or_default();
                entry.0 += rec.b;
                entry.1 += rows_skipped;
            }
            _ => {}
        }
    }
    Ok(TraceSummary {
        records: records.len() as u64,
        by_kind,
        engines,
        windows,
        rows_refreshed: refreshed,
        rows_skipped: skipped,
        per_bank,
        window_skip_fraction: skip_hist.snapshot(),
    })
}

/// One aligned difference between two traces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffEntry {
    /// Position in the (filtered) command stream.
    pub position: usize,
    /// The left trace's record at that position, if any.
    pub left: Option<TraceRecord>,
    /// The right trace's record at that position, if any.
    pub right: Option<TraceRecord>,
}

/// Result of aligning two traces.
#[derive(Debug, Clone, Default)]
pub struct TraceDiff {
    /// Command records compared (the shorter stream's length).
    pub compared: usize,
    /// Left stream's command count.
    pub left_commands: usize,
    /// Right stream's command count.
    pub right_commands: usize,
    /// First differing positions (capped at [`TraceDiff::MAX_ENTRIES`]).
    pub entries: Vec<DiffEntry>,
    /// Total differing positions, including beyond the cap and the
    /// length mismatch.
    pub total_differences: usize,
}

impl TraceDiff {
    /// Differences retained in [`TraceDiff::entries`].
    pub const MAX_ENTRIES: usize = 20;

    /// Whether the command streams are identical.
    pub fn is_identical(&self) -> bool {
        self.total_differences == 0
    }
}

/// Aligns the command streams (ACT/RD/WR/PRE/REF records, compared
/// position by position on kind/bank/payload — timestamps and source ids
/// are ignored so that e.g. a ChargeAware and a Conventional run of the
/// same workload diff on *decisions*, not wall-clock noise).
pub fn diff_traces(left: &[TraceRecord], right: &[TraceRecord]) -> TraceDiff {
    let l: Vec<&TraceRecord> = left.iter().filter(|r| r.is_command()).collect();
    let r: Vec<&TraceRecord> = right.iter().filter(|r| r.is_command()).collect();
    let mut diff = TraceDiff {
        compared: l.len().min(r.len()),
        left_commands: l.len(),
        right_commands: r.len(),
        ..TraceDiff::default()
    };
    for i in 0..diff.compared {
        if !commands_equal(l[i], r[i]) {
            diff.total_differences += 1;
            if diff.entries.len() < TraceDiff::MAX_ENTRIES {
                diff.entries.push(DiffEntry {
                    position: i,
                    left: Some(*l[i]),
                    right: Some(*r[i]),
                });
            }
        }
    }
    let longer = l.len().max(r.len());
    if longer > diff.compared {
        diff.total_differences += longer - diff.compared;
        if diff.entries.len() < TraceDiff::MAX_ENTRIES {
            let i = diff.compared;
            diff.entries.push(DiffEntry {
                position: i,
                left: l.get(i).map(|r| **r),
                right: r.get(i).map(|r| **r),
            });
        }
    }
    diff
}

/// Command equality for diffing: kind, bank and decision payloads; for
/// timing kinds the row only (timestamps differ run to run).
fn commands_equal(a: &TraceRecord, b: &TraceRecord) -> bool {
    if a.kind != b.kind || a.bank != b.bank || a.a != b.a {
        return false;
    }
    match a.kind {
        RecordKind::RefIssue | RecordKind::RefSkip => {
            a.flags == b.flags && a.b == b.b && a.c == b.c
        }
        _ => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{FLAG_TRUSTED, POLICY_CHARGE_AWARE};

    fn ref_skip(bank: u32, set: u64, skipped: u64) -> TraceRecord {
        let mut r = TraceRecord::new(RecordKind::RefSkip, 0);
        r.flags = FLAG_TRUSTED;
        r.bank = bank;
        r.a = set;
        r.c = skipped;
        r
    }

    fn window_end(idx: u64, refreshed: u64, skipped: u64) -> TraceRecord {
        let mut r = TraceRecord::new(RecordKind::WindowEnd, 0);
        r.a = idx;
        r.b = refreshed;
        r.c = skipped;
        r
    }

    #[test]
    fn summary_counts_kinds_windows_and_banks() {
        let meta = EngineMeta {
            engine: 0,
            policy: POLICY_CHARGE_AWARE,
            num_banks: 2,
            num_chips: 2,
            ar_rows: 1,
            ar_sets_per_bank: 4,
        };
        let records = vec![
            meta.to_record(),
            ref_skip(0, 0, 2),
            ref_skip(1, 0, 1),
            window_end(0, 1, 3),
            window_end(1, 0, 4),
        ];
        let s = summarize(&records).unwrap();
        assert_eq!(s.records, 5);
        assert_eq!(s.by_kind["ref_skip"], 2);
        assert_eq!(s.windows, 2);
        assert_eq!(s.rows_skipped, 3);
        assert_eq!(s.engines, vec![meta]);
        assert_eq!(s.per_bank[&0], (0, 2));
        assert_eq!(s.window_skip_fraction.count, 2);
        assert!(s.skip_fraction() > 0.9);
    }

    #[test]
    fn overflowing_fields_are_named_not_wrapped() {
        let fails = |records: &[TraceRecord], want: &str| {
            let err = summarize(records).unwrap_err().to_string();
            assert!(err.contains(want), "{err}");
        };
        fails(
            &[window_end(0, 1, 1), window_end(u64::MAX, 0, 0)],
            "record 1 (window_end): field a = 18446744073709551615",
        );
        fails(
            &[ref_skip(0, 0, u64::MAX), ref_skip(1, 0, 1)],
            "record 1 (ref_skip): field c = 1 overflows the skipped-row total",
        );
        let mut issue = TraceRecord::new(RecordKind::RefIssue, 0);
        issue.b = u64::MAX;
        fails(&[issue, issue], "record 1 (ref_issue): field b");
        // Totals that fit each count on their own, but not summed, still
        // give a skip fraction.
        let s = summarize(&[issue, ref_skip(0, 0, u64::MAX), window_end(0, u64::MAX, 1)]).unwrap();
        assert_eq!(s.skip_fraction(), 0.5);
        assert_eq!(s.window_skip_fraction.count, 1);
    }

    #[test]
    fn filter_selects_by_bank_kind_and_window() {
        let mut ws = TraceRecord::new(RecordKind::WindowStart, 0);
        ws.a = 1;
        let records = vec![ref_skip(0, 3, 1), ws, ref_skip(1, 3, 1), ref_skip(0, 5, 1)];
        let f = RecordFilter {
            bank: Some(0),
            ..RecordFilter::default()
        };
        assert_eq!(filter_records(&records, &f).len(), 3); // ws has bank 0 too
        let f = RecordFilter {
            bank: Some(0),
            kind: Some(RecordKind::RefSkip),
            window: Some(1),
            ..RecordFilter::default()
        };
        let hits = filter_records(&records, &f);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, 3);
        assert!(f.is_some());
        assert!(!RecordFilter::default().is_some());
    }

    #[test]
    fn identical_traces_diff_clean() {
        let records = vec![ref_skip(0, 0, 2), ref_skip(0, 1, 2)];
        let d = diff_traces(&records, &records.clone());
        assert!(d.is_identical());
        assert_eq!(d.compared, 2);
    }

    #[test]
    fn diverging_decision_and_length_are_reported() {
        let left = vec![ref_skip(0, 0, 2), ref_skip(0, 1, 2)];
        let right = vec![ref_skip(0, 0, 1)];
        let d = diff_traces(&left, &right);
        assert_eq!(d.total_differences, 2); // payload + missing record
        assert_eq!(d.entries[0].position, 0);
        assert_eq!(d.entries[1].right, None);
    }

    #[test]
    fn timestamps_do_not_affect_diff() {
        let mut a = TraceRecord::new(RecordKind::Rd, 0);
        a.a = 7;
        a.b = 100.0f64.to_bits();
        let mut b = a;
        b.b = 999.0f64.to_bits();
        assert!(diff_traces(&[a], &[b]).is_identical());
    }
}
