//! Deterministic replay of recorded refresh decisions.
//!
//! The charge-aware skip decision (§IV-B) is a pure function of two
//! inputs that the trace captures completely:
//!
//! 1. the **access stream** — every `note_write` the engine observed
//!    ([`RecordKind::Write`] records), which drives the SRAM access-bit
//!    table exactly as the real engine drives it;
//! 2. the **discharged population** of each AR set, re-learned at every
//!    untrusted scan and carried in the [`RecordKind::RefIssue`] records.
//!
//! [`replay`] re-drives a shadow model of the access-bit table and the
//! per-set discharged counts from those inputs and verifies every
//! recorded REF decision — trusted flag, refreshed count, skipped count —
//! record for record. Any mismatch is a [`Divergence`] naming the exact
//! record index: either the trace was tampered with, or the engine's
//! decision logic changed between record and replay time — a determinism
//! regression.

use std::collections::{HashMap, HashSet};

use crate::record::{EngineMeta, RecordKind, TraceRecord, FLAG_TRUSTED, POLICY_CHARGE_AWARE};

/// One replay mismatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Index of the divergent record within the parsed trace.
    pub index: usize,
    /// Engine the record belongs to.
    pub engine: u8,
    /// Bank of the AR command.
    pub bank: u32,
    /// AR set of the command.
    pub set: u64,
    /// What the shadow model expected.
    pub expected: String,
    /// What the trace recorded.
    pub got: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "record {}: engine {} bank {} set {}: expected {}, got {}",
            self.index, self.engine, self.bank, self.set, self.expected, self.got
        )
    }
}

/// Outcome of replaying one trace.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReplayReport {
    /// Charge-aware engines found (and replayed) in the trace.
    pub engines_replayed: usize,
    /// REF decision records verified.
    pub decisions_checked: u64,
    /// Write records fed into the shadow access-bit model.
    pub writes_applied: u64,
    /// REF decision records of engines no meta record announced (lost to
    /// ring eviction or never recorded), which replay cannot verify.
    /// Decisions of announced engines under other policies are not
    /// counted: they are unconditional.
    pub decisions_unverified: u64,
    /// Mismatches, in record order (capped by the caller-visible
    /// [`replay`] at [`ReplayReport::MAX_DIVERGENCES`]).
    pub divergences: Vec<Divergence>,
}

impl ReplayReport {
    /// Divergences kept before the replayer stops collecting (the first
    /// one is what matters; the rest are usually cascade noise).
    pub const MAX_DIVERGENCES: usize = 16;

    /// Whether the trace replayed with zero divergences.
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty()
    }
}

/// Shadow state of one (bank, AR set) of one engine.
#[derive(Debug, Clone, Copy)]
struct SetState {
    /// Shadow access bit. Starts `true`: after power-up the first window
    /// must scan (mirrors `AccessBitTable::new`).
    written: bool,
    /// Discharged chip-rows counted by the set's most recent scan.
    discharged: Option<u64>,
}

impl Default for SetState {
    fn default() -> Self {
        SetState {
            written: true,
            discharged: None,
        }
    }
}

/// Shadow model of one charge-aware refresh engine.
#[derive(Debug)]
struct EngineModel {
    meta: EngineMeta,
    /// State per `bank * ar_sets_per_bank + set`.
    sets: Vec<SetState>,
}

impl EngineModel {
    fn new(meta: EngineMeta) -> Self {
        let n = (meta.num_banks as u64 * meta.ar_sets_per_bank) as usize;
        EngineModel {
            meta,
            sets: vec![SetState::default(); n],
        }
    }

    fn state(&mut self, bank: u32, set: u64) -> Option<&mut SetState> {
        let idx = bank as u64 * self.meta.ar_sets_per_bank + set;
        self.sets.get_mut(idx as usize)
    }

    /// Mirrors `RefreshEngine::note_write`: a rank-row's chip-rows span
    /// `num_chips` consecutive staggered refresh steps, which may straddle
    /// two AR sets.
    fn apply_write(&mut self, bank: u32, row: u64) {
        let k = self.meta.num_chips.max(1);
        let ar = self.meta.ar_rows.max(1);
        let first_step = (row / k) * k;
        let first_set = first_step / ar;
        let last_set = (first_step + k - 1) / ar;
        for set in first_set..=last_set.min(self.meta.ar_sets_per_bank.saturating_sub(1)) {
            if let Some(s) = self.state(bank, set) {
                s.written = true;
            }
        }
    }

    /// Chip-rows covered by one per-bank AR command.
    fn rows_per_command(&self) -> u64 {
        self.meta.ar_rows * self.meta.num_chips
    }
}

/// Replays every charge-aware engine recorded in `records` and verifies
/// its REF decisions. Engines running other policies are ignored (their
/// decisions are unconditional).
pub fn replay(records: &[TraceRecord]) -> ReplayReport {
    let mut engines: HashMap<u8, EngineModel> = HashMap::new();
    let mut announced: HashSet<u8> = HashSet::new();
    let mut report = ReplayReport::default();

    for (index, rec) in records.iter().enumerate() {
        match rec.kind {
            RecordKind::Meta => {
                if let Some(meta) = EngineMeta::from_record(rec) {
                    announced.insert(meta.engine);
                    if meta.policy == POLICY_CHARGE_AWARE {
                        // A repeated meta record for a known engine id
                        // keeps its shadow: only insert a model for
                        // engines we have not seen.
                        engines
                            .entry(meta.engine)
                            .or_insert_with(|| EngineModel::new(meta));
                    }
                }
            }
            RecordKind::Write => {
                if let Some(model) = engines.get_mut(&rec.src) {
                    model.apply_write(rec.bank, rec.a);
                    report.writes_applied += 1;
                }
            }
            RecordKind::RefIssue | RecordKind::RefSkip => {
                let Some(model) = engines.get_mut(&rec.src) else {
                    if !announced.contains(&rec.src) {
                        report.decisions_unverified += 1;
                    }
                    continue;
                };
                report.decisions_checked += 1;
                let rows = model.rows_per_command();
                let (bank, set) = (rec.bank, rec.a);
                let Some(state) = model.state(bank, set) else {
                    push(
                        &mut report,
                        index,
                        rec,
                        "bank/set within the engine geometry".to_string(),
                        format!("bank {bank} set {set}"),
                    );
                    continue;
                };
                let expect_trusted = !state.written;
                let got_trusted = rec.kind == RecordKind::RefSkip && rec.flags & FLAG_TRUSTED != 0;
                if expect_trusted != got_trusted {
                    let (expected, got) = (
                        decision_name(expect_trusted).to_string(),
                        decision_name(got_trusted).to_string(),
                    );
                    *state = SetState {
                        // Resynchronize to the recorded decision so one
                        // divergence doesn't cascade down the window.
                        written: false,
                        discharged: if got_trusted {
                            state.discharged
                        } else {
                            Some(rec.c)
                        },
                    };
                    push(&mut report, index, rec, expected, got);
                    continue;
                }
                if got_trusted {
                    // Trusted skip: the skipped count must equal the
                    // discharged population learned at the last scan.
                    let expected_skips = state.discharged.unwrap_or(0);
                    if rec.c != expected_skips || rec.b != rows - expected_skips {
                        push(
                            &mut report,
                            index,
                            rec,
                            format!(
                                "{} refreshed + {expected_skips} skipped",
                                rows - expected_skips
                            ),
                            format!("{} refreshed + {} skipped", rec.b, rec.c),
                        );
                    }
                } else {
                    // Untrusted: full refresh, piggybacked rescan.
                    if rec.b != rows {
                        push(
                            &mut report,
                            index,
                            rec,
                            format!("{rows} rows refreshed (full scan)"),
                            format!("{} rows refreshed", rec.b),
                        );
                    }
                    state.written = false;
                    state.discharged = Some(rec.c);
                }
            }
            _ => {}
        }
        if report.divergences.len() >= ReplayReport::MAX_DIVERGENCES {
            break;
        }
    }
    report.engines_replayed = engines.len();
    report
}

fn decision_name(trusted: bool) -> &'static str {
    if trusted {
        "trusted skip (ref_skip)"
    } else {
        "full refresh (ref_issue)"
    }
}

fn push(report: &mut ReplayReport, index: usize, rec: &TraceRecord, expected: String, got: String) {
    report.divergences.push(Divergence {
        index,
        engine: rec.src,
        bank: rec.bank,
        set: rec.a,
        expected,
        got,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::POLICY_CONVENTIONAL;

    fn meta(engine: u8) -> TraceRecord {
        EngineMeta {
            engine,
            policy: POLICY_CHARGE_AWARE,
            num_banks: 2,
            num_chips: 2,
            ar_rows: 1,
            ar_sets_per_bank: 4,
        }
        .to_record()
    }

    fn issue(engine: u8, bank: u32, set: u64, refreshed: u64, found: u64) -> TraceRecord {
        let mut r = TraceRecord::new(RecordKind::RefIssue, engine);
        r.bank = bank;
        r.a = set;
        r.b = refreshed;
        r.c = found;
        r
    }

    fn skip(engine: u8, bank: u32, set: u64, refreshed: u64, skipped: u64) -> TraceRecord {
        let mut r = TraceRecord::new(RecordKind::RefSkip, engine);
        r.flags = FLAG_TRUSTED;
        r.bank = bank;
        r.a = set;
        r.b = refreshed;
        r.c = skipped;
        r
    }

    fn write(engine: u8, bank: u32, row: u64) -> TraceRecord {
        let mut r = TraceRecord::new(RecordKind::Write, engine);
        r.bank = bank;
        r.a = row;
        r
    }

    #[test]
    fn clean_two_window_trace_replays() {
        // Window 1: all sets scanned (access bits start set, 2 rows/cmd,
        // both discharged). Window 2: all trusted, everything skipped.
        let mut records = vec![meta(0)];
        for bank in 0..2 {
            for set in 0..4 {
                records.push(issue(0, bank, set, 2, 2));
            }
        }
        for bank in 0..2 {
            for set in 0..4 {
                records.push(skip(0, bank, set, 0, 2));
            }
        }
        let report = replay(&records);
        assert!(report.is_clean(), "{:?}", report.divergences);
        assert_eq!(report.decisions_checked, 16);
        assert_eq!(report.engines_replayed, 1);
    }

    #[test]
    fn write_forces_rescan_of_straddled_sets() {
        // num_chips = 2, ar_rows = 1: row 2 covers steps 2..4 = sets 2,3.
        let mut records = vec![meta(0)];
        for set in 0..4 {
            records.push(issue(0, 0, set, 2, 2));
        }
        records.push(write(0, 0, 2));
        records.push(skip(0, 0, 0, 0, 2));
        records.push(skip(0, 0, 1, 0, 2));
        records.push(issue(0, 0, 2, 2, 1));
        records.push(issue(0, 0, 3, 2, 1));
        // Window 3: the rescanned sets now skip only 1.
        records.push(skip(0, 0, 2, 1, 1));
        let report = replay(&records);
        assert!(report.is_clean(), "{:?}", report.divergences);
        assert_eq!(report.writes_applied, 1);
    }

    #[test]
    fn mutated_decision_reports_exact_record() {
        let mut records = vec![meta(0)];
        for set in 0..4 {
            records.push(issue(0, 0, set, 2, 2));
        }
        records.push(skip(0, 0, 1, 0, 2));
        // Tamper: set 2 claims a full refresh although nothing was written.
        records.push(issue(0, 0, 2, 2, 2));
        let report = replay(&records);
        assert_eq!(report.divergences.len(), 1);
        assert_eq!(report.divergences[0].index, 6);
        assert_eq!(report.divergences[0].set, 2);
        assert!(report.divergences[0].expected.contains("trusted"));
    }

    #[test]
    fn mutated_skip_count_reports_exact_record() {
        let mut records = vec![meta(0)];
        records.push(issue(0, 1, 0, 2, 2));
        let mut bad = skip(0, 1, 0, 0, 2);
        bad.c = 1; // claims only 1 skipped
        records.push(bad);
        let report = replay(&records);
        assert_eq!(report.divergences.len(), 1);
        assert_eq!(report.divergences[0].index, 2);
        assert!(report.divergences[0].got.contains("1 skipped"));
    }

    #[test]
    fn non_charge_aware_engines_ignored() {
        let mut m = meta(5);
        m.flags = POLICY_CONVENTIONAL;
        let records = vec![m, issue(5, 0, 0, 2, 0)];
        let report = replay(&records);
        assert_eq!(report.engines_replayed, 0);
        assert_eq!(report.decisions_checked, 0);
        assert!(report.is_clean());
    }

    #[test]
    fn decisions_of_unannounced_engines_are_unverified() {
        let mut conventional = meta(5);
        conventional.flags = POLICY_CONVENTIONAL;
        let records = vec![
            conventional,
            issue(5, 0, 0, 2, 0),
            meta(0),
            issue(0, 0, 0, 2, 2),
            issue(7, 0, 0, 2, 2), // engine 7 was never announced
            skip(7, 0, 0, 0, 2),
        ];
        let report = replay(&records);
        assert!(report.is_clean());
        assert_eq!(report.decisions_checked, 1);
        assert_eq!(report.decisions_unverified, 2);
    }

    #[test]
    fn out_of_range_set_is_a_divergence() {
        let records = vec![meta(0), issue(0, 0, 99, 2, 0)];
        let report = replay(&records);
        assert_eq!(report.divergences.len(), 1);
        assert!(report.divergences[0].expected.contains("geometry"));
    }
}
