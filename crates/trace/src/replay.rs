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
//!
//! A trace is untrusted input. A meta record describing a geometry no
//! validated config produces is itself a divergence, naming the field and
//! its value; the shadow state is kept per touched (bank, set), so no
//! allocation is sized by a record field, and record arithmetic is checked.

use std::collections::{HashMap, HashSet};

use crate::record::{EngineMeta, RecordKind, TraceRecord, FLAG_TRUSTED, POLICY_CHARGE_AWARE};
use zr_types::config::REFRESH_COMMANDS_PER_TRET;

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

/// The first field of `meta` that no validated geometry produces, with
/// its value. Each must lie in `1..=max`: at most 64 chips (one stagger
/// group spans them all), a command covering at most `u64::MAX`
/// chip-rows, and at most the 8192 AR sets of one retention window's REF
/// commands per bank.
fn meta_fault(meta: &EngineMeta) -> Option<(&'static str, u64)> {
    [
        ("num_banks", u64::from(meta.num_banks), u64::MAX),
        ("num_chips", meta.num_chips, 64),
        ("ar_rows", meta.ar_rows, u64::MAX / meta.num_chips.max(1)),
        (
            "ar_sets_per_bank",
            meta.ar_sets_per_bank,
            REFRESH_COMMANDS_PER_TRET,
        ),
    ]
    .into_iter()
    .find(|&(_, value, max)| value == 0 || value > max)
    .map(|(name, value, _)| (name, value))
}

/// Shadow model of one charge-aware refresh engine, built from a meta
/// record [`meta_fault`] accepts.
#[derive(Debug)]
struct EngineModel {
    meta: EngineMeta,
    /// State of each (bank, AR set) a record has touched; the others are
    /// still in their power-up [`SetState::default`].
    sets: HashMap<(u32, u64), SetState>,
}

impl EngineModel {
    fn new(meta: EngineMeta) -> Self {
        EngineModel {
            meta,
            sets: HashMap::new(),
        }
    }

    /// The shadow state of (`bank`, `set`), or `None` outside the engine's
    /// geometry.
    fn state(&mut self, bank: u32, set: u64) -> Option<&mut SetState> {
        if bank >= self.meta.num_banks || set >= self.meta.ar_sets_per_bank {
            return None;
        }
        Some(self.sets.entry((bank, set)).or_default())
    }

    /// Mirrors `RefreshEngine::note_write`: a rank-row's chip-rows span
    /// `num_chips` consecutive staggered refresh steps, which may straddle
    /// two AR sets.
    fn apply_write(&mut self, bank: u32, row: u64) {
        let (k, ar) = (self.meta.num_chips, self.meta.ar_rows);
        let first_step = row - row % k;
        for set in first_step / ar..=first_step.saturating_add(k - 1) / ar {
            if let Some(s) = self.state(bank, set) {
                s.written = true;
            }
        }
    }

    /// Chip-rows covered by one per-bank AR command (the product is
    /// checked by [`meta_fault`]).
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
        if report.divergences.len() >= ReplayReport::MAX_DIVERGENCES {
            break;
        }
        match rec.kind {
            RecordKind::Meta => {
                if let Some(meta) = EngineMeta::from_record(rec) {
                    if let Some((field, value)) = meta_fault(&meta) {
                        // A meta record names no bank or set.
                        report.divergences.push(Divergence {
                            index,
                            engine: rec.src,
                            bank: 0,
                            set: 0,
                            expected: "an engine geometry a validated config produces".into(),
                            got: format!("{field} {value}"),
                        });
                        continue;
                    }
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
                    // discharged population learned at the last scan
                    // (which a corrupt scan record can put above `rows`).
                    let expected_skips = state.discharged.unwrap_or(0);
                    let refreshed = rows.checked_sub(expected_skips);
                    if rec.c != expected_skips || Some(rec.b) != refreshed {
                        let expected = match refreshed {
                            Some(r) => format!("{r} refreshed + {expected_skips} skipped"),
                            None => format!("a scan count of at most {rows}, not {expected_skips}"),
                        };
                        let got = format!("{} refreshed + {} skipped", rec.b, rec.c);
                        push(&mut report, index, rec, expected, got);
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
        // Set 5 of bank 0 is past its 4 sets, not bank 1's set 1.
        for set in [99, 5] {
            let records = vec![meta(0), issue(0, 0, set, 2, 0)];
            let report = replay(&records);
            assert_eq!(report.divergences.len(), 1, "set {set}");
            assert!(report.divergences[0].expected.contains("geometry"));
        }
    }

    #[test]
    fn corrupt_meta_is_a_divergence_naming_the_field() {
        // Each meta is followed by a write to the last row and a scan, so
        // a model built from it would have to size, index and count with
        // the corrupt field.
        let corrupt = [
            ("ar_sets_per_bank", u64::MAX),
            ("ar_rows", 1 << 63),
            ("num_banks", 0),
            ("num_chips", 0),
            ("ar_rows", 0),
            ("ar_sets_per_bank", 0),
            ("num_chips", 128),
            ("ar_sets_per_bank", 16384),
        ];
        for (field, value) in corrupt {
            let mut m = meta(0);
            match field {
                "num_banks" => m.bank = value as u32,
                "num_chips" => m.a = value,
                "ar_rows" => m.b = value,
                _ => m.c = value,
            }
            let records = vec![m, write(0, 1, u64::MAX), issue(0, 1, 0, 2, 2)];
            let report = replay(&records);
            let d = &report.divergences[0];
            assert_eq!((d.index, d.got.clone()), (0, format!("{field} {value}")));
            assert_eq!(report.engines_replayed, 0, "{field} {value}");
            assert_eq!(report.decisions_unverified, 1, "{field} {value}");
        }
    }

    #[test]
    fn out_of_range_record_fields_do_not_overflow() {
        // A set index past the geometry, on a bank past the first.
        let report = replay(&[meta(0), issue(0, 1, u64::MAX, 2, 2)]);
        assert!(report.divergences[0].expected.contains("geometry"));
        // A write to the last row under a chip count whose group ends
        // past it.
        let mut three_chips = meta(0);
        three_chips.a = 3;
        let report = replay(&[three_chips, write(0, 0, u64::MAX)]);
        assert!(report.is_clean());
        assert_eq!(report.writes_applied, 1);
        // A scan claiming more discharged rows than its command covers,
        // then a trusted skip of that set.
        let report = replay(&[meta(0), issue(0, 0, 0, 2, u64::MAX), skip(0, 0, 0, 0, 2)]);
        assert_eq!(report.divergences.len(), 1);
        assert_eq!(report.divergences[0].index, 2);
        assert!(report.divergences[0].expected.contains("at most 2"));
    }
}
