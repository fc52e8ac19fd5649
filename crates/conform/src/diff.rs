//! The differential side of the harness: drive the production
//! `zr-dram` stack and the [`RefOracle`] through identical command
//! sequences and fail loudly — with a debuggable report — on the first
//! disagreement.

use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

use zr_dram::tracking::NaiveSramTracker;
use zr_dram::{DramRank, RefreshEngine, RefreshPolicy, WindowStats};
use zr_telemetry::Telemetry;
use zr_trace::{parse_trace, TraceRecorder};
use zr_types::geometry::{BankId, ChipId, RowIndex};
use zr_types::rng::SplitMix64;
use zr_types::SystemConfig;

use crate::oracle::{OraclePolicy, OracleWindow, RefOracle};

/// The content of one written line, in chip-major order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Payload {
    /// Chips in `chip_mask` (bit `c` for chip `c`) hold a charged byte
    /// derived from `fill_seed`; the others the row's discharged pattern.
    Masked {
        /// Per-chip charge mask.
        chip_mask: u64,
        /// Varies the charged byte value.
        fill_seed: u8,
    },
    /// Every byte drawn from the seed.
    Random(u64),
    /// Every byte 0x00: discharged in true-cell rows, charged in anti-cell
    /// rows.
    Zeros,
    /// Every byte 0xFF: charged in true-cell rows, discharged in anti-cell
    /// rows.
    Ones,
    /// All 0x00 or all 0xFF (by the seed) but one byte, at a seeded index,
    /// flipped by 0xA5: one charged byte inside one chip's segment.
    SparseFlip(u64),
    /// 0x0F and 0xF0 alternating: charged in every segment of either cell
    /// type.
    Alternating,
}

impl Payload {
    /// A masked payload biased toward sparse masks, so per-chip charge
    /// varies; mask 0 is a legal "all segments discharged" write.
    pub fn masked(rng: &mut SplitMix64) -> Payload {
        Payload::Masked {
            chip_mask: rng.next_u64() & rng.next_u64(),
            fill_seed: rng.next_u64() as u8,
        }
    }

    /// The chip-major line this payload writes into a row whose cells
    /// discharge to `discharged`.
    fn line(self, config: &SystemConfig, discharged: u8) -> Vec<u8> {
        let seg = config.line.line_bytes / config.dram.num_chips;
        let mut line = vec![0u8; config.line.line_bytes];
        match self {
            Payload::Masked {
                chip_mask,
                fill_seed,
            } => {
                // Any value other than the discharged byte charges the
                // segment; xor with a non-zero odd constant guarantees it.
                let fill = discharged ^ (fill_seed | 0x01);
                for (chip, segment) in line.chunks_exact_mut(seg).enumerate() {
                    let charged = chip_mask >> chip & 1 == 1;
                    segment.fill(if charged { fill } else { discharged });
                }
            }
            Payload::Random(seed) => SplitMix64::new(seed).fill_bytes(&mut line),
            Payload::Zeros => {}
            Payload::Ones => line.fill(0xFF),
            Payload::SparseFlip(seed) => {
                let mut rng = SplitMix64::new(seed);
                line.fill(if rng.next_u64() & 1 == 0 { 0x00 } else { 0xFF });
                let at = rng.below(line.len() as u64) as usize;
                line[at] ^= 0xA5;
            }
            Payload::Alternating => {
                for (i, b) in line.iter_mut().enumerate() {
                    *b = if i % 2 == 0 { 0x0F } else { 0xF0 };
                }
            }
        }
        line
    }
}

/// Draws the payload of one generated write ([`generate_commands`]).
pub type DrawPayload = fn(&mut SplitMix64) -> Payload;

/// One step of a differential command sequence. Commands address the
/// geometry symbolically (bank/row/set indices) so the same sequence is
/// valid for both sides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Write one encoded cacheline and report it (`note_write`).
    WriteLine {
        /// Bank index.
        bank: u64,
        /// Rank-row index.
        row: u64,
        /// Line slot within the row.
        slot: u64,
        /// The line's content.
        payload: Payload,
    },
    /// Write one encoded cacheline *without* reporting it, as a
    /// controller that forgets `note_write` would: the final hazard
    /// audits must then count the same stale skip promises.
    UnreportedWrite {
        /// Bank index.
        bank: u64,
        /// Rank-row index.
        row: u64,
        /// Line slot within the row.
        slot: u64,
        /// The line's content.
        payload: Payload,
    },
    /// Charge every slot of one chip-row (a disturbed row), reported.
    ForceCharge {
        /// Chip index.
        chip: u64,
        /// Bank index.
        bank: u64,
        /// Rank-row index.
        row: u64,
    },
    /// OS cleanse of a rank-row back to the discharged pattern.
    Cleanse {
        /// Bank index.
        bank: u64,
        /// Rank-row index.
        row: u64,
    },
    /// Remap a rank-row to a spare.
    Spare {
        /// Bank index.
        bank: u64,
        /// Rank-row index.
        row: u64,
    },
    /// One per-bank AR command.
    ProcessAr {
        /// Bank index.
        bank: u64,
        /// AR set index.
        set: u64,
    },
    /// One full retention window.
    RunWindow,
}

/// How a differential run is set up.
#[derive(Debug, Clone, Copy)]
pub struct DiffSetup {
    /// Refresh policy for both sides.
    pub policy: RefreshPolicy,
    /// Fault injection on the production engine's staggered schedule.
    pub engine_skew: u64,
    /// Fault injection on the oracle's staggered schedule.
    pub oracle_skew: u64,
}

impl DiffSetup {
    /// A clean, fault-free setup under `policy`.
    pub fn clean(policy: RefreshPolicy) -> Self {
        DiffSetup {
            policy,
            engine_skew: 0,
            oracle_skew: 0,
        }
    }
}

/// A divergence between the production implementation and the reference
/// oracle, pinned to the exact command that exposed it.
#[derive(Debug, Clone)]
pub struct DivergenceReport {
    /// Index of the diverging command within the sequence.
    pub command_index: usize,
    /// The diverging command, rendered.
    pub command: String,
    /// Which value disagreed (an outcome field, a table bit, a count).
    pub field: String,
    /// The oracle's value.
    pub expected: u64,
    /// The production implementation's value.
    pub actual: u64,
    /// The run setup, rendered.
    pub setup: String,
    /// Decoded tail of the production engine's flight-recorder stream —
    /// the `zr-trace` records leading up to the divergence.
    pub trace_tail: Vec<String>,
}

impl fmt::Display for DivergenceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "DIFFERENTIAL DIVERGENCE at command #{}",
            self.command_index
        )?;
        writeln!(f, "  command:  {}", self.command)?;
        writeln!(f, "  field:    {}", self.field)?;
        writeln!(f, "  oracle:   {}", self.expected)?;
        writeln!(f, "  engine:   {}", self.actual)?;
        writeln!(f, "  setup:    {}", self.setup)?;
        writeln!(f, "  trace tail ({} records):", self.trace_tail.len())?;
        for line in &self.trace_tail {
            writeln!(f, "    {line}")?;
        }
        Ok(())
    }
}

impl DivergenceReport {
    /// Writes the report under the divergence-report directory
    /// (`ZR_CONFORM_REPORT_DIR`, defaulting to `target/conform-reports`
    /// at the workspace root) so CI can upload it as an artifact.
    /// Returns the path on success; IO failures are reported to stderr
    /// and swallowed — a failing differential must still panic with the
    /// report text even on a read-only filesystem.
    pub fn persist(&self, name: &str) -> Option<PathBuf> {
        write_report(&format!("{name}.txt"), &self.to_string())
    }
}

/// What both sides agreed on over a whole run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Agreement {
    /// Chip-row refreshes skipped, over every command.
    pub rows_skipped: u64,
    /// Stale skip promises the final hazard audits counted.
    pub hazards: u64,
}

/// A disagreement: which value, the oracle's value, the production one.
pub type Mismatch = (String, u64, u64);

/// Writes `text` as `file` in the report directory ([`DivergenceReport::persist`]
/// says which) and returns its path; IO failures go to stderr.
pub(crate) fn write_report(file: &str, text: &str) -> Option<PathBuf> {
    let default = || PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/conform-reports");
    let dir = zr_types::knobs::CONFORM_REPORT_DIR
        .path()
        .unwrap_or_else(default);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("conform: cannot create report dir {}: {e}", dir.display());
        return None;
    }
    let path = dir.join(file);
    match std::fs::write(&path, text) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("conform: cannot write report {}: {e}", path.display());
            None
        }
    }
}

fn oracle_policy(policy: RefreshPolicy) -> OraclePolicy {
    match policy {
        RefreshPolicy::Conventional => OraclePolicy::Conventional,
        RefreshPolicy::ChargeAware => OraclePolicy::ChargeAware,
        RefreshPolicy::NaiveSram => OraclePolicy::NaiveSram,
    }
}

/// The first statistic where `actual` differs from `expected`, named
/// with `prefix`.
fn window_mismatch(
    prefix: &str,
    expected: &OracleWindow,
    actual: &WindowStats,
) -> Option<Mismatch> {
    first_mismatch([
        (
            "rows_refreshed",
            expected.rows_refreshed,
            actual.rows_refreshed,
        ),
        ("rows_skipped", expected.rows_skipped, actual.rows_skipped),
        ("ar_commands", expected.ar_commands, actual.ar_commands),
        ("table_reads", expected.table_reads, actual.table_reads),
        ("table_writes", expected.table_writes, actual.table_writes),
    ])
    .map(|(field, e, a)| (format!("{prefix}{field}"), e, a))
}

/// The first of (name, oracle value, production value) that differs.
fn first_mismatch<const N: usize>(pairs: [(&str, u64, u64); N]) -> Option<Mismatch> {
    pairs
        .into_iter()
        .find(|&(_, expected, actual)| expected != actual)
        .map(|(field, expected, actual)| (field.to_string(), expected, actual))
}

/// A bit that disagrees: the oracle holds `expected`, production the other
/// value.
fn bit_mismatch(field: String, expected: bool) -> Option<Mismatch> {
    Some((field, u64::from(expected), u64::from(!expected)))
}

/// The first place the rank's charge state differs from the oracle's: the
/// rank and per-bank discharged counts, then every chip-row the oracle
/// holds charged. Equal per-bank counts and every oracle-charged chip-row
/// charged in the rank mean every chip-row agrees; a set padding bit would
/// lower the rank's count.
pub fn charge_divergence(rank: &DramRank, oracle: &RefOracle) -> Option<Mismatch> {
    let mut counts = vec![(
        "discharged chip-rows".to_string(),
        oracle.discharged_chip_rows(),
        rank.count_discharged_chip_rows(),
    )];
    for bank in 0..oracle.banks() {
        counts.push((
            format!("discharged chip-rows in bank {bank}"),
            oracle.discharged_chip_rows_in_bank(bank),
            rank.count_discharged_chip_rows_in_bank(BankId(bank as usize)),
        ));
    }
    if let Some(mismatch) = counts.into_iter().find(|(_, e, a)| e != a) {
        return Some(mismatch);
    }
    let (&(chip, bank, row), _) = oracle
        .charged
        .iter()
        .filter(|(_, slots)| !slots.is_empty())
        .find(|(&(chip, bank, row), _)| {
            let (chip, bank) = (ChipId(chip as usize), BankId(bank as usize));
            rank.chip_row_is_discharged(chip, bank, RowIndex(row))
        })?;
    bit_mismatch(
        format!("discharged chip {chip} bank {bank} row {row}"),
        false,
    )
}

/// The first place the engine's totals or tracking tables differ from the
/// oracle's: the totals, each table's traffic counter, every access bit,
/// then the status bits and the naive tracker's bits. For the last two,
/// every entry the oracle holds must agree and the engine must mark no
/// more rows than the oracle does (a popcount, so large tables compare
/// at word speed).
fn table_divergence(engine: &RefreshEngine, oracle: &RefOracle) -> Option<Mismatch> {
    let (access, status, naive) = engine.tables();
    let counters = first_mismatch([
        (
            "access set events",
            oracle.access_set_events,
            access.write_events(),
        ),
        (
            "status table reads",
            oracle.totals.table_reads,
            status.reads(),
        ),
        (
            "status table writes",
            oracle.totals.table_writes,
            status.writes(),
        ),
        (
            "naive tracker updates",
            oracle.naive_updates,
            naive.map_or(0, NaiveSramTracker::updates),
        ),
    ]);
    if let Some(mismatch) =
        window_mismatch("totals ", &oracle.totals, &engine.totals()).or(counters)
    {
        return Some(mismatch);
    }
    for (bank, bits) in oracle.access.iter().enumerate() {
        for (set, &bit) in bits.iter().enumerate() {
            if access.is_written(BankId(bank), set as u64) != bit {
                return bit_mismatch(format!("access bit bank {bank} set {set}"), bit);
            }
        }
    }
    let banks = || (0..oracle.banks() as usize).map(BankId);
    for (&(chip, bank, row), &discharged) in &oracle.status {
        if status.get(ChipId(chip as usize), BankId(bank as usize), RowIndex(row)) != discharged {
            return bit_mismatch(
                format!("status bit chip {chip} bank {bank} row {row}"),
                discharged,
            );
        }
    }
    let marked = oracle.status.values().filter(|&&d| d).count() as u64;
    let set: u64 = banks()
        .flat_map(|bank| status.bank_words(bank))
        .map(|w| u64::from(w.count_ones()))
        .sum();
    if let Some(mismatch) = first_mismatch([("status bits set", marked, set)]) {
        return Some(mismatch);
    }
    let naive = naive?;
    for (&(bank, row), &discharged) in &oracle.naive {
        if naive.is_discharged(BankId(bank as usize), RowIndex(row)) != discharged {
            return bit_mismatch(format!("naive tracker bank {bank} row {row}"), discharged);
        }
    }
    // The tracker's clear bits are the rows it believes charged (its
    // padding bits start set and are never written).
    let charged = oracle.naive.values().filter(|&&d| !d).count() as u64;
    let clear: u64 = banks()
        .flat_map(|bank| naive.bank_words(bank))
        .map(|w| u64::from(w.count_zeros()))
        .sum();
    first_mismatch([("naive tracker rows charged", charged, clear)])
}

/// Runs `commands` against both sides. After every command the engine's
/// outcome, totals and tracking tables and the rank's charge state must
/// equal the oracle's; at the end, so must the hazard audits.
///
/// # Errors
///
/// The first divergence, pinned to its command.
///
/// # Panics
///
/// Panics when the production stack rejects the config or a command's
/// address: that is a harness bug, not a divergence.
pub fn run_differential(
    config: &SystemConfig,
    setup: &DiffSetup,
    commands: &[Command],
) -> Result<Agreement, Box<DivergenceReport>> {
    let mut rank = DramRank::new(config).expect("differential config must build a rank");
    let recorder = Arc::new(TraceRecorder::memory());
    let mut engine = {
        let _telemetry = Telemetry::push_current(Arc::new(Telemetry::new()));
        let _trace = TraceRecorder::push_current(Arc::clone(&recorder));
        RefreshEngine::new(config, setup.policy).expect("differential config must build an engine")
    };
    engine.set_stagger_skew(setup.engine_skew);
    let mut oracle = RefOracle::new(config, oracle_policy(setup.policy));
    oracle.stagger_skew = setup.oracle_skew;

    let setup_text = format!(
        "policy={:?} engine_skew={} oracle_skew={} banks={} rows/bank={} chips={}",
        setup.policy,
        setup.engine_skew,
        setup.oracle_skew,
        oracle.banks(),
        oracle.rows_per_bank(),
        oracle.chips(),
    );

    let diverged = |index: usize, command: &Command, (field, expected, actual): Mismatch| {
        recorder.finalize();
        let bytes = recorder.take_bytes();
        let trace_tail = match parse_trace(&bytes) {
            Ok(records) => records
                .iter()
                .rev()
                .take(24)
                .rev()
                .map(|r| {
                    format!(
                        "{:<17} src={:#04x} flags={:#06x} bank={} a={} b={} c={}",
                        r.kind.name(),
                        r.src,
                        r.flags,
                        r.bank,
                        r.a,
                        r.b,
                        r.c
                    )
                })
                .collect(),
            Err(e) => vec![format!("<trace unreadable: {e}>")],
        };
        Box::new(DivergenceReport {
            command_index: index,
            command: format!("{command:?}"),
            field,
            expected,
            actual,
            setup: setup_text.clone(),
            trace_tail,
        })
    };

    let address = "differential command must address the geometry";
    for (index, command) in commands.iter().enumerate() {
        let mut decided = None;
        match *command {
            Command::WriteLine {
                bank,
                row,
                slot,
                payload,
            }
            | Command::UnreportedWrite {
                bank,
                row,
                slot,
                payload,
            } => {
                let line = payload.line(config, oracle.discharged_byte(row));
                let (bank_id, row_id) = (BankId(bank as usize), RowIndex(row));
                rank.write_encoded_line(bank_id, row_id, slot as usize, &line)
                    .expect(address);
                oracle.write_line(bank, row, slot, &line);
                if let Command::WriteLine { .. } = command {
                    engine.note_write(&rank, bank_id, row_id);
                    oracle.note_write(bank, row);
                }
            }
            Command::ForceCharge { chip, bank, row } => {
                let (bank_id, row_id) = (BankId(bank as usize), RowIndex(row));
                rank.force_charge_chip_row(ChipId(chip as usize), bank_id, row_id)
                    .expect(address);
                oracle.force_charge(chip, bank, row);
                engine.note_write(&rank, bank_id, row_id);
                oracle.note_write(bank, row);
            }
            Command::Cleanse { bank, row } => {
                rank.cleanse_row(BankId(bank as usize), RowIndex(row))
                    .expect(address);
                engine.note_write(&rank, BankId(bank as usize), RowIndex(row));
                oracle.cleanse(bank, row);
                oracle.note_write(bank, row);
            }
            Command::Spare { bank, row } => {
                rank.add_spared_row(BankId(bank as usize), RowIndex(row));
                oracle.spare(bank, row);
            }
            Command::ProcessAr { bank, set } => {
                let out = engine.process_ar(&rank, BankId(bank as usize), set);
                let actual = WindowStats {
                    rows_refreshed: out.rows_refreshed,
                    rows_skipped: out.rows_skipped,
                    ar_commands: 1,
                    table_reads: out.table_reads,
                    table_writes: out.table_writes,
                };
                let mut expected = OracleWindow::default();
                expected.add(&oracle.process_ar(bank, set));
                decided = window_mismatch("", &expected, &actual);
            }
            Command::RunWindow => {
                let actual = engine.run_window(&mut rank);
                decided = window_mismatch("", &oracle.run_window(), &actual);
            }
        }
        let mismatch = decided
            .or_else(|| table_divergence(&engine, &oracle))
            .or_else(|| charge_divergence(&rank, &oracle));
        if let Some(mismatch) = mismatch {
            return Err(diverged(index, command, mismatch));
        }
    }

    let hazards = oracle.audit_hazards();
    let audit = first_mismatch([("audit_hazards", hazards, engine.audit_hazards(&rank))]);
    if let Some(mismatch) = audit {
        let last = commands.last().unwrap_or(&Command::RunWindow);
        return Err(diverged(commands.len(), last, mismatch));
    }
    Ok(Agreement {
        rows_skipped: oracle.totals.rows_skipped,
        hazards,
    })
}

/// Generates a reproducible command sequence for `config` from `seed`,
/// its writes carrying payloads drawn by `payload`.
///
/// The mix is tuned to exercise the interesting transitions: writes that
/// charge a *subset* of chips (so staggered chip/row pairing matters),
/// discharging overwrites, forced charges, cleanses, occasional spares up
/// front, and both individual AR commands over every AR set and full
/// windows.
pub fn generate_commands(
    config: &SystemConfig,
    seed: u64,
    len: usize,
    payload: DrawPayload,
) -> Vec<Command> {
    let mut rng = SplitMix64::new(seed ^ 0xC0FF_EE00_D15E_A5E5);
    let chips = config.dram.num_chips as u64;
    let banks = config.dram.num_banks as u64;
    let rows = config.dram.capacity_bytes / config.dram.row_bytes as u64 / banks;
    let slots = (config.dram.row_bytes / config.line.line_bytes) as u64;
    let ar_rows = std::cmp::max(rows / 8192, 1);
    let ar_sets = rows / ar_rows;
    let mut commands = Vec::with_capacity(len);
    // A few spares first (they are a setup-time remapping in practice).
    for _ in 0..rng.below(3) {
        commands.push(Command::Spare {
            bank: rng.below(banks),
            row: rng.below(rows),
        });
    }
    while commands.len() < len {
        let roll = rng.below(100);
        let command = if roll < 35 {
            Command::WriteLine {
                bank: rng.below(banks),
                row: rng.below(rows),
                slot: rng.below(slots),
                payload: payload(&mut rng),
            }
        } else if roll < 40 {
            Command::ForceCharge {
                chip: rng.below(chips),
                bank: rng.below(banks),
                row: rng.below(rows),
            }
        } else if roll < 50 {
            Command::Cleanse {
                bank: rng.below(banks),
                row: rng.below(rows),
            }
        } else if roll < 80 {
            Command::ProcessAr {
                bank: rng.below(banks),
                set: rng.below(ar_sets),
            }
        } else {
            Command::RunWindow
        };
        commands.push(command);
    }
    commands
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_sequences_are_reproducible() {
        let cfg = SystemConfig::small_test();
        assert_eq!(
            generate_commands(&cfg, 7, 40, Payload::masked),
            generate_commands(&cfg, 7, 40, Payload::masked)
        );
        assert_ne!(
            generate_commands(&cfg, 7, 40, Payload::masked),
            generate_commands(&cfg, 8, 40, Payload::masked)
        );
    }

    #[test]
    fn clean_runs_agree() {
        let cfg = SystemConfig::small_test();
        let commands = generate_commands(&cfg, 42, 48, Payload::masked);
        let run = run_differential(
            &cfg,
            &DiffSetup::clean(RefreshPolicy::ChargeAware),
            &commands,
        );
        if let Err(report) = run {
            panic!("unexpected divergence: {report}");
        }
    }

    #[test]
    fn payloads_respect_the_chip_mask() {
        let cfg = SystemConfig::small_test();
        let masked = |chip_mask, fill_seed| Payload::Masked {
            chip_mask,
            fill_seed,
        };
        let line = masked(0b0000_0101, 0x10).line(&cfg, 0x00);
        let seg = cfg.line.line_bytes / cfg.dram.num_chips;
        assert!(line[0..seg].iter().all(|&b| b != 0x00));
        assert!(line[seg..2 * seg].iter().all(|&b| b == 0x00));
        assert!(line[2 * seg..3 * seg].iter().all(|&b| b != 0x00));
        // Anti-cell rows: discharged byte is 0xFF and masked-out chips
        // carry it verbatim.
        let anti = masked(0b0000_0010, 0x00).line(&cfg, 0xFF);
        assert!(anti[0..seg].iter().all(|&b| b == 0xFF));
        assert!(anti[seg..2 * seg].iter().all(|&b| b != 0xFF));
        // Sixteen chips: chips 8–15 are their own bits, not aliases of
        // chips 0–7.
        let mut wide = cfg.clone();
        wide.dram.num_chips = 16;
        let line = masked(1 << 9, 0x00).line(&wide, 0x00);
        let charged: Vec<usize> = (0..16).filter(|c| line[c * 4] != 0).collect();
        assert_eq!(charged, [9]);
    }

    #[test]
    fn sparse_flips_charge_one_byte() {
        let cfg = SystemConfig::small_test();
        for seed in 0..32 {
            let line = Payload::SparseFlip(seed).line(&cfg, 0x00);
            let off_base = line.iter().filter(|&&b| b != line[0]).count();
            // The flip may land on byte 0, leaving the other 63 "off".
            assert!(off_base == 1 || off_base == line.len() - 1, "seed {seed}");
        }
    }

    #[test]
    fn divergence_reports_render_the_command_index() {
        let report = DivergenceReport {
            command_index: 17,
            command: "RunWindow".into(),
            field: "rows_skipped".into(),
            expected: 3,
            actual: 5,
            setup: "test".into(),
            trace_tail: vec!["ref_skip bank=0".into()],
        };
        let text = report.to_string();
        assert!(text.contains("command #17"));
        assert!(text.contains("rows_skipped"));
        assert!(text.contains("ref_skip"));
    }
}
