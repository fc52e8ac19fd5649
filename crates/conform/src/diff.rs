//! The differential side of the harness: drive the production
//! `zr-dram` stack and the [`RefOracle`](crate::oracle::RefOracle)
//! through identical command sequences and fail loudly — with a
//! debuggable report — on the first disagreement.

use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

use zr_dram::{DramRank, RefreshEngine, RefreshPolicy};
use zr_telemetry::Telemetry;
use zr_trace::{parse_trace, TraceRecorder};
use zr_types::geometry::{BankId, RowIndex};
use zr_types::rng::SplitMix64;
use zr_types::{Result, SystemConfig};

use crate::oracle::{OraclePolicy, RefOracle};

/// One step of a differential command sequence. Commands address the
/// geometry symbolically (bank/row/set indices) so the same sequence is
/// valid for both sides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Write one encoded cacheline: `chip_mask` selects which chips'
    /// segments get charged content (the rest carry the row's discharged
    /// pattern), `fill_seed` varies the charged byte.
    WriteLine {
        /// Bank index.
        bank: u64,
        /// Rank-row index.
        row: u64,
        /// Line slot within the row.
        slot: u64,
        /// Per-chip charge mask (bit `c` charges chip `c`'s segment).
        chip_mask: u8,
        /// Varies the charged byte value.
        fill_seed: u8,
    },
    /// OS cleanse of a rank-row back to the discharged pattern.
    Cleanse {
        /// Bank index.
        bank: u64,
        /// Rank-row index.
        row: u64,
    },
    /// Remap a rank-row to a spare (only ever issued before refreshes).
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
    /// Which outcome field disagreed.
    pub field: &'static str,
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

/// Builds the chip-major payload of a [`Command::WriteLine`]: chips in
/// `chip_mask` carry a charged byte derived from `fill_seed`, the rest
/// the row's discharged pattern.
fn line_payload(
    config: &SystemConfig,
    discharged_byte: u8,
    chip_mask: u8,
    fill_seed: u8,
) -> Vec<u8> {
    let chips = config.dram.num_chips;
    let seg = config.line.line_bytes / chips;
    // Any value other than the discharged byte charges the segment; xor
    // with a non-zero odd constant guarantees the difference.
    let fill = discharged_byte ^ (fill_seed | 0x01);
    let mut line = vec![0u8; config.line.line_bytes];
    for chip in 0..chips {
        let byte = if chip_mask & (1 << (chip % 8)) != 0 {
            fill
        } else {
            discharged_byte
        };
        line[chip * seg..(chip + 1) * seg].fill(byte);
    }
    line
}

/// Runs `commands` against both sides and returns the first divergence,
/// if any. `Ok(None)` means full agreement (including final totals).
///
/// # Errors
///
/// Propagates configuration/addressing errors from the production stack
/// (these are harness bugs, not divergences).
pub fn run_differential(
    config: &SystemConfig,
    setup: &DiffSetup,
    commands: &[Command],
) -> Result<Option<Box<DivergenceReport>>> {
    let mut rank = DramRank::new(config)?;
    let recorder = Arc::new(TraceRecorder::memory());
    let mut engine = {
        let _telemetry = Telemetry::push_current(Arc::new(Telemetry::new()));
        let _trace = TraceRecorder::push_current(Arc::clone(&recorder));
        RefreshEngine::new(config, setup.policy)?
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

    let diverged = |index: usize,
                    command: &Command,
                    field: &'static str,
                    expected: u64,
                    actual: u64|
     -> Box<DivergenceReport> {
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

    for (index, command) in commands.iter().enumerate() {
        match *command {
            Command::WriteLine {
                bank,
                row,
                slot,
                chip_mask,
                fill_seed,
            } => {
                let line = line_payload(config, oracle.discharged_byte(row), chip_mask, fill_seed);
                rank.write_encoded_line(
                    BankId(bank as usize),
                    RowIndex(row),
                    slot as usize,
                    &line,
                )?;
                engine.note_write(&rank, BankId(bank as usize), RowIndex(row));
                oracle.write_line(bank, row, slot, &line);
                oracle.note_write(bank, row);
            }
            Command::Cleanse { bank, row } => {
                rank.cleanse_row(BankId(bank as usize), RowIndex(row))?;
                engine.note_write(&rank, BankId(bank as usize), RowIndex(row));
                oracle.cleanse(bank, row);
                oracle.note_write(bank, row);
            }
            Command::Spare { bank, row } => {
                rank.add_spared_row(BankId(bank as usize), RowIndex(row));
                oracle.spare(bank, row);
            }
            Command::ProcessAr { bank, set } => {
                let actual = engine.process_ar(&rank, BankId(bank as usize), set);
                let expected = oracle.process_ar(bank, set);
                let pairs = [
                    (
                        "rows_refreshed",
                        expected.rows_refreshed,
                        actual.rows_refreshed,
                    ),
                    ("rows_skipped", expected.rows_skipped, actual.rows_skipped),
                    ("table_reads", expected.table_reads, actual.table_reads),
                    ("table_writes", expected.table_writes, actual.table_writes),
                ];
                for (field, exp, act) in pairs {
                    if exp != act {
                        return Ok(Some(diverged(index, command, field, exp, act)));
                    }
                }
            }
            Command::RunWindow => {
                let actual = engine.run_window(&mut rank);
                let expected = oracle.run_window();
                let pairs = [
                    (
                        "rows_refreshed",
                        expected.rows_refreshed,
                        actual.rows_refreshed,
                    ),
                    ("rows_skipped", expected.rows_skipped, actual.rows_skipped),
                    ("ar_commands", expected.ar_commands, actual.ar_commands),
                    ("table_reads", expected.table_reads, actual.table_reads),
                    ("table_writes", expected.table_writes, actual.table_writes),
                ];
                for (field, exp, act) in pairs {
                    if exp != act {
                        return Ok(Some(diverged(index, command, field, exp, act)));
                    }
                }
            }
        }
    }

    // Fault-free runs must also leave the production integrity audit
    // clean: no stale skip promise on a charged row.
    if setup.engine_skew == 0 && setup.oracle_skew == 0 {
        let hazards = engine.audit_hazards(&rank);
        if hazards != 0 {
            return Ok(Some(diverged(
                commands.len(),
                commands.last().unwrap_or(&Command::RunWindow),
                "audit_hazards",
                0,
                hazards,
            )));
        }
    }
    Ok(None)
}

/// Generates a reproducible command sequence for `config` from `seed`.
///
/// The mix is tuned to exercise the interesting transitions: writes that
/// charge a *subset* of chips (so staggered chip/row pairing matters),
/// discharging overwrites, cleanses, occasional spares up front, and
/// both individual AR commands and full windows.
pub fn generate_commands(config: &SystemConfig, seed: u64, len: usize) -> Vec<Command> {
    let mut rng = SplitMix64::new(seed ^ 0xC0FF_EE00_D15E_A5E5);
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
        let command = if roll < 40 {
            Command::WriteLine {
                bank: rng.below(banks),
                row: rng.below(rows),
                slot: rng.below(slots),
                // Bias toward sparse masks so per-chip charge varies; 0
                // is a legal "all segments discharged" write.
                chip_mask: (rng.next_u64() & rng.next_u64() & 0xFF) as u8,
                fill_seed: (rng.next_u64() & 0xFF) as u8,
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
            generate_commands(&cfg, 7, 40),
            generate_commands(&cfg, 7, 40)
        );
        assert_ne!(
            generate_commands(&cfg, 7, 40),
            generate_commands(&cfg, 8, 40)
        );
    }

    #[test]
    fn clean_runs_agree() {
        let cfg = SystemConfig::small_test();
        let commands = generate_commands(&cfg, 42, 48);
        let report = run_differential(
            &cfg,
            &DiffSetup::clean(RefreshPolicy::ChargeAware),
            &commands,
        )
        .unwrap();
        assert!(
            report.is_none(),
            "unexpected divergence: {}",
            report.unwrap()
        );
    }

    #[test]
    fn payloads_respect_the_chip_mask() {
        let cfg = SystemConfig::small_test();
        let line = line_payload(&cfg, 0x00, 0b0000_0101, 0x10);
        let seg = cfg.line.line_bytes / cfg.dram.num_chips;
        assert!(line[0..seg].iter().all(|&b| b != 0x00));
        assert!(line[seg..2 * seg].iter().all(|&b| b == 0x00));
        assert!(line[2 * seg..3 * seg].iter().all(|&b| b != 0x00));
        // Anti-cell rows: discharged byte is 0xFF and masked-out chips
        // carry it verbatim.
        let anti = line_payload(&cfg, 0xFF, 0b0000_0010, 0x00);
        assert!(anti[0..seg].iter().all(|&b| b == 0xFF));
        assert!(anti[seg..2 * seg].iter().all(|&b| b != 0xFF));
    }

    #[test]
    fn divergence_reports_render_the_command_index() {
        let report = DivergenceReport {
            command_index: 17,
            command: "RunWindow".into(),
            field: "rows_skipped",
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
