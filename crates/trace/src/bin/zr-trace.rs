//! The `zr-trace` CLI: offline analysis of flight-recorder traces.
//!
//! ```text
//! zr-trace inspect <trace.zrt> [--bank N] [--row N] [--kind K] [--window N] [--dump]
//! zr-trace replay  <trace.zrt>
//! zr-trace diff    <a.zrt> <b.zrt>
//! zr-trace export --chrome <trace.zrt> [-o out.json]
//! ```
//!
//! `replay` exits 1 when the recorded skip decisions diverge from the
//! shadow model and 3 when some decisions belong to engines the trace
//! never announced (so they went unverified), so it can gate CI; errors
//! exit 2. A reader that stops early (`zr-trace diff a.zrt b.zrt | head`)
//! only cuts the report short: the exit status stays the one the command
//! would have returned.

use std::error::Error;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use zr_trace::{
    diff_traces, filter_records, read_trace, replay, summarize, RecordFilter, RecordKind,
    TraceRecord, FLAG_TRUSTED,
};
use zr_types::Stdout;

/// What a subcommand returns: its exit status, or an error that exits 2.
type CmdResult = Result<ExitCode, Box<dyn Error>>;

/// `replay`'s exit status when the trace holds REF decisions of engines
/// it never announced: those decisions were not verified, so the run
/// neither passes (0) nor diverged (1).
const EXIT_UNVERIFIED: u8 = 3;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = &mut Stdout::new();
    let result = match args.first().map(String::as_str) {
        Some("inspect") => cmd_inspect(&args[1..], out),
        Some("replay") => cmd_replay(&args[1..], out),
        Some("diff") => cmd_diff(&args[1..], out),
        Some("export") => cmd_export(&args[1..], out),
        Some("--help" | "-h" | "help") | None => write!(out, "{USAGE}")
            .map(|()| ExitCode::SUCCESS)
            .map_err(Into::into),
        Some(other) => Err(format!("unknown subcommand `{other}`\n{USAGE}").into()),
    };
    let result = result.and_then(|code| out.flush().map(|()| code).map_err(Into::into));
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("zr-trace: {msg}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "\
zr-trace: offline analysis of ZERO-REFRESH flight-recorder traces

USAGE:
  zr-trace inspect <trace.zrt> [--bank N] [--row N] [--kind KIND] [--window N] [--dump]
  zr-trace replay  <trace.zrt>
  zr-trace diff    <a.zrt> <b.zrt>
  zr-trace export --chrome <trace.zrt> [-o out.json]

SUBCOMMANDS:
  inspect   Print a summary (record counts, engines, per-bank refresh/skip
            totals, per-window skip-fraction percentiles). With a filter or
            --dump, print the matching records one per line.
  replay    Re-drive the charge-aware refresh decisions from the recorded
            access stream and verify them record-for-record. Exits 1 on
            divergence, 3 when decisions of unannounced engines went
            unverified.
  diff      Align the command streams of two traces and report the first
            differing positions.
  export    Convert to Chrome trace-event JSON (--chrome) for
            chrome://tracing or Perfetto. Writes to stdout unless -o.
";

fn parse_u64(flag: &str, value: Option<&String>) -> Result<u64, String> {
    let raw = value.ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse().map_err(|_| format!("bad {flag} value `{raw}`"))
}

fn load(path: &str) -> Result<Vec<TraceRecord>, String> {
    read_trace(Path::new(path)).map_err(|e| e.to_string())
}

fn cmd_inspect(args: &[String], out: &mut Stdout) -> CmdResult {
    let mut path = None;
    let mut filter = RecordFilter::default();
    let mut dump = false;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--bank" => {
                let bank = parse_u64("--bank", it.next())?;
                let bank = u32::try_from(bank).map_err(|_| {
                    format!("--bank {bank} is beyond the largest bank {}", u32::MAX)
                })?;
                filter.bank = Some(bank);
            }
            "--row" => filter.row = Some(parse_u64("--row", it.next())?),
            "--window" => filter.window = Some(parse_u64("--window", it.next())?),
            "--kind" => {
                let raw = it.next().ok_or("--kind needs a value")?;
                filter.kind = Some(
                    RecordKind::parse(raw)
                        .ok_or_else(|| format!("unknown kind `{raw}` (try e.g. ref_skip, act)"))?,
                );
            }
            "--dump" => dump = true,
            other if path.is_none() && !other.starts_with('-') => path = Some(other.to_string()),
            other => return Err(format!("unexpected argument `{other}`").into()),
        }
    }
    let path = path.ok_or("inspect needs a trace path")?;
    let records = load(&path)?;

    if dump || filter.is_some() {
        let hits = filter_records(&records, &filter);
        for (i, rec) in &hits {
            if out.is_closed() {
                break;
            }
            writeln!(out, "{}", format_record(*i, rec))?;
        }
        eprintln!("{} of {} records matched", hits.len(), records.len());
        return Ok(ExitCode::SUCCESS);
    }

    let s = summarize(&records);
    writeln!(out, "trace: {path}")?;
    writeln!(out, "records: {}", s.records)?;
    writeln!(out, "windows completed: {}", s.windows)?;
    for meta in &s.engines {
        writeln!(
            out,
            "engine {}: {}, {} banks x {} sets x {} rows x {} chips",
            meta.engine,
            meta.policy_name(),
            meta.num_banks,
            meta.ar_sets_per_bank,
            meta.ar_rows,
            meta.num_chips,
        )?;
    }
    writeln!(out, "by kind:")?;
    for (kind, count) in &s.by_kind {
        writeln!(out, "  {kind:<18} {count}")?;
    }
    writeln!(
        out,
        "chip-row refreshes: {} performed, {} skipped ({:.1}% skip rate)",
        s.rows_refreshed,
        s.rows_skipped,
        100.0 * s.skip_fraction()
    )?;
    if !s.per_bank.is_empty() {
        writeln!(out, "per bank (refreshed / skipped):")?;
        for (bank, (refreshed, skipped)) in &s.per_bank {
            writeln!(out, "  bank {bank:<3} {refreshed} / {skipped}")?;
        }
    }
    let hist = &s.window_skip_fraction;
    if hist.count > 0 {
        let pct = |q: f64| hist.percentile(q).unwrap_or(0.0) * 100.0;
        writeln!(
            out,
            "per-window skip fraction: p50 {:.1}%  p90 {:.1}%  p99 {:.1}%",
            pct(0.50),
            pct(0.90),
            pct(0.99)
        )?;
    }
    Ok(ExitCode::SUCCESS)
}

fn format_record(index: usize, rec: &TraceRecord) -> String {
    let trusted = if rec.flags & FLAG_TRUSTED != 0 {
        " trusted"
    } else {
        ""
    };
    match rec.kind {
        RecordKind::Act | RecordKind::Rd | RecordKind::Wr | RecordKind::Pre => format!(
            "#{index:<8} {:<18} bank {:<3} row {:<8} {:.1}..{:.1} ns",
            rec.kind.name(),
            rec.bank,
            rec.a,
            rec.start_ns(),
            rec.finish_ns()
        ),
        RecordKind::RefIssue | RecordKind::RefSkip => format!(
            "#{index:<8} {:<18} bank {:<3} set {:<8} refreshed {} payload {}{trusted} (engine {})",
            rec.kind.name(),
            rec.bank,
            rec.a,
            rec.b,
            rec.c,
            rec.src
        ),
        _ => format!(
            "#{index:<8} {:<18} bank {:<3} a {:<8} b {} c {} flags {:#06x} src {}",
            rec.kind.name(),
            rec.bank,
            rec.a,
            rec.b,
            rec.c,
            rec.flags,
            rec.src
        ),
    }
}

fn cmd_replay(args: &[String], out: &mut Stdout) -> CmdResult {
    let path = args.first().ok_or("replay needs a trace path")?;
    let records = load(path)?;
    let report = replay(&records);
    writeln!(
        out,
        "replayed {} charge-aware engine(s): {} decisions checked, {} writes applied",
        report.engines_replayed, report.decisions_checked, report.writes_applied
    )?;
    if !report.is_clean() {
        for d in &report.divergences {
            if out.is_closed() {
                break;
            }
            writeln!(out, "DIVERGENCE {d}")?;
        }
        writeln!(out, "{} divergence(s)", report.divergences.len())?;
        return Ok(ExitCode::FAILURE);
    }
    if report.decisions_unverified > 0 {
        writeln!(
            out,
            "NOT VERIFIED: {} REF decision(s) belong to engines with no meta record \
             (ring eviction or a lost announcement)",
            report.decisions_unverified
        )?;
        return Ok(ExitCode::from(EXIT_UNVERIFIED));
    }
    writeln!(
        out,
        "replay clean: recorded decisions match the shadow model"
    )?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_diff(args: &[String], out: &mut Stdout) -> CmdResult {
    let (a, b) = match args {
        [a, b] => (a, b),
        _ => return Err("diff needs exactly two trace paths".into()),
    };
    let left = load(a)?;
    let right = load(b)?;
    let diff = diff_traces(&left, &right);
    writeln!(
        out,
        "commands: {} vs {} ({} compared)",
        diff.left_commands, diff.right_commands, diff.compared
    )?;
    if diff.is_identical() {
        writeln!(out, "command streams are identical")?;
        return Ok(ExitCode::SUCCESS);
    }
    for entry in &diff.entries {
        if out.is_closed() {
            break;
        }
        writeln!(out, "at command #{}:", entry.position)?;
        match &entry.left {
            Some(rec) => writeln!(out, "  left : {}", format_record(entry.position, rec))?,
            None => writeln!(out, "  left : <absent>")?,
        }
        match &entry.right {
            Some(rec) => writeln!(out, "  right: {}", format_record(entry.position, rec))?,
            None => writeln!(out, "  right: <absent>")?,
        }
    }
    writeln!(out, "{} differing position(s)", diff.total_differences)?;
    Ok(ExitCode::FAILURE)
}

fn cmd_export(args: &[String], out: &mut Stdout) -> CmdResult {
    let mut chrome = false;
    let mut path = None;
    let mut out_path: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--chrome" => chrome = true,
            "-o" | "--out" => {
                out_path = Some(PathBuf::from(it.next().ok_or("-o needs a path")?));
            }
            other if path.is_none() && !other.starts_with('-') => path = Some(other.to_string()),
            other => return Err(format!("unexpected argument `{other}`").into()),
        }
    }
    if !chrome {
        return Err("export currently supports only --chrome".into());
    }
    let path = path.ok_or("export needs a trace path")?;
    let records = load(&path)?;
    match out_path {
        Some(out_path) => {
            let mut file = std::fs::File::create(&out_path)
                .map_err(|e| format!("cannot create {}: {e}", out_path.display()))?;
            zr_trace::write_chrome_json(&records, &mut file).map_err(|e| e.to_string())?;
            eprintln!("wrote {} events to {}", records.len(), out_path.display());
        }
        None => zr_trace::write_chrome_json(&records, out)?,
    }
    Ok(ExitCode::SUCCESS)
}
