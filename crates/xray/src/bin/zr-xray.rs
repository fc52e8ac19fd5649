//! The `zr-xray` CLI: renders charge-domain captures.
//!
//! ```text
//! zr-xray report <xray.json> [--engine N]   # heatmaps + stage table
//! zr-xray diff <a.json> <b.json>            # compare two captures
//! ```
//!
//! `report` prints the engine summary, a bank×window skip-fraction
//! heatmap per engine (or only engine `N` with `--engine`) and the
//! per-stage savings table; it exits non-zero if any stage row fails
//! the telescoping-sum check. `diff` prints per-engine and per-stage
//! deltas between two captures, or `captures are identical`. Both print
//! through [`Stdout`], so `zr-xray report xray.json | head` keeps the
//! command's own exit status.

use std::io::{self, Write};
use std::path::Path;
use std::process::ExitCode;

use zr_types::Stdout;
use zr_xray::report::{attribution_exact, render_diff, render_report};
use zr_xray::XraySnapshot;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  zr-xray report <xray.json> [--engine N]\n  zr-xray diff <a.json> <b.json>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = &mut Stdout::new();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "report" => cmd_report(rest, out),
        Some((cmd, rest)) if cmd == "diff" => cmd_diff(rest, out),
        _ => return usage(),
    };
    out.finish("zr-xray", result)
}

fn load(path: &str) -> Result<XraySnapshot, ExitCode> {
    zr_xray::load_snapshot(Path::new(path)).map_err(|e| {
        eprintln!("zr-xray: {e}");
        ExitCode::FAILURE
    })
}

fn cmd_report(rest: &[String], out: &mut Stdout) -> io::Result<ExitCode> {
    let Some(path) = rest.first() else {
        return Ok(usage());
    };
    let mut engine: Option<usize> = None;
    let mut it = rest[1..].iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--engine" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => engine = Some(n),
                None => return Ok(usage()),
            },
            _ => return Ok(usage()),
        }
    }
    let snap = match load(path) {
        Ok(snap) => snap,
        Err(code) => return Ok(code),
    };
    if let Some(n) = engine {
        if n >= snap.engines.len() {
            eprintln!(
                "zr-xray: engine {n} out of range ({} engine(s) in capture)",
                snap.engines.len()
            );
            return Ok(ExitCode::FAILURE);
        }
    }
    write!(out, "{}", render_report(&snap, engine))?;
    if attribution_exact(&snap) {
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("zr-xray: stage attribution does not telescope — capture is inconsistent");
        Ok(ExitCode::FAILURE)
    }
}

fn cmd_diff(rest: &[String], out: &mut Stdout) -> io::Result<ExitCode> {
    let (Some(a), Some(b), None) = (rest.first(), rest.get(1), rest.get(2)) else {
        return Ok(usage());
    };
    let (a, b) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(code), _) | (_, Err(code)) => return Ok(code),
    };
    write!(out, "{}", render_diff(&a, &b))?;
    Ok(ExitCode::SUCCESS)
}
