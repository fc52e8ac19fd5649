//! `zr-lens` — audit and visualize instrumented runs.
//!
//! ```text
//! zr-lens audit <manifest.json>
//! zr-lens html  <manifest.json> [--out FILE] [--history BENCH_perf.json]
//! zr-lens show  <manifest.json>
//! ```
//!
//! `audit` exits nonzero on the first cross-layer divergence, printing
//! it as `layer= key= lhs= rhs=`. `html` writes the self-contained
//! dashboard next to the manifest (`lens.html`) unless `--out` says
//! otherwise. `show` prints the manifest summary. Reports go through
//! [`zr_types::Stdout`], so a reader that stops early (`zr-lens show
//! manifest.json | head`) only cuts them short.

use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use zr_lens::manifest::hex64;
use zr_lens::{LoadedRun, Manifest};
use zr_types::Stdout;

fn usage() -> ExitCode {
    eprintln!("usage: zr-lens audit <manifest.json>");
    eprintln!("       zr-lens html  <manifest.json> [--out FILE] [--history BENCH_perf.json]");
    eprintln!("       zr-lens show  <manifest.json>");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => return usage(),
    };
    let out = &mut Stdout::new();
    let result = match command {
        "audit" => match rest {
            [manifest] => cmd_audit(Path::new(manifest), out),
            _ => return usage(),
        },
        "html" => cmd_html(rest, out),
        "show" => match rest {
            [manifest] => cmd_show(Path::new(manifest), out),
            _ => return usage(),
        },
        _ => return usage(),
    };
    out.finish("zr-lens", result)
}

fn cmd_audit(manifest: &Path, out: &mut Stdout) -> io::Result<ExitCode> {
    match zr_lens::audit(manifest) {
        Ok(report) => {
            write!(out, "{}", report.render())?;
            Ok(if report.is_ok() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        Err(message) => {
            eprintln!("zr-lens: {message}");
            Ok(ExitCode::FAILURE)
        }
    }
}

fn cmd_html(rest: &[String], out: &mut Stdout) -> io::Result<ExitCode> {
    let mut manifest_path: Option<PathBuf> = None;
    let mut out_path: Option<PathBuf> = None;
    let mut history_path: Option<PathBuf> = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => match it.next() {
                Some(p) => out_path = Some(PathBuf::from(p)),
                None => return Ok(usage()),
            },
            "--history" => match it.next() {
                Some(p) => history_path = Some(PathBuf::from(p)),
                None => return Ok(usage()),
            },
            _ if manifest_path.is_none() => manifest_path = Some(PathBuf::from(arg)),
            _ => return Ok(usage()),
        }
    }
    let Some(manifest_path) = manifest_path else {
        return Ok(usage());
    };
    let run = match LoadedRun::load_without_trace(&manifest_path) {
        Ok(run) => run,
        Err(message) => {
            eprintln!("zr-lens: {message}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let history = match &history_path {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(text) => text,
                Err(e) => {
                    eprintln!("zr-lens: cannot read {}: {e}", path.display());
                    return Ok(ExitCode::FAILURE);
                }
            };
            match zr_lens::parse_history(&text) {
                Ok(series) => series,
                Err(message) => {
                    eprintln!("zr-lens: {message}");
                    return Ok(ExitCode::FAILURE);
                }
            }
        }
        None => Vec::new(),
    };
    let html_path = out_path.unwrap_or_else(|| {
        manifest_path
            .parent()
            .unwrap_or(Path::new("."))
            .join(zr_lens::html::FILE_NAME)
    });
    let html = zr_lens::render(&run, &history);
    if let Err(e) = std::fs::write(&html_path, html) {
        eprintln!("zr-lens: cannot write {}: {e}", html_path.display());
        return Ok(ExitCode::FAILURE);
    }
    writeln!(out, "wrote {}", html_path.display())?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_show(path: &Path, out: &mut Stdout) -> io::Result<ExitCode> {
    let manifest = match Manifest::load(path) {
        Ok(manifest) => manifest,
        Err(message) => {
            eprintln!("zr-lens: {message}");
            return Ok(ExitCode::FAILURE);
        }
    };
    writeln!(out, "figure       {}", manifest.figure)?;
    writeln!(out, "config hash  {}", hex64(manifest.config_hash))?;
    writeln!(out, "seed         {:#x}", manifest.seed)?;
    writeln!(out, "threads      {}", manifest.threads)?;
    writeln!(
        out,
        "totals       {} refreshed / {} skipped / {} AR / {} reads / {} writes",
        manifest.totals.rows_refreshed,
        manifest.totals.rows_skipped,
        manifest.totals.ar_commands,
        manifest.totals.table_reads,
        manifest.totals.table_writes
    )?;
    writeln!(
        out,
        "volatile     wall {} ns, peak RSS {} bytes",
        manifest.volatile.wall_ns, manifest.volatile.peak_rss_bytes
    )?;
    for (key, value) in &manifest.env {
        match value {
            Some(v) => writeln!(out, "env          {key}={v}")?,
            None => writeln!(out, "env          {key} (unset)")?,
        }
    }
    for artifact in &manifest.artifacts {
        writeln!(
            out,
            "artifact     {:<14} {} ({} bytes, fnv {}{})",
            artifact.kind,
            artifact.path,
            artifact.bytes,
            hex64(artifact.fnv),
            if artifact.volatile { ", volatile" } else { "" }
        )?;
    }
    Ok(ExitCode::SUCCESS)
}
