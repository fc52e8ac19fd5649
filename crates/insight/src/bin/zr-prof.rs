//! The `zr-prof` CLI: render and compare saved profiles.
//!
//! ```text
//! zr-prof report <profile.json> [--top N]                 # hot-scope table
//! zr-prof folded <profile.json>                           # collapsed stacks to stdout
//! zr-prof diff <old.json> <new.json> [--top N] [--json F] # span-level deltas
//! ```
//!
//! Profiles are captured by the workloads themselves: `zr-bench
//! profile`, or any figure binary run with `ZR_PROF=<dir>`. `diff`
//! scales the old capture by the calibration ratio between the two
//! machines before subtracting (see `docs/INSIGHT.md`), prints a human
//! table, and with `--json` also writes the machine-readable delta
//! document.
//!
//! Output goes through [`Stdout`], so `zr-prof report p.json | head`
//! keeps the command's own exit status.

use std::io::Write;
use std::path::Path;
use std::process::ExitCode;

use zr_insight::load_profile;
use zr_types::Stdout;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  zr-prof report <profile.json> [--top N]\n  zr-prof folded <profile.json>\n  zr-prof diff <old.json> <new.json> [--top N] [--json <out.json>]"
    );
    ExitCode::from(2)
}

fn failed(e: String) -> ExitCode {
    eprintln!("zr-prof: {e}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let report = match run(&args) {
        Ok(report) => report,
        Err(code) => return code,
    };
    let out = &mut Stdout::new();
    let status = out.write_all(report.as_bytes()).map(|()| ExitCode::SUCCESS);
    out.finish("zr-prof", status)
}

/// The report the command prints, or the exit status it ends with.
fn run(args: &[String]) -> Result<String, ExitCode> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(usage());
    };
    match cmd.as_str() {
        "report" => {
            let Some(path) = rest.first() else {
                return Err(usage());
            };
            let mut top = 20usize;
            let mut it = rest[1..].iter();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--top" => match it.next().and_then(|v| v.parse().ok()) {
                        Some(n) => top = n,
                        None => return Err(usage()),
                    },
                    _ => return Err(usage()),
                }
            }
            load_profile(Path::new(path))
                .map(|profile| profile.report(top))
                .map_err(failed)
        }
        "folded" => {
            let Some(path) = rest.first() else {
                return Err(usage());
            };
            load_profile(Path::new(path))
                .map(|profile| profile.to_folded())
                .map_err(failed)
        }
        "diff" => {
            let (Some(old_path), Some(new_path)) = (rest.first(), rest.get(1)) else {
                return Err(usage());
            };
            let mut top = 10usize;
            let mut json_out: Option<String> = None;
            let mut it = rest[2..].iter();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--top" => match it.next().and_then(|v| v.parse().ok()) {
                        Some(n) => top = n,
                        None => return Err(usage()),
                    },
                    "--json" => match it.next() {
                        Some(path) => json_out = Some(path.clone()),
                        None => return Err(usage()),
                    },
                    _ => return Err(usage()),
                }
            }
            let old = load_profile(Path::new(old_path)).map_err(failed)?;
            let new = load_profile(Path::new(new_path)).map_err(failed)?;
            let diff = zr_insight::diff_profiles(&old, &new);
            if let Some(path) = json_out {
                std::fs::write(&path, diff.to_json().to_pretty())
                    .map_err(|e| failed(format!("cannot write {path}: {e}")))?;
            }
            Ok(diff.table(top))
        }
        _ => Err(usage()),
    }
}
