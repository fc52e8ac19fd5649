//! `zr-serve` — the sweep service over newline-delimited JSON.
//!
//! ```text
//! zr-serve [--cache N] [--workers N] [--lens DIR]
//! ```
//!
//! Reads one JSON request object per stdin line, writes one JSON
//! response object per stdout line (see `docs/SERVE.md` for the
//! protocol). Diagnostics go to stderr only — stdout belongs to the
//! protocol. Exits on stdin EOF or a `{"op":"shutdown"}` request, after
//! draining in-flight jobs.

use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::process::ExitCode;

use zr_serve::{handle_line, Server, ServerConfig};

fn usage() -> ExitCode {
    eprintln!("usage: zr-serve [--cache N] [--workers N] [--lens DIR]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    if let Err(e) = zr_types::knobs::check() {
        eprintln!("zr-serve: {e}");
        return ExitCode::FAILURE;
    }
    let mut config = ServerConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let value = |args: &mut dyn Iterator<Item = String>| {
            args.next().ok_or_else(|| format!("{arg} needs a value"))
        };
        let result = match arg.as_str() {
            "--cache" => value(&mut args).and_then(|v| {
                v.parse::<usize>()
                    .map(|n| config.cache_entries = n)
                    .map_err(|e| format!("--cache: {e}"))
            }),
            "--workers" => value(&mut args).and_then(|v| {
                v.parse::<usize>()
                    .map(|n| config.workers = n)
                    .map_err(|e| format!("--workers: {e}"))
            }),
            "--lens" => value(&mut args).map(|v| config.lens_dir = Some(PathBuf::from(v))),
            _ => {
                eprintln!("zr-serve: unknown argument '{arg}'");
                return usage();
            }
        };
        if let Err(message) = result {
            eprintln!("zr-serve: {message}");
            return usage();
        }
    }
    eprintln!(
        "[zr-serve] ready: cache {} entries, {} worker(s){}",
        config.cache_entries.max(1),
        config.workers.max(1),
        match &config.lens_dir {
            Some(dir) => format!(", lens dir {}", dir.display()),
            None => String::new(),
        },
    );
    let mut server = Server::simulator(config);
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(line) => line,
            Err(e) => {
                eprintln!("[zr-serve] stdin read failed: {e}");
                break;
            }
        };
        let (response, down) = handle_line(&server, &line);
        if !response.is_empty()
            && writeln!(out, "{response}")
                .and_then(|()| out.flush())
                .is_err()
        {
            // The client hung up; nothing left to serve.
            break;
        }
        if down {
            break;
        }
    }
    server.shutdown();
    ExitCode::SUCCESS
}
