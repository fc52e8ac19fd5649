//! Benchmark harness regenerating every table and figure of the
//! ZERO-REFRESH paper.
//!
//! Each table/figure has a function in [`figures`] that runs the
//! experiment and prints the same rows/series the paper reports. The
//! functions are shared by two kinds of targets:
//!
//! - `src/bin/*` — runnable reports:
//!   `cargo run --release -p zr-bench --bin fig14_refresh_reduction`
//! - `benches/paper_figures.rs` — every report in one `cargo bench`
//!   target (`harness = false`).
//!
//! Host-time measurements live in [`perf`] (`zr-bench perf`), not in
//! `cargo bench`.
//!
//! The scale knobs `ZR_CAPACITY_MB`, `ZR_WINDOWS` and `ZR_SEED` size
//! every run; [`zr_types::knobs`] holds their grammar and defaults. The
//! mechanism is value-based, so normalized results are scale-invariant.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod figures;
pub mod perf;
pub mod report;

use std::process::ExitCode;

use zr_sim::experiments::ExperimentConfig;
use zr_telemetry::Telemetry;
use zr_types::{knobs, Error};

/// Checks every env knob ([`knobs::check`]), then builds the
/// harness-wide experiment configuration from the scale knobs (see the
/// crate docs) and validates it: the one checkpoint every report binary
/// passes before it simulates anything.
///
/// # Errors
///
/// [`Error::InvalidConfig`] naming the knob and its value when a knob's
/// grammar rejects it or the capacity overflows, else naming the
/// capacity and window knobs' values and what
/// [`ExperimentConfig::validate`] rejects (zero windows, a capacity that
/// holds no valid geometry, ...).
pub fn experiment_config() -> zr_types::Result<ExperimentConfig> {
    knobs::check()?;
    let capacity_mb = knobs::CAPACITY_MB.int().unwrap_or(16);
    let config = ExperimentConfig {
        capacity_bytes: capacity_mb.checked_mul(1 << 20).ok_or_else(|| {
            Error::invalid_config(format!("ZR_CAPACITY_MB={capacity_mb} overflows u64 bytes"))
        })?,
        windows: knobs::WINDOWS.int().unwrap_or(4),
        seed: knobs::SEED.int().unwrap_or(0x5EED),
        ..ExperimentConfig::default()
    };
    config.validate().map_err(|e| match e {
        Error::InvalidConfig { reason } => Error::invalid_config(format!(
            "ZR_CAPACITY_MB={capacity_mb}, ZR_WINDOWS={}: {reason}",
            config.windows
        )),
        other => other,
    })?;
    Ok(config)
}

/// The `main` of every report binary that takes the experiment config:
/// reads it through [`experiment_config`], runs `figure` on it under
/// [`run_figure`], and turns an error from either into a one-line
/// message on stderr and a failing exit status.
pub fn figure_main<T>(
    name: &str,
    figure: impl FnOnce(&ExperimentConfig) -> zr_types::Result<T>,
) -> ExitCode {
    match experiment_config().and_then(|exp| run_figure(name, &exp, || figure(&exp))) {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{name}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one figure/report function under a telemetry scope named after
/// the figure. When `ZR_TELEMETRY` names an
/// output directory, the event sink is flushed and the full metrics
/// snapshot is written to `<dir>/<name>_snapshot.json` after the run.
/// When `ZR_TRACE` is set, the process-wide flight recorder is finalized
/// so the trace file on disk ends on a complete frame. When `ZR_PROF`
/// names a directory, the span profiler is installed for the run and
/// the captured profile is exported there as `<name>.folded` plus
/// `<name>_profile.json` — the profiler is a process-wide span observer
/// with per-thread span stacks, so sweep-pool workers (`ZR_THREADS`,
/// see `docs/PARALLELISM.md`) accumulate into one merged profile rather
/// than interleaving. When `ZR_XRAY` is enabled, the charge-domain
/// capture is exported after the run as `xray.json` + `xray.csv` — to
/// the directory `ZR_XRAY` names (any value other than `0`/`1`), else
/// the telemetry output directory, else `xray-out/` (see
/// `docs/XRAY.md`).
///
/// After the exports, a run manifest (`manifest.json`, see
/// `docs/LENS.md`) is written to the `ZR_LENS` directory when set,
/// else the telemetry output directory: it records the figure name,
/// the config hash ([`zr_sim::experiments::ExperimentConfig::canonical_string`]
/// hashed with FNV-1a 64), seed, thread count, env knobs, the refresh
/// counter deltas, and the path + length + checksum of every artifact
/// the run registered. `zr-lens audit <manifest>` cross-checks the
/// layers against each other afterwards.
///
/// On completion a one-line wall-time and throughput summary (chip-row
/// refresh decisions and cacheline accesses per second, plus the sweep
/// thread count, the config hash and the manifest path when one was
/// written) is printed to stderr as a single write. The counter
/// deltas are taken on the harness telemetry instance *after* the pool
/// has absorbed every worker's registry, so they aggregate across
/// workers and are thread-count invariant.
///
/// `config` is the experiment configuration the manifest records. The
/// `src/bin/*` report binaries all go through this wrapper by way of
/// [`figure_main`]:
///
/// ```no_run
/// fn main() -> std::process::ExitCode {
///     zr_bench::figure_main(
///         "fig14_refresh_reduction",
///         zr_bench::figures::fig14_refresh_reduction,
///     )
/// }
/// ```
pub fn run_figure<T>(name: &str, config: &ExperimentConfig, f: impl FnOnce() -> T) -> T {
    let telemetry = Telemetry::current();
    let _scope = telemetry.scope(name);
    let profiler = knobs::PROF
        .path()
        .map(|dir| (zr_prof::Profiler::install_global(), dir));
    let before = telemetry.snapshot();
    let start = std::time::Instant::now();
    let out = f();
    let wall = start.elapsed();
    let after = telemetry.snapshot();
    let telemetry_dir = knobs::TELEMETRY.path();
    if let Some(dir) = &telemetry_dir {
        telemetry.flush();
        let path = dir.join(format!("{name}_snapshot.json"));
        match telemetry.write_snapshot(&path) {
            Ok(()) => {
                eprintln!("[zr-bench] wrote {}", path.display());
                // Snapshot histograms carry span wall times: volatile.
                zr_lens::register_artifact("snapshot", path, true);
            }
            Err(e) => eprintln!("[zr-bench] failed to write {}: {e}", path.display()),
        }
        let events = dir.join("events.jsonl");
        if events.is_file() {
            // Event lines are stamped with microsecond offsets: volatile.
            zr_lens::register_artifact("events", events, true);
        }
    }
    let trace = zr_trace::TraceRecorder::current();
    if trace.is_active() {
        trace.finalize();
        eprintln!(
            "[zr-bench] finalized flight-recorder trace ({} records)",
            trace.recorded()
        );
        if let Some(path) = zr_trace::env_trace_path() {
            if path.is_file() {
                zr_lens::register_artifact("trace", path, false);
            }
        }
    }
    let xray = zr_xray::XrayRecorder::current();
    if xray.is_active() {
        // Everything here goes to stderr: with ZR_XRAY off, stdout must
        // stay byte-identical, and with it on nothing may leak into the
        // figure rows either.
        let dir = knobs::XRAY
            .path()
            .or_else(|| telemetry_dir.clone())
            .unwrap_or_else(|| std::path::PathBuf::from("xray-out"));
        match zr_xray::export_capture(&xray, &dir) {
            Ok(()) => {
                eprintln!(
                    "[zr-bench] wrote xray capture to {}",
                    dir.join(zr_xray::JSON_FILE_NAME).display()
                );
                zr_lens::register_artifact("xray-json", dir.join(zr_xray::JSON_FILE_NAME), false);
                zr_lens::register_artifact("xray-csv", dir.join(zr_xray::CSV_FILE_NAME), false);
            }
            Err(e) => eprintln!("[zr-bench] xray export failed: {e}"),
        }
    }
    let mut calibration_wall_ns = 0;
    if let Some((profiler, dir)) = profiler {
        // capture_snapshot stamps calibration + thread-count metadata so
        // the export can be diffed across machines (`zr-prof diff`).
        let profile = zr_prof::capture_snapshot(profiler);
        calibration_wall_ns = profile.calibration_wall_ns;
        match zr_prof::export_profile(&profile, &dir, name) {
            Ok(()) => {
                eprintln!("[zr-bench] wrote {} profile to {}", name, dir.display());
                // Both profile exports carry wall times: volatile.
                zr_lens::register_artifact(
                    "profile-json",
                    dir.join(format!("{name}_profile.json")),
                    true,
                );
                zr_lens::register_artifact(
                    "profile-folded",
                    dir.join(format!("{name}.folded")),
                    true,
                );
            }
            Err(e) => eprintln!("[zr-bench] profile export failed: {e}"),
        }
    }
    let delta = |counter: &str| {
        after
            .counter(counter)
            .saturating_sub(before.counter(counter))
    };
    let rows = delta("dram.refresh.rows_refreshed") + delta("dram.refresh.rows_skipped");
    let accesses = delta("memctrl.reads") + delta("memctrl.writes");
    let config_hash = zr_lens::fnv64(config.canonical_string().as_bytes());
    let manifest_dir = knobs::LENS.path().or(telemetry_dir);
    let manifest_path = match manifest_dir {
        Some(dir) => {
            let entries = zr_lens::drain_artifacts();
            let (artifacts, volatile_artifacts) = zr_lens::collect_artifacts(&dir, &entries);
            let manifest = zr_lens::Manifest {
                figure: name.to_string(),
                config_hash,
                seed: config.seed,
                threads: config.effective_threads() as u64,
                env: knobs::recorded(),
                totals: zr_lens::RunTotals {
                    rows_refreshed: delta("dram.refresh.rows_refreshed"),
                    rows_skipped: delta("dram.refresh.rows_skipped"),
                    ar_commands: delta("dram.refresh.ar_commands"),
                    table_reads: delta("dram.refresh.table_reads"),
                    table_writes: delta("dram.refresh.table_writes"),
                },
                artifacts,
                volatile: zr_lens::Volatile {
                    wall_ns: wall.as_nanos() as u64,
                    peak_rss_bytes: zr_prof::clock::peak_rss_bytes(),
                    calibration_wall_ns,
                    artifacts: volatile_artifacts,
                },
            };
            match manifest.write(&dir) {
                Ok(path) => Some(path),
                Err(e) => {
                    eprintln!("[zr-bench] manifest write failed: {e}");
                    None
                }
            }
        }
        None => {
            // No output directory anywhere: drop any registered
            // artifacts so they cannot leak into a later figure's
            // manifest in the same process.
            let _ = zr_lens::drain_artifacts();
            None
        }
    };
    let secs = wall.as_secs_f64().max(f64::EPSILON);
    // One pre-formatted write: worker threads (and anything else on
    // stderr) cannot interleave into the middle of the summary line.
    let summary = format!(
        "[zr-bench] {name}: {:.2}s wall @ {} thread(s), {rows} chip-row decisions ({:.0}/s), \
         {accesses} line accesses ({:.0}/s), config {}{}\n",
        wall.as_secs_f64(),
        knobs::thread_count(),
        rows as f64 / secs,
        accesses as f64 / secs,
        zr_lens::hex64(config_hash),
        match &manifest_path {
            Some(path) => format!(", manifest {}", path.display()),
            None => String::new(),
        },
    );
    use std::io::Write as _;
    let _ = std::io::stderr().write_all(summary.as_bytes());
    out
}
