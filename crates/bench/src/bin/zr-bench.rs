//! The `zr-bench` harness CLI: the perf-regression suite, profile
//! capture and baseline history.
//!
//! ```text
//! zr-bench perf [--quick] [--full] [--runs N]       # run the pinned suite
//! zr-bench profile [--out DIR] [--quick]            # capture a fig14-subset profile
//! zr-bench history                                  # per-slice baseline trajectory
//! ```
//!
//! `perf` runs the standardized slices (see `zr_bench::perf`) and gates
//! the result against the repo-root `BENCH_perf.json` baseline;
//! `ZR_BLESS=1` rewrites the baseline instead (carrying the outgoing
//! baseline into the document's bounded history ring and refreshing the
//! blessed `BENCH_profile.json` span capture). The quick suite is the
//! default (it is what CI runs); `--full` selects the larger workloads,
//! which compare only against a `--full`-blessed baseline. On a
//! comparison run the measured report is also written next to the
//! baseline as `BENCH_perf.current.json` for inspection. When the gate
//! FAILS, the harness captures a fresh fig14-subset profile, diffs it
//! against the blessed `BENCH_profile.json`, names the top regressing
//! span paths on stderr, and writes `BENCH_perf.diff.json` /
//! `BENCH_perf.diff.txt` next to the baseline (CI archives both).
//!
//! `profile` runs the fig14 subset once with the span profiler
//! installed and exports `fig14_subset.folded` (flamegraph.pl/inferno
//! collapsed stacks) plus `fig14_subset_profile.json` to `--out` (or
//! `$ZR_PROF`, default `prof-out/`), then prints the hot-scope table.
//! `--quick` uses the reduced suite workload (what the blessed profile
//! and the gate's failure capture use).
//!
//! `history` is documented in `docs/INSIGHT.md`; span-level diffs of two
//! profiles are `zr-prof diff`. Reports print through [`Stdout`], so
//! `zr-bench history | head` keeps the command's own exit status.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use zr_bench::perf::{
    parallel_speedup, perf_experiment_config, run_perf_suite, PerfOptions, FIG14_SUBSET,
    PARALLEL_SLICE_THREADS,
};
use zr_insight::{diff_profiles, PerfHistory, ProfileDiff};
use zr_prof::perf::{default_baseline_path, gate, GateOutcome, PerfReport, Tolerance};
use zr_prof::{Profile, Profiler};
use zr_sim::experiments::refresh;
use zr_types::{knobs, Stdout};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  zr-bench perf [--quick] [--full] [--runs N]\n  zr-bench profile [--out DIR] [--quick]\n  zr-bench history"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    if let Err(e) = knobs::check() {
        eprintln!("[zr-bench] {e}");
        return ExitCode::FAILURE;
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let report = match args.split_first() {
        Some((cmd, rest)) if cmd == "perf" => return cmd_perf(rest),
        Some((cmd, rest)) if cmd == "profile" => cmd_profile(rest),
        Some((cmd, rest)) if cmd == "history" => cmd_history(rest),
        _ => return usage(),
    };
    let report = match report {
        Ok(report) => report,
        Err(code) => return code,
    };
    let out = &mut Stdout::new();
    let status = out.write_all(report.as_bytes()).map(|()| ExitCode::SUCCESS);
    out.finish("zr-bench", status)
}

fn cmd_perf(rest: &[String]) -> ExitCode {
    let mut opts = PerfOptions::default();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--quick" => opts.quick = true,
            "--full" => opts.quick = false,
            "--runs" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => opts.runs = Some(n),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    eprintln!(
        "[zr-bench] running perf suite ({}, {} runs per slice)",
        if opts.quick { "quick" } else { "full" },
        opts.runs.unwrap_or(if opts.quick { 3 } else { 5 }),
    );
    let current = match run_perf_suite(&opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("[zr-bench] perf suite failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for s in &current.slices {
        eprintln!(
            "[zr-bench]   {}: {:.2} ms best, {:.0} {}/s, {} allocs ({:.3} allocs/{}) @ {} thread(s)",
            s.name,
            s.wall_ns_best as f64 / 1e6,
            s.throughput_per_s,
            s.unit,
            s.allocs,
            s.allocs_per_work_unit(),
            trim_unit(&s.unit),
            s.threads,
        );
    }
    if !check_parallel_speedup(&current) {
        return ExitCode::FAILURE;
    }
    let baseline_path = default_baseline_path();
    if knobs::BLESS.on() {
        match zr_insight::bless_with_history(&baseline_path, &current) {
            Ok(()) => eprintln!(
                "[zr-bench] blessed baseline {} (history carried forward)",
                baseline_path.display()
            ),
            Err(e) => {
                eprintln!("[zr-bench] {e}");
                return ExitCode::FAILURE;
            }
        }
        // Re-bless the span-level baseline alongside the numbers, so a
        // later gate failure diffs against a capture of this code.
        let profile_path = blessed_profile_path(&baseline_path);
        return match capture_fig14_profile(true) {
            Ok(profile) => {
                if let Err(e) = std::fs::write(&profile_path, profile.to_json().to_pretty()) {
                    eprintln!("[zr-bench] cannot write {}: {e}", profile_path.display());
                    return ExitCode::FAILURE;
                }
                eprintln!("[zr-bench] blessed span profile {}", profile_path.display());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("[zr-bench] blessed profile capture failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let current_path = baseline_path.with_file_name("BENCH_perf.current.json");
    if let Err(e) = current.write(&current_path) {
        eprintln!("[zr-bench] {e}");
    }
    let baseline = PerfReport::load(&baseline_path).ok();
    let mut tolerance = Tolerance::default();
    tolerance.wall_rel = knobs::PERF_TOL.fraction().unwrap_or(tolerance.wall_rel);
    match gate(baseline.as_ref(), &current, &tolerance, false) {
        GateOutcome::Blessed => unreachable!("gate cannot bless without the flag"),
        GateOutcome::Pass { notes } => {
            for note in notes {
                eprintln!("[zr-bench] PASS {note}");
            }
            eprintln!(
                "[zr-bench] perf gate passed against {}",
                baseline_path.display()
            );
            ExitCode::SUCCESS
        }
        GateOutcome::Fail { problems } => {
            for problem in problems {
                eprintln!("[zr-bench] FAIL {problem}");
            }
            attribute_failure(&baseline_path);
            eprintln!("[zr-bench] perf gate failed (ZR_BLESS=1 re-blesses after intended changes)");
            ExitCode::FAILURE
        }
    }
}

/// `chip_rows` -> `chip_row` for the derived-rate label.
fn trim_unit(unit: &str) -> &str {
    unit.strip_suffix('s').unwrap_or(unit)
}

/// Path of the blessed span-profile baseline, next to `BENCH_perf.json`.
fn blessed_profile_path(baseline_path: &Path) -> PathBuf {
    baseline_path.with_file_name("BENCH_profile.json")
}

/// Captures a fig14-subset profile with the process-wide span profiler,
/// at the quick suite workload (what the blessed `BENCH_profile.json` and
/// the gate's failure attribution use) or the full one.
fn capture_fig14_profile(quick: bool) -> Result<Profile, String> {
    let profiler = Profiler::install_global();
    let before = profiler.snapshot();
    let exp = perf_experiment_config(quick);
    for &b in &FIG14_SUBSET {
        refresh::measure(b, 1.0, &exp).map_err(|e| format!("{} failed: {e}", b.name()))?;
    }
    let mut profile = zr_prof::capture_snapshot(profiler);
    // The global profiler accumulates for the process lifetime; subtract
    // whatever was recorded before this capture so repeated captures in
    // one process stay comparable.
    subtract_baseline(&mut profile, &before);
    Ok(profile)
}

/// Subtracts an earlier snapshot of the same accumulating profiler,
/// dropping paths that saw no new activity.
fn subtract_baseline(profile: &mut Profile, before: &Profile) {
    for node in &mut profile.nodes {
        if let Some(prev) = before.nodes.iter().find(|p| p.path == node.path) {
            node.calls = node.calls.saturating_sub(prev.calls);
            node.wall_ns = node.wall_ns.saturating_sub(prev.wall_ns);
            node.cpu_ns = node.cpu_ns.saturating_sub(prev.cpu_ns);
            node.allocs = node.allocs.saturating_sub(prev.allocs);
            node.alloc_bytes = node.alloc_bytes.saturating_sub(prev.alloc_bytes);
        }
    }
    profile.nodes.retain(|n| n.calls > 0 || n.wall_ns > 0);
}

/// On a gate failure: capture a fresh profile, diff it against the
/// blessed `BENCH_profile.json`, name the top offending span paths and
/// write the diff JSON + table next to the baseline for CI to archive.
fn attribute_failure(baseline_path: &Path) {
    let profile_path = blessed_profile_path(baseline_path);
    let blessed = match zr_insight::load_profile(&profile_path) {
        Ok(p) => p,
        Err(e) => {
            eprintln!(
                "[zr-bench] no blessed span profile to attribute against ({e}); \
                 run ZR_BLESS=1 zr-bench perf to capture one"
            );
            return;
        }
    };
    let fresh = match capture_fig14_profile(true) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("[zr-bench] attribution capture failed: {e}");
            return;
        }
    };
    let diff = diff_profiles(&blessed, &fresh);
    report_attribution(&diff);
    let json_path = baseline_path.with_file_name("BENCH_perf.diff.json");
    let txt_path = baseline_path.with_file_name("BENCH_perf.diff.txt");
    if let Err(e) = std::fs::write(&json_path, diff.to_json().to_pretty()) {
        eprintln!("[zr-bench] cannot write {}: {e}", json_path.display());
    } else {
        eprintln!("[zr-bench] wrote {}", json_path.display());
    }
    if let Err(e) = std::fs::write(&txt_path, diff.table(10)) {
        eprintln!("[zr-bench] cannot write {}: {e}", txt_path.display());
    } else {
        eprintln!("[zr-bench] wrote {}", txt_path.display());
    }
}

/// Prints the top regressing span paths of a gate-failure diff.
fn report_attribution(diff: &ProfileDiff) {
    let by_wall = diff.top_by_self_wall(5);
    if by_wall.is_empty() {
        eprintln!(
            "[zr-bench] span attribution: no span gained self wall time vs the blessed profile \
             (regression is outside the profiled fig14 capture, or machine noise)"
        );
    } else {
        eprintln!("[zr-bench] top regressing spans by self wall time (vs blessed profile):");
        for d in by_wall {
            eprintln!(
                "[zr-bench]   {:+.3} ms  {} [{}]",
                d.self_wall_delta_ns as f64 / 1e6,
                d.path,
                d.kind.name(),
            );
        }
    }
    let by_allocs = diff.top_by_allocs(5);
    if !by_allocs.is_empty() {
        eprintln!("[zr-bench] top regressing spans by allocations:");
        for d in by_allocs {
            eprintln!(
                "[zr-bench]   {:+} allocs  {} [{}]",
                d.allocs_delta,
                d.path,
                d.kind.name(),
            );
        }
    }
}

/// Reports the measured pool speedup (serial vs parallel fig14 subset)
/// and enforces the ≥2× floor — but only on machines with at least as
/// many hardware threads as the slice's measured pool width, where the
/// pinned workers can actually run concurrently. On smaller machines
/// (or when cores are contended) the speedup is reported for
/// information only. The thread count named in every message is the one
/// the slice recorded, not an assumption about the configuration.
fn check_parallel_speedup(current: &PerfReport) -> bool {
    const MIN_SPEEDUP: f64 = 2.0;
    let Some(speedup) = parallel_speedup(current) else {
        eprintln!("[zr-bench] parallel speedup: slices missing, skipping check");
        return true;
    };
    // Allocation pressure of both slices, per work unit: a parallel
    // slice that allocates much more than serial is paying for its
    // coordination, which is the usual culprit when the speedup sags.
    let apwu = |name: &str| {
        current
            .slice(name)
            .map(|s| format!("{:.3}", s.allocs_per_work_unit()))
            .unwrap_or_else(|| "?".into())
    };
    let allocs = format!(
        "allocs/work_unit serial {} vs parallel {}",
        apwu("fig14_subset"),
        apwu("fig14_subset_parallel")
    );
    let measured_threads = current
        .slice("fig14_subset_parallel")
        .map(|s| s.threads)
        .filter(|&t| t > 0)
        .unwrap_or(PARALLEL_SLICE_THREADS as u64);
    let cores = knobs::available_parallelism();
    if (cores as u64) < measured_threads {
        eprintln!(
            "[zr-bench] parallel speedup {speedup:.2}x at the measured {measured_threads} pool \
             thread(s) (informational: only {cores} hardware thread(s), floor not enforced; \
             {allocs})"
        );
        return true;
    }
    if speedup < MIN_SPEEDUP {
        eprintln!(
            "[zr-bench] FAIL parallel speedup {speedup:.2}x at the measured {measured_threads} \
             pool thread(s) is below the {MIN_SPEEDUP:.1}x floor ({cores} hardware threads \
             available; {allocs})"
        );
        return false;
    }
    eprintln!(
        "[zr-bench] parallel speedup {speedup:.2}x at the measured {measured_threads} pool \
         thread(s) (floor {MIN_SPEEDUP:.1}x; {allocs})"
    );
    true
}

/// The hot-scope table of a fresh capture, or the exit status.
fn cmd_profile(rest: &[String]) -> Result<String, ExitCode> {
    let mut out_dir: Option<PathBuf> = None;
    let mut quick = false;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--out" => match it.next() {
                Some(dir) => out_dir = Some(PathBuf::from(dir)),
                None => return Err(usage()),
            },
            "--quick" => quick = true,
            _ => return Err(usage()),
        }
    }
    let dir = out_dir
        .or_else(|| knobs::PROF.path())
        .unwrap_or_else(|| PathBuf::from("prof-out"));
    let profile = capture_fig14_profile(quick).map_err(|e| {
        eprintln!("[zr-bench] {e}");
        ExitCode::FAILURE
    })?;
    if let Err(e) = zr_prof::export_profile(&profile, &dir, "fig14_subset") {
        eprintln!("[zr-bench] {e}");
        return Err(ExitCode::FAILURE);
    }
    let xray = zr_xray::XrayRecorder::current();
    if xray.is_active() {
        let xray_dir = knobs::XRAY.path().unwrap_or_else(|| dir.clone());
        match zr_xray::export_capture(&xray, &xray_dir) {
            Ok(()) => eprintln!(
                "[zr-bench] wrote xray capture to {}",
                xray_dir.join(zr_xray::JSON_FILE_NAME).display()
            ),
            Err(e) => {
                eprintln!("[zr-bench] xray export failed: {e}");
                return Err(ExitCode::FAILURE);
            }
        }
    }
    eprintln!(
        "[zr-bench] wrote {} and {}",
        dir.join("fig14_subset.folded").display(),
        dir.join("fig14_subset_profile.json").display()
    );
    Ok(profile.report(20))
}

/// The baseline history table, or the exit status.
fn cmd_history(rest: &[String]) -> Result<String, ExitCode> {
    if !rest.is_empty() {
        return Err(usage());
    }
    let baseline_path = default_baseline_path();
    let baseline = match PerfReport::load(&baseline_path) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("[zr-bench] {e}");
            return Err(ExitCode::FAILURE);
        }
    };
    let text = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("[zr-bench] cannot read {}: {e}", baseline_path.display());
            return Err(ExitCode::FAILURE);
        }
    };
    let history = zr_types::json::Json::parse(&text)
        .map_err(|e| format!("{}: {e}", baseline_path.display()))
        .and_then(|doc| PerfHistory::from_doc(&doc));
    let history = match history {
        Ok(history) => history,
        Err(e) => {
            eprintln!("[zr-bench] {e}");
            return Err(ExitCode::FAILURE);
        }
    };
    Ok(zr_insight::history_table(&baseline, &history))
}
