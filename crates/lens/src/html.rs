//! The self-contained dashboard: one HTML file, inline CSS/JS, no
//! network fetches, rendering a [`LoadedRun`] for a browser.
//!
//! # Byte determinism
//!
//! The dashboard is part of the reproducibility surface: two runs of
//! the same configuration must render byte-identical HTML at any
//! `ZR_THREADS`. Every rendered quantity is therefore taken from the
//! deterministic side of the run — span *call counts* (not wall
//! times), xray refresh/skip counters, manifest totals, and the
//! blessed `BENCH_perf.json` history (a fixed input file). Wall-clock
//! numbers appear nowhere; they live in the manifest's `volatile` key
//! for humans who want them.

use std::collections::BTreeMap;

use zr_insight::{HistoryEntry, PerfHistory};
use zr_prof::{Profile, ProfileNode};
use zr_types::knobs::{self, Grammar, Kind};
use zr_xray::{EngineCapture, XraySnapshot};

use crate::manifest::hex64;
use crate::run::LoadedRun;

/// Default output file name.
pub const FILE_NAME: &str = "lens.html";

/// Escapes text for HTML body and attribute positions.
fn esc(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for ch in text.chars() {
        match ch {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&#39;"),
            _ => out.push(ch),
        }
    }
    out
}

/// Renders the dashboard for `run`, with the perf history of a
/// `BENCH_perf.json` (an empty history renders a hint instead).
pub fn render(run: &LoadedRun, history: &PerfHistory) -> String {
    let mut out = String::with_capacity(64 * 1024);
    out.push_str("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n");
    out.push_str(&format!(
        "<title>zr-lens — {}</title>\n",
        esc(&run.manifest.figure)
    ));
    out.push_str("<style>\n");
    out.push_str(STYLE);
    out.push_str("</style>\n</head>\n<body>\n");
    render_header(run, &mut out);
    render_timeline(run.profile.as_ref(), &mut out);
    render_flamegraph(run.profile.as_ref(), &mut out);
    render_xray(run.xray.as_ref(), &mut out);
    render_history(history, &mut out);
    out.push_str("<script>\n");
    out.push_str(SCRIPT);
    out.push_str("</script>\n</body>\n</html>\n");
    out
}

const STYLE: &str = "\
body{font:14px/1.45 system-ui,sans-serif;margin:1.5rem;background:#fcfcfd;color:#1c2128}
h1{font-size:1.3rem}h2{font-size:1.05rem;margin:1.6rem 0 .5rem;border-bottom:1px solid #d6dbe1;padding-bottom:.2rem}
table{border-collapse:collapse;margin:.4rem 0}
td,th{border:1px solid #d6dbe1;padding:.15rem .5rem;text-align:right;font-variant-numeric:tabular-nums}
th{background:#eef1f4;text-align:left}
td.l{text-align:left}
.muted{color:#667085}
.bar{height:.85rem;background:#5b8def;display:inline-block;vertical-align:middle}
.row{display:flex;align-items:center;gap:.5rem;margin:.1rem 0}
.row .name{width:22rem;overflow:hidden;text-overflow:ellipsis;white-space:nowrap}
.flame{display:flex;flex-direction:column-reverse;border:1px solid #d6dbe1;margin:.4rem 0}
.flame .lvl{display:flex;height:1.35rem}
.flame .cell{overflow:hidden;white-space:nowrap;font-size:11px;padding:0 .2rem;border-right:1px solid #fff;cursor:default}
.flame .pad{background:transparent}
.c0{background:#f9c74f}.c1{background:#f8961e}.c2{background:#f3722c}.c3{background:#90be6d}
.c4{background:#43aa8b}.c5{background:#4d908e}.c6{background:#577590}.c7{background:#f94144;color:#fff}
.heat td{min-width:2.2rem}
.h0{background:#f4f6f8}.h1{background:#e4ecf7}.h2{background:#cfdef2}.h3{background:#b5cdec}
.h4{background:#96b9e5}.h5{background:#74a3dd}.h6{background:#538dd5}.h7{background:#3c79c4;color:#fff}.h8{background:#2b63a8;color:#fff}
.spark{margin:.3rem 0}
details{margin:.3rem 0}
";

const SCRIPT: &str = "\
for (const cell of document.querySelectorAll('.flame .cell[data-path]')) {
  cell.addEventListener('click', () => {
    const out = document.getElementById('flame-detail');
    out.textContent = cell.dataset.path + ' \\u2014 ' + cell.dataset.calls + ' calls';
  });
}
";

fn render_header(run: &LoadedRun, out: &mut String) {
    let m = &run.manifest;
    out.push_str(&format!("<h1>zr-lens: {}</h1>\n", esc(&m.figure)));
    // The thread count is deliberately not rendered: results are
    // byte-identical at every ZR_THREADS, and so is this dashboard.
    out.push_str(&format!(
        "<p class=\"muted\">config hash <code>{}</code> · seed {}</p>\n",
        hex64(m.config_hash),
        m.seed,
    ));
    out.push_str("<h2>Run totals</h2>\n<table><tr><th>counter</th><th>value</th></tr>\n");
    for (name, value) in [
        ("rows_refreshed", m.totals.rows_refreshed),
        ("rows_skipped", m.totals.rows_skipped),
        ("ar_commands", m.totals.ar_commands),
        ("table_reads", m.totals.table_reads),
        ("table_writes", m.totals.table_writes),
    ] {
        out.push_str(&format!(
            "<tr><td class=\"l\">{name}</td><td>{value}</td></tr>\n"
        ));
    }
    // Integer basis-point arithmetic keeps the rendering bit-stable
    // regardless of float formatting.
    let denominator = m.totals.rows_refreshed + m.totals.rows_skipped;
    if let Some(bp) = (m.totals.rows_skipped * 10_000).checked_div(denominator) {
        out.push_str(&format!(
            "<tr><td class=\"l\">skip rate</td><td>{}.{:02}%</td></tr>\n",
            bp / 100,
            bp % 100
        ));
    }
    out.push_str("</table>\n");
    out.push_str("<details><summary>Environment &amp; artifacts</summary>\n<table><tr><th>knob</th><th>value</th></tr>\n");
    for (key, value) in &m.env {
        let knob = knobs::ALL.iter().find(|k| k.name == key);
        // Schedule knobs vary between byte-equivalent runs; keep them out
        // of the byte-deterministic rendering (they stay in the manifest
        // itself).
        if knob.is_some_and(|k| k.kind == Kind::Schedule) {
            continue;
        }
        // Path knobs carry run-local paths; render presence only, so
        // dashboards captured into different directories stay
        // byte-identical (the manifest keeps the actual paths).
        let path_knob =
            knob.is_some_and(|k| matches!(k.grammar, Grammar::Path | Grammar::SwitchOrPath));
        let shown = match value {
            Some(_) if path_knob => "<span class=\"muted\">set</span>".to_string(),
            Some(v) => esc(v),
            None => "<span class=\"muted\">unset</span>".to_string(),
        };
        out.push_str(&format!(
            "<tr><td class=\"l\">{}</td><td class=\"l\">{shown}</td></tr>\n",
            esc(key)
        ));
    }
    out.push_str(
        "</table>\n<table><tr><th>artifact</th><th>kind</th><th>bytes</th><th>fnv</th></tr>\n",
    );
    for artifact in &m.artifacts {
        // Volatile artifacts' length/checksum vary run-to-run; render
        // placeholders so the dashboard stays byte-deterministic.
        let (bytes, fnv) = if artifact.volatile {
            ("—".to_string(), "volatile".to_string())
        } else {
            (artifact.bytes.to_string(), hex64(artifact.fnv))
        };
        out.push_str(&format!(
            "<tr><td class=\"l\">{}</td><td class=\"l\">{}{}</td><td>{bytes}</td><td><code>{fnv}</code></td></tr>\n",
            esc(&artifact.path),
            esc(&artifact.kind),
            if artifact.volatile { " (volatile)" } else { "" },
        ));
    }
    out.push_str("</table>\n</details>\n");
}

fn render_timeline(profile: Option<&Profile>, out: &mut String) {
    out.push_str("<h2>Sweep span timeline</h2>\n");
    let Some(profile) = profile else {
        out.push_str("<p class=\"muted\">No profile captured (run with ZR_PROF).</p>\n");
        return;
    };
    let max_calls = profile
        .nodes
        .iter()
        .map(|n| n.calls)
        .max()
        .unwrap_or(1)
        .max(1);
    for node in &profile.nodes {
        let depth = node.path.matches(';').count();
        let width = (node.calls * 360 / max_calls).max(2);
        out.push_str(&format!(
            "<div class=\"row\"><span class=\"name\" style=\"padding-left:{}rem\" title=\"{}\">{}</span><span class=\"bar\" style=\"width:{width}px\"></span><span class=\"muted\">{} calls</span></div>\n",
            depth,
            esc(&node.path),
            esc(node.leaf()),
            node.calls
        ));
    }
}

/// A flamegraph tree node rebuilt from the flat `;`-joined paths.
struct FlameNode<'a> {
    name: &'a str,
    path: &'a str,
    calls: u64,
    children: Vec<FlameNode<'a>>,
}

fn build_flame<'a>(nodes: &'a [ProfileNode], prefix: &str, depth: usize) -> Vec<FlameNode<'a>> {
    let mut out: Vec<FlameNode<'a>> = Vec::new();
    for node in nodes {
        let parts: Vec<&str> = node.path.split(';').collect();
        if parts.len() != depth + 1 || !node.path.starts_with(prefix) {
            continue;
        }
        if depth > 0 {
            // `prefix` is "a;b;" — the node must extend exactly it.
            let rest = &node.path[prefix.len()..];
            if rest.contains(';') {
                continue;
            }
        }
        let child_prefix = format!("{};", node.path);
        out.push(FlameNode {
            name: parts[depth],
            path: &node.path,
            calls: node.calls,
            children: build_flame(nodes, &child_prefix, depth + 1),
        });
    }
    out
}

fn palette_class(name: &str) -> usize {
    (crate::manifest::fnv64(name.as_bytes()) % 8) as usize
}

fn render_flamegraph(profile: Option<&Profile>, out: &mut String) {
    out.push_str("<h2>Flamegraph (call-weighted)</h2>\n");
    let Some(profile) = profile else {
        out.push_str("<p class=\"muted\">No profile captured.</p>\n");
        return;
    };
    let roots = build_flame(&profile.nodes, "", 0);
    if roots.is_empty() {
        out.push_str("<p class=\"muted\">Profile is empty.</p>\n");
        return;
    }
    // Render depth by depth into stacked flex rows; each cell's weight
    // is its call count, with transparent padding so children stay
    // aligned under their parent. Levels are pre-sized to the tree
    // depth so leaf nodes pad every deeper row regardless of sibling
    // order.
    fn depth_of(nodes: &[FlameNode<'_>]) -> usize {
        nodes
            .iter()
            .map(|n| 1 + depth_of(&n.children))
            .max()
            .unwrap_or(0)
    }
    let mut levels: Vec<String> = vec![String::new(); depth_of(&roots)];
    render_flame_depth(&roots, 0, &mut levels);
    out.push_str("<div class=\"flame\">\n");
    for level in &levels {
        out.push_str(&format!("<div class=\"lvl\">{level}</div>\n"));
    }
    out.push_str(
        "</div>\n<p id=\"flame-detail\" class=\"muted\">Click a frame for its full stack.</p>\n",
    );
}

fn render_flame_depth(nodes: &[FlameNode<'_>], depth: usize, levels: &mut Vec<String>) {
    for node in nodes {
        let grow = node.calls.max(1);
        levels[depth].push_str(&format!(
            "<div class=\"cell c{}\" style=\"flex-grow:{grow}\" title=\"{} — {} calls\" data-path=\"{}\" data-calls=\"{}\">{}</div>",
            palette_class(node.name),
            esc(node.path),
            node.calls,
            esc(node.path),
            node.calls,
            esc(node.name)
        ));
        render_flame_depth(&node.children, depth + 1, levels);
        // Pad every deeper level under this node's self weight so the
        // next sibling's children start aligned under their parent.
        let child_calls: u64 = node.children.iter().map(|c| c.calls.max(1)).sum();
        let pad = grow.saturating_sub(child_calls);
        if pad > 0 {
            for level in levels.iter_mut().skip(depth + 1) {
                level.push_str(&format!(
                    "<div class=\"cell pad\" style=\"flex-grow:{pad}\"></div>"
                ));
            }
        }
    }
}

fn render_engine_heatmap(engine: &EngineCapture, index: usize, out: &mut String) {
    // Aggregate AR rows over sets: (window, bank) → (refreshed, skipped).
    let mut cells: BTreeMap<(u64, u32), (u64, u64)> = BTreeMap::new();
    let mut windows: Vec<u64> = Vec::new();
    for row in &engine.windows {
        let entry = cells.entry((row.window, row.bank)).or_insert((0, 0));
        entry.0 += row.rows_refreshed;
        entry.1 += row.rows_skipped;
        if !windows.contains(&row.window) {
            windows.push(row.window);
        }
    }
    windows.sort_unstable();
    let (refreshed, skipped) = engine.totals();
    out.push_str(&format!(
        "<details open><summary><strong>{}</strong> — policy {}, {} banks, {} refreshed / {} skipped</summary>\n",
        esc(&engine.label),
        esc(&engine.policy),
        engine.num_banks,
        refreshed,
        skipped
    ));
    if windows.is_empty() {
        out.push_str("<p class=\"muted\">No AR activity captured.</p>\n</details>\n");
        let _ = index;
        return;
    }
    out.push_str("<table class=\"heat\"><tr><th>bank \\ window</th>");
    for window in &windows {
        out.push_str(&format!("<th>{window}</th>"));
    }
    out.push_str("</tr>\n");
    for bank in 0..engine.num_banks {
        out.push_str(&format!("<tr><td class=\"l\">bank {bank}</td>"));
        for window in &windows {
            match cells.get(&(*window, bank)) {
                Some(&(r, s)) => {
                    let denominator = (r + s).max(1);
                    let bin = (s * 8 / denominator).min(8);
                    out.push_str(&format!(
                        "<td class=\"h{bin}\" title=\"window {window} bank {bank}: {r} refreshed, {s} skipped\">{s}</td>"
                    ));
                }
                None => out.push_str("<td class=\"h0 muted\">·</td>"),
            }
        }
        out.push_str("</tr>\n");
    }
    out.push_str("</table>\n</details>\n");
}

fn render_xray(xray: Option<&XraySnapshot>, out: &mut String) {
    out.push_str("<h2>Charge-domain heatmaps (rows skipped per bank × window)</h2>\n");
    let Some(xray) = xray else {
        out.push_str("<p class=\"muted\">No xray capture (run with ZR_XRAY).</p>\n");
        return;
    };
    for (index, engine) in xray.engines.iter().enumerate() {
        render_engine_heatmap(engine, index, out);
    }
    if !xray.stages.is_empty() {
        out.push_str("<h2>Transform-stage savings</h2>\n<table><tr><th>combo</th><th>lines</th><th>charged before</th><th>charged after</th><th>reduction</th></tr>\n");
        for stage in &xray.stages {
            out.push_str(&format!(
                "<tr><td class=\"l\">{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>\n",
                esc(&zr_xray::combo_name(stage.combo)),
                stage.lines,
                stage.charged_before,
                stage.charged_after,
                stage.total_reduction()
            ));
        }
        out.push_str("</table>\n");
    }
}

/// One sparkline per slice of calibration-normalized wall costs
/// ([`HistoryEntry::normalized_wall`]), oldest first.
fn render_history(history: &PerfHistory, out: &mut String) {
    out.push_str("<h2>Perf-baseline history</h2>\n");
    if history.slices.is_empty() {
        out.push_str(
            "<p class=\"muted\">No history (pass --history BENCH_perf.json to zr-lens html).</p>\n",
        );
        return;
    }
    for (name, entries) in &history.slices {
        out.push_str(&format!(
            "<div class=\"spark\"><strong>{}</strong> ({} blessed runs)<br>\n",
            esc(name),
            entries.len()
        ));
        let normalized: Vec<f64> = entries.iter().map(HistoryEntry::normalized_wall).collect();
        out.push_str(&sparkline(&normalized));
        out.push_str("</div>\n");
    }
}

/// An inline SVG polyline over the series, scaled into a 240×40 box.
/// Coordinates are rendered in fixed milli-unit precision so identical
/// inputs produce identical bytes.
fn sparkline(values: &[f64]) -> String {
    if values.is_empty() {
        return "<span class=\"muted\">empty series</span>".to_string();
    }
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = if max > min { max - min } else { 1.0 };
    let step = if values.len() > 1 {
        230.0 / (values.len() - 1) as f64
    } else {
        0.0
    };
    let mut points = String::new();
    for (i, &value) in values.iter().enumerate() {
        let x = 5.0 + step * i as f64;
        let y = 35.0 - 30.0 * (value - min) / span;
        let xm = (x * 1000.0).round() as i64;
        let ym = (y * 1000.0).round() as i64;
        if i > 0 {
            points.push(' ');
        }
        points.push_str(&format!(
            "{}.{:03},{}.{:03}",
            xm / 1000,
            xm % 1000,
            ym / 1000,
            ym % 1000
        ));
    }
    format!(
        "<svg width=\"240\" height=\"40\" viewBox=\"0 0 240 40\"><polyline fill=\"none\" stroke=\"#5b8def\" stroke-width=\"1.5\" points=\"{points}\"/></svg>"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::Manifest;
    use std::path::PathBuf;
    use zr_types::json::Json;

    fn run_with_profile() -> LoadedRun {
        let profile = Profile {
            nodes: vec![
                ProfileNode {
                    path: "sweep".into(),
                    calls: 4,
                    wall_ns: 100,
                    cpu_ns: 0,
                    allocs: 0,
                    alloc_bytes: 0,
                },
                ProfileNode {
                    path: "sweep;measure".into(),
                    calls: 3,
                    wall_ns: 60,
                    cpu_ns: 0,
                    allocs: 0,
                    alloc_bytes: 0,
                },
            ],
            calibration_wall_ns: 0,
            threads: 1,
        };
        LoadedRun {
            manifest_path: PathBuf::from("manifest.json"),
            manifest: Manifest {
                figure: "fig14".into(),
                ..Manifest::default()
            },
            snapshot: None,
            xray: None,
            trace: None,
            profile: Some(profile),
        }
    }

    #[test]
    fn render_is_deterministic_and_self_contained() {
        let run = run_with_profile();
        let a = render(&run, &PerfHistory::default());
        let b = render(&run, &PerfHistory::default());
        assert_eq!(a, b);
        assert!(a.contains("<!DOCTYPE html>"));
        assert!(a.contains("zr-lens: fig14"));
        // No external fetches: no http(s) URLs, no src= includes.
        assert!(!a.contains("http://"));
        assert!(!a.contains("https://"));
        assert!(!a.contains("<script src"));
        assert!(!a.contains("<link "));
    }

    #[test]
    fn render_contains_no_wall_time_figures() {
        let run = run_with_profile();
        let html = render(&run, &PerfHistory::default());
        // The profile carries wall_ns=100/60; none of it may render.
        assert!(!html.contains("wall"));
        assert!(html.contains("4 calls"));
        assert!(html.contains("3 calls"));
    }

    #[test]
    fn escapes_untrusted_strings() {
        let mut run = run_with_profile();
        run.manifest.figure = "<img src=x>".into();
        let html = render(&run, &PerfHistory::default());
        assert!(!html.contains("<img src=x>"));
        assert!(html.contains("&lt;img src=x&gt;"));
    }

    #[test]
    fn sparkline_is_fixed_precision() {
        let line = sparkline(&[1.0, 2.0, 3.0]);
        assert_eq!(line, sparkline(&[1.0, 2.0, 3.0]));
        assert!(line.contains("5.000,35.000"));
        assert!(line.contains("235.000,5.000"));
    }

    #[test]
    fn history_parser_reads_the_bench_perf_shape() {
        let entry = |wall: u64, cal: u64| {
            format!(
                r#"{{ "wall_ns_best": {wall}, "throughput_per_s": 1.5, "allocs": 3,
                     "calibration_wall_ns": {cal}, "threads": 1, "peak_rss_bytes": 0 }}"#
            )
        };
        let doc = format!(
            r#"{{ "schema": 3, "history": {{ "fig14_subset": [{}, {}] }} }}"#,
            entry(100, 10),
            entry(240, 12)
        );
        let history = PerfHistory::from_doc(&Json::parse(&doc).expect("json")).expect("parse");
        let mut html = String::new();
        render_history(&history, &mut html);
        assert!(html.contains("<strong>fig14_subset</strong> (2 blessed runs)"));
        // Normalized walls 10 and 20 span the whole box.
        assert!(html.contains("5.000,35.000 235.000,5.000"), "{html}");
    }

    #[test]
    fn flame_tree_nests_by_path() {
        let run = run_with_profile();
        let profile = run.profile.as_ref().unwrap();
        let roots = build_flame(&profile.nodes, "", 0);
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].name, "sweep");
        assert_eq!(roots[0].children.len(), 1);
        assert_eq!(roots[0].children[0].name, "measure");
        assert_eq!(roots[0].children[0].calls, 3);
    }
}
