//! The scoped profiler: a [`SpanObserver`] that turns `zr-telemetry`
//! span nesting into a call-tree profile with wall time, thread CPU
//! time and allocation counts per stack path.
//!
//! The profiler piggybacks on the instrumentation points the simulation
//! stack already has — `refresh.window`, `memctrl.write`,
//! `transform.encode`, ... — so profiling costs nothing new in the
//! instrumented crates. Install with [`Profiler::install_global`]
//! (idempotent; also activates the global telemetry instance so spans
//! are handed out), run the workload, then take a [`Profile`] snapshot
//! for the report table, the `.folded` flamegraph export, or
//! `profile.json`.
//!
//! All bookkeeping runs under [`crate::alloc::with_suspended`], so the
//! profiler's own hash-map traffic never pollutes the allocation counts
//! it reports.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

use zr_telemetry::{SpanObserver, Telemetry};

use crate::alloc::{self, AllocStats};
use crate::clock;
use zr_types::json::{Json, ToJson};

/// Separator between stack frames in a path key (`a;b;c`), matching the
/// collapsed-stack ("folded") format of `flamegraph.pl` and inferno.
pub const STACK_SEP: char = ';';

/// Accumulated measurements of one stack path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Accum {
    calls: u64,
    wall_ns: u64,
    cpu_ns: u64,
    allocs: u64,
    alloc_bytes: u64,
}

/// Per-thread bookkeeping for one open span.
struct Frame {
    path: String,
    cpu_start: u64,
    alloc_start: AllocStats,
}

thread_local! {
    static FRAMES: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// The live profiler. One instance is installed process-wide as the
/// telemetry span observer; it accumulates per-path totals keyed by the
/// `;`-joined span stack.
#[derive(Debug, Default)]
pub struct Profiler {
    nodes: Mutex<BTreeMap<String, Accum>>,
}

impl Profiler {
    /// A detached profiler (tests drive it directly; production code
    /// uses [`Profiler::install_global`]).
    pub fn new() -> Self {
        Profiler::default()
    }

    /// Installs a process-wide profiler as the telemetry span observer
    /// and activates [`Telemetry::global`] so instrumented spans are
    /// live. Idempotent: later calls return the same instance.
    pub fn install_global() -> &'static Arc<Profiler> {
        static GLOBAL: OnceLock<Arc<Profiler>> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let profiler = Arc::new(Profiler::new());
            zr_telemetry::set_span_observer(profiler.clone());
            Telemetry::global().activate();
            profiler
        })
    }

    /// Records one completed occurrence of `path` directly, bypassing
    /// the span machinery. This is the deterministic feed used by tests
    /// (and by tools merging profiles); live profiling goes through the
    /// [`SpanObserver`] callbacks.
    pub fn record(&self, path: &str, wall_ns: u64, cpu_ns: u64, allocs: u64, alloc_bytes: u64) {
        let mut nodes = self.nodes.lock().expect("profiler lock");
        let accum = nodes.entry(path.to_string()).or_default();
        accum.calls += 1;
        accum.wall_ns += wall_ns;
        accum.cpu_ns += cpu_ns;
        accum.allocs += allocs;
        accum.alloc_bytes += alloc_bytes;
    }

    /// Point-in-time snapshot of everything accumulated so far. The
    /// capture metadata fields are left at zero; see
    /// [`crate::capture_snapshot`] for a snapshot with them filled.
    pub fn snapshot(&self) -> Profile {
        let nodes = self.nodes.lock().expect("profiler lock");
        Profile {
            calibration_wall_ns: 0,
            threads: 0,
            nodes: nodes
                .iter()
                .map(|(path, a)| ProfileNode {
                    path: path.clone(),
                    calls: a.calls,
                    wall_ns: a.wall_ns,
                    cpu_ns: a.cpu_ns,
                    allocs: a.allocs,
                    alloc_bytes: a.alloc_bytes,
                })
                .collect(),
        }
    }
}

impl SpanObserver for Profiler {
    fn on_enter(&self, stack: &[&'static str]) {
        alloc::with_suspended(|| {
            let path = join_stack(stack);
            let frame = Frame {
                path,
                cpu_start: clock::thread_cpu_ns(),
                alloc_start: alloc::thread_stats(),
            };
            FRAMES.with(|f| f.borrow_mut().push(frame));
        });
    }

    fn on_exit(&self, stack: &[&'static str], wall_ns: u64) {
        alloc::with_suspended(|| {
            let path = join_stack(stack);
            let frame = FRAMES.with(|f| {
                let mut frames = f.borrow_mut();
                frames
                    .iter()
                    .rposition(|fr| fr.path == path)
                    .map(|pos| frames.remove(pos))
            });
            let Some(frame) = frame else {
                return; // unmatched exit (span opened before install)
            };
            let cpu_ns = clock::thread_cpu_ns().saturating_sub(frame.cpu_start);
            let delta = alloc::thread_stats().since(&frame.alloc_start);
            let mut nodes = self.nodes.lock().expect("profiler lock");
            let accum = nodes.entry(path).or_default();
            accum.calls += 1;
            accum.wall_ns += wall_ns;
            accum.cpu_ns += cpu_ns;
            accum.allocs += delta.allocs;
            accum.alloc_bytes += delta.bytes;
        });
    }
}

fn join_stack(stack: &[&'static str]) -> String {
    let mut path = String::with_capacity(stack.iter().map(|s| s.len() + 1).sum());
    for (i, name) in stack.iter().enumerate() {
        if i > 0 {
            path.push(STACK_SEP);
        }
        path.push_str(name);
    }
    path
}

/// One stack path with its accumulated totals. `wall_ns`, `cpu_ns` and
/// the allocation counts are *total* (inclusive of children); self
/// values are derived by [`Profile`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileNode {
    /// `;`-joined span stack, root first.
    pub path: String,
    /// Completed occurrences of this exact stack.
    pub calls: u64,
    /// Total wall time under this stack, nanoseconds.
    pub wall_ns: u64,
    /// Total thread CPU time under this stack, nanoseconds (0 off
    /// Linux).
    pub cpu_ns: u64,
    /// Allocations performed under this stack (counting allocator).
    pub allocs: u64,
    /// Bytes requested under this stack.
    pub alloc_bytes: u64,
}

impl ProfileNode {
    /// The leaf frame of the path.
    pub fn leaf(&self) -> &str {
        self.path.rsplit(STACK_SEP).next().unwrap_or(&self.path)
    }
}

/// An immutable profile snapshot, nodes sorted by path.
///
/// Capture metadata (`calibration_wall_ns`, `threads`) is zero on bare
/// [`Profiler::snapshot`] output and on schema-1 `profile.json` files;
/// the capture paths (`zr-bench profile`, `ZR_PROF` figure runs) fill
/// it via [`crate::capture_snapshot`] so two captures from different
/// machines can be compared on a calibration-scaled basis.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Profile {
    /// Every observed stack path, ascending by path string.
    pub nodes: Vec<ProfileNode>,
    /// Wall time of the capture machine's calibration spin in
    /// nanoseconds (0 = unknown; schema-1 files and raw snapshots).
    pub calibration_wall_ns: u64,
    /// Sweep-pool width the capture ran at (0 = unknown).
    pub threads: u64,
}

impl Profile {
    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Self wall time of `node`: its total minus the totals of its
    /// direct children (clamped at zero against clock skew).
    pub fn self_wall_ns(&self, node: &ProfileNode) -> u64 {
        let children: u64 = self.direct_children(node).map(|child| child.wall_ns).sum();
        node.wall_ns.saturating_sub(children)
    }

    /// Self allocation count of `node` (total minus direct children).
    pub fn self_allocs(&self, node: &ProfileNode) -> u64 {
        let children: u64 = self.direct_children(node).map(|c| c.allocs).sum();
        node.allocs.saturating_sub(children)
    }

    /// Self allocated bytes of `node` (total minus direct children).
    pub fn self_alloc_bytes(&self, node: &ProfileNode) -> u64 {
        let children: u64 = self.direct_children(node).map(|c| c.alloc_bytes).sum();
        node.alloc_bytes.saturating_sub(children)
    }

    fn direct_children<'a>(
        &'a self,
        node: &'a ProfileNode,
    ) -> impl Iterator<Item = &'a ProfileNode> {
        let prefix = format!("{}{}", node.path, STACK_SEP);
        self.nodes.iter().filter(move |n| {
            n.path.starts_with(&prefix) && !n.path[prefix.len()..].contains(STACK_SEP)
        })
    }

    /// Collapsed-stack ("folded") export, one `path value` line per
    /// stack, sorted by path — the format `flamegraph.pl` and inferno
    /// consume. The value is the stack's *self* wall time in
    /// nanoseconds, so flamegraph width equals total time after the
    /// tools sum descendants. Identical profiles export byte-identical
    /// text.
    pub fn to_folded(&self) -> String {
        let mut out = String::new();
        for node in &self.nodes {
            let self_ns = self.self_wall_ns(node);
            out.push_str(&node.path);
            out.push(' ');
            out.push_str(&self_ns.to_string());
            out.push('\n');
        }
        out
    }

    /// Human report: the top `top` scopes by self wall time, with
    /// total/self time, CPU time, calls and allocation counts.
    pub fn report(&self, top: usize) -> String {
        let mut order: Vec<&ProfileNode> = self.nodes.iter().collect();
        order.sort_by(|a, b| {
            self.self_wall_ns(b)
                .cmp(&self.self_wall_ns(a))
                .then_with(|| a.path.cmp(&b.path))
        });
        let mut out = String::new();
        out.push_str(&format!(
            "{:<44} {:>9} {:>11} {:>11} {:>11} {:>10} {:>12}\n",
            "scope", "calls", "total(ms)", "self(ms)", "cpu(ms)", "allocs", "bytes"
        ));
        for node in order.into_iter().take(top) {
            out.push_str(&format!(
                "{:<44} {:>9} {:>11.3} {:>11.3} {:>11.3} {:>10} {:>12}\n",
                truncate_path(&node.path, 44),
                node.calls,
                node.wall_ns as f64 / 1e6,
                self.self_wall_ns(node) as f64 / 1e6,
                node.cpu_ns as f64 / 1e6,
                node.allocs,
                node.alloc_bytes,
            ));
        }
        out
    }

    /// Serializes to the `profile.json` document (schema 2: schema 1
    /// plus the capture metadata fields).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::Int(2)),
            ("calibration_wall_ns", self.calibration_wall_ns.to_json()),
            ("threads", self.threads.to_json()),
            (
                "nodes",
                Json::Arr(
                    self.nodes
                        .iter()
                        .map(|n| {
                            Json::obj([
                                ("path", n.path.to_json()),
                                ("calls", n.calls.to_json()),
                                ("wall_ns", n.wall_ns.to_json()),
                                ("cpu_ns", n.cpu_ns.to_json()),
                                ("allocs", n.allocs.to_json()),
                                ("alloc_bytes", n.alloc_bytes.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses a `profile.json` document produced by [`Profile::to_json`].
    /// Schema-1 documents (no capture metadata) parse with the metadata
    /// fields at zero.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or mistyped field.
    pub fn from_json(doc: &Json) -> Result<Profile, String> {
        let meta = |k: &str| doc.get(k).and_then(Json::as_u64).unwrap_or(0);
        let (calibration_wall_ns, threads) = (meta("calibration_wall_ns"), meta("threads"));
        let nodes = doc
            .get("nodes")
            .and_then(Json::as_arr)
            .ok_or("profile.json: missing `nodes` array")?;
        let mut out = Vec::with_capacity(nodes.len());
        for (i, n) in nodes.iter().enumerate() {
            let field = |k: &str| {
                n.get(k)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("profile.json: nodes[{i}].{k} missing or not a number"))
            };
            out.push(ProfileNode {
                path: n
                    .get("path")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("profile.json: nodes[{i}].path missing"))?
                    .to_string(),
                calls: field("calls")?,
                wall_ns: field("wall_ns")?,
                cpu_ns: field("cpu_ns")?,
                allocs: field("allocs")?,
                alloc_bytes: field("alloc_bytes")?,
            });
        }
        out.sort_by(|a, b| a.path.cmp(&b.path));
        Ok(Profile {
            nodes: out,
            calibration_wall_ns,
            threads,
        })
    }
}

fn truncate_path(path: &str, width: usize) -> String {
    if path.len() <= width {
        return path.to_string();
    }
    let tail: String = path
        .chars()
        .rev()
        .take(width.saturating_sub(1))
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .collect();
    format!("…{tail}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic() -> Profiler {
        let p = Profiler::new();
        p.record("refresh.window", 10_000, 8_000, 4, 512);
        p.record("refresh.window", 12_000, 9_000, 2, 128);
        p.record("memctrl.write", 40_000, 30_000, 10, 4096);
        p.record("memctrl.write;transform.encode", 25_000, 20_000, 6, 2048);
        p
    }

    #[test]
    fn totals_accumulate_and_self_time_subtracts_children() {
        let profile = synthetic().snapshot();
        assert_eq!(profile.nodes.len(), 3);
        let window = profile
            .nodes
            .iter()
            .find(|n| n.path == "refresh.window")
            .unwrap();
        assert_eq!(window.calls, 2);
        assert_eq!(window.wall_ns, 22_000);
        assert_eq!(window.allocs, 6);
        let write = profile
            .nodes
            .iter()
            .find(|n| n.path == "memctrl.write")
            .unwrap();
        // Self = total minus the nested transform.encode.
        assert_eq!(profile.self_wall_ns(write), 15_000);
        assert_eq!(profile.self_allocs(write), 4);
        assert_eq!(profile.self_alloc_bytes(write), 2048);
        let leafed = profile
            .nodes
            .iter()
            .find(|n| n.path == "memctrl.write;transform.encode")
            .unwrap();
        assert_eq!(leafed.leaf(), "transform.encode");
        assert_eq!(profile.self_wall_ns(leafed), 25_000);
    }

    #[test]
    fn folded_export_lists_self_values_sorted_by_path() {
        let profile = synthetic().snapshot();
        let folded = profile.to_folded();
        assert_eq!(
            folded,
            "memctrl.write 15000\n\
             memctrl.write;transform.encode 25000\n\
             refresh.window 22000\n"
        );
    }

    #[test]
    fn profile_json_round_trips() {
        let profile = synthetic().snapshot();
        let doc = profile.to_json();
        let back = Profile::from_json(&Json::parse(&doc.to_pretty()).unwrap()).unwrap();
        assert_eq!(back, profile);
    }

    #[test]
    fn report_ranks_by_self_time() {
        let profile = synthetic().snapshot();
        let report = profile.report(2);
        let lines: Vec<&str> = report.lines().collect();
        assert_eq!(lines.len(), 3); // header + top 2
        assert!(lines[1].starts_with("memctrl.write;transform.encode"));
        assert!(lines[2].starts_with("refresh.window"));
    }

    #[test]
    fn capture_metadata_round_trips_and_defaults_to_zero() {
        let mut profile = synthetic().snapshot();
        profile.calibration_wall_ns = 3_500_000;
        profile.threads = 4;
        let back =
            Profile::from_json(&Json::parse(&profile.to_json().to_pretty()).unwrap()).unwrap();
        assert_eq!(back, profile);
        // Schema-1 documents (no metadata keys) parse with zeros.
        let p = Profile::from_json(&Json::parse(r#"{"nodes": []}"#).unwrap()).unwrap();
        assert_eq!(p.calibration_wall_ns, 0);
        assert_eq!(p.threads, 0);
    }

    #[test]
    fn malformed_profile_json_is_rejected() {
        let doc = Json::parse(r#"{"schema": 1}"#).unwrap();
        assert!(Profile::from_json(&doc).is_err());
        let doc = Json::parse(r#"{"nodes": [{"path": "x"}]}"#).unwrap();
        assert!(Profile::from_json(&doc).is_err());
    }
}
