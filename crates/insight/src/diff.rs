//! The profile-diff engine: per-span-path deltas between two
//! [`Profile`] captures, calibration-scaled so a capture from a slower
//! machine does not read as a regression.
//!
//! The old profile's wall and CPU times are multiplied by the
//! calibration ratio `new_calibration / old_calibration` (clamped to
//! 0.25–4×, mirroring the perf gate) before subtracting; allocation and
//! call counts are machine-independent and compare unscaled. Paths are
//! classified [`DeltaKind::Added`] / [`DeltaKind::Removed`] /
//! [`DeltaKind::Changed`], all-zero deltas are dropped (so
//! `diff(a, a)` is empty), and the delta list is sorted by path — with
//! [`Json`] printing being byte-stable, identical inputs always produce
//! identical diff JSON.

use std::path::Path;

use zr_prof::{Profile, ProfileNode};
use zr_types::json::{Json, ToJson};

/// How a span path changed between the two captures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaKind {
    /// Present only in the new capture.
    Added,
    /// Present only in the old capture.
    Removed,
    /// Present in both with at least one non-zero delta.
    Changed,
}

impl DeltaKind {
    /// Stable lowercase name used in the JSON document and the table.
    pub fn name(self) -> &'static str {
        match self {
            DeltaKind::Added => "added",
            DeltaKind::Removed => "removed",
            DeltaKind::Changed => "changed",
        }
    }

    fn from_name(name: &str) -> Option<DeltaKind> {
        match name {
            "added" => Some(DeltaKind::Added),
            "removed" => Some(DeltaKind::Removed),
            "changed" => Some(DeltaKind::Changed),
            _ => None,
        }
    }
}

/// Signed per-metric deltas of one span path (`new - scaled(old)`;
/// positive = the new capture is bigger/slower).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanDelta {
    /// `;`-joined span stack.
    pub path: String,
    /// Added / removed / changed.
    pub kind: DeltaKind,
    /// Call-count delta (unscaled).
    pub calls_delta: i64,
    /// Total wall-time delta, nanoseconds, after calibration scaling.
    pub wall_delta_ns: i64,
    /// Self wall-time delta (total minus direct children), nanoseconds,
    /// after calibration scaling.
    pub self_wall_delta_ns: i64,
    /// Thread-CPU delta, nanoseconds, after calibration scaling.
    pub cpu_delta_ns: i64,
    /// Allocation-count delta (unscaled).
    pub allocs_delta: i64,
    /// Allocated-bytes delta (unscaled).
    pub alloc_bytes_delta: i64,
}

impl SpanDelta {
    fn is_zero(&self) -> bool {
        self.calls_delta == 0
            && self.wall_delta_ns == 0
            && self.self_wall_delta_ns == 0
            && self.cpu_delta_ns == 0
            && self.allocs_delta == 0
            && self.alloc_bytes_delta == 0
    }
}

/// The diff of two profiles: capture metadata of both sides, the
/// applied calibration scale, and one [`SpanDelta`] per path whose
/// metrics differ, sorted by path.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileDiff {
    /// Multiplier applied to the old capture's wall/CPU times
    /// (`new_calibration / old_calibration`, clamped to 0.25–4.0;
    /// 1.0 when either capture lacks calibration metadata).
    pub scale: f64,
    /// Old capture's calibration spin wall time (0 = unknown).
    pub old_calibration_wall_ns: u64,
    /// New capture's calibration spin wall time (0 = unknown).
    pub new_calibration_wall_ns: u64,
    /// Old capture's sweep-pool width (0 = unknown).
    pub old_threads: u64,
    /// New capture's sweep-pool width (0 = unknown).
    pub new_threads: u64,
    /// Non-zero deltas, ascending by path.
    pub deltas: Vec<SpanDelta>,
}

/// The clamp applied to the calibration ratio, mirroring the perf gate:
/// a broken calibration reading cannot wash out (or fabricate) more
/// than a 4× difference.
pub const SCALE_CLAMP: (f64, f64) = (0.25, 4.0);

fn scaled(value: u64, scale: f64) -> i64 {
    (value as f64 * scale).round() as i64
}

/// Computes the calibration scale between two captures.
pub fn calibration_scale(old_cal: u64, new_cal: u64) -> f64 {
    if old_cal == 0 || new_cal == 0 {
        1.0
    } else {
        (new_cal as f64 / old_cal as f64).clamp(SCALE_CLAMP.0, SCALE_CLAMP.1)
    }
}

/// Diffs two profiles. See the module docs for scaling and
/// classification semantics.
pub fn diff_profiles(old: &Profile, new: &Profile) -> ProfileDiff {
    let scale = calibration_scale(old.calibration_wall_ns, new.calibration_wall_ns);
    let mut deltas = Vec::new();
    // Both node lists are sorted by path (Profiler snapshots come from a
    // BTreeMap; from_json sorts) — merge them.
    let (mut i, mut j) = (0, 0);
    while i < old.nodes.len() || j < new.nodes.len() {
        let take_old = match (old.nodes.get(i), new.nodes.get(j)) {
            (Some(o), Some(n)) => {
                if o.path == n.path {
                    deltas.push(changed_delta(old, o, new, n, scale));
                    i += 1;
                    j += 1;
                    continue;
                }
                o.path < n.path
            }
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => break,
        };
        if take_old {
            deltas.push(removed_delta(old, &old.nodes[i], scale));
            i += 1;
        } else {
            deltas.push(added_delta(new, &new.nodes[j]));
            j += 1;
        }
    }
    deltas.retain(|d| !d.is_zero());
    ProfileDiff {
        scale,
        old_calibration_wall_ns: old.calibration_wall_ns,
        new_calibration_wall_ns: new.calibration_wall_ns,
        old_threads: old.threads,
        new_threads: new.threads,
        deltas,
    }
}

fn changed_delta(
    old: &Profile,
    o: &ProfileNode,
    new: &Profile,
    n: &ProfileNode,
    scale: f64,
) -> SpanDelta {
    SpanDelta {
        path: n.path.clone(),
        kind: DeltaKind::Changed,
        calls_delta: n.calls as i64 - o.calls as i64,
        wall_delta_ns: n.wall_ns as i64 - scaled(o.wall_ns, scale),
        self_wall_delta_ns: new.self_wall_ns(n) as i64 - scaled(old.self_wall_ns(o), scale),
        cpu_delta_ns: n.cpu_ns as i64 - scaled(o.cpu_ns, scale),
        allocs_delta: n.allocs as i64 - o.allocs as i64,
        alloc_bytes_delta: n.alloc_bytes as i64 - o.alloc_bytes as i64,
    }
}

fn removed_delta(old: &Profile, o: &ProfileNode, scale: f64) -> SpanDelta {
    SpanDelta {
        path: o.path.clone(),
        kind: DeltaKind::Removed,
        calls_delta: -(o.calls as i64),
        wall_delta_ns: -scaled(o.wall_ns, scale),
        self_wall_delta_ns: -scaled(old.self_wall_ns(o), scale),
        cpu_delta_ns: -scaled(o.cpu_ns, scale),
        allocs_delta: -(o.allocs as i64),
        alloc_bytes_delta: -(o.alloc_bytes as i64),
    }
}

fn added_delta(new: &Profile, n: &ProfileNode) -> SpanDelta {
    SpanDelta {
        path: n.path.clone(),
        kind: DeltaKind::Added,
        calls_delta: n.calls as i64,
        wall_delta_ns: n.wall_ns as i64,
        self_wall_delta_ns: new.self_wall_ns(n) as i64,
        cpu_delta_ns: n.cpu_ns as i64,
        allocs_delta: n.allocs as i64,
        alloc_bytes_delta: n.alloc_bytes as i64,
    }
}

impl ProfileDiff {
    /// The top `n` regressions by self wall time: positive
    /// `self_wall_delta_ns` only, descending, ties broken by path — a
    /// deterministic ranking for gate error output.
    pub fn top_by_self_wall(&self, n: usize) -> Vec<&SpanDelta> {
        self.top_by(n, |d| d.self_wall_delta_ns)
    }

    /// The top `n` regressions by allocation count: positive
    /// `allocs_delta` only, descending, ties broken by path.
    pub fn top_by_allocs(&self, n: usize) -> Vec<&SpanDelta> {
        self.top_by(n, |d| d.allocs_delta)
    }

    fn top_by(&self, n: usize, metric: impl Fn(&SpanDelta) -> i64) -> Vec<&SpanDelta> {
        let mut picks: Vec<&SpanDelta> = self.deltas.iter().filter(|d| metric(d) > 0).collect();
        picks.sort_by(|a, b| metric(b).cmp(&metric(a)).then_with(|| a.path.cmp(&b.path)));
        picks.truncate(n);
        picks
    }

    /// Human-readable diff table: a metadata header, then the top `top`
    /// regressions by self wall time and by allocations.
    pub fn table(&self, top: usize) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "profile diff: scale {:.3} (old cal {:.2} ms, new cal {:.2} ms), \
             threads {} -> {}\n",
            self.scale,
            self.old_calibration_wall_ns as f64 / 1e6,
            self.new_calibration_wall_ns as f64 / 1e6,
            self.old_threads,
            self.new_threads,
        ));
        let (mut added, mut removed, mut changed) = (0usize, 0usize, 0usize);
        for d in &self.deltas {
            match d.kind {
                DeltaKind::Added => added += 1,
                DeltaKind::Removed => removed += 1,
                DeltaKind::Changed => changed += 1,
            }
        }
        out.push_str(&format!(
            "spans: {changed} changed, {added} added, {removed} removed\n",
        ));
        if self.deltas.is_empty() {
            out.push_str("no differences\n");
            return out;
        }
        out.push_str("\ntop regressions by self wall time:\n");
        let by_wall = self.top_by_self_wall(top);
        if by_wall.is_empty() {
            out.push_str("  (none)\n");
        }
        for d in by_wall {
            out.push_str(&format!(
                "  {:>+10.3} ms  {} [{}] (total {:+.3} ms, allocs {:+}, calls {:+})\n",
                d.self_wall_delta_ns as f64 / 1e6,
                d.path,
                d.kind.name(),
                d.wall_delta_ns as f64 / 1e6,
                d.allocs_delta,
                d.calls_delta,
            ));
        }
        out.push_str("\ntop regressions by allocations:\n");
        let by_allocs = self.top_by_allocs(top);
        if by_allocs.is_empty() {
            out.push_str("  (none)\n");
        }
        for d in by_allocs {
            out.push_str(&format!(
                "  {:>+10} allocs  {} [{}] ({:+} bytes, self wall {:+.3} ms)\n",
                d.allocs_delta,
                d.path,
                d.kind.name(),
                d.alloc_bytes_delta,
                d.self_wall_delta_ns as f64 / 1e6,
            ));
        }
        out
    }

    /// Serializes to the machine-readable diff document. Byte-stable:
    /// identical diffs print identical text.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::Int(1)),
            ("scale", self.scale.to_json()),
            (
                "old_calibration_wall_ns",
                self.old_calibration_wall_ns.to_json(),
            ),
            (
                "new_calibration_wall_ns",
                self.new_calibration_wall_ns.to_json(),
            ),
            ("old_threads", self.old_threads.to_json()),
            ("new_threads", self.new_threads.to_json()),
            (
                "deltas",
                Json::Arr(
                    self.deltas
                        .iter()
                        .map(|d| {
                            Json::obj([
                                ("path", d.path.to_json()),
                                ("kind", d.kind.name().to_json()),
                                ("calls_delta", d.calls_delta.to_json()),
                                ("wall_delta_ns", d.wall_delta_ns.to_json()),
                                ("self_wall_delta_ns", d.self_wall_delta_ns.to_json()),
                                ("cpu_delta_ns", d.cpu_delta_ns.to_json()),
                                ("allocs_delta", d.allocs_delta.to_json()),
                                ("alloc_bytes_delta", d.alloc_bytes_delta.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses a diff document produced by [`ProfileDiff::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or mistyped field.
    pub fn from_json(doc: &Json) -> Result<ProfileDiff, String> {
        let num = |k: &str| -> Result<u64, String> {
            doc.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("diff json: `{k}` missing or not a number"))
        };
        let deltas_json = doc
            .get("deltas")
            .and_then(Json::as_arr)
            .ok_or("diff json: missing `deltas` array")?;
        let mut deltas = Vec::with_capacity(deltas_json.len());
        for (i, d) in deltas_json.iter().enumerate() {
            let int = |k: &str| -> Result<i64, String> {
                d.get(k)
                    .and_then(Json::as_i64)
                    .ok_or_else(|| format!("diff json: deltas[{i}].{k} missing or not an integer"))
            };
            deltas.push(SpanDelta {
                path: d
                    .get("path")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("diff json: deltas[{i}].path missing"))?
                    .to_string(),
                kind: d
                    .get("kind")
                    .and_then(Json::as_str)
                    .and_then(DeltaKind::from_name)
                    .ok_or_else(|| format!("diff json: deltas[{i}].kind invalid"))?,
                calls_delta: int("calls_delta")?,
                wall_delta_ns: int("wall_delta_ns")?,
                self_wall_delta_ns: int("self_wall_delta_ns")?,
                cpu_delta_ns: int("cpu_delta_ns")?,
                allocs_delta: int("allocs_delta")?,
                alloc_bytes_delta: int("alloc_bytes_delta")?,
            });
        }
        Ok(ProfileDiff {
            scale: doc
                .get("scale")
                .and_then(Json::as_f64)
                .ok_or("diff json: `scale` missing")?,
            old_calibration_wall_ns: num("old_calibration_wall_ns")?,
            new_calibration_wall_ns: num("new_calibration_wall_ns")?,
            old_threads: num("old_threads")?,
            new_threads: num("new_threads")?,
            deltas,
        })
    }
}

/// Loads a `profile.json` file.
///
/// # Errors
///
/// IO or parse errors as strings.
pub fn load_profile(path: &Path) -> Result<Profile, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    Profile::from_json(&doc)
}
