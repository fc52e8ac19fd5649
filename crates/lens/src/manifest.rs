//! Run manifests: one `manifest.json` per instrumented run, recording
//! what was simulated, with which knobs, and exactly which artifact
//! bytes the run left behind.
//!
//! The manifest is the root of trust for [`crate::audit`]: every other
//! artifact is located *through* it (relative paths) and integrity-
//! checked *against* it (byte length + FNV-1a checksum) before any
//! cross-layer reconciliation runs.
//!
//! # Determinism contract
//!
//! Two runs of the same figure with the same configuration must produce
//! byte-identical manifests — at any `ZR_THREADS`. Everything that
//! cannot satisfy that (wall time, peak RSS, the calibration spin, and
//! the checksums of wall-time-bearing artifacts such as the profile)
//! lives under the single top-level `volatile` key, so a determinism
//! check is "compare the document minus `volatile`"
//! ([`Manifest::deterministic_json`]).

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use zr_types::json::{Json, ToJson};

/// Manifest format version.
pub const SCHEMA: u64 = 1;

/// File name the manifest is written under.
pub const FILE_NAME: &str = "manifest.json";

/// The checksum every layer of the manifest uses.
pub use zr_types::fnv64;

/// Renders a 64-bit hash the way the manifest stores it: 16 lowercase
/// hex digits (JSON numbers are f64 and would corrupt the high bits).
pub fn hex64(value: u64) -> String {
    format!("{value:016x}")
}

/// Parses a [`hex64`] string back to the hash value.
pub fn parse_hex64(text: &str) -> Option<u64> {
    if text.len() != 16 {
        return None;
    }
    u64::from_str_radix(text, 16).ok()
}

/// One artifact the run produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Artifact {
    /// What the file is: `events`, `snapshot`, `trace`, `xray-json`,
    /// `xray-csv`, `profile-json`, `profile-folded`, `report`.
    pub kind: String,
    /// Path relative to the manifest's directory (absolute only when
    /// the artifact lives outside that tree).
    pub path: String,
    /// Whether the file's *contents* carry wall-clock measurements and
    /// therefore vary run-to-run. Volatile artifacts keep their length
    /// and checksum under the manifest's `volatile` key.
    pub volatile: bool,
    /// Byte length of the file when the manifest was written.
    pub bytes: u64,
    /// FNV-1a 64 checksum of the file when the manifest was written.
    pub fnv: u64,
}

/// Refresh-domain totals for the run, recorded from the telemetry
/// counter deltas observed by the harness. These are the figure-layer
/// numbers the audit reconciles telemetry, xray and trace against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunTotals {
    /// Rows actually refreshed across every engine.
    pub rows_refreshed: u64,
    /// Rows whose refresh was elided.
    pub rows_skipped: u64,
    /// Auto-refresh commands issued.
    pub ar_commands: u64,
    /// Retention-table reads.
    pub table_reads: u64,
    /// Retention-table writes.
    pub table_writes: u64,
}

/// The run-to-run varying facts, quarantined under one key.
#[derive(Debug, Clone, Default)]
pub struct Volatile {
    /// Wall time of the run, nanoseconds.
    pub wall_ns: u64,
    /// Peak resident set size in bytes (`0` off Linux).
    pub peak_rss_bytes: u64,
    /// Wall time of the fixed calibration spin, nanoseconds (`0` when
    /// the profiler did not run).
    pub calibration_wall_ns: u64,
    /// Byte length and checksum of each volatile artifact, keyed by
    /// its manifest-relative path.
    pub artifacts: BTreeMap<String, (u64, u64)>,
}

/// A complete run manifest.
#[derive(Debug, Clone, Default)]
pub struct Manifest {
    /// Figure or slice name (`fig14_refresh_reduction`, ...).
    pub figure: String,
    /// FNV-1a 64 of the canonical experiment-config string.
    pub config_hash: u64,
    /// The experiment seed.
    pub seed: u64,
    /// Effective sweep-pool width the run used.
    pub threads: u64,
    /// The values of the knobs manifests record
    /// ([`zr_types::knobs::recorded`]) at run time (`None` = unset).
    pub env: BTreeMap<String, Option<String>>,
    /// Refresh-domain totals from the harness's counter deltas.
    pub totals: RunTotals,
    /// Every artifact the run registered, in registration order.
    pub artifacts: Vec<Artifact>,
    /// The run-to-run varying facts.
    pub volatile: Volatile,
}

impl Manifest {
    /// Serializes to the JSON document model.
    pub fn to_json(&self) -> Json {
        let artifacts = self
            .artifacts
            .iter()
            .map(|a| {
                let mut members = vec![
                    ("kind".to_string(), Json::Str(a.kind.clone())),
                    ("path".to_string(), Json::Str(a.path.clone())),
                    ("volatile".to_string(), Json::Bool(a.volatile)),
                ];
                if !a.volatile {
                    members.push(("bytes".to_string(), a.bytes.to_json()));
                    members.push(("fnv".to_string(), Json::Str(hex64(a.fnv))));
                }
                Json::Obj(members)
            })
            .collect::<Vec<Json>>();
        let t = &self.totals;
        let totals = Json::obj([
            ("rows_refreshed", t.rows_refreshed.to_json()),
            ("rows_skipped", t.rows_skipped.to_json()),
            ("ar_commands", t.ar_commands.to_json()),
            ("table_reads", t.table_reads.to_json()),
            ("table_writes", t.table_writes.to_json()),
        ]);
        let volatile_artifacts = self
            .volatile
            .artifacts
            .iter()
            .map(|(path, &(bytes, fnv))| {
                (
                    path.clone(),
                    Json::obj([("bytes", bytes.to_json()), ("fnv", Json::Str(hex64(fnv)))]),
                )
            })
            .collect();
        let v = &self.volatile;
        let volatile = Json::obj([
            ("wall_ns", v.wall_ns.to_json()),
            ("peak_rss_bytes", v.peak_rss_bytes.to_json()),
            ("calibration_wall_ns", v.calibration_wall_ns.to_json()),
            ("artifacts", Json::Obj(volatile_artifacts)),
        ]);
        Json::Obj(vec![
            ("schema".to_string(), SCHEMA.to_json()),
            ("figure".to_string(), Json::Str(self.figure.clone())),
            (
                "config_hash".to_string(),
                Json::Str(hex64(self.config_hash)),
            ),
            ("seed".to_string(), self.seed.to_json()),
            ("threads".to_string(), self.threads.to_json()),
            ("env".to_string(), self.env.to_json()),
            ("totals".to_string(), totals),
            ("artifacts".to_string(), Json::Arr(artifacts)),
            ("volatile".to_string(), volatile),
        ])
    }

    /// The manifest document with the `volatile` key removed — the part
    /// two identical runs must agree on byte-for-byte.
    pub fn deterministic_json(&self) -> Json {
        match self.to_json() {
            Json::Obj(members) => Json::Obj(
                members
                    .into_iter()
                    .filter(|(k, _)| k != "volatile")
                    .collect(),
            ),
            other => other,
        }
    }

    /// Deserializes from the JSON document model.
    ///
    /// # Errors
    ///
    /// A message naming the first missing or ill-typed field.
    pub fn from_json(doc: &Json) -> Result<Manifest, String> {
        let schema = doc
            .get("schema")
            .and_then(Json::as_u64)
            .ok_or("manifest: missing schema")?;
        if schema != SCHEMA {
            return Err(format!("manifest: unsupported schema {schema}"));
        }
        let figure = doc
            .get("figure")
            .and_then(Json::as_str)
            .ok_or("manifest: missing figure")?
            .to_string();
        let config_hash = doc
            .get("config_hash")
            .and_then(Json::as_str)
            .and_then(parse_hex64)
            .ok_or("manifest: bad config_hash")?;
        let seed = doc
            .get("seed")
            .and_then(Json::as_u64)
            .ok_or("manifest: missing seed")?;
        let threads = doc
            .get("threads")
            .and_then(Json::as_u64)
            .ok_or("manifest: missing threads")?;
        let mut env = BTreeMap::new();
        if let Some(Json::Obj(members)) = doc.get("env") {
            for (k, v) in members {
                env.insert(k.clone(), v.as_str().map(str::to_string));
            }
        }
        let totals_doc = doc.get("totals").ok_or("manifest: missing totals")?;
        let total = |key: &str| -> Result<u64, String> {
            totals_doc
                .get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("manifest: missing totals.{key}"))
        };
        let totals = RunTotals {
            rows_refreshed: total("rows_refreshed")?,
            rows_skipped: total("rows_skipped")?,
            ar_commands: total("ar_commands")?,
            table_reads: total("table_reads")?,
            table_writes: total("table_writes")?,
        };
        let mut artifacts = Vec::new();
        for (i, entry) in doc
            .get("artifacts")
            .and_then(Json::as_arr)
            .ok_or("manifest: missing artifacts")?
            .iter()
            .enumerate()
        {
            let volatile = entry
                .get("volatile")
                .and_then(|v| match v {
                    Json::Bool(b) => Some(*b),
                    _ => None,
                })
                .ok_or_else(|| format!("manifest: artifact {i}: missing volatile"))?;
            let (bytes, fnv) = if volatile {
                (0, 0)
            } else {
                (
                    entry
                        .get("bytes")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("manifest: artifact {i}: missing bytes"))?,
                    entry
                        .get("fnv")
                        .and_then(Json::as_str)
                        .and_then(parse_hex64)
                        .ok_or_else(|| format!("manifest: artifact {i}: bad fnv"))?,
                )
            };
            artifacts.push(Artifact {
                kind: entry
                    .get("kind")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("manifest: artifact {i}: missing kind"))?
                    .to_string(),
                path: entry
                    .get("path")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("manifest: artifact {i}: missing path"))?
                    .to_string(),
                volatile,
                bytes,
                fnv,
            });
        }
        let volatile_doc = doc.get("volatile").ok_or("manifest: missing volatile")?;
        let mut volatile = Volatile {
            wall_ns: volatile_doc
                .get("wall_ns")
                .and_then(Json::as_u64)
                .unwrap_or(0),
            peak_rss_bytes: volatile_doc
                .get("peak_rss_bytes")
                .and_then(Json::as_u64)
                .unwrap_or(0),
            calibration_wall_ns: volatile_doc
                .get("calibration_wall_ns")
                .and_then(Json::as_u64)
                .unwrap_or(0),
            artifacts: BTreeMap::new(),
        };
        if let Some(Json::Obj(members)) = volatile_doc.get("artifacts") {
            for (path, entry) in members {
                let bytes = entry
                    .get("bytes")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("manifest: volatile artifact {path}: missing bytes"))?;
                let fnv = entry
                    .get("fnv")
                    .and_then(Json::as_str)
                    .and_then(parse_hex64)
                    .ok_or_else(|| format!("manifest: volatile artifact {path}: bad fnv"))?;
                volatile.artifacts.insert(path.clone(), (bytes, fnv));
            }
        }
        // Resolve the per-artifact bytes/fnv of volatile entries from
        // the volatile section so callers see one consistent view.
        for artifact in &mut artifacts {
            if artifact.volatile {
                if let Some(&(bytes, fnv)) = volatile.artifacts.get(&artifact.path) {
                    artifact.bytes = bytes;
                    artifact.fnv = fnv;
                }
            }
        }
        Ok(Manifest {
            figure,
            config_hash,
            seed,
            threads,
            env,
            totals,
            artifacts,
            volatile,
        })
    }

    /// Writes `manifest.json` into `dir`, returning the path.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and write failures.
    pub fn write(&self, dir: &Path) -> io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        let path = dir.join(FILE_NAME);
        fs::write(&path, self.to_json().to_pretty())?;
        Ok(path)
    }

    /// Loads a manifest from `path`.
    ///
    /// # Errors
    ///
    /// A message for unreadable files, JSON syntax errors, or schema
    /// violations.
    pub fn load(path: &Path) -> Result<Manifest, String> {
        let text = fs::read_to_string(path)
            .map_err(|e| format!("manifest: cannot read {}: {e}", path.display()))?;
        let doc = Json::parse(&text)
            .map_err(|e| format!("manifest: cannot parse {}: {e}", path.display()))?;
        Manifest::from_json(&doc)
    }

    /// Resolves an artifact path against the manifest's directory.
    pub fn resolve(&self, manifest_path: &Path, artifact: &Artifact) -> PathBuf {
        let rel = Path::new(&artifact.path);
        if rel.is_absolute() {
            return rel.to_path_buf();
        }
        match manifest_path.parent() {
            Some(dir) => dir.join(rel),
            None => rel.to_path_buf(),
        }
    }

    /// First artifact of `kind`, if any.
    pub fn artifact(&self, kind: &str) -> Option<&Artifact> {
        self.artifacts.iter().find(|a| a.kind == kind)
    }
}

/// Expresses `path` relative to `base` when it lives under it,
/// otherwise returns it unchanged as a string.
pub fn relativize(base: &Path, path: &Path) -> String {
    match path.strip_prefix(base) {
        Ok(rel) => rel.display().to_string(),
        Err(_) => path.display().to_string(),
    }
}

mod registrar {
    //! Process-global artifact registration.
    //!
    //! Exporters that cannot see the harness (e.g. the figure report
    //! writer) register the files they produce here; the harness drains
    //! the registry when it assembles the manifest at the end of the
    //! run.

    use std::path::PathBuf;
    use std::sync::Mutex;

    static PENDING: Mutex<Vec<(String, PathBuf, bool)>> = Mutex::new(Vec::new());

    /// Registers an artifact `(kind, path, volatile)` for the next
    /// manifest assembly.
    pub fn register(kind: &str, path: PathBuf, volatile: bool) {
        PENDING
            .lock()
            .expect("artifact registry lock")
            .push((kind.to_string(), path, volatile));
    }

    /// Takes every registered artifact, in registration order.
    pub fn drain() -> Vec<(String, PathBuf, bool)> {
        std::mem::take(&mut *PENDING.lock().expect("artifact registry lock"))
    }
}

pub use registrar::{drain as drain_artifacts, register as register_artifact};

/// Assembles manifest [`Artifact`] entries from `(kind, path,
/// volatile)` triples: reads each file for its length and checksum and
/// relativizes its path against `manifest_dir`. Unreadable files are
/// skipped (the run may have a capture layer disabled).
pub fn collect_artifacts(
    manifest_dir: &Path,
    entries: &[(String, PathBuf, bool)],
) -> (Vec<Artifact>, BTreeMap<String, (u64, u64)>) {
    let mut artifacts = Vec::new();
    let mut volatile = BTreeMap::new();
    for (kind, path, is_volatile) in entries {
        let Ok(bytes) = fs::read(path) else { continue };
        let len = bytes.len() as u64;
        let fnv = fnv64(&bytes);
        let rel = relativize(manifest_dir, path);
        if *is_volatile {
            volatile.insert(rel.clone(), (len, fnv));
        }
        if artifacts.iter().any(|a: &Artifact| a.path == rel) {
            continue;
        }
        artifacts.push(Artifact {
            kind: kind.clone(),
            path: rel,
            volatile: *is_volatile,
            bytes: len,
            fnv,
        });
    }
    (artifacts, volatile)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trip() {
        for v in [0u64, 1, 0xdead_beef, u64::MAX] {
            assert_eq!(parse_hex64(&hex64(v)), Some(v));
        }
        assert_eq!(parse_hex64("xyz"), None);
        assert_eq!(parse_hex64("00"), None);
    }

    #[test]
    fn manifest_round_trips_through_json() {
        let mut manifest = Manifest {
            figure: "fig14".to_string(),
            config_hash: 0x1234_5678_9abc_def0,
            seed: 0x5EED,
            threads: 4,
            ..Manifest::default()
        };
        manifest
            .env
            .insert("ZR_THREADS".to_string(), Some("4".to_string()));
        manifest.env.insert("ZR_TRACE".to_string(), None);
        manifest.totals = RunTotals {
            rows_refreshed: 100,
            rows_skipped: 40,
            ar_commands: 10,
            table_reads: 7,
            table_writes: 3,
        };
        manifest.artifacts.push(Artifact {
            kind: "events".to_string(),
            path: "events.jsonl".to_string(),
            volatile: false,
            bytes: 321,
            fnv: 0xfeed,
        });
        manifest.artifacts.push(Artifact {
            kind: "profile-json".to_string(),
            path: "fig14_profile.json".to_string(),
            volatile: true,
            bytes: 55,
            fnv: 0xbeef,
        });
        manifest
            .volatile
            .artifacts
            .insert("fig14_profile.json".to_string(), (55, 0xbeef));
        manifest.volatile.wall_ns = 999;

        let doc = manifest.to_json();
        let back = Manifest::from_json(&doc).expect("round trip");
        assert_eq!(back.figure, manifest.figure);
        assert_eq!(back.config_hash, manifest.config_hash);
        assert_eq!(back.seed, manifest.seed);
        assert_eq!(back.threads, manifest.threads);
        assert_eq!(back.env, manifest.env);
        assert_eq!(back.totals, manifest.totals);
        assert_eq!(back.artifacts, manifest.artifacts);
        assert_eq!(back.volatile.wall_ns, 999);
        assert_eq!(
            back.volatile.artifacts.get("fig14_profile.json"),
            Some(&(55, 0xbeef))
        );
        // Reparse of the printed text is identical too.
        let text = doc.to_pretty();
        assert_eq!(Json::parse(&text).expect("parse"), doc);
    }

    #[test]
    fn deterministic_json_drops_only_volatile() {
        let mut manifest = Manifest {
            figure: "f".to_string(),
            ..Manifest::default()
        };
        manifest.volatile.wall_ns = 123;
        let det = manifest.deterministic_json();
        assert!(det.get("volatile").is_none());
        assert!(det.get("figure").is_some());
        assert!(det.get("totals").is_some());
    }

    #[test]
    fn volatile_artifact_checksums_stay_out_of_the_deterministic_part() {
        let mut a = Manifest {
            figure: "f".to_string(),
            ..Manifest::default()
        };
        let mut b = a.clone();
        a.artifacts.push(Artifact {
            kind: "profile-json".to_string(),
            path: "p.json".to_string(),
            volatile: true,
            bytes: 10,
            fnv: 1,
        });
        b.artifacts.push(Artifact {
            kind: "profile-json".to_string(),
            path: "p.json".to_string(),
            volatile: true,
            bytes: 20,
            fnv: 2,
        });
        a.volatile.artifacts.insert("p.json".to_string(), (10, 1));
        b.volatile.artifacts.insert("p.json".to_string(), (20, 2));
        assert_eq!(
            a.deterministic_json().to_pretty(),
            b.deterministic_json().to_pretty()
        );
    }

    #[test]
    fn registrar_drains_in_registration_order() {
        // The registry is process-global; drain first so concurrent
        // tests in this binary start from a clean slate.
        let _ = drain_artifacts();
        register_artifact("report", PathBuf::from("/tmp/a.json"), false);
        register_artifact("report", PathBuf::from("/tmp/b.json"), false);
        let drained = drain_artifacts();
        assert_eq!(
            drained
                .iter()
                .map(|(_, p, _)| p.display().to_string())
                .collect::<Vec<_>>(),
            vec!["/tmp/a.json", "/tmp/b.json"]
        );
        assert!(drain_artifacts().is_empty());
    }

    #[test]
    fn collect_artifacts_reads_and_relativizes() {
        let dir = std::env::temp_dir().join(format!("zr-lens-collect-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("tempdir");
        let det = dir.join("events.jsonl");
        let vol = dir.join("p_profile.json");
        fs::write(&det, b"hello\n").expect("write");
        fs::write(&vol, b"{}\n").expect("write");
        let entries = vec![
            ("events".to_string(), det, false),
            ("profile-json".to_string(), vol, true),
            ("trace".to_string(), dir.join("missing.zrt"), false),
        ];
        let (artifacts, volatile) = collect_artifacts(&dir, &entries);
        assert_eq!(artifacts.len(), 2, "missing file skipped");
        assert_eq!(artifacts[0].path, "events.jsonl");
        assert_eq!(artifacts[0].bytes, 6);
        assert_eq!(artifacts[0].fnv, fnv64(b"hello\n"));
        assert!(artifacts[1].volatile);
        assert_eq!(volatile.get("p_profile.json"), Some(&(3, fnv64(b"{}\n"))));
        fs::remove_dir_all(&dir).ok();
    }
}
