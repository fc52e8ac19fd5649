//! The flight recorder: the write side of the trace format.
//!
//! [`TraceRecorder`] mirrors `zr-telemetry`'s activation pattern: a
//! process-wide [`TraceRecorder::global`] instance initialized from the
//! `ZR_TRACE` environment variable, plus [`TraceRecorder::push_current`]
//! overrides: every instrumented component binds the current recorder
//! when it is built, so tests build components under a private recorder
//! hermetically. When inactive, [`TraceRecorder::record`] is a single
//! relaxed atomic load.
//!
//! Three targets are supported:
//!
//! - **file** — frames stream to disk as they fill (the `ZR_TRACE` default);
//! - **ring** — a bounded in-memory deque of sealed frames; only the last
//!   `N` frames survive to [`TraceRecorder::finalize`], for crash triage
//!   of long runs (`ZR_TRACE_RING=<frames>`);
//! - **memory** — everything buffered in memory, retrievable with
//!   [`TraceRecorder::take_bytes`] (tests, programmatic consumers).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

thread_local! {
    /// Per-thread stack of [`TraceRecorder::push_current`] overrides.
    static CURRENT: zr_par::context::Slot<TraceRecorder> = const { RefCell::new(Vec::new()) };
}

/// The shared innermost-wins resolution over [`CURRENT`] (see
/// [`zr_par::context`] — the same mechanism backs `zr-telemetry` and
/// `zr-xray`).
static CURRENT_STACK: zr_par::context::Stack<TraceRecorder> = zr_par::context::Stack::new(&CURRENT);

use crate::record::{
    encode_header, TraceRecord, ENGINE_ID_LIMIT, FRAME_PREFIX_BYTES, RECORDS_PER_FRAME,
    RECORD_BYTES,
};

/// Default trace file name when `ZR_TRACE` names a directory.
pub const DEFAULT_FILE_NAME: &str = "trace.zrt";

/// The on-disk trace path `ZR_TRACE` currently selects, without touching
/// the filesystem: a value with an extension is the file itself, any
/// other value is a directory that receives [`DEFAULT_FILE_NAME`].
/// `None` when tracing is disabled (unset or empty).
pub fn env_trace_path() -> Option<PathBuf> {
    let dest = zr_types::knobs::TRACE.path()?;
    Some(if dest.extension().is_some() {
        dest
    } else {
        dest.join(DEFAULT_FILE_NAME)
    })
}

#[derive(Debug)]
enum Target {
    /// Full trace kept in memory (header written at take time).
    Memory(Vec<u8>),
    /// Frames stream to an open file (header already written).
    File(File),
    /// Bounded deque of sealed frames, flushed to `path` at finalize.
    Ring {
        frames: VecDeque<Vec<u8>>,
        max_frames: usize,
        evicted: u64,
        path: PathBuf,
    },
}

#[derive(Debug)]
struct Inner {
    target: Target,
    /// Records of the currently open (unsealed) frame.
    frame: Vec<u8>,
    frame_records: u32,
}

impl Inner {
    /// Encodes the open frame into `[len][count]payload` bytes.
    fn sealed_frame(&mut self) -> Option<Vec<u8>> {
        if self.frame_records == 0 {
            return None;
        }
        let mut out = Vec::with_capacity(FRAME_PREFIX_BYTES + self.frame.len());
        out.extend_from_slice(&(self.frame.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.frame_records.to_le_bytes());
        out.extend_from_slice(&self.frame);
        self.frame.clear();
        self.frame_records = 0;
        Some(out)
    }

    fn seal(&mut self) -> std::io::Result<()> {
        let Some(frame) = self.sealed_frame() else {
            return Ok(());
        };
        match &mut self.target {
            Target::Memory(buf) => buf.extend_from_slice(&frame),
            Target::File(f) => f.write_all(&frame)?,
            Target::Ring {
                frames,
                max_frames,
                evicted,
                ..
            } => {
                frames.push_back(frame);
                while frames.len() > *max_frames {
                    frames.pop_front();
                    *evicted += 1;
                }
            }
        }
        Ok(())
    }
}

/// The cycle-level flight recorder. See the [crate docs](crate).
#[derive(Debug)]
pub struct TraceRecorder {
    active: AtomicBool,
    records: AtomicU64,
    /// The next refresh-engine id this recorder hands out.
    next_engine: AtomicU8,
    inner: Mutex<Option<Inner>>,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        TraceRecorder::disabled()
    }
}

impl TraceRecorder {
    /// An inactive recorder: every [`Self::record`] call is one relaxed
    /// atomic load.
    pub fn disabled() -> Self {
        TraceRecorder {
            active: AtomicBool::new(false),
            records: AtomicU64::new(0),
            next_engine: AtomicU8::new(0),
            inner: Mutex::new(None),
        }
    }

    /// A recorder buffering the whole trace in memory.
    pub fn memory() -> Self {
        Self::with_target(Target::Memory(Vec::new()))
    }

    /// A recorder streaming frames to `path`, writing the header eagerly.
    ///
    /// # Errors
    ///
    /// Returns the underlying IO error if the file cannot be created.
    pub fn file(path: &Path) -> std::io::Result<Self> {
        let mut f = File::create(path)?;
        f.write_all(&encode_header())?;
        Ok(Self::with_target(Target::File(f)))
    }

    /// A bounded ring recorder keeping the last `max_frames` sealed frames
    /// (plus the open frame); the survivors are written to `path` by
    /// [`Self::finalize`].
    pub fn ring(path: &Path, max_frames: usize) -> Self {
        Self::with_target(Target::Ring {
            frames: VecDeque::new(),
            max_frames: max_frames.max(1),
            evicted: 0,
            path: path.to_path_buf(),
        })
    }

    fn with_target(target: Target) -> Self {
        TraceRecorder {
            active: AtomicBool::new(true),
            records: AtomicU64::new(0),
            next_engine: AtomicU8::new(0),
            inner: Mutex::new(Some(Inner {
                target,
                frame: Vec::with_capacity(RECORDS_PER_FRAME * RECORD_BYTES),
                frame_records: 0,
            })),
        }
    }

    /// The process-wide recorder. First access initializes it from
    /// `ZR_TRACE` / `ZR_TRACE_RING`; with neither set it is the inert
    /// [`Self::disabled`] instance.
    pub fn global() -> &'static Arc<TraceRecorder> {
        static GLOBAL: OnceLock<Arc<TraceRecorder>> = OnceLock::new();
        GLOBAL.get_or_init(|| Arc::new(TraceRecorder::from_env()))
    }

    /// The recorder instrumented components should bind: the innermost
    /// [`TraceRecorder::push_current`] override on this thread, or
    /// [`TraceRecorder::global`] when none is installed.
    ///
    /// The parallel sweep layer gives each pool worker a private memory
    /// recorder through this hook and splices the per-job traces into
    /// the parent in submission order (see [`TraceRecorder::absorb_bytes`]),
    /// so a pooled sweep's trace file is grouped by job rather than
    /// interleaved by scheduling.
    pub fn current() -> Arc<TraceRecorder> {
        CURRENT_STACK.current_or(|| Arc::clone(TraceRecorder::global()))
    }

    /// Installs `recorder` as this thread's [`TraceRecorder::current`]
    /// until the returned guard drops. Overrides nest (innermost wins).
    pub fn push_current(recorder: Arc<TraceRecorder>) -> zr_par::context::Guard<TraceRecorder> {
        CURRENT_STACK.push(recorder)
    }

    /// Allocates the id of a refresh engine recording here: 0, 1, 2, …
    /// in allocation order, wrapping below [`ENGINE_ID_LIMIT`] so engine
    /// ids never collide with component ids. Ids are per recorder, so a
    /// run's ids depend only on the order its engines are built in — and
    /// [`Self::absorb_bytes`] renumbers a job's engines into this
    /// sequence, which keeps pooled traces identical to serial ones.
    pub fn next_engine_id(&self) -> u8 {
        self.next_engine
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |id| {
                Some(if id + 1 >= ENGINE_ID_LIMIT { 0 } else { id + 1 })
            })
            .unwrap_or_else(|id| id)
    }

    /// Re-records a serialized trace — typically
    /// [`TraceRecorder::take_bytes`] of a job's memory recorder — into
    /// this recorder, in the order the records were captured. The job's
    /// engine ids are renumbered to ids of this recorder, allocated in
    /// order of first appearance (an engine's meta record comes first),
    /// so the spliced trace numbers engines exactly as a serial run that
    /// built them here would. Does nothing when inactive, for empty
    /// input, or (with a warning) for bytes that do not parse as a trace.
    pub fn absorb_bytes(&self, bytes: &[u8]) {
        if bytes.is_empty() || !self.is_active() {
            return;
        }
        match crate::reader::parse_trace(bytes) {
            Ok(records) => {
                let mut ids = [None; ENGINE_ID_LIMIT as usize];
                for mut rec in records {
                    if rec.src < ENGINE_ID_LIMIT {
                        rec.src =
                            *ids[rec.src as usize].get_or_insert_with(|| self.next_engine_id());
                    }
                    self.record(rec);
                }
            }
            Err(err) => eprintln!("zr-trace: cannot absorb job trace: {err}"),
        }
    }

    /// Builds a recorder from the environment (see [`Self::global`]).
    pub fn from_env() -> TraceRecorder {
        let Some(path) = env_trace_path() else {
            return TraceRecorder::disabled();
        };
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            let _ = std::fs::create_dir_all(parent);
        }
        match zr_types::knobs::TRACE_RING.int() {
            Some(frames) => TraceRecorder::ring(&path, frames.try_into().unwrap_or(usize::MAX)),
            None => match TraceRecorder::file(&path) {
                Ok(r) => r,
                Err(err) => {
                    eprintln!("zr-trace: cannot open {}: {err}", path.display());
                    TraceRecorder::disabled()
                }
            },
        }
    }

    /// Whether recording is live. Instrumented code may check this (one
    /// relaxed load) before computing anything record-specific.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.active.load(Ordering::Relaxed)
    }

    /// Appends one record. A no-op (single relaxed load) when inactive.
    #[inline]
    pub fn record(&self, rec: TraceRecord) {
        if !self.is_active() {
            return;
        }
        self.record_slow(rec);
    }

    fn record_slow(&self, rec: TraceRecord) {
        let mut guard = self.inner.lock().expect("trace lock");
        let Some(inner) = guard.as_mut() else {
            return;
        };
        inner.frame.extend_from_slice(&rec.encode());
        inner.frame_records += 1;
        self.records.fetch_add(1, Ordering::Relaxed);
        if inner.frame_records as usize >= RECORDS_PER_FRAME {
            if let Err(err) = inner.seal() {
                eprintln!("zr-trace: write failed, disabling recorder: {err}");
                *guard = None;
                self.active.store(false, Ordering::Relaxed);
            }
        }
    }

    /// Records appended so far (including ring-evicted ones).
    pub fn recorded(&self) -> u64 {
        self.records.load(Ordering::Relaxed)
    }

    /// Seals the open frame and flushes everything to the target: ring
    /// survivors are written to their file (header first), file targets
    /// are synced. Safe to call repeatedly; later records keep appending
    /// (ring targets write again on the next finalize).
    pub fn finalize(&self) {
        let mut guard = self.inner.lock().expect("trace lock");
        let Some(inner) = guard.as_mut() else {
            return;
        };
        if let Err(err) = inner.seal() {
            eprintln!("zr-trace: finalize write failed: {err}");
            return;
        }
        match &mut inner.target {
            Target::Memory(_) => {}
            Target::File(f) => {
                let _ = f.flush();
            }
            Target::Ring {
                frames,
                evicted,
                path,
                ..
            } => {
                let write = || -> std::io::Result<()> {
                    let mut f = File::create(&*path)?;
                    f.write_all(&encode_header())?;
                    for frame in frames.iter() {
                        f.write_all(frame)?;
                    }
                    f.flush()
                };
                if let Err(err) = write() {
                    eprintln!(
                        "zr-trace: cannot write ring trace {}: {err}",
                        path.display()
                    );
                } else if *evicted > 0 {
                    eprintln!(
                        "zr-trace: ring evicted {evicted} frame(s); {} kept",
                        frames.len()
                    );
                }
            }
        }
    }

    /// Seals the open frame and returns the full serialized trace (header
    /// + frames) of a memory recorder; empty for other targets.
    pub fn take_bytes(&self) -> Vec<u8> {
        let mut guard = self.inner.lock().expect("trace lock");
        let Some(inner) = guard.as_mut() else {
            return Vec::new();
        };
        let _ = inner.seal();
        match &mut inner.target {
            Target::Memory(buf) => {
                let mut out = encode_header().to_vec();
                out.append(buf);
                out
            }
            _ => Vec::new(),
        }
    }
}

impl Drop for TraceRecorder {
    fn drop(&mut self) {
        self.finalize();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::parse_trace;
    use crate::record::RecordKind;

    fn rec(a: u64) -> TraceRecord {
        let mut r = TraceRecord::new(RecordKind::Write, 1);
        r.a = a;
        r
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let t = TraceRecorder::disabled();
        assert!(!t.is_active());
        t.record(rec(1));
        assert_eq!(t.recorded(), 0);
        assert!(t.take_bytes().is_empty());
        t.finalize(); // must not panic
    }

    #[test]
    fn memory_recorder_round_trips_frames() {
        let t = TraceRecorder::memory();
        // Cross a frame boundary to exercise sealing.
        let n = RECORDS_PER_FRAME as u64 + 10;
        for i in 0..n {
            t.record(rec(i));
        }
        assert_eq!(t.recorded(), n);
        let records = parse_trace(&t.take_bytes()).unwrap();
        assert_eq!(records.len(), n as usize);
        assert_eq!(records[0].a, 0);
        assert_eq!(records[n as usize - 1].a, n - 1);
    }

    #[test]
    fn file_recorder_writes_readable_trace() {
        let dir = std::env::temp_dir().join(format!("zr-trace-file-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.zrt");
        let t = TraceRecorder::file(&path).unwrap();
        for i in 0..5 {
            t.record(rec(i));
        }
        t.finalize();
        let records = parse_trace(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(records.len(), 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ring_recorder_keeps_only_last_frames() {
        let dir = std::env::temp_dir().join(format!("zr-trace-ring-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ring.zrt");
        let t = TraceRecorder::ring(&path, 2);
        // 4 full frames + 3 spare records; finalize seals the tail into
        // the ring, so the last 2 frames (one full + the tail) survive.
        let total = 4 * RECORDS_PER_FRAME as u64 + 3;
        for i in 0..total {
            t.record(rec(i));
        }
        t.finalize();
        let records = parse_trace(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(records.len(), RECORDS_PER_FRAME + 3);
        assert_eq!(records[0].a, total - records.len() as u64);
        assert_eq!(records.last().unwrap().a, total - 1);
        assert_eq!(t.recorded(), total);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn current_defaults_to_global_and_is_thread_local() {
        assert!(Arc::ptr_eq(
            &TraceRecorder::current(),
            TraceRecorder::global()
        ));
        let t = Arc::new(TraceRecorder::memory());
        let _guard = TraceRecorder::push_current(Arc::clone(&t));
        assert!(Arc::ptr_eq(&TraceRecorder::current(), &t));
        std::thread::scope(|s| {
            s.spawn(|| {
                assert!(Arc::ptr_eq(
                    &TraceRecorder::current(),
                    TraceRecorder::global()
                ));
            });
        });
    }

    #[test]
    fn absorb_bytes_splices_job_traces_in_order() {
        let parent = TraceRecorder::memory();
        parent.record(rec(100));
        for job in 0..2u64 {
            let worker = TraceRecorder::memory();
            worker.record(rec(job * 10));
            worker.record(rec(job * 10 + 1));
            parent.absorb_bytes(&worker.take_bytes());
        }
        parent.absorb_bytes(&[]); // no-op
        let records = parse_trace(&parent.take_bytes()).unwrap();
        let order: Vec<u64> = records.iter().map(|r| r.a).collect();
        assert_eq!(order, vec![100, 0, 1, 10, 11]);

        // Inactive parents ignore absorbed traces entirely.
        let disabled = TraceRecorder::disabled();
        let worker = TraceRecorder::memory();
        worker.record(rec(1));
        disabled.absorb_bytes(&worker.take_bytes());
        assert_eq!(disabled.recorded(), 0);
    }

    #[test]
    fn engine_ids_stay_below_component_range() {
        let t = TraceRecorder::memory();
        let ids: Vec<u8> = (0..600).map(|_| t.next_engine_id()).collect();
        assert!(ids.iter().all(|&id| id < ENGINE_ID_LIMIT));
        // Per recorder, in allocation order, wrapping to 0.
        assert_eq!(&ids[..3], &[0, 1, 2]);
        assert_eq!(ids[ENGINE_ID_LIMIT as usize], 0);
        assert_eq!(TraceRecorder::memory().next_engine_id(), 0);
    }

    #[test]
    fn absorb_bytes_renumbers_job_engines_in_first_appearance_order() {
        let parent = TraceRecorder::memory();
        assert_eq!(parent.next_engine_id(), 0); // an engine built here
        let engine_rec = |src: u8, a: u64| {
            let mut r = TraceRecord::new(RecordKind::Meta, src);
            r.a = a;
            r
        };
        for job in 0..2u64 {
            // Each job numbers its own engines from 0; component records
            // keep their fixed ids.
            let worker = TraceRecorder::memory();
            let (first, second) = (worker.next_engine_id(), worker.next_engine_id());
            worker.record(engine_rec(second, job));
            worker.record(engine_rec(first, job));
            worker.record(TraceRecord::new(
                RecordKind::McRead,
                crate::record::SRC_MEMCTRL,
            ));
            worker.record(engine_rec(second, job));
            parent.absorb_bytes(&worker.take_bytes());
        }
        let srcs: Vec<u8> = parse_trace(&parent.take_bytes())
            .unwrap()
            .iter()
            .map(|r| r.src)
            .collect();
        let memctrl = crate::record::SRC_MEMCTRL;
        assert_eq!(srcs, vec![1, 2, memctrl, 1, 3, 4, memctrl, 3]);
        assert_eq!(parent.next_engine_id(), 5);
    }
}
