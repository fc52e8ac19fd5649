//! The sweep server: a channel-fed worker pool with single-flight
//! request coalescing over the content-addressed result cache.
//!
//! # Request life cycle
//!
//! [`Server::submit`] resolves a request's content-address and takes
//! one of three paths under a single state lock:
//!
//! * **Hit** — the key is cached: the stored bytes are returned at
//!   once, no job runs.
//! * **Coalesced** — the key is already being computed: the caller is
//!   attached to the in-flight job's waiter list and receives the same
//!   bytes the first caller will.
//! * **Miss** — the key is claimed in the pending map and exactly one
//!   job is enqueued for the worker pool.
//!
//! The pending map *is* the single-flight guarantee: between claim and
//! completion every same-key submit coalesces, so a key's simulation
//! runs at most once no matter how many clients race
//! (`serve.jobs.executed` counts real executions and is pinned by the
//! `single_flight` test).
//!
//! # Observability
//!
//! Each job runs under a forked telemetry absorbed back in on
//! completion (the same fork/absorb discipline as the batch sweep
//! pool), inside a `serve.compute` span. Outcomes bump the
//! `serve.cache.{hit,miss,coalesce,evict}` counters. When a lens
//! directory is configured, every *executed* job writes its result
//! bytes plus a run manifest under `serve-<key>/`, so `zr-lens audit`
//! reconciles served runs exactly like batch runs.

use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use zr_telemetry::Telemetry;
use zr_types::{Error, Result};

use crate::cache::{CacheEntry, ResultCache};
use crate::request::SweepRequest;

/// How a reply was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Answered from the result cache; no simulation ran.
    Hit,
    /// This request claimed the key and a simulation executed for it.
    Miss,
    /// Attached to another caller's in-flight simulation of the same
    /// key; no additional simulation ran.
    Coalesced,
}

impl CacheOutcome {
    /// Protocol name (`hit` / `miss` / `coalesced`).
    pub fn name(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Coalesced => "coalesced",
        }
    }
}

/// One served reply: the result bytes, their checksum and how the
/// request was satisfied.
#[derive(Debug, Clone)]
pub struct ServeReply {
    /// The result document bytes — byte-identical whether this reply
    /// was a cold computation, a cache hit or a coalesced attach.
    pub bytes: Arc<Vec<u8>>,
    /// FNV-1a 64 of `bytes`; equals the manifest's `report` artifact
    /// checksum for executed jobs.
    pub fnv: u64,
    /// How the reply was satisfied.
    pub outcome: CacheOutcome,
}

/// The compute function a server runs on cache misses.
///
/// Production servers use [`crate::compute::simulate`]; tests inject
/// cheap deterministic stubs so cache/coalescing behavior can be
/// battered with thousands of requests in debug builds.
pub type ComputeFn = Arc<dyn Fn(&SweepRequest) -> Result<Vec<u8>> + Send + Sync>;

/// Server construction knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Result-cache capacity in entries (clamped to at least 1).
    pub cache_entries: usize,
    /// Worker threads draining the job queue (clamped to at least 1).
    pub workers: usize,
    /// When set, each executed job writes `result.json` plus a run
    /// manifest under `<lens_dir>/serve-<key>/`.
    pub lens_dir: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            cache_entries: 64,
            workers: 2,
            lens_dir: None,
        }
    }
}

/// Monotonic outcome totals since the server started.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Requests answered from the cache.
    pub hits: u64,
    /// Requests that claimed their key and executed a simulation.
    pub misses: u64,
    /// Requests attached to an in-flight same-key job.
    pub coalesced: u64,
    /// Entries evicted by the LRU capacity bound.
    pub evictions: u64,
    /// Jobs actually executed by the worker pool.
    pub executed: u64,
    /// Entries currently cached.
    pub cached: u64,
    /// The configured cache capacity.
    pub capacity: u64,
}

/// A pending reply. `wait` blocks until the job (or cache) produces it.
#[derive(Debug)]
pub struct Handle {
    key: u64,
    rx: mpsc::Receiver<Result<ServeReply>>,
}

impl Handle {
    /// The request's content-address.
    pub fn key(&self) -> u64 {
        self.key
    }

    /// Blocks until the reply arrives.
    ///
    /// # Errors
    ///
    /// The compute function's error, verbatim, delivered to *every*
    /// waiter of the failed job. A panicking compute is caught by the
    /// worker ([`run_job`]'s unwind guard) and delivered the same way,
    /// as [`Error::InvalidConfig`]; the channel-closed fallback below is
    /// defensive only — no live code path drops a claimed waiter.
    pub fn wait(self) -> Result<ServeReply> {
        self.rx.recv().map_err(|_| {
            Error::invalid_config("serve worker dropped the reply channel before answering")
        })?
    }
}

/// One queued computation.
struct Job {
    key: u64,
    request: SweepRequest,
}

type Waiter = (CacheOutcome, mpsc::Sender<Result<ServeReply>>);

/// Mutable server state, guarded by one mutex: the cache, the
/// single-flight pending map and the outcome totals. Every transition
/// (hit, claim, attach, complete, invalidate) happens atomically under
/// it, which is what makes the outcome accounting exact enough for the
/// load-mix battery to compare against a reference model hit-for-hit.
struct State {
    cache: ResultCache,
    pending: HashMap<u64, Vec<Waiter>>,
    stats: ServeStats,
}

struct Inner {
    state: Mutex<State>,
    telemetry: Arc<Telemetry>,
    compute: ComputeFn,
    lens_dir: Option<PathBuf>,
}

/// The sweep server. Dropping it (or calling [`Server::shutdown`])
/// closes the queue and joins the workers.
pub struct Server {
    inner: Arc<Inner>,
    tx: Option<mpsc::Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Starts a server with an injected compute function.
    ///
    /// The ambient [`Telemetry::current`] is captured here and used for
    /// all request/job accounting — push a fresh telemetry before
    /// construction to observe one server in isolation.
    pub fn new(config: ServerConfig, compute: ComputeFn) -> Server {
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                cache: ResultCache::new(config.cache_entries),
                pending: HashMap::new(),
                stats: ServeStats {
                    capacity: config.cache_entries.max(1) as u64,
                    ..ServeStats::default()
                },
            }),
            telemetry: Telemetry::current(),
            compute,
            lens_dir: config.lens_dir,
        });
        let (tx, rx) = mpsc::channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("zr-serve-{i}"))
                    .spawn(move || worker_loop(&inner, &rx))
                    .expect("spawn serve worker")
            })
            .collect();
        Server {
            inner,
            tx: Some(tx),
            workers,
        }
    }

    /// Starts a server whose compute function is the real simulator
    /// ([`crate::compute::simulate`]).
    pub fn simulator(config: ServerConfig) -> Server {
        Server::new(
            config,
            Arc::new(|req: &SweepRequest| crate::compute::simulate(req)),
        )
    }

    /// Submits a request, returning a handle that resolves to the
    /// result bytes and the [`CacheOutcome`] this caller observed.
    pub fn submit(&self, request: SweepRequest) -> Handle {
        let _span = self.inner.telemetry.span("serve.submit");
        let key = request.key();
        let (tx, rx) = mpsc::channel();
        let handle = Handle { key, rx };
        let enqueue = {
            let mut state = self.inner.state.lock().expect("serve state poisoned");
            if let Some(entry) = state.cache.get(key) {
                state.stats.hits += 1;
                self.inner.telemetry.counter("serve.cache.hit").add(1);
                let _ = tx.send(Ok(ServeReply {
                    bytes: entry.bytes,
                    fnv: entry.fnv,
                    outcome: CacheOutcome::Hit,
                }));
                false
            } else if let Some(waiters) = state.pending.get_mut(&key) {
                waiters.push((CacheOutcome::Coalesced, tx));
                state.stats.coalesced += 1;
                self.inner.telemetry.counter("serve.cache.coalesce").add(1);
                false
            } else if self.tx.is_some() {
                state.stats.misses += 1;
                self.inner.telemetry.counter("serve.cache.miss").add(1);
                state.pending.insert(key, vec![(CacheOutcome::Miss, tx)]);
                true
            } else {
                // Shut down: the queue is gone, so claiming the key here
                // would strand this waiter — and every later same-key
                // submit that coalesced onto it — on a job that can
                // never run. Answer with an error instead.
                let _ = tx.send(Err(Error::invalid_config(
                    "serve: submit after shutdown (cache hits only)",
                )));
                false
            }
        };
        if enqueue {
            // `shutdown` needs `&mut self`, so the queue checked above
            // cannot disappear while this `&self` borrow is live: a
            // claimed key always gets its job enqueued.
            let _ = self
                .tx
                .as_ref()
                .expect("claimed a key with no job queue")
                .send(Job { key, request });
        }
        handle
    }

    /// Drops a cached result; returns whether the key was present.
    /// An in-flight computation of the same key is unaffected — it will
    /// repopulate the cache when it completes.
    pub fn invalidate(&self, key: u64) -> bool {
        let mut state = self.inner.state.lock().expect("serve state poisoned");
        let removed = state.cache.remove(key);
        if removed {
            self.inner
                .telemetry
                .counter("serve.cache.invalidate")
                .add(1);
        }
        removed
    }

    /// Clears the entire cache, returning how many entries were held.
    pub fn flush(&self) -> usize {
        let mut state = self.inner.state.lock().expect("serve state poisoned");
        state.cache.clear()
    }

    /// Every cached key, most recently used first.
    pub fn cached_keys_mru(&self) -> Vec<u64> {
        let state = self.inner.state.lock().expect("serve state poisoned");
        state.cache.keys_mru()
    }

    /// A snapshot of the outcome totals.
    pub fn stats(&self) -> ServeStats {
        let state = self.inner.state.lock().expect("serve state poisoned");
        ServeStats {
            cached: state.cache.len() as u64,
            ..state.stats
        }
    }

    /// Closes the job queue and joins every worker. In-flight jobs
    /// finish and deliver their replies first. Idempotent; also runs on
    /// drop.
    pub fn shutdown(&mut self) {
        drop(self.tx.take());
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Drains the shared job queue until the server closes it.
fn worker_loop(inner: &Inner, rx: &Mutex<mpsc::Receiver<Job>>) {
    loop {
        // Hold the receiver lock only for the blocking recv itself so
        // sibling workers can take the next job while this one computes.
        let job = match rx.lock().expect("serve queue poisoned").recv() {
            Ok(job) => job,
            Err(_) => return,
        };
        run_job(inner, &job);
    }
}

/// Executes one claimed job and delivers its reply to every waiter.
fn run_job(inner: &Inner, job: &Job) {
    let fork = inner.telemetry.fork_job();
    let started = Instant::now();
    let result = {
        let _current = Telemetry::push_current(Arc::clone(&fork));
        let _span = fork.span("serve.compute");
        // A panicking compute must not unwind the worker: the pending
        // entry would leak, deadlocking its waiters and every future
        // same-key submit (they would coalesce onto a ghost entry).
        // Caught here, a panic is just another failed job — waiters get
        // an error and the key is released below.
        catch_unwind(AssertUnwindSafe(|| (inner.compute)(&job.request))).unwrap_or_else(|payload| {
            Err(Error::invalid_config(format!(
                "compute panicked: {}",
                panic_reason(payload.as_ref())
            )))
        })
    };
    let wall_ns = started.elapsed().as_nanos() as u64;
    // The fork started from zero, so its snapshot *is* the job's
    // counter delta — the same totals the batch harness derives by
    // before/after subtraction.
    let snapshot = fork.snapshot();
    inner.telemetry.absorb_job(&fork);
    let result = result.map(CacheEntry::new);
    if let (Ok(entry), Some(lens_dir)) = (&result, &inner.lens_dir) {
        if let Err(e) = write_run(lens_dir, job, entry, &snapshot, wall_ns) {
            eprintln!(
                "[zr-serve] manifest write failed for {}: {e}",
                zr_lens::hex64(job.key)
            );
        }
    }
    let mut state = inner.state.lock().expect("serve state poisoned");
    state.stats.executed += 1;
    inner.telemetry.counter("serve.jobs.executed").add(1);
    let waiters = state.pending.remove(&job.key).unwrap_or_default();
    match result {
        Ok(entry) => {
            let evicted = state.cache.insert(job.key, entry.clone());
            if !evicted.is_empty() {
                state.stats.evictions += evicted.len() as u64;
                inner
                    .telemetry
                    .counter("serve.cache.evict")
                    .add(evicted.len() as u64);
            }
            for (outcome, tx) in waiters {
                let _ = tx.send(Ok(ServeReply {
                    bytes: Arc::clone(&entry.bytes),
                    fnv: entry.fnv,
                    outcome,
                }));
            }
        }
        Err(e) => {
            inner.telemetry.counter("serve.jobs.failed").add(1);
            for (_, tx) in waiters {
                let _ = tx.send(Err(e.clone()));
            }
        }
    }
}

/// The human-readable part of a caught panic payload — `panic!` with a
/// literal or a formatted message covers every panic the simulator can
/// raise (including the std arithmetic and slice panics).
fn panic_reason(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

/// Writes the executed job's result bytes and run manifest under
/// `<lens_dir>/serve-<key>/`, in the exact shape the batch harness
/// writes so `zr-lens audit`/`show` treat served runs uniformly.
fn write_run(
    lens_dir: &std::path::Path,
    job: &Job,
    entry: &CacheEntry,
    snapshot: &zr_telemetry::Snapshot,
    wall_ns: u64,
) -> std::io::Result<PathBuf> {
    let dir = lens_dir.join(format!("serve-{}", zr_lens::hex64(job.key)));
    std::fs::create_dir_all(&dir)?;
    std::fs::write(dir.join("result.json"), entry.bytes.as_ref())?;
    let manifest = zr_lens::Manifest {
        figure: job.request.figure.figure_name().to_string(),
        config_hash: job.key,
        seed: job.request.config.seed,
        threads: job.request.config.effective_threads() as u64,
        env: zr_types::knobs::recorded(),
        totals: zr_lens::RunTotals {
            rows_refreshed: snapshot.counter("dram.refresh.rows_refreshed"),
            rows_skipped: snapshot.counter("dram.refresh.rows_skipped"),
            ar_commands: snapshot.counter("dram.refresh.ar_commands"),
            table_reads: snapshot.counter("dram.refresh.table_reads"),
            table_writes: snapshot.counter("dram.refresh.table_writes"),
        },
        artifacts: vec![zr_lens::Artifact {
            kind: "report".to_string(),
            path: "result.json".to_string(),
            volatile: false,
            bytes: entry.bytes.len() as u64,
            fnv: entry.fnv,
        }],
        volatile: zr_lens::Volatile {
            wall_ns,
            peak_rss_bytes: zr_prof::clock::peak_rss_bytes(),
            calibration_wall_ns: 0,
            artifacts: BTreeMap::new(),
        },
    };
    manifest.write(&dir)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{Figure, Scenario};
    use zr_sim::experiments::ExperimentConfig;
    use zr_workloads::Benchmark;

    /// A stub compute that renders the canonical string — unique bytes
    /// per key, microseconds per call.
    fn stub() -> ComputeFn {
        Arc::new(|req: &SweepRequest| Ok(req.canonical_string().into_bytes()))
    }

    fn request(seed: u64) -> SweepRequest {
        SweepRequest::new(
            Figure::Fig14Refresh,
            vec![Benchmark::Gcc],
            Scenario::Full,
            ExperimentConfig {
                seed,
                ..ExperimentConfig::tiny_test()
            },
        )
    }

    #[test]
    fn miss_then_hit_returns_identical_bytes() {
        let server = Server::new(
            ServerConfig {
                cache_entries: 4,
                workers: 1,
                lens_dir: None,
            },
            stub(),
        );
        let cold = server.submit(request(1)).wait().unwrap();
        assert_eq!(cold.outcome, CacheOutcome::Miss);
        let hit = server.submit(request(1)).wait().unwrap();
        assert_eq!(hit.outcome, CacheOutcome::Hit);
        assert_eq!(cold.bytes, hit.bytes);
        assert_eq!(cold.fnv, hit.fnv);
        let stats = server.stats();
        assert_eq!((stats.hits, stats.misses, stats.executed), (1, 1, 1));
    }

    #[test]
    fn invalidate_forces_a_recompute_with_equal_bytes() {
        let server = Server::new(ServerConfig::default(), stub());
        let first = server.submit(request(2)).wait().unwrap();
        let key = request(2).key();
        assert!(server.invalidate(key));
        assert!(!server.invalidate(key), "second invalidate finds nothing");
        let second = server.submit(request(2)).wait().unwrap();
        assert_eq!(second.outcome, CacheOutcome::Miss);
        assert_eq!(first.bytes, second.bytes);
        assert_eq!(server.stats().executed, 2);
    }

    #[test]
    fn eviction_respects_lru_order() {
        let server = Server::new(
            ServerConfig {
                cache_entries: 2,
                workers: 1,
                lens_dir: None,
            },
            stub(),
        );
        for seed in 0..3 {
            server.submit(request(seed)).wait().unwrap();
        }
        // Cache holds seeds {1, 2}; seed 0 was evicted.
        assert_eq!(
            server.submit(request(0)).wait().unwrap().outcome,
            CacheOutcome::Miss
        );
        assert_eq!(server.stats().evictions, 2);
    }

    #[test]
    fn compute_errors_reach_the_caller_and_are_not_cached() {
        let failing: ComputeFn = Arc::new(|_req| Err(Error::invalid_config("injected failure")));
        let server = Server::new(ServerConfig::default(), failing);
        assert!(server.submit(request(3)).wait().is_err());
        assert!(server.cached_keys_mru().is_empty());
        // The key was released: a retry claims it again (and fails again).
        assert!(server.submit(request(3)).wait().is_err());
        assert_eq!(server.stats().executed, 2);
    }

    #[test]
    fn panicking_compute_is_an_error_not_a_wedged_worker() {
        let panicking: ComputeFn = Arc::new(|req: &SweepRequest| {
            if req.config.seed == 13 {
                panic!("injected panic");
            }
            Ok(req.canonical_string().into_bytes())
        });
        // One worker: it must survive the panic to answer anything else.
        let server = Server::new(
            ServerConfig {
                cache_entries: 4,
                workers: 1,
                lens_dir: None,
            },
            panicking,
        );
        let err = server.submit(request(13)).wait().unwrap_err();
        assert!(err.to_string().contains("panicked"), "{err}");
        // The worker survived and the key was released: other keys are
        // served, a retry of the panicking key re-executes (and fails
        // again) instead of coalescing onto a ghost pending entry.
        let ok = server.submit(request(14)).wait().unwrap();
        assert_eq!(ok.outcome, CacheOutcome::Miss);
        assert!(server.submit(request(13)).wait().is_err());
        let stats = server.stats();
        assert_eq!((stats.executed, stats.cached), (3, 1));
    }

    #[test]
    fn submit_after_shutdown_errors_instead_of_hanging() {
        let mut server = Server::new(ServerConfig::default(), stub());
        let warm = server.submit(request(7)).wait().unwrap();
        server.shutdown();
        // Cache hits are still served after shutdown...
        let hit = server.submit(request(7)).wait().unwrap();
        assert_eq!(hit.outcome, CacheOutcome::Hit);
        assert_eq!(hit.bytes, warm.bytes);
        // ...but an uncached key cannot run: the waiter gets an error at
        // once, and the key is never claimed, so repeated submits error
        // too instead of coalescing onto a dead pending entry.
        assert!(server.submit(request(8)).wait().is_err());
        assert!(server.submit(request(8)).wait().is_err());
        assert_eq!(server.stats().executed, 1);
    }

    #[test]
    fn flush_empties_the_cache() {
        let server = Server::new(ServerConfig::default(), stub());
        server.submit(request(4)).wait().unwrap();
        server.submit(request(5)).wait().unwrap();
        assert_eq!(server.flush(), 2);
        assert!(server.cached_keys_mru().is_empty());
    }

    #[test]
    fn shutdown_is_idempotent() {
        let mut server = Server::new(ServerConfig::default(), stub());
        server.submit(request(6)).wait().unwrap();
        server.shutdown();
        server.shutdown();
    }
}
