//! Load-mix battery: a Zipf-popular request stream with a 90/7/3
//! sweep/invalidate/delete mix, checked hit-for-hit against an
//! independent reference LRU model.
//!
//! The server under test uses a stub compute function (microseconds per
//! job), so thousands of requests are cheap in a debug build; the
//! serving invariant on the *real* simulator is pinned separately by
//! the zr-conform `serve_determinism` gate and a spot check below. The
//! stream itself is fully deterministic — a fixed-seed SplitMix64
//! drives both the Zipf key draw and the op mix — so the expected
//! outcome sequence, final cache order and hit rate are exact, not
//! statistical.

use std::sync::Arc;

use zr_serve::{CacheOutcome, ComputeFn, Figure, Scenario, Server, ServerConfig, SweepRequest};
use zr_sim::experiments::ExperimentConfig;
use zr_types::rng::SplitMix64;
use zr_workloads::Benchmark;

/// Distinct requests in the universe (distinct cache keys).
const UNIVERSE: usize = 64;
/// Cache capacity in entries — under `UNIVERSE` so the tail of the
/// Zipf curve keeps eviction pressure on.
const CAPACITY: usize = 56;
/// Sequential requests in the mixed phase.
const SEQUENTIAL_OPS: usize = 6000;
/// Zipf skew: alpha ~ 1.2 concentrates ~70% of draws on the hottest
/// dozen keys, the canonical "popular figures" serving shape.
const ZIPF_ALPHA: f64 = 1.2;
/// The hit rate this universe/capacity/mix delivers over the sweep ops
/// of the mixed phase: 0.9128 on this stream, and 0.9109 ± 0.0033 (min
/// 0.9029, max 0.9191) through `ModelLru` over SplitMix64 seeds 1–200.
/// The 0.95 it once stated was never the mix's rate: the LCG that drew
/// the stream before SplitMix64 gave 0.923.
const TARGET_HIT_RATE: f64 = 0.91;
/// Acceptance band around the target, in hit-rate points.
const HIT_RATE_TOLERANCE: f64 = 0.03;

/// Cumulative Zipf distribution over ranks `0..n`.
fn zipf_cdf(n: usize, alpha: f64) -> Vec<f64> {
    let weights: Vec<f64> = (0..n)
        .map(|rank| 1.0 / ((rank + 1) as f64).powf(alpha))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

fn draw_rank(rng: &mut SplitMix64, cdf: &[f64]) -> usize {
    let u = rng.unit_f64();
    cdf.iter().position(|&c| u < c).unwrap_or(cdf.len() - 1)
}

/// The request universe: one request per rank, distinguished by seed so
/// every rank has its own content-address and its own result bytes.
fn universe() -> Vec<SweepRequest> {
    (0..UNIVERSE)
        .map(|rank| {
            SweepRequest::new(
                Figure::Fig14Refresh,
                vec![Benchmark::Gcc],
                Scenario::Full,
                ExperimentConfig {
                    seed: 0x10AD_0000 + rank as u64,
                    ..ExperimentConfig::tiny_test()
                },
            )
        })
        .collect()
}

/// The stub compute: unique, deterministic bytes per key so misrouted
/// replies are detectable byte-for-byte.
fn stub() -> ComputeFn {
    Arc::new(|req: &SweepRequest| Ok(format!("result for {}", req.canonical_string()).into_bytes()))
}

fn expected_bytes(req: &SweepRequest) -> Vec<u8> {
    format!("result for {}", req.canonical_string()).into_bytes()
}

/// An independent reference LRU — deliberately re-implemented from the
/// spec (MRU-first list, get bumps, insert evicts from the back) rather
/// than shared with the crate, so a cache bug cannot hide in both.
struct ModelLru {
    capacity: usize,
    keys: Vec<u64>,
}

impl ModelLru {
    fn new(capacity: usize) -> ModelLru {
        ModelLru {
            capacity,
            keys: Vec::new(),
        }
    }

    /// Returns whether the access hit, applying LRU side effects.
    fn access(&mut self, key: u64) -> bool {
        if let Some(pos) = self.keys.iter().position(|&k| k == key) {
            self.keys.remove(pos);
            self.keys.insert(0, key);
            true
        } else {
            self.keys.insert(0, key);
            while self.keys.len() > self.capacity {
                self.keys.pop();
            }
            false
        }
    }

    fn remove(&mut self, key: u64) -> bool {
        match self.keys.iter().position(|&k| k == key) {
            Some(pos) => {
                self.keys.remove(pos);
                true
            }
            None => false,
        }
    }
}

#[test]
fn mixed_load_matches_reference_model_hit_for_hit() {
    let requests = universe();
    let server = Server::new(
        ServerConfig {
            cache_entries: CAPACITY,
            workers: 1,
            lens_dir: None,
        },
        stub(),
    );
    let mut model = ModelLru::new(CAPACITY);
    let mut rng = SplitMix64::new(0x5EED_10AD);
    let cdf = zipf_cdf(UNIVERSE, ZIPF_ALPHA);
    let (mut sweeps, mut hits) = (0u64, 0u64);
    for op in 0..SEQUENTIAL_OPS {
        let roll = rng.below(100);
        // Sweeps follow figure popularity (Zipf); invalidations model
        // config re-blessing, which targets the universe uniformly —
        // a re-bless is about the config aging out, not about how
        // often its figure is read.
        let rank = if roll < 90 {
            draw_rank(&mut rng, &cdf)
        } else {
            rng.below(UNIVERSE as u64) as usize
        };
        let request = requests[rank].clone();
        let key = request.key();
        if roll < 90 {
            // GET: submit a sweep and demand the model's exact outcome.
            let expected_hit = model.access(key);
            let reply = server.submit(request.clone()).wait().unwrap();
            let expected_outcome = if expected_hit {
                CacheOutcome::Hit
            } else {
                CacheOutcome::Miss
            };
            assert_eq!(
                reply.outcome, expected_outcome,
                "op {op}: rank {rank} diverged from the reference model"
            );
            assert_eq!(
                reply.bytes.as_ref(),
                &expected_bytes(&request),
                "op {op}: reply bytes are not this key's bytes"
            );
            sweeps += 1;
            hits += u64::from(expected_hit);
        } else if roll < 97 {
            // SET (invalidate): drop the cached value so the next get
            // recomputes — the service's analogue of overwriting.
            assert_eq!(server.invalidate(key), model.remove(key), "op {op}");
        } else {
            // DELETE: protocol alias of invalidate; exercised through
            // the same path the `delete` op dispatches to.
            assert_eq!(server.invalidate(key), model.remove(key), "op {op}");
        }
    }

    // The server's final recency order must equal the model's exactly.
    assert_eq!(
        server.cached_keys_mru(),
        model.keys,
        "final MRU order diverged from the reference model"
    );

    // The mix delivers ~9% misses over the sweep ops; the exact rate is
    // deterministic, but assert the band around what the mix delivers
    // for any seed.
    let hit_rate = hits as f64 / sweeps as f64;
    eprintln!(
        "[load_mix] {sweeps} sweeps, {hits} hits ({:.2}% hit rate), stats {:?}",
        hit_rate * 100.0,
        server.stats()
    );
    assert!(
        (hit_rate - TARGET_HIT_RATE).abs() <= HIT_RATE_TOLERANCE,
        "hit rate {hit_rate:.4} outside {TARGET_HIT_RATE} ± {HIT_RATE_TOLERANCE} \
         ({hits}/{sweeps} sweeps hit)"
    );

    // No lost or phantom responses: every sweep was answered (asserted
    // above) and the server accounted for each exactly once.
    let stats = server.stats();
    assert_eq!(stats.hits + stats.misses, sweeps);
    assert_eq!(stats.coalesced, 0, "sequential phase cannot coalesce");
    assert_eq!(stats.executed, stats.misses);
}

#[test]
fn concurrent_hot_keys_lose_no_responses_and_misroute_none() {
    const CLIENTS: usize = 8;
    const OPS_PER_CLIENT: usize = 64;
    let requests = universe();
    let server = Server::new(
        ServerConfig {
            cache_entries: CAPACITY,
            workers: 4,
            lens_dir: None,
        },
        stub(),
    );
    let answered = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let requests = &requests;
                let server = &server;
                scope.spawn(move || {
                    let mut rng = SplitMix64::new(0xC0FF_EE00 + client as u64);
                    let cdf = zipf_cdf(UNIVERSE, ZIPF_ALPHA);
                    let mut answered = 0usize;
                    for _ in 0..OPS_PER_CLIENT {
                        let rank = draw_rank(&mut rng, &cdf);
                        let request = requests[rank].clone();
                        let reply = server.submit(request.clone()).wait().unwrap();
                        // Misrouting check: the reply must carry THIS
                        // key's bytes regardless of interleaving.
                        assert_eq!(reply.bytes.as_ref(), &expected_bytes(&request));
                        answered += 1;
                    }
                    answered
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .sum::<usize>()
    });
    assert_eq!(
        answered,
        CLIENTS * OPS_PER_CLIENT,
        "every submission must be answered exactly once"
    );
    let stats = server.stats();
    eprintln!("[load_mix] concurrent phase stats {stats:?}");
    assert_eq!(
        stats.hits + stats.misses + stats.coalesced,
        (CLIENTS * OPS_PER_CLIENT) as u64,
        "no request may vanish from the outcome accounting"
    );
    assert_eq!(
        stats.executed, stats.misses,
        "every miss executed exactly one job; coalesced requests none"
    );
}

#[test]
fn real_simulator_spot_check_hits_byte_identically() {
    let server = Server::simulator(ServerConfig {
        cache_entries: 4,
        workers: 1,
        lens_dir: None,
    });
    let request = SweepRequest::new(
        Figure::Fig14Refresh,
        vec![Benchmark::Gcc],
        Scenario::Full,
        ExperimentConfig {
            capacity_bytes: 1 << 20,
            windows: 1,
            ..ExperimentConfig::default()
        },
    );
    let cold = server.submit(request.clone()).wait().unwrap();
    assert_eq!(cold.outcome, CacheOutcome::Miss);
    let hit = server.submit(request).wait().unwrap();
    assert_eq!(hit.outcome, CacheOutcome::Hit);
    assert_eq!(cold.bytes, hit.bytes, "hit must equal the cold bytes");
    assert_eq!(cold.fnv, zr_lens::fnv64(&cold.bytes));
}
