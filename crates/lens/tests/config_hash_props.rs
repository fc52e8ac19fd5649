//! Property pins for the config hash: the FNV-1a 64 of
//! [`ExperimentConfig::canonical_string`] that names runs in manifests
//! and keys results in the sweep service (`zr-serve`).
//!
//! Two families of properties:
//!
//! * **Sensitivity** — changing any hash-relevant field (capacity, row
//!   size, windows, temperature, seed, any transform-stage toggle)
//!   changes the hash. The cache would silently serve the wrong figure
//!   if two distinct experiments ever shared a key.
//! * **Invariance** — the sweep-pool width (`threads`) and the
//!   observability environment knobs (`ZR_TELEMETRY`, `ZR_XRAY`, ...)
//!   provably do *not* change the hash. Turning on tracing, or running
//!   wider, must hit the same cache entry: these knobs affect wall
//!   time and artifacts, never result bytes.

use zr_sim::experiments::ExperimentConfig;
use zr_types::rng::{cases, SplitMix64};
use zr_types::TemperatureMode;

fn config_hash(config: &ExperimentConfig) -> u64 {
    zr_lens::fnv64(config.canonical_string().as_bytes())
}

/// A config from independent draws of every hash-relevant field and the
/// pool width.
fn arb_config(rng: &mut SplitMix64) -> ExperimentConfig {
    let mut config = ExperimentConfig {
        capacity_bytes: (1 + rng.below(256)) << 20,
        row_bytes: 1024usize << rng.below(4),
        windows: 1 + rng.below(16),
        temperature: if rng.chance(0.5) {
            TemperatureMode::Extended
        } else {
            TemperatureMode::Normal
        },
        seed: rng.next_u64(),
        // One draw in five leaves the pool width unpinned.
        threads: match rng.below(80) {
            t if t % 5 == 0 => None,
            t => Some((t % 16 + 1) as usize),
        },
        ..ExperimentConfig::default()
    };
    config.transform.ebdi = rng.chance(0.5);
    config.transform.bit_plane = rng.chance(0.5);
    config.transform.rotation = rng.chance(0.5);
    config.transform.cell_aware = rng.chance(0.5);
    config
}

/// Ways a single hash-relevant field can be nudged. `MUTATIONS` is the
/// exclusive upper bound for the `which` selector.
const MUTATIONS: usize = 9;

fn mutate(config: &ExperimentConfig, which: usize) -> ExperimentConfig {
    let mut m = config.clone();
    match which {
        0 => m.capacity_bytes += 1 << 20,
        1 => {
            m.row_bytes = if m.row_bytes == 1024 {
                2048
            } else {
                m.row_bytes / 2
            }
        }
        2 => m.windows += 1,
        3 => {
            m.temperature = match m.temperature {
                TemperatureMode::Extended => TemperatureMode::Normal,
                TemperatureMode::Normal => TemperatureMode::Extended,
            }
        }
        4 => m.seed ^= 0x9E37_79B9_7F4A_7C15,
        5 => m.transform.ebdi = !m.transform.ebdi,
        6 => m.transform.bit_plane = !m.transform.bit_plane,
        7 => m.transform.rotation = !m.transform.rotation,
        _ => m.transform.cell_aware = !m.transform.cell_aware,
    }
    m
}

/// Every field mutation of a seeded config changes the hash; pinning or
/// unpinning the pool width does not.
#[test]
fn hash_is_sensitive_to_every_result_bearing_field_and_not_to_threads() {
    cases("config_hash_sensitivity", 300, |rng| {
        let config = arb_config(rng);
        let base = config_hash(&config);
        for which in 0..MUTATIONS {
            let mutated = mutate(&config, which);
            assert_ne!(
                base,
                config_hash(&mutated),
                "field mutation {which} did not change the hash of `{}`",
                config.canonical_string()
            );
        }
        let mut rethreaded = config.clone();
        rethreaded.threads = match config.threads {
            None => Some(1 + rng.below(64) as usize),
            Some(_) => None,
        };
        assert_eq!(
            base,
            config_hash(&rethreaded),
            "pool width changed the hash of `{}`",
            config.canonical_string()
        );
        assert_eq!(config.canonical_string(), rethreaded.canonical_string());
    });
}

/// The observability env knobs recorded in manifests must not reach the
/// hash: the canonical string is a pure function of the config value,
/// so flipping every knob the manifest records cannot move any key.
///
/// Env mutation is process-global, so this stays one sequential test;
/// its sibling tests never read the environment.
#[test]
fn hash_is_invariant_to_observability_env_knobs() {
    let config = ExperimentConfig::default();
    let baseline = config_hash(&config);
    let knob_values = [
        ("ZR_TELEMETRY", "1"),
        ("ZR_TRACE", "/tmp/zr.trace"),
        ("ZR_XRAY", "1"),
        ("ZR_PROF", "1"),
        ("ZR_THREADS", "7"),
    ];
    for (knob, value) in knob_values {
        assert!(
            zr_types::knobs::recorded().contains_key(knob),
            "{knob} is no longer a manifest-recorded knob; update this test"
        );
        let previous = std::env::var_os(knob);
        std::env::set_var(knob, value);
        assert_eq!(
            config_hash(&config),
            baseline,
            "setting {knob}={value} changed the config hash"
        );
        match previous {
            Some(v) => std::env::set_var(knob, v),
            None => std::env::remove_var(knob),
        }
    }
    // The knobs that *should* move the hash do so through the config
    // value itself, never through the environment: the env spelling of
    // capacity/windows/seed only matters once a harness folds it into
    // the ExperimentConfig.
    let mut bigger = config.clone();
    bigger.capacity_bytes *= 2;
    assert_ne!(config_hash(&bigger), baseline);
}

/// A deterministic 2 000-config sweep from a seeded generator: every
/// distinct canonical string gets a distinct hash (no FNV collisions in
/// the realistic config neighborhood), and re-generating produces the
/// exact same hashes (the generator, rendering and hash are all stable),
/// so the hash is a function of the canonical string.
#[test]
fn seeded_generator_sweep_has_no_collisions_and_is_reproducible() {
    fn sweep() -> Vec<(String, u64)> {
        let mut rng = SplitMix64::new(0x00C0_F042_5EED);
        (0..2000)
            .map(|_| {
                let config = arb_config(&mut rng);
                (config.canonical_string(), config_hash(&config))
            })
            .collect()
    }
    let first = sweep();
    let mut by_hash = std::collections::HashMap::new();
    for (canonical, hash) in &first {
        if let Some(other) = by_hash.insert(*hash, canonical.clone()) {
            assert_eq!(
                &other, canonical,
                "FNV collision: {hash:#018x} for two distinct configs"
            );
        }
    }
    assert_eq!(first, sweep(), "the seeded sweep must be reproducible");
}
