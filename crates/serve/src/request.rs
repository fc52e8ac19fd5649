//! The experiment-request model: what a client asks the service to
//! compute, and how a request is normalized into a content-address.
//!
//! A [`SweepRequest`] names a figure kernel, a benchmark set, an
//! allocation scenario and an [`ExperimentConfig`]. Its identity is the
//! FNV-1a 64 hash of [`SweepRequest::canonical_string`], which embeds
//! [`ExperimentConfig::canonical_string`] verbatim — so everything the
//! run-manifest layer already proved about config hashing (thread-count
//! invariance, observability-knob invariance, see
//! `crates/lens/tests/config_hash_props.rs`) carries over to cache keys
//! unchanged.

use zr_sim::experiments::{refresh, ExperimentConfig};
use zr_types::{Error, Result, TemperatureMode};
use zr_workloads::Benchmark;

/// The figure kernels the service can compute.
///
/// Each maps to the same experiment driver the batch figure builders
/// use (`zr_bench::figures`), minus the stdout table rendering — a
/// service must keep stdout for its protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Figure {
    /// Fig. 14 — normalized refresh operations per allocation scenario.
    Fig14Refresh,
    /// Fig. 15 — normalized refresh energy (overheads included).
    Fig15Energy,
    /// Fig. 16 — extended (32 ms) vs normal (64 ms) temperature.
    Fig16Temperature,
}

impl Figure {
    /// Short protocol name (`fig14` / `fig15` / `fig16`).
    pub fn name(self) -> &'static str {
        match self {
            Figure::Fig14Refresh => "fig14",
            Figure::Fig15Energy => "fig15",
            Figure::Fig16Temperature => "fig16",
        }
    }

    /// The batch harness's figure name, used for run manifests so
    /// `zr-lens audit`/`show` display served runs like batch runs.
    pub fn figure_name(self) -> &'static str {
        match self {
            Figure::Fig14Refresh => "fig14_refresh_reduction",
            Figure::Fig15Energy => "fig15_energy",
            Figure::Fig16Temperature => "fig16_temperature",
        }
    }

    /// Looks a figure up by either its short or its full name.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownName`] when the name matches no figure kernel.
    pub fn by_name(name: &str) -> Result<Figure> {
        let all = [
            Figure::Fig14Refresh,
            Figure::Fig15Energy,
            Figure::Fig16Temperature,
        ];
        all.into_iter()
            .find(|f| f.name() == name || f.figure_name() == name)
            .ok_or(Error::UnknownName {
                name: name.to_string(),
            })
    }
}

/// The allocation scenario a request sweeps.
///
/// The paper's Fig. 14/15 columns are the four allocation fractions
/// (100% fully allocated, plus the three data-center trace means);
/// `Paper` sweeps all four, the named scenarios pin a single column.
/// Fig. 16 always measures at 100% allocation — the scenario still
/// participates in the cache key, so requests normalize it to `Full`
/// there (see [`SweepRequest::new`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// All four paper columns: 100 / 88 / 70 / 28 %.
    Paper,
    /// 100% allocated.
    Full,
    /// 88% — the Alibaba trace mean.
    Alibaba,
    /// 70% — the Google trace mean.
    Google,
    /// 28% — the Bitbrains trace mean.
    Bitbrains,
}

impl Scenario {
    /// Protocol name.
    pub fn name(self) -> &'static str {
        match self {
            Scenario::Paper => "paper",
            Scenario::Full => "full",
            Scenario::Alibaba => "alibaba",
            Scenario::Google => "google",
            Scenario::Bitbrains => "bitbrains",
        }
    }

    /// The allocation fractions this scenario sweeps, in column order.
    pub fn allocs(self) -> &'static [f64] {
        match self {
            Scenario::Paper => &refresh::PAPER_ALLOCS,
            Scenario::Full => &[1.0],
            Scenario::Alibaba => &[0.88],
            Scenario::Google => &[0.70],
            Scenario::Bitbrains => &[0.28],
        }
    }

    /// Looks a scenario up by protocol name.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownName`] when the name matches no scenario.
    pub fn by_name(name: &str) -> Result<Scenario> {
        let all = [
            Scenario::Paper,
            Scenario::Full,
            Scenario::Alibaba,
            Scenario::Google,
            Scenario::Bitbrains,
        ];
        all.into_iter()
            .find(|s| s.name() == name)
            .ok_or(Error::UnknownName {
                name: name.to_string(),
            })
    }
}

/// One experiment request: everything that determines the result bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRequest {
    /// Which figure kernel to run.
    pub figure: Figure,
    /// The benchmarks to sweep, in output-row order.
    pub benches: Vec<Benchmark>,
    /// The allocation scenario.
    pub scenario: Scenario,
    /// The experiment knobs (capacity, windows, temperature, seed,
    /// transform stages). `config.threads` deliberately does **not**
    /// participate in the cache key — results are byte-identical at
    /// every pool width, so it only trades wall time.
    pub config: ExperimentConfig,
}

impl SweepRequest {
    /// Builds a request, normalizing fields that do not affect the
    /// result: Fig. 16 always measures at 100% allocation, so its
    /// scenario is canonicalized to [`Scenario::Full`] — otherwise two
    /// requests producing identical bytes would occupy two cache slots.
    pub fn new(
        figure: Figure,
        benches: Vec<Benchmark>,
        scenario: Scenario,
        config: ExperimentConfig,
    ) -> SweepRequest {
        let scenario = match figure {
            Figure::Fig16Temperature => Scenario::Full,
            _ => scenario,
        };
        SweepRequest {
            figure,
            benches,
            scenario,
            config,
        }
    }

    /// The canonical key/value rendering of the request. Embeds
    /// [`ExperimentConfig::canonical_string`] verbatim (which already
    /// versions itself and excludes the thread count); the leading
    /// `serve v1` versions the request envelope.
    pub fn canonical_string(&self) -> String {
        let benches: Vec<&str> = self.benches.iter().map(|b| b.name()).collect();
        format!(
            "serve v1 figure={} scenario={} benches=[{}] {}",
            self.figure.name(),
            self.scenario.name(),
            benches.join(","),
            self.config.canonical_string(),
        )
    }

    /// The content-address of this request: FNV-1a 64 over
    /// [`SweepRequest::canonical_string`] — the same hash function and
    /// rendering discipline the run manifests use for config hashes.
    pub fn key(&self) -> u64 {
        zr_lens::fnv64(self.canonical_string().as_bytes())
    }

    /// Validates the parts of the request the compute layer assumes,
    /// including the [`zr_types::SystemConfig`] the experiment config
    /// derives — a protocol-supplied `row_bytes: 0` or a capacity that
    /// is not a whole number of rows must surface as an error here, not
    /// as a panic inside a worker thread.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] for an empty benchmark set, a zero
    /// window count, or a degenerate derived system configuration.
    pub fn validate(&self) -> Result<()> {
        if self.benches.is_empty() {
            return Err(Error::invalid_config("request has no benchmarks"));
        }
        self.config.validate()
    }
}

/// Parses a temperature-mode protocol name.
///
/// # Errors
///
/// [`Error::UnknownName`] for anything but `extended` / `normal`.
pub fn temperature_by_name(name: &str) -> Result<TemperatureMode> {
    match name {
        "extended" => Ok(TemperatureMode::Extended),
        "normal" => Ok(TemperatureMode::Normal),
        _ => Err(Error::UnknownName {
            name: name.to_string(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request() -> SweepRequest {
        SweepRequest::new(
            Figure::Fig14Refresh,
            vec![Benchmark::Gcc, Benchmark::Mcf],
            Scenario::Paper,
            ExperimentConfig::tiny_test(),
        )
    }

    #[test]
    fn key_is_stable_and_thread_invariant() {
        let a = request();
        let mut b = request();
        b.config.threads = Some(7);
        assert_eq!(a.key(), b.key(), "threads must not change the key");
        assert_eq!(a.canonical_string(), b.canonical_string());
    }

    #[test]
    fn key_separates_every_request_axis() {
        let base = request();
        let mut figure = request();
        figure.figure = Figure::Fig15Energy;
        let mut benches = request();
        benches.benches = vec![Benchmark::Mcf, Benchmark::Gcc];
        let mut scenario = request();
        scenario.scenario = Scenario::Google;
        let mut seed = request();
        seed.config.seed ^= 1;
        for other in [figure, benches, scenario, seed] {
            assert_ne!(base.key(), other.key(), "{}", other.canonical_string());
        }
    }

    #[test]
    fn fig16_scenario_is_normalized() {
        let a = SweepRequest::new(
            Figure::Fig16Temperature,
            vec![Benchmark::Gcc],
            Scenario::Paper,
            ExperimentConfig::tiny_test(),
        );
        let b = SweepRequest::new(
            Figure::Fig16Temperature,
            vec![Benchmark::Gcc],
            Scenario::Bitbrains,
            ExperimentConfig::tiny_test(),
        );
        assert_eq!(a.key(), b.key());
        assert_eq!(a.scenario, Scenario::Full);
    }

    #[test]
    fn names_round_trip() {
        for f in [
            Figure::Fig14Refresh,
            Figure::Fig15Energy,
            Figure::Fig16Temperature,
        ] {
            assert_eq!(Figure::by_name(f.name()).unwrap(), f);
            assert_eq!(Figure::by_name(f.figure_name()).unwrap(), f);
        }
        for s in [
            Scenario::Paper,
            Scenario::Full,
            Scenario::Alibaba,
            Scenario::Google,
            Scenario::Bitbrains,
        ] {
            assert_eq!(Scenario::by_name(s.name()).unwrap(), s);
        }
        assert!(Figure::by_name("fig99").is_err());
        assert!(Scenario::by_name("zipf").is_err());
        assert_eq!(
            temperature_by_name("normal").unwrap(),
            TemperatureMode::Normal
        );
        assert!(temperature_by_name("warm").is_err());
    }

    #[test]
    fn validate_rejects_degenerate_requests() {
        let mut empty = request();
        empty.benches.clear();
        assert!(empty.validate().is_err());
        let mut zero = request();
        zero.config.windows = 0;
        assert!(zero.validate().is_err());
        assert!(request().validate().is_ok());
    }
}
