//! Data-center scenario analysis (Table I, Fig. 5, and the scenario
//! averages quoted in the abstract).

use zr_types::json::{Json, ToJson};
use zr_types::Result;
use zr_workloads::{Benchmark, DatacenterTrace};

use super::refresh;
use super::ExperimentConfig;

/// The scenario-level result for one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    /// Trace name.
    pub trace: &'static str,
    /// Mean allocated-memory fraction of the trace (Table I).
    pub mean_allocated: f64,
    /// Suite-mean normalized refresh operations under this scenario.
    pub mean_normalized: f64,
}

impl ToJson for ScenarioResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("trace", self.trace.to_json()),
            ("mean_allocated", self.mean_allocated.to_json()),
            ("mean_normalized", self.mean_normalized.to_json()),
        ])
    }
}

/// Evaluates the suite mean under one trace's mean allocation — the
/// headline 46% / 57% / 83% reductions of the abstract — as one Fig. 14
/// column ([`refresh::allocation_sweep`]) at that allocation.
///
/// # Errors
///
/// Returns configuration/address errors from the underlying layers.
pub fn scenario(trace: &DatacenterTrace, exp: &ExperimentConfig) -> Result<ScenarioResult> {
    let alloc = trace.mean_utilization();
    let table = refresh::allocation_sweep(Benchmark::all(), &[alloc], exp)?;
    Ok(ScenarioResult {
        trace: trace.name(),
        mean_allocated: alloc,
        mean_normalized: super::column_means(&table)[0],
    })
}

/// All three scenarios (Alibaba, Google, Bitbrains), Table I order.
///
/// # Errors
///
/// See [`scenario`].
pub fn all_scenarios(exp: &ExperimentConfig) -> Result<Vec<ScenarioResult>> {
    [
        DatacenterTrace::alibaba(),
        DatacenterTrace::google(),
        DatacenterTrace::bitbrains(),
    ]
    .iter()
    .map(|t| scenario(t, exp))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lower_utilization_means_lower_normalized() {
        // One benchmark is enough for the monotonicity check.
        let exp = ExperimentConfig::tiny_test();
        let hot = refresh::measure(Benchmark::Gcc, 0.88, &exp)
            .unwrap()
            .normalized;
        let cold = refresh::measure(Benchmark::Gcc, 0.28, &exp)
            .unwrap()
            .normalized;
        assert!(cold < hot, "cold {cold} vs hot {hot}");
    }

    #[test]
    fn scenario_composes_alloc_and_content() {
        // normalized ≈ alloc × normalized(100%), since idle memory skips
        // entirely.
        let exp = ExperimentConfig::tiny_test();
        let full = refresh::measure(Benchmark::Gcc, 1.0, &exp)
            .unwrap()
            .normalized;
        let frac = refresh::measure(Benchmark::Gcc, 0.28, &exp)
            .unwrap()
            .normalized;
        assert!(
            (frac - 0.28 * full).abs() < 0.05,
            "frac {frac} vs predicted {}",
            0.28 * full
        );
    }
}
