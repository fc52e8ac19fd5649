//! Parallel-consistency oracle check: a seeded differential sweep run
//! on the `zr-par` pool must produce exactly the same divergence
//! verdicts (namely: none) as the same sweep run serially.
//!
//! `run_differential` builds hermetic per-case engines (private
//! telemetry, private memory trace), so cases are independent by
//! construction — this test pins that property against regressions in
//! either the harness or the pool.

use zr_conform::diff::{generate_commands, run_differential, DiffSetup, Payload};
use zr_dram::RefreshPolicy;
use zr_types::rng::cases;
use zr_types::SystemConfig;

fn policies() -> [RefreshPolicy; 3] {
    [
        RefreshPolicy::ChargeAware,
        RefreshPolicy::Conventional,
        RefreshPolicy::NaiveSram,
    ]
}

/// One seeded sweep of twelve jobs: four command sequences per policy.
#[test]
fn pooled_differential_sweep_matches_serial() {
    cases("pooled_differential_sweep_matches_serial", 1, |rng| {
        let config = SystemConfig::small_test();
        let jobs: Vec<(RefreshPolicy, u64)> = policies()
            .iter()
            .flat_map(|&policy| [policy; 4])
            .map(|policy| (policy, rng.next_u64()))
            .collect();
        let run_job = |&(policy, seed): &(RefreshPolicy, u64)| {
            let commands = generate_commands(&config, seed, 96, Payload::masked);
            run_differential(&config, &DiffSetup::clean(policy), &commands)
                .err()
                .map(|report| report.to_string())
        };
        let serial: Vec<Option<String>> = jobs.iter().map(run_job).collect();
        let pooled = zr_par::run_jobs(4, jobs.len(), |i| run_job(&jobs[i]));
        assert_eq!(
            serial, pooled,
            "pool and serial sweeps reached different verdicts"
        );
        for ((policy, seed), verdict) in jobs.iter().zip(&serial) {
            assert!(
                verdict.is_none(),
                "{policy:?} seed {seed:#x} diverged: {}",
                verdict.as_deref().unwrap_or_default()
            );
        }
    });
}
