//! Differential fuzz of `zr-dram` against the reference oracle.
//!
//! The seeded sweep below runs 256 reproducible cases, each a random
//! geometry variant, policy and command sequence (re-run one case with
//! `ZR_TEST_SEED`). On any divergence the test panics with the full
//! report after persisting it for CI artifact upload.

use zr_conform::diff::{generate_commands, run_differential, Command, DiffSetup};
use zr_dram::RefreshPolicy;
use zr_types::rng::cases;
use zr_types::{DramConfig, SystemConfig};

/// The geometry variants the sweep rotates through: the stock small
/// test config, the anti-cells-first phase, a smaller cell block (more
/// true/anti boundaries) and a four-bank split of the same capacity.
fn config_variants() -> Vec<SystemConfig> {
    let base = SystemConfig::small_test();
    let mut anti_first = base.clone();
    anti_first.dram.anti_cells_first = true;
    let mut small_blocks = base.clone();
    small_blocks.dram.cell_block_rows = 8;
    let mut four_banks = base.clone();
    four_banks.dram.num_banks = 4;
    for cfg in [&anti_first, &small_blocks, &four_banks] {
        cfg.validate().expect("variant config must validate");
    }
    vec![base, anti_first, small_blocks, four_banks]
}

fn policies() -> [RefreshPolicy; 3] {
    [
        RefreshPolicy::ChargeAware,
        RefreshPolicy::Conventional,
        RefreshPolicy::NaiveSram,
    ]
}

#[test]
fn seeded_sequences_agree() {
    let variants = config_variants();
    cases("seeded_sequences_agree", 256, |rng| {
        let config = &variants[rng.below(variants.len() as u64) as usize];
        let setup = DiffSetup::clean(policies()[rng.below(3) as usize]);
        let seed = rng.next_u64();
        let commands = generate_commands(config, seed, 8 + rng.below(40) as usize);
        let report = run_differential(config, &setup, &commands)
            .expect("harness setup must succeed")
            .inspect(|r| {
                r.persist(&format!("differential-seed-{seed}"));
            });
        if let Some(report) = report {
            panic!("seed {seed}: {report}");
        }
    });
}

/// The acceptance check of the whole harness: an off-by-one injected
/// into the production engine's staggered refresh counter MUST be caught,
/// and the report must name the exact command that exposed it.
#[test]
fn injected_stagger_off_by_one_is_caught_with_command_index() {
    let config = SystemConfig::small_test();
    // Charge exactly one chip's segment of row 10 so the chip↔row
    // pairing of the schedule is observable, scan it, then probe the AR
    // sets of row 10's step group one command at a time.
    let mut commands = vec![
        Command::WriteLine {
            bank: 0,
            row: 10,
            slot: 0,
            chip_mask: 0b0000_0100,
            fill_seed: 0x33,
        },
        Command::RunWindow,
    ];
    // Row 10's step group starts at step 8 (groups of k = 8 chips).
    let group = 8;
    for set in group..group + 8 {
        commands.push(Command::ProcessAr { bank: 0, set });
    }

    // Sanity: without the fault the exact same sequence agrees.
    let clean = run_differential(
        &config,
        &DiffSetup::clean(RefreshPolicy::ChargeAware),
        &commands,
    )
    .expect("setup");
    assert!(clean.is_none(), "clean run diverged: {}", clean.unwrap());

    let faulty = DiffSetup {
        policy: RefreshPolicy::ChargeAware,
        engine_skew: 1,
        oracle_skew: 0,
    };
    let report = run_differential(&config, &faulty, &commands)
        .expect("setup")
        .expect("the injected off-by-one must be caught");
    // The divergence must be pinned to one of the probing AR commands
    // (indices 2..10), not smeared over the run.
    assert!(
        (2..10).contains(&report.command_index),
        "diverged at unexpected command: {report}"
    );
    assert!(
        report.command.contains("ProcessAr"),
        "diverged on unexpected command kind: {report}"
    );
    let text = report.to_string();
    assert!(text.contains(&format!("command #{}", report.command_index)));
    // The report must cite flight-recorder records for offline debugging.
    assert!(
        !report.trace_tail.is_empty(),
        "no trace records cited: {report}"
    );
    assert!(
        report.persist("acceptance-stagger-off-by-one").is_some(),
        "report must be persistable for CI artifacts"
    );
}

/// The skew knob on the oracle side is caught symmetrically — the
/// harness does not privilege either implementation.
#[test]
fn oracle_side_skew_is_caught_too() {
    let config = SystemConfig::small_test();
    // A whole-window command aggregates over all AR sets, where a skew
    // only permutes the schedule — per-set probes are what expose it.
    let mut commands = vec![
        Command::WriteLine {
            bank: 1,
            row: 21,
            slot: 3,
            chip_mask: 0b0001_0000,
            fill_seed: 0x77,
        },
        Command::RunWindow,
    ];
    let group = (21 / 8) * 8;
    for set in group..group + 8 {
        commands.push(Command::ProcessAr { bank: 1, set });
    }
    let setup = DiffSetup {
        policy: RefreshPolicy::ChargeAware,
        engine_skew: 0,
        oracle_skew: 3,
    };
    let report = run_differential(&config, &setup, &commands)
        .expect("setup")
        .expect("oracle-side skew must diverge");
    // Chip 4's charged segment of row 21 sits at step 17 in the true
    // schedule and step 22 under the skewed oracle, so the first probe
    // that disagrees is set 17 — command index 3.
    assert_eq!(report.command_index, 3, "{report}");
}

/// Both sides wearing the same skew agree again: the differential
/// detects *disagreement*, not the absolute schedule.
#[test]
fn matching_skews_cancel_out() {
    let config = SystemConfig::small_test();
    let commands = generate_commands(&config, 99, 40);
    let setup = DiffSetup {
        policy: RefreshPolicy::ChargeAware,
        engine_skew: 2,
        oracle_skew: 2,
    };
    let report = run_differential(&config, &setup, &commands).expect("setup");
    assert!(
        report.is_none(),
        "matching skews diverged: {}",
        report.unwrap()
    );
}

/// Conventional refresh is schedule-oblivious: even a skewed engine
/// refreshes everything, so the differential must stay green.
#[test]
fn conventional_policy_is_skew_insensitive() {
    let config = SystemConfig::small_test();
    let commands = generate_commands(&config, 7, 32);
    let setup = DiffSetup {
        policy: RefreshPolicy::Conventional,
        engine_skew: 5,
        oracle_skew: 0,
    };
    let report = run_differential(&config, &setup, &commands).expect("setup");
    assert!(report.is_none());
}

/// Paper-scale geometry smoke: one scan window plus one skip window at
/// a paper config with multi-row AR sets — one bank of 65536 2 KiB rows,
/// so each AR command covers `ar_rows = 65536 / 8192 = 8` steps.
#[test]
fn multi_row_ar_sets_agree_at_reduced_paper_geometry() {
    let mut config = SystemConfig::paper_default();
    config.dram.num_banks = 1;
    config.dram.row_bytes = 2048;
    config.dram.capacity_bytes = 65536 * 2048;
    config.dram.cell_block_rows = 512;
    config.validate().expect("reduced paper config");
    assert_eq!(config.geometry().ar_rows(), 8);
    assert_eq!(DramConfig::paper_default().num_chips, 8);
    let commands = vec![
        Command::WriteLine {
            bank: 0,
            row: 700,
            slot: 5,
            chip_mask: 0b0010_0001,
            fill_seed: 0x44,
        },
        Command::RunWindow,
        Command::WriteLine {
            bank: 0,
            row: 700,
            slot: 5,
            chip_mask: 0,
            fill_seed: 0,
        },
        Command::RunWindow,
        Command::RunWindow,
    ];
    for policy in policies() {
        let report =
            run_differential(&config, &DiffSetup::clean(policy), &commands).expect("setup");
        assert!(report.is_none(), "{policy:?}: {}", report.unwrap());
    }
}
