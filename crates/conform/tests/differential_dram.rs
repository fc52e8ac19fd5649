//! Differential fuzz of `zr-dram` against the reference oracle.
//!
//! Every run compares, after each command, the engine's decisions, totals
//! and tracking tables and the rank's charge state with `RefOracle`, and
//! the hazard audits at the end. The seeded sweeps below are reproducible
//! (re-run one case with `ZR_TEST_SEED`); on any divergence the test
//! panics with the full report after persisting it for CI artifact upload.

use zr_conform::diff::{
    generate_commands, run_differential, Command, DiffSetup, DrawPayload, Payload,
};
use zr_dram::RefreshPolicy;
use zr_types::rng::{cases, SplitMix64};
use zr_types::{DramConfig, SystemConfig};

/// The geometry variants the sweeps rotate through: the stock small
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

/// Runs `commands`, panicking with the persisted report on a divergence.
fn assert_agree(config: &SystemConfig, setup: &DiffSetup, commands: &[Command], name: &str) {
    if let Err(report) = run_differential(config, setup, commands) {
        report.persist(name);
        panic!("{name}: {report}");
    }
}

#[test]
fn seeded_sequences_agree() {
    let variants = config_variants();
    cases("seeded_sequences_agree", 256, |rng| {
        let config = &variants[rng.below(variants.len() as u64) as usize];
        let setup = DiffSetup::clean(policies()[rng.below(3) as usize]);
        let seed = rng.next_u64();
        let len = 8 + rng.below(40) as usize;
        let commands = generate_commands(config, seed, len, Payload::masked);
        assert_agree(
            config,
            &setup,
            &commands,
            &format!("differential-seed-{seed}"),
        );
    });
}

/// The five line contents of the pattern sweep. Zeros and ones land
/// exactly on the true/anti discharged bytes, so they overwrite charged
/// segments with discharged ones and exercise the rescan that decides
/// whether a chip-row's charged bit falls; the sparse flip charges one
/// byte inside one segment.
const PATTERNS: [(&str, DrawPayload); 5] = [
    ("random", |rng| Payload::Random(rng.next_u64())),
    ("zeros", |_| Payload::Zeros),
    ("ones", |_| Payload::Ones),
    ("sparse_flip", |rng| Payload::SparseFlip(rng.next_u64())),
    ("alternating", |_| Payload::Alternating),
];

/// 300 cases: five seeds for each of the 60 geometry variant × policy ×
/// write pattern combinations, each a 64-command sequence with forced
/// charges, cleanses, AR commands over every set and whole windows.
#[test]
fn write_patterns_agree() {
    for (vi, config) in config_variants().iter().enumerate() {
        for policy in policies() {
            for (pattern, payload) in PATTERNS {
                let name = format!("write_patterns/{vi}/{policy:?}/{pattern}");
                cases(&name, 5, |rng| {
                    let commands = generate_commands(config, rng.next_u64(), 64, payload);
                    assert_agree(config, &DiffSetup::clean(policy), &commands, &name);
                });
            }
        }
    }
}

/// `banks` banks of `rows` 2 KiB rows over `chips` chips.
fn rank_config(chips: usize, banks: usize, rows: u64, block: u64, anti: bool) -> SystemConfig {
    let mut cfg = SystemConfig::paper_default();
    cfg.dram.num_chips = chips;
    cfg.dram.num_banks = banks;
    cfg.dram.row_bytes = 2048;
    cfg.dram.capacity_bytes = banks as u64 * rows * 2048;
    cfg.dram.cell_block_rows = block;
    cfg.dram.anti_cells_first = anti;
    cfg
}

/// One case of the engine battery on `chips` chips and `ar`-row AR sets:
/// masked writes, cleanses, spares (up front and between commands), AR
/// commands and, on small geometries, whole windows; large geometries
/// work on a focus of a few AR sets. Four charging writes the engine is
/// not told about end it, the first on a row then spared.
fn engine_case(
    chips: usize,
    ar: u64,
    draw: &mut impl FnMut(u64) -> u64,
) -> (SystemConfig, Vec<Command>) {
    let k = chips as u64;
    let (banks, rows) = if ar == 1 {
        (1 + draw(2), [16, 64, 512, 4096][draw(4) as usize].max(k))
    } else {
        (if ar <= 8 { 2 } else { 1 }, 8192 * ar)
    };
    let block = [8, 64, 512][draw(3) as usize].min(rows);
    let config = rank_config(chips, banks as usize, rows, block, draw(2) == 1);
    assert_eq!(config.geometry().ar_rows(), ar);
    let sets = rows / ar;
    let small = rows * k * banks <= 1 << 16;
    let focus = if small {
        0..sets
    } else {
        let span = (2 * k / ar).max(3);
        let start = draw(sets - span + 1);
        start..start + span
    };
    let focus_rows = focus.start * ar..focus.end * ar;
    let row_in_focus = |draw: &mut dyn FnMut(u64) -> u64| {
        focus_rows.start + draw(focus_rows.end - focus_rows.start)
    };

    let mut commands = Vec::new();
    for _ in 0..draw(3) {
        let row = row_in_focus(draw);
        commands.push(Command::Spare {
            bank: draw(banks),
            row,
        });
    }
    for _ in 0..24 {
        let bank = draw(banks);
        let set = focus.start + draw(focus.end - focus.start);
        commands.push(match draw(11) {
            0..=3 => Command::WriteLine {
                bank,
                row: row_in_focus(draw),
                slot: draw(32),
                payload: Payload::Masked {
                    chip_mask: draw(1 << k) & draw(1 << k),
                    fill_seed: draw(256) as u8,
                },
            },
            4 => Command::Cleanse {
                bank,
                row: row_in_focus(draw),
            },
            // Sparing after a scan: the stored status may promise a skip
            // that sparing must override.
            9 => Command::Spare {
                bank,
                row: row_in_focus(draw),
            },
            10 if small => Command::RunWindow,
            _ => Command::ProcessAr { bank, set },
        });
    }
    for i in 0..4 {
        let (bank, row) = (draw(banks), row_in_focus(draw));
        commands.push(Command::UnreportedWrite {
            bank,
            row,
            slot: draw(32),
            payload: Payload::Masked {
                chip_mask: u64::MAX,
                fill_seed: draw(256) as u8,
            },
        });
        if i == 0 {
            commands.push(Command::Spare { bank, row });
        }
    }
    (config, commands)
}

/// 96 cases: chips {2, 4, 8, 16} × AR sets of 1 to 128 rows × the three
/// policies, with the same stagger skew (up to two groups) on both sides
/// in two cases of three. The battery must reach skips and hazards.
#[test]
fn engine_battery_matches_the_oracle() {
    let mut rng = SplitMix64::new(0x5EED_A125_0F16_0001);
    let mut draw = move |bound| rng.below(bound);
    let (mut skipped, mut hazards, mut case) = (0, 0, 0u64);
    for chips in [2usize, 4, 8, 16] {
        for ar in (0..=7).map(|e| 1u64 << e) {
            for policy in policies() {
                case += 1;
                let skew = if case % 3 == 0 {
                    0
                } else {
                    1 + draw(2 * chips as u64)
                };
                let (config, commands) = engine_case(chips, ar, &mut draw);
                let setup = DiffSetup {
                    policy,
                    engine_skew: skew,
                    oracle_skew: skew,
                };
                match run_differential(&config, &setup, &commands) {
                    Ok(agreed) => {
                        skipped += agreed.rows_skipped;
                        hazards += agreed.hazards;
                    }
                    Err(report) => panic!("chips {chips} ar_rows {ar} case {case}: {report}"),
                }
            }
        }
    }
    assert!(
        skipped > 0 && hazards > 0,
        "battery never skipped ({skipped}) or found a hazard ({hazards})"
    );
}

/// Charges exactly one chip's segment of `row`, scans, then probes the
/// AR sets of the row's step group one command at a time.
fn probe_one_chip(bank: u64, row: u64, chip: u64, slot: u64) -> Vec<Command> {
    let mut commands = vec![
        Command::WriteLine {
            bank,
            row,
            slot,
            payload: Payload::Masked {
                chip_mask: 1 << chip,
                fill_seed: 0x33,
            },
        },
        Command::RunWindow,
    ];
    let group = row / 8 * 8; // groups of k = 8 chips
    commands.extend((group..group + 8).map(|set| Command::ProcessAr { bank, set }));
    commands
}

/// The acceptance check of the whole harness: an off-by-one injected
/// into the production engine's staggered refresh counter MUST be caught,
/// and the report must name the exact command that exposed it.
#[test]
fn injected_stagger_off_by_one_is_caught_with_command_index() {
    let config = SystemConfig::small_test();
    // Chip 2 of row 10 makes the chip↔row pairing of the schedule
    // observable.
    let commands = probe_one_chip(0, 10, 2, 0);

    // Sanity: without the fault the exact same sequence agrees.
    let clean = DiffSetup::clean(RefreshPolicy::ChargeAware);
    assert_agree(&config, &clean, &commands, "acceptance-clean");

    let faulty = DiffSetup {
        engine_skew: 1,
        ..clean
    };
    let report = run_differential(&config, &faulty, &commands)
        .expect_err("the injected off-by-one must be caught");
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
    let commands = probe_one_chip(1, 21, 4, 3);
    let setup = DiffSetup {
        policy: RefreshPolicy::ChargeAware,
        engine_skew: 0,
        oracle_skew: 3,
    };
    let report =
        run_differential(&config, &setup, &commands).expect_err("oracle-side skew must diverge");
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
    let commands = generate_commands(&config, 99, 40, Payload::masked);
    let setup = DiffSetup {
        policy: RefreshPolicy::ChargeAware,
        engine_skew: 2,
        oracle_skew: 2,
    };
    assert_agree(&config, &setup, &commands, "matching-skews");
}

/// Conventional refresh is schedule-oblivious: even a skewed engine
/// refreshes everything, so the differential must stay green.
#[test]
fn conventional_policy_is_skew_insensitive() {
    let config = SystemConfig::small_test();
    let commands = generate_commands(&config, 7, 32, Payload::masked);
    let setup = DiffSetup {
        policy: RefreshPolicy::Conventional,
        engine_skew: 5,
        oracle_skew: 0,
    };
    assert_agree(&config, &setup, &commands, "conventional-skew");
}

/// Paper-scale geometry smoke: one scan window plus one skip window at
/// a paper config with multi-row AR sets — one bank of 65536 2 KiB rows,
/// so each AR command covers `ar_rows = 65536 / 8192 = 8` steps.
#[test]
fn multi_row_ar_sets_agree_at_reduced_paper_geometry() {
    let config = rank_config(8, 1, 65536, 512, false);
    config.validate().expect("reduced paper config");
    assert_eq!(config.geometry().ar_rows(), 8);
    assert_eq!(DramConfig::paper_default().num_chips, 8);
    let write = |chip_mask| Command::WriteLine {
        bank: 0,
        row: 700,
        slot: 5,
        payload: Payload::Masked {
            chip_mask,
            fill_seed: 0x44,
        },
    };
    let commands = [
        write(0b0010_0001),
        Command::RunWindow,
        write(0),
        Command::RunWindow,
        Command::RunWindow,
    ];
    for policy in policies() {
        let name = format!("paper-geometry-{policy:?}");
        assert_agree(&config, &DiffSetup::clean(policy), &commands, &name);
    }
}
