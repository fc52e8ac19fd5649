//! Law-based conformance of the charge-domain stage attribution: the
//! per-stage charged-cell deltas the xray capture records for
//! `encode_in_place` must telescope — sum *exactly* to the line's total
//! charged-cell reduction — for every stage combination and over
//! adversarial content. The attribution is measured (snapshots of
//! `charged_cell_count` between stages), not derived, so this holds by
//! construction; the tests pin it against bookkeeping regressions
//! (wrong stage index, missed stage, combo mixups).

use std::sync::Arc;

use zr_conform::{all_transform_configs, ContentFamily};
use zr_transform::ValueTransformer;
use zr_types::geometry::RowIndex;
use zr_types::rng::cases;
use zr_types::{CellType, SystemConfig, TransformConfig};
use zr_xray::{stage_combo, XrayRecorder, XraySnapshot};

fn transformer(stages: TransformConfig) -> (ValueTransformer, Arc<XrayRecorder>) {
    let mut config = SystemConfig::small_test();
    config.transform = stages;
    let xray = Arc::new(XrayRecorder::memory_with_cap(8));
    let _xray = XrayRecorder::push_current(Arc::clone(&xray));
    let t = ValueTransformer::new(&config).expect("transformer");
    (t, xray)
}

/// Rows of both cell polarities in the small-test geometry (16-row
/// cell blocks: 0..16 true, 16..32 anti).
fn rows() -> [RowIndex; 4] {
    [RowIndex(0), RowIndex(15), RowIndex(16), RowIndex(31)]
}

fn line_bytes() -> usize {
    SystemConfig::small_test().line.line_bytes
}

/// Sums `(lines, charged_before, charged_after)` over a snapshot's
/// stage rows, asserting each row telescopes on the way.
fn telescoped_totals(snap: &XraySnapshot) -> (u64, u64, u64) {
    let (mut lines, mut before, mut after) = (0u64, 0u64, 0u64);
    for s in &snap.stages {
        assert!(
            s.deltas_sum_to_total(),
            "combo {} does not telescope: {s:?}",
            s.combo
        );
        lines += s.lines;
        before += s.charged_before;
        after += s.charged_after;
    }
    (lines, before, after)
}

/// Every stage combination × every content family × both cell
/// polarities: the recorded attribution telescopes and its endpoints
/// match independently computed charged-cell counts.
#[test]
fn attribution_telescopes_for_every_stage_combination() {
    for stages in all_transform_configs() {
        let (t, xray) = transformer(stages);
        let (mut encoded_lines, mut expect_before, mut expect_after) = (0u64, 0u64, 0u64);
        for family in ContentFamily::all() {
            for seed in 0..3u64 {
                let line = family.generate(seed, line_bytes());
                for row in rows() {
                    expect_before += t.charged_cell_count(&line, row);
                    let enc = t.encode(&line, row).expect("encode");
                    expect_after += t.charged_cell_count(&enc, row);
                    encoded_lines += 1;
                }
            }
        }
        let snap = xray.snapshot();
        let (lines, before, after) = telescoped_totals(&snap);
        assert_eq!(lines, encoded_lines, "stages {stages:?}");
        assert_eq!(
            (before, after),
            (expect_before, expect_after),
            "attribution endpoints drifted: stages {stages:?}"
        );
        // The recorded combos carry the configured stage bits, with the
        // inversion bit set only when cell-aware inversion actually ran
        // (anti rows of a cell-aware pipeline).
        let expected_combos: Vec<u8> = if stages.cell_aware {
            let mut c = vec![
                stage_combo(stages.ebdi, stages.bit_plane, false, stages.rotation),
                stage_combo(stages.ebdi, stages.bit_plane, true, stages.rotation),
            ];
            c.sort_unstable();
            c.dedup();
            c
        } else {
            vec![stage_combo(
                stages.ebdi,
                stages.bit_plane,
                false,
                stages.rotation,
            )]
        };
        let combos: Vec<u8> = snap.stages.iter().map(|s| s.combo).collect();
        assert_eq!(combos, expected_combos, "stages {stages:?}");
    }
}

/// One arbitrary line through one arbitrary stage combination: the
/// single recorded stage row is exact — endpoints match the measured
/// charged-cell counts, deltas sum to their difference, and the combo
/// encodes what actually ran for that row.
#[test]
fn single_line_attribution_is_exact() {
    cases("single_line_attribution_is_exact", 192, |rng| {
        let stages = all_transform_configs()[rng.below(16) as usize];
        let (t, xray) = transformer(stages);
        let family = ContentFamily::all()[rng.below(9) as usize];
        let line = family.generate(rng.next_u64(), line_bytes());
        let row = RowIndex(rng.below(64));
        let before = t.charged_cell_count(&line, row);
        let enc = t.encode(&line, row).expect("encode");
        let after = t.charged_cell_count(&enc, row);

        let snap = xray.snapshot();
        assert_eq!(snap.stages.len(), 1);
        let s = &snap.stages[0];
        assert_eq!(s.lines, 1);
        assert_eq!((s.charged_before, s.charged_after), (before, after));
        assert!(s.deltas_sum_to_total());
        assert_eq!(s.total_reduction(), before as i64 - after as i64);
        let inverted = stages.cell_aware && t.cell_type(row) == CellType::Anti;
        assert_eq!(
            s.combo,
            stage_combo(stages.ebdi, stages.bit_plane, inverted, stages.rotation)
        );
    });
}
