//! The complete value-transformation pipeline (Fig. 9).
//!
//! [`ValueTransformer`] composes the EBDI, bit-plane, cell-type and
//! rotation stages into the write-path encoder and its read-path inverse.
//! Stages can be toggled individually through
//! [`TransformConfig`] for ablation studies.

use std::sync::Arc;

use crate::{bitplane, ebdi, rotation};
use zr_telemetry::{Event, LocalCounter, Telemetry};
use zr_trace::{
    RecordKind, TraceRecord, TraceRecorder, FLAG_BIT_PLANE, FLAG_DECODE, FLAG_EBDI, FLAG_INVERTED,
    FLAG_ROTATION, SRC_TRANSFORM,
};
use zr_types::geometry::RowIndex;
use zr_types::{CachelineConfig, CellType, DramConfig, Result, SystemConfig, TransformConfig};
use zr_xray::XrayRecorder;

/// Pre-resolved `transform.*` metric handles. Stage "pick rates" are the
/// per-stage counters divided by the call counters. They are per-line
/// tallies, published by [`ValueTransformer::publish_counters`] and on
/// drop.
#[derive(Debug, Clone)]
struct TransformMetrics {
    encode_calls: LocalCounter,
    decode_calls: LocalCounter,
    stage_ebdi: LocalCounter,
    stage_bit_plane: LocalCounter,
    stage_inversion: LocalCounter,
    stage_rotation: LocalCounter,
}

impl TransformMetrics {
    fn new(telemetry: &Telemetry) -> Self {
        let counter = |name| LocalCounter::new(telemetry.counter(name));
        TransformMetrics {
            encode_calls: counter("transform.encode.calls"),
            decode_calls: counter("transform.decode.calls"),
            stage_ebdi: counter("transform.encode.stage_ebdi"),
            stage_bit_plane: counter("transform.encode.stage_bit_plane"),
            stage_inversion: counter("transform.encode.stage_inversion"),
            stage_rotation: counter("transform.encode.stage_rotation"),
        }
    }

    fn flush(&self) {
        for counter in [
            &self.encode_calls,
            &self.decode_calls,
            &self.stage_ebdi,
            &self.stage_bit_plane,
            &self.stage_inversion,
            &self.stage_rotation,
        ] {
            counter.flush();
        }
    }
}

/// The CPU-side value transformation engine of ZERO-REFRESH.
///
/// One instance is configured per memory system and applied to every
/// cacheline moving between the LLC and the memory controller. The
/// transformation depends only on the destination rank-row (for the cell
/// type and rotation amount), so reads invert it deterministically.
///
/// # Examples
///
/// ```
/// use zr_transform::ValueTransformer;
/// use zr_types::{geometry::RowIndex, SystemConfig};
///
/// let tf = ValueTransformer::new(&SystemConfig::paper_default())?;
/// let mut line = [7u8; 64];
/// tf.encode_in_place(&mut line, RowIndex(42))?;
/// tf.decode_in_place(&mut line, RowIndex(42))?;
/// assert_eq!(line, [7u8; 64]);
/// # Ok::<(), zr_types::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct ValueTransformer {
    line: CachelineConfig,
    stages: TransformConfig,
    dram: DramConfig,
    telemetry: Arc<Telemetry>,
    metrics: TransformMetrics,
    trace: Arc<TraceRecorder>,
    xray: Arc<XrayRecorder>,
}

impl ValueTransformer {
    /// Builds a transformer for `config`.
    ///
    /// # Errors
    ///
    /// Returns [`zr_types::Error::InvalidConfig`] if the configuration does
    /// not validate.
    pub fn new(config: &SystemConfig) -> Result<Self> {
        config.validate()?;
        let telemetry = Telemetry::current();
        Ok(ValueTransformer {
            line: config.line,
            stages: config.transform,
            dram: config.dram.clone(),
            metrics: TransformMetrics::new(&telemetry),
            telemetry,
            trace: TraceRecorder::current(),
            xray: XrayRecorder::current(),
        })
    }

    /// Flags describing which stages ran for a line bound to `row`.
    fn stage_flags(&self, inverted: bool) -> u16 {
        let mut flags = 0;
        if self.stages.ebdi {
            flags |= FLAG_EBDI;
        }
        if self.stages.bit_plane {
            flags |= FLAG_BIT_PLANE;
        }
        if inverted {
            flags |= FLAG_INVERTED;
        }
        if self.stages.rotation {
            flags |= FLAG_ROTATION;
        }
        flags
    }

    /// Adds the `transform.*` counts tallied since the last call to the
    /// telemetry counters. The memory controller calls this at every
    /// refresh window, and dropping the transformer does it too; a clone
    /// publishes only the lines it transformed itself.
    pub fn publish_counters(&self) {
        self.metrics.flush();
    }

    /// The stage toggles this transformer was built with.
    pub fn stages(&self) -> &TransformConfig {
        &self.stages
    }

    /// Encodes a cacheline for storage in rank-row `row` (write path).
    ///
    /// After this call the buffer is in *chip-major* order: bytes
    /// `c * seg .. (c+1) * seg` are what chip `c` stores (see
    /// [`crate::rotation`]); the wire-level realization is modeled in
    /// [`crate::burst`].
    ///
    /// # Errors
    ///
    /// Returns [`zr_types::Error::BadLength`] if `line` does not match the
    /// configured cacheline size.
    pub fn encode_in_place(&self, line: &mut [u8], row: RowIndex) -> Result<()> {
        self.encode_in_place_with(line, row, &mut Vec::new())
    }

    /// [`Self::encode_in_place`] with caller-provided bitplane scratch
    /// (the memory controller passes its own) so a warm write path
    /// encodes without allocating. Output bytes are identical.
    ///
    /// # Errors
    ///
    /// Same as [`Self::encode_in_place`].
    pub fn encode_in_place_with(
        &self,
        line: &mut [u8],
        row: RowIndex,
        scratch: &mut Vec<u64>,
    ) -> Result<()> {
        let span = self.telemetry.span("transform.encode");
        let inverted = self.stages.cell_aware && self.cell_type(row) == CellType::Anti;
        // Charge-domain attribution: with the xray capture on, snapshot
        // the charged-cell count around every stage so each one is
        // charged with exactly the reduction it contributed. The
        // snapshots telescope, so the per-stage deltas sum to the line's
        // total reduction by construction. All of it is skipped (one
        // relaxed load) when the capture is off.
        let xraying = self.xray.is_active();
        let mut deltas = [0i64; zr_xray::STAGE_COUNT];
        let mut charged = if xraying {
            self.charged_cell_count(line, row)
        } else {
            0
        };
        let charged_before = charged;
        let mut stage_delta = |stage: usize, line: &[u8], charged: &mut u64| {
            if xraying {
                let now = self.charged_cell_count(line, row);
                deltas[stage] = *charged as i64 - now as i64;
                *charged = now;
            }
        };
        if self.stages.ebdi {
            ebdi::encode_in_place(line, &self.line)?;
            self.metrics.stage_ebdi.inc();
            stage_delta(0, line, &mut charged);
        }
        if self.stages.bit_plane {
            bitplane::transpose_in_place_with(line, &self.line, scratch)?;
            self.metrics.stage_bit_plane.inc();
            stage_delta(1, line, &mut charged);
        }
        if inverted {
            invert(line);
            self.metrics.stage_inversion.inc();
            stage_delta(2, line, &mut charged);
        }
        if self.stages.rotation {
            rotation::rotate_in_place(line, row, self.dram.num_chips)?;
            self.metrics.stage_rotation.inc();
            stage_delta(3, line, &mut charged);
        }
        if xraying {
            // Bit 2 of the combo records whether the inversion actually
            // ran for this line (cell-aware pipelines invert only anti
            // rows), so true- and anti-row populations attribute apart.
            self.xray.record_encode(
                zr_xray::stage_combo(
                    self.stages.ebdi,
                    self.stages.bit_plane,
                    inverted,
                    self.stages.rotation,
                ),
                charged_before,
                deltas,
                charged,
            );
        }
        self.metrics.encode_calls.inc();
        if self.trace.is_active() {
            let mut rec = TraceRecord::new(RecordKind::Transform, SRC_TRANSFORM);
            rec.flags = self.stage_flags(inverted);
            rec.a = row.0;
            self.trace.record(rec);
        }
        self.telemetry.emit(|| Event::TransformStage {
            op: "encode",
            row: row.0,
            ebdi: self.stages.ebdi,
            bit_plane: self.stages.bit_plane,
            inverted,
            rotation: self.stages.rotation,
        });
        drop(span);
        Ok(())
    }

    /// Decodes a cacheline read back from rank-row `row` (read path).
    /// Exact inverse of [`Self::encode_in_place`].
    ///
    /// # Errors
    ///
    /// Returns [`zr_types::Error::BadLength`] if `line` does not match the
    /// configured cacheline size.
    pub fn decode_in_place(&self, line: &mut [u8], row: RowIndex) -> Result<()> {
        self.decode_in_place_with(line, row, &mut Vec::new())
    }

    /// [`Self::decode_in_place`] with caller-provided bitplane scratch —
    /// the allocation-free read-path counterpart of
    /// [`Self::encode_in_place_with`].
    ///
    /// # Errors
    ///
    /// Same as [`Self::decode_in_place`].
    pub fn decode_in_place_with(
        &self,
        line: &mut [u8],
        row: RowIndex,
        scratch: &mut Vec<u64>,
    ) -> Result<()> {
        let _span = self.telemetry.span("transform.decode");
        self.metrics.decode_calls.inc();
        if self.trace.is_active() {
            let inverted = self.stages.cell_aware && self.cell_type(row) == CellType::Anti;
            let mut rec = TraceRecord::new(RecordKind::Transform, SRC_TRANSFORM);
            rec.flags = self.stage_flags(inverted) | FLAG_DECODE;
            rec.a = row.0;
            self.trace.record(rec);
        }
        if self.stages.rotation {
            rotation::unrotate_in_place(line, row, self.dram.num_chips)?;
        }
        if self.stages.cell_aware && self.cell_type(row) == CellType::Anti {
            invert(line);
        }
        if self.stages.bit_plane {
            bitplane::untranspose_in_place_with(line, &self.line, scratch)?;
        }
        if self.stages.ebdi {
            ebdi::decode_in_place(line, &self.line)?;
        }
        Ok(())
    }

    /// Owned-buffer convenience wrapper over [`Self::encode_in_place`].
    ///
    /// # Errors
    ///
    /// Same as [`Self::encode_in_place`].
    pub fn encode(&self, line: &[u8], row: RowIndex) -> Result<Vec<u8>> {
        let mut buf = line.to_vec();
        self.encode_in_place(&mut buf, row)?;
        Ok(buf)
    }

    /// Owned-buffer convenience wrapper over [`Self::decode_in_place`].
    ///
    /// # Errors
    ///
    /// Same as [`Self::decode_in_place`].
    pub fn decode(&self, line: &[u8], row: RowIndex) -> Result<Vec<u8>> {
        let mut buf = line.to_vec();
        self.decode_in_place(&mut buf, row)?;
        Ok(buf)
    }

    /// The cell type of rank-row `row` as the transformer models it.
    pub fn cell_type(&self, row: RowIndex) -> CellType {
        CellType::of_row_index(row, &self.dram)
    }

    /// Whether an encoded (chip-major) line is fully discharged when stored
    /// in rank-row `row` — i.e. whether every byte equals the discharged
    /// pattern of the row's cell type.
    ///
    /// # Examples
    ///
    /// ```
    /// use zr_transform::ValueTransformer;
    /// use zr_types::{geometry::RowIndex, SystemConfig};
    ///
    /// let tf = ValueTransformer::new(&SystemConfig::paper_default())?;
    /// // An all-zero (OS-cleansed) line is discharged in a true-cell row…
    /// let enc = tf.encode(&[0u8; 64], RowIndex(0))?;
    /// assert!(tf.is_discharged(&enc, RowIndex(0)));
    /// // …and in an anti-cell row (rows 512.. in the default layout).
    /// let enc = tf.encode(&[0u8; 64], RowIndex(512))?;
    /// assert!(tf.is_discharged(&enc, RowIndex(512)));
    /// # Ok::<(), zr_types::Error>(())
    /// ```
    pub fn is_discharged(&self, encoded: &[u8], row: RowIndex) -> bool {
        let pattern = self.cell_type(row).discharged_byte();
        encoded.iter().all(|&b| b == pattern)
    }

    /// Counts the cells of `encoded` that hold charge when stored in
    /// `row`: set bits in true-cell rows, clear bits in anti-cell rows
    /// (§II-B). This is the charge cost the transformation pipeline
    /// minimizes; `is_discharged` is exactly `charged_cell_count == 0`.
    ///
    /// # Examples
    ///
    /// ```
    /// use zr_transform::ValueTransformer;
    /// use zr_types::{geometry::RowIndex, SystemConfig};
    /// let t = ValueTransformer::new(&SystemConfig::paper_default()).unwrap();
    /// assert_eq!(t.charged_cell_count(&[0x0F, 0x00], RowIndex(0)), 4);
    /// assert_eq!(t.charged_cell_count(&[0xFF, 0xFF], RowIndex(512)), 0);
    /// ```
    pub fn charged_cell_count(&self, encoded: &[u8], row: RowIndex) -> u64 {
        let charged: u64 = encoded
            .iter()
            .map(|&b| u64::from(b.count_ones()))
            .sum::<u64>();
        match self.cell_type(row) {
            CellType::True => charged,
            CellType::Anti => 8 * encoded.len() as u64 - charged,
        }
    }
}

fn invert(line: &mut [u8]) {
    for b in line.iter_mut() {
        *b = !*b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zr_types::geometry::ChipId;
    use zr_types::Geometry;

    fn tf() -> ValueTransformer {
        ValueTransformer::new(&SystemConfig::paper_default()).unwrap()
    }

    fn pseudo_random_line(seed: u64) -> [u8; 64] {
        let mut line = [0u8; 64];
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        for b in line.iter_mut() {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *b = (s >> 56) as u8;
        }
        line
    }

    #[test]
    fn round_trip_true_and_anti_rows() {
        let tf = tf();
        for seed in 0..50u64 {
            for row in [0u64, 1, 7, 511, 512, 513, 1023, 1024] {
                let original = pseudo_random_line(seed);
                let mut line = original;
                tf.encode_in_place(&mut line, RowIndex(row)).unwrap();
                tf.decode_in_place(&mut line, RowIndex(row)).unwrap();
                assert_eq!(line, original, "seed {seed} row {row}");
            }
        }
    }

    #[test]
    fn xray_attribution_telescopes_per_stage() {
        let recorder = Arc::new(XrayRecorder::memory_with_cap(zr_xray::DEFAULT_WINDOW_CAP));
        let tf = {
            let _xray = XrayRecorder::push_current(Arc::clone(&recorder));
            tf()
        };
        let mut expect_before = 0u64;
        let mut expect_after = 0u64;
        for seed in 0..8u64 {
            for row in [0u64, 600] {
                let mut line = pseudo_random_line(seed);
                expect_before += tf.charged_cell_count(&line, RowIndex(row));
                tf.encode_in_place(&mut line, RowIndex(row)).unwrap();
                expect_after += tf.charged_cell_count(&line, RowIndex(row));
            }
        }
        let snap = recorder.snapshot();
        // True rows skip the inversion, so the two row populations land
        // in distinct combos: ebdi+bit_plane+rotation with and without
        // the inversion bit.
        let combos: Vec<u8> = snap.stages.iter().map(|s| s.combo).collect();
        assert_eq!(
            combos,
            vec![
                zr_xray::stage_combo(true, true, false, true),
                zr_xray::stage_combo(true, true, true, true),
            ]
        );
        let (mut before, mut after, mut lines) = (0u64, 0u64, 0u64);
        for s in &snap.stages {
            assert!(
                s.deltas_sum_to_total(),
                "combo {} does not telescope",
                s.combo
            );
            before += s.charged_before;
            after += s.charged_after;
            lines += s.lines;
        }
        assert_eq!(lines, 16);
        assert_eq!((before, after), (expect_before, expect_after));
    }

    #[test]
    fn zero_line_discharged_in_both_cell_types() {
        let tf = tf();
        let enc_true = tf.encode(&[0u8; 64], RowIndex(3)).unwrap();
        assert!(enc_true.iter().all(|&b| b == 0x00));
        let enc_anti = tf.encode(&[0u8; 64], RowIndex(600)).unwrap();
        assert!(enc_anti.iter().all(|&b| b == 0xFF));
        assert!(tf.is_discharged(&enc_true, RowIndex(3)));
        assert!(tf.is_discharged(&enc_anti, RowIndex(600)));
    }

    #[test]
    fn without_cell_awareness_anti_rows_lose_discharge() {
        let mut cfg = SystemConfig::paper_default();
        cfg.transform.cell_aware = false;
        let tf = ValueTransformer::new(&cfg).unwrap();
        let enc = tf.encode(&[0u8; 64], RowIndex(600)).unwrap();
        // Stored logical zeros charge every anti cell.
        assert!(!tf.is_discharged(&enc, RowIndex(600)));
    }

    #[test]
    fn compressible_line_zeroes_middle_segments() {
        let tf = tf();
        let mut line = [0u8; 64];
        for (i, w) in line.chunks_exact_mut(8).enumerate() {
            w.copy_from_slice(&(0xDEAD_0000u64 + 4 * i as u64).to_le_bytes());
        }
        let enc = tf.encode(&line, RowIndex(0)).unwrap();
        // Row 0: no rotation shift; base in chip 0, delta word in chip 7.
        assert!(enc[8..56].iter().all(|&b| b == 0));
        assert!(enc[0..8].iter().any(|&b| b != 0));
        assert!(enc[56..64].iter().any(|&b| b != 0));
    }

    #[test]
    fn base_and_delta_words_collect_into_fixed_refresh_groups() {
        // The cross-crate alignment property behind Fig. 9b: with per-row
        // rotation and the staggered counters, the chip-rows holding base
        // segments all share one refresh step, and the delta segments
        // another, for every row of a block.
        let cfg = SystemConfig::paper_default();
        let geom = Geometry::new(&cfg).unwrap();
        let chips = geom.num_chips();
        let mut base_groups = std::collections::HashSet::new();
        let mut delta_groups = std::collections::HashSet::new();
        for row in 0..chips as u64 {
            let base_chip = rotation::chip_of_segment(0, RowIndex(row), chips);
            let delta_chip = rotation::chip_of_segment(chips - 1, RowIndex(row), chips);
            base_groups.insert(geom.staggered_step(RowIndex(row), ChipId(base_chip)));
            delta_groups.insert(geom.staggered_step(RowIndex(row), ChipId(delta_chip)));
        }
        assert_eq!(base_groups.len(), 1, "base words span several groups");
        assert_eq!(delta_groups.len(), 1, "delta words span several groups");
        assert_ne!(base_groups, delta_groups);
    }

    #[test]
    fn middle_segments_each_collect_into_their_own_group() {
        let cfg = SystemConfig::paper_default();
        let geom = Geometry::new(&cfg).unwrap();
        let chips = geom.num_chips();
        for seg in 0..chips {
            let groups: std::collections::HashSet<u64> = (0..chips as u64)
                .map(|row| {
                    let chip = rotation::chip_of_segment(seg, RowIndex(row), chips);
                    geom.staggered_step(RowIndex(row), ChipId(chip))
                })
                .collect();
            assert_eq!(groups.len(), 1, "segment {seg}");
        }
    }

    #[test]
    fn ablated_pipelines_still_round_trip() {
        let combos = [
            (true, false, false, true),
            (false, true, false, false),
            (false, false, true, true),
            (true, true, false, false),
            (false, false, false, false),
        ];
        for (ebdi, bit_plane, rot, cell) in combos {
            let mut cfg = SystemConfig::paper_default();
            cfg.transform = TransformConfig {
                ebdi,
                bit_plane,
                rotation: rot,
                cell_aware: cell,
            };
            let tf = ValueTransformer::new(&cfg).unwrap();
            let original = pseudo_random_line(99);
            for row in [0u64, 600] {
                let mut line = original;
                tf.encode_in_place(&mut line, RowIndex(row)).unwrap();
                tf.decode_in_place(&mut line, RowIndex(row)).unwrap();
                assert_eq!(line, original);
            }
        }
    }

    #[test]
    fn misidentified_cell_type_still_round_trips() {
        // §V-B: wrong cell-type identification must only cost refresh
        // opportunities, never data. Model it as encode/decode agreeing on
        // the (wrong) type: the inverse still restores the original.
        let mut cfg = SystemConfig::paper_default();
        cfg.dram.anti_cells_first = true; // "mispredicted" layout
        let tf_wrong = ValueTransformer::new(&cfg).unwrap();
        let original = pseudo_random_line(7);
        let mut line = original;
        tf_wrong.encode_in_place(&mut line, RowIndex(0)).unwrap();
        tf_wrong.decode_in_place(&mut line, RowIndex(0)).unwrap();
        assert_eq!(line, original);
        // But a zero line now loses its skip opportunity on row 0, which
        // is physically a true-cell row in the real device.
        let enc = tf_wrong.encode(&[0u8; 64], RowIndex(0)).unwrap();
        assert!(enc.iter().all(|&b| b == 0xFF));
        let real = ValueTransformer::new(&SystemConfig::paper_default()).unwrap();
        assert!(!real.is_discharged(&enc, RowIndex(0)));
    }

    #[test]
    fn wrong_length_rejected() {
        let tf = tf();
        let mut line = [0u8; 32];
        assert!(tf.encode_in_place(&mut line, RowIndex(0)).is_err());
    }
}
