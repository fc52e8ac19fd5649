//! The transforming memory controller.

use std::sync::Arc;

use zr_dram::{DramRank, RefreshEngine, RefreshPolicy, WindowStats};
use zr_telemetry::{Counter, Telemetry};
use zr_trace::{RecordKind, TraceRecord, TraceRecorder, SRC_MEMCTRL};
use zr_transform::ValueTransformer;
use zr_types::geometry::{LineAddr, LineLocation};
use zr_types::{Error, Geometry, Result, SystemConfig};

/// Pre-resolved `memctrl.*` metric handles.
#[derive(Debug, Clone)]
struct ControllerMetrics {
    reads: Counter,
    writes: Counter,
}

impl ControllerMetrics {
    fn new(telemetry: &Telemetry) -> Self {
        ControllerMetrics {
            reads: telemetry.counter("memctrl.reads"),
            writes: telemetry.counter("memctrl.writes"),
        }
    }
}

/// Read/write traffic counters, consumed by the energy model (the EBDI
/// module is exercised once per read and once per write, §VI-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AccessStats {
    /// Cacheline reads served.
    pub reads: u64,
    /// Cacheline writes performed.
    pub writes: u64,
}

impl AccessStats {
    /// Total EBDI module operations: one per read plus one per write.
    pub fn ebdi_operations(&self) -> u64 {
        self.reads + self.writes
    }
}

/// The CPU-side memory controller with the ZERO-REFRESH value
/// transformation on its datapath (Fig. 7).
///
/// All addresses are cacheline-granular ([`LineAddr`]); byte-level
/// convenience wrappers are provided for whole-line-aligned buffers.
#[derive(Debug, Clone)]
pub struct MemoryController {
    geom: Geometry,
    transformer: ValueTransformer,
    rank: DramRank,
    engine: RefreshEngine,
    stats: AccessStats,
    telemetry: Arc<Telemetry>,
    metrics: ControllerMetrics,
    trace: Arc<TraceRecorder>,
    /// Staging buffer the line is encoded and decoded in, in place.
    line: Vec<u8>,
    /// Delta-word scratch of the bit-plane stages.
    deltas: Vec<u64>,
}

impl MemoryController {
    /// Builds a controller (and its rank + refresh engine) for `config`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the configuration does not
    /// validate.
    pub fn new(config: &SystemConfig, policy: RefreshPolicy) -> Result<Self> {
        Ok(MemoryController {
            geom: Geometry::new(config)?,
            transformer: ValueTransformer::new(config)?,
            rank: DramRank::new(config)?,
            engine: RefreshEngine::new(config, policy)?,
            stats: AccessStats::default(),
            telemetry: Telemetry::current(),
            metrics: ControllerMetrics::new(&Telemetry::current()),
            trace: TraceRecorder::current(),
            line: Vec::new(),
            deltas: Vec::new(),
        })
    }

    /// A copy of this controller whose refresh engine records as a
    /// separate engine ([`RefreshEngine::fork`]). The rank's rows are
    /// shared copy-on-write, so the copy costs row pointers, and each
    /// side pays for a row only when it first writes it. Valid only
    /// before the first refresh window.
    pub fn fork(&self) -> MemoryController {
        MemoryController {
            engine: self.engine.fork(),
            ..self.clone()
        }
    }

    /// The derived geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geom
    }

    /// The DRAM rank behind this controller.
    pub fn rank(&self) -> &DramRank {
        &self.rank
    }

    /// Mutable access to the rank, for failure injection in tests.
    pub fn rank_mut(&mut self) -> &mut DramRank {
        &mut self.rank
    }

    /// The refresh engine.
    pub fn engine(&self) -> &RefreshEngine {
        &self.engine
    }

    /// The traffic counters.
    pub fn stats(&self) -> AccessStats {
        self.stats
    }

    /// The value transformer on the datapath.
    pub fn transformer(&self) -> &ValueTransformer {
        &self.transformer
    }

    /// Writes one cacheline: transform (EBDI → bit-plane → cell encoding →
    /// rotation), store chip-major, and notify the refresh engine.
    ///
    /// The line is encoded in place in the controller's own scratch,
    /// which is cleared between lines but never freed, so once warm the
    /// whole write path is allocation-free.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadLength`] for a wrong-sized buffer or
    /// [`Error::AddressOutOfRange`] for an address beyond the capacity.
    pub fn write_line(&mut self, addr: LineAddr, data: &[u8]) -> Result<()> {
        let _span = self.telemetry.span("memctrl.write");
        let loc = self.geom.locate(addr)?;
        self.line.clear();
        self.line.extend_from_slice(data);
        self.transformer
            .encode_in_place_with(&mut self.line, loc.row, &mut self.deltas)?;
        self.rank
            .write_encoded_line(loc.bank, loc.row, loc.slot, &self.line)?;
        self.engine.note_write(&self.rank, loc.bank, loc.row);
        self.stats.writes += 1;
        self.metrics.writes.inc();
        if self.trace.is_active() {
            let mut rec = TraceRecord::new(RecordKind::McWrite, SRC_MEMCTRL);
            rec.bank = loc.bank.0 as u32;
            rec.a = loc.row.0;
            rec.b = loc.slot as u64;
            self.trace.record(rec);
        }
        Ok(())
    }

    /// Reads one cacheline, applying the inverse transformation.
    ///
    /// The stored line is decoded in place in the controller's scratch;
    /// only the returned copy allocates.
    ///
    /// # Errors
    ///
    /// Returns [`Error::AddressOutOfRange`] for an address beyond the
    /// capacity.
    pub fn read_line(&mut self, addr: LineAddr) -> Result<Vec<u8>> {
        let _span = self.telemetry.span("memctrl.read");
        let loc = self.geom.locate(addr)?;
        self.rank
            .read_encoded_line_into(loc.bank, loc.row, loc.slot, &mut self.line)?;
        self.transformer
            .decode_in_place_with(&mut self.line, loc.row, &mut self.deltas)?;
        let line = self.line.clone();
        self.stats.reads += 1;
        self.metrics.reads.inc();
        if self.trace.is_active() {
            let mut rec = TraceRecord::new(RecordKind::McRead, SRC_MEMCTRL);
            rec.bank = loc.bank.0 as u32;
            rec.a = loc.row.0;
            rec.b = loc.slot as u64;
            self.trace.record(rec);
        }
        Ok(line)
    }

    /// Writes a line-aligned byte buffer spanning one or more cachelines.
    ///
    /// # Errors
    ///
    /// Returns [`Error::MisalignedAccess`] if the address or length are not
    /// line-aligned, plus the errors of [`Self::write_line`].
    pub fn write_bytes(&mut self, byte_addr: u64, data: &[u8]) -> Result<()> {
        let lb = self.geom.line_bytes() as u64;
        if !byte_addr.is_multiple_of(lb) || !(data.len() as u64).is_multiple_of(lb) {
            return Err(Error::MisalignedAccess {
                addr: byte_addr,
                alignment: lb as usize,
            });
        }
        for (i, chunk) in data.chunks_exact(lb as usize).enumerate() {
            self.write_line(LineAddr(byte_addr / lb + i as u64), chunk)?;
        }
        Ok(())
    }

    /// Reads a line-aligned byte range.
    ///
    /// # Errors
    ///
    /// Returns [`Error::MisalignedAccess`] if the address or length are not
    /// line-aligned, plus the errors of [`Self::read_line`].
    pub fn read_bytes(&mut self, byte_addr: u64, len: usize) -> Result<Vec<u8>> {
        let lb = self.geom.line_bytes() as u64;
        if !byte_addr.is_multiple_of(lb) || !(len as u64).is_multiple_of(lb) {
            return Err(Error::MisalignedAccess {
                addr: byte_addr,
                alignment: lb as usize,
            });
        }
        let mut out = Vec::with_capacity(len);
        for i in 0..(len as u64 / lb) {
            out.extend_from_slice(&self.read_line(LineAddr(byte_addr / lb + i))?);
        }
        Ok(out)
    }

    /// Zero-fills a range of cachelines — the OS cleansing of §III-B,
    /// expressed as ordinary writes: the transformation stores the zeros
    /// discharged in both cell types, with no special interface to DRAM.
    ///
    /// # Errors
    ///
    /// Returns the errors of [`Self::write_line`].
    pub fn zero_fill_lines(&mut self, start: LineAddr, count: u64) -> Result<()> {
        let zeros = vec![0u8; self.geom.line_bytes()];
        for i in 0..count {
            self.write_line(LineAddr(start.0 + i), &zeros)?;
        }
        Ok(())
    }

    /// Runs one refresh window (tRET) over the rank.
    pub fn run_refresh_window(&mut self) -> WindowStats {
        self.engine.run_window(&mut self.rank)
    }

    /// Locates a line address (exposed for experiment drivers).
    ///
    /// # Errors
    ///
    /// Returns [`Error::AddressOutOfRange`] for an address beyond the
    /// capacity.
    pub fn locate(&self, addr: LineAddr) -> Result<LineLocation> {
        self.geom.locate(addr)
    }
}

#[cfg(test)]
impl MemoryController {
    /// Test-only access to the engine's write notification.
    fn engine_note_write_for_test(
        &mut self,
        rank: &DramRank,
        bank: zr_types::geometry::BankId,
        row: zr_types::geometry::RowIndex,
    ) {
        self.engine.note_write(rank, bank, row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zr_types::geometry::{BankId, ChipId, RowIndex};

    fn mc(policy: RefreshPolicy) -> MemoryController {
        MemoryController::new(&SystemConfig::small_test(), policy).unwrap()
    }

    fn line_of(seed: u8) -> Vec<u8> {
        (0..64u8)
            .map(|i| i.wrapping_mul(seed).wrapping_add(seed))
            .collect()
    }

    #[test]
    fn write_read_round_trip_across_rows() {
        let mut mc = mc(RefreshPolicy::ChargeAware);
        let total = mc.geometry().total_lines();
        let addrs = [0u64, 1, 63, 64, 65, 1000, total - 1];
        for (i, &a) in addrs.iter().enumerate() {
            mc.write_line(LineAddr(a), &line_of(i as u8 + 1)).unwrap();
        }
        for (i, &a) in addrs.iter().enumerate() {
            assert_eq!(mc.read_line(LineAddr(a)).unwrap(), line_of(i as u8 + 1));
        }
        assert_eq!(mc.stats().writes, 7);
        assert_eq!(mc.stats().reads, 7);
        assert_eq!(mc.stats().ebdi_operations(), 14);
    }

    #[test]
    fn unwritten_memory_reads_zero() {
        let mut mc = mc(RefreshPolicy::ChargeAware);
        // Including lines in anti-cell rows.
        let lines_per_row = mc.geometry().lines_per_row() as u64;
        let banks = mc.geometry().num_banks() as u64;
        let anti_row_line = 17 * banks * lines_per_row; // row 17 (anti block)
        for addr in [0, anti_row_line] {
            assert!(mc
                .read_line(LineAddr(addr))
                .unwrap()
                .iter()
                .all(|&b| b == 0));
        }
    }

    #[test]
    fn data_survives_refresh_windows() {
        let mut mc = mc(RefreshPolicy::ChargeAware);
        for a in 0..200u64 {
            mc.write_line(LineAddr(a), &line_of((a % 250) as u8 + 1))
                .unwrap();
        }
        for _ in 0..3 {
            mc.run_refresh_window();
        }
        for a in 0..200u64 {
            assert_eq!(
                mc.read_line(LineAddr(a)).unwrap(),
                line_of((a % 250) as u8 + 1)
            );
        }
    }

    #[test]
    fn zero_fill_enables_skips_without_new_interface() {
        let mut mc = mc(RefreshPolicy::ChargeAware);
        // Dirty some lines, then cleanse them with ordinary zero writes.
        for a in 0..64u64 {
            mc.write_line(LineAddr(a), &line_of(9)).unwrap();
        }
        mc.zero_fill_lines(LineAddr(0), 64).unwrap();
        mc.run_refresh_window(); // scan
        let w = mc.run_refresh_window();
        assert_eq!(w.skip_fraction(), 1.0);
    }

    #[test]
    fn byte_wrappers_round_trip() {
        let mut mc = mc(RefreshPolicy::Conventional);
        let data: Vec<u8> = (0..256u32).map(|i| (i * 7 % 256) as u8).collect();
        mc.write_bytes(128, &data).unwrap();
        assert_eq!(mc.read_bytes(128, 256).unwrap(), data);
    }

    #[test]
    fn misaligned_bytes_rejected() {
        let mut mc = mc(RefreshPolicy::Conventional);
        assert!(matches!(
            mc.write_bytes(3, &[0u8; 64]),
            Err(Error::MisalignedAccess { .. })
        ));
        assert!(mc.write_bytes(0, &[0u8; 63]).is_err());
        assert!(mc.read_bytes(64, 63).is_err());
    }

    #[test]
    fn out_of_range_rejected() {
        let mut mc = mc(RefreshPolicy::Conventional);
        let total = mc.geometry().total_lines();
        assert!(mc.write_line(LineAddr(total), &[0u8; 64]).is_err());
        assert!(mc.read_line(LineAddr(total)).is_err());
    }

    #[test]
    fn compressible_writes_keep_most_groups_skippable() {
        // The headline mechanism end to end: filling a whole rank-row
        // block with BDI-friendly lines must leave most chip-rows
        // discharged (bases collect in one group, deltas in another).
        let mut mc = mc(RefreshPolicy::ChargeAware);
        let g = mc.geometry().clone();
        let lines_per_row = g.lines_per_row() as u64;
        // Fill rank-rows 0..8 of bank 0 (a whole rotation block).
        for row in 0..8u64 {
            let global_row = row * g.num_banks() as u64; // bank 0
            for slot in 0..lines_per_row {
                let mut line = [0u8; 64];
                for (w, chunk) in line.chunks_exact_mut(8).enumerate() {
                    let v = 0x4000_1000u64 + row * 64 + slot * 8 + w as u64;
                    chunk.copy_from_slice(&v.to_le_bytes());
                }
                mc.write_line(LineAddr(global_row * lines_per_row + slot), &line)
                    .unwrap();
            }
        }
        mc.run_refresh_window(); // scan
        let w = mc.run_refresh_window();
        // 64 chip-rows were written in bank 0 (8 rank-rows x 8 chips); of
        // those only 2 groups of 8 chip-rows hold base/delta words.
        let total = g.total_chip_row_refreshes_per_window();
        assert_eq!(w.rows_refreshed, 16, "only base+delta groups refresh");
        assert_eq!(w.rows_skipped, total - 16);
    }

    #[test]
    fn naive_policy_controller_round_trips() {
        let mut mc = mc(RefreshPolicy::NaiveSram);
        mc.write_line(LineAddr(5), &line_of(3)).unwrap();
        mc.run_refresh_window();
        assert_eq!(mc.read_line(LineAddr(5)).unwrap(), line_of(3));
    }

    #[test]
    fn forced_charge_then_notified_refresh_keeps_integrity() {
        let mut mc = mc(RefreshPolicy::ChargeAware);
        mc.run_refresh_window();
        mc.rank_mut()
            .force_charge_chip_row(ChipId(1), BankId(0), RowIndex(2))
            .unwrap();
        // Simulate the scrubber notification path used by tests in zr-dram.
        let rank_snapshot = mc.rank().clone();
        mc.engine_note_write_for_test(&rank_snapshot, BankId(0), RowIndex(2));
        let w = mc.run_refresh_window();
        assert!(w.rows_refreshed >= 1);
    }
}
