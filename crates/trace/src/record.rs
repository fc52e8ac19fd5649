//! The fixed-size binary trace record and its framed on-disk format.
//!
//! Every event the flight recorder captures is one 32-byte
//! [`TraceRecord`]: a kind tag, a source id (which engine or component
//! emitted it), a bank, a 16-bit flag word and three 64-bit payload
//! fields whose meaning depends on the kind. Fixed-size records keep the
//! hot-path encode branch-free and make the stream seekable and
//! memory-mappable.
//!
//! On disk a trace is a 16-byte [`FileHeader`] followed by length-prefixed
//! frames: `[len_bytes: u32][record_count: u32]` then `record_count`
//! packed records. Frames bound the damage of a torn tail (a crashed run
//! loses at most one frame) and are the ring-buffer eviction unit.

use zr_types::{Error, Result};

/// Magic bytes opening every trace file.
pub const MAGIC: &[u8; 8] = b"ZRTRACE\x01";

/// Current format version, bumped on any record-layout change.
pub const FORMAT_VERSION: u16 = 1;

/// Serialized size of one [`TraceRecord`] in bytes.
pub const RECORD_BYTES: usize = 32;

/// Serialized size of the file header in bytes.
pub const HEADER_BYTES: usize = 16;

/// Serialized size of a frame prefix (`len_bytes` + `record_count`).
pub const FRAME_PREFIX_BYTES: usize = 8;

/// Records per frame before the recorder seals it (32 KiB frames).
pub const RECORDS_PER_FRAME: usize = 1024;

/// Source id of the timing simulator (`zr-timing`).
pub const SRC_TIMING: u8 = 0xF1;
/// Source id of the memory controller datapath (`zr-memctrl`).
pub const SRC_MEMCTRL: u8 = 0xF0;
/// Source id of the value-transformation pipeline (`zr-transform`).
pub const SRC_TRANSFORM: u8 = 0xF2;
/// Exclusive upper bound for refresh-engine instance ids; ids wrap below
/// this so they never collide with the fixed component ids above.
pub const ENGINE_ID_LIMIT: u8 = 0xF0;

/// Flag bit: the per-AR-set access bit was clear, so the stored
/// discharged-status bits were trusted (skip path).
pub const FLAG_TRUSTED: u16 = 1 << 0;
/// Flag bit: the EBDI stage ran (transform records).
pub const FLAG_EBDI: u16 = 1 << 1;
/// Flag bit: the bit-plane transposition ran (transform records).
pub const FLAG_BIT_PLANE: u16 = 1 << 2;
/// Flag bit: the line was inverted for an anti-cell row (transform records).
pub const FLAG_INVERTED: u16 = 1 << 3;
/// Flag bit: the rotation stage ran (transform records).
pub const FLAG_ROTATION: u16 = 1 << 4;
/// Flag bit: decode (read path) rather than encode (transform records).
pub const FLAG_DECODE: u16 = 1 << 5;
/// Flag bit: the chip-row is now discharged (charge-transition records).
pub const FLAG_DISCHARGED: u16 = 1 << 6;
/// Flag bit: the access was a write (timing command records).
pub const FLAG_WRITE: u16 = 1 << 7;

/// Refresh policy tag stored in the low bits of a meta record's flags.
pub const POLICY_MASK: u16 = 0b11;
/// Meta-record policy tag: conventional refresh.
pub const POLICY_CONVENTIONAL: u16 = 0;
/// Meta-record policy tag: the paper's charge-aware design.
pub const POLICY_CHARGE_AWARE: u16 = 1;
/// Meta-record policy tag: the naive full-SRAM ablation.
pub const POLICY_NAIVE_SRAM: u16 = 2;

/// What one trace record describes. The discriminant is the on-disk tag.
/// Tag 12 is unassigned: the kinds after it keep their tags, so traces
/// written before it was freed still decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum RecordKind {
    /// Engine registration: `src` is the engine id; `flags` carry the
    /// policy tag; `bank` = `num_banks`, `a` = `num_chips`,
    /// `b` = `ar_rows`, `c` = `ar_sets_per_bank`.
    Meta = 0,
    /// A retention window began: `a` = window index.
    WindowStart = 1,
    /// A retention window completed: `a` = window index,
    /// `b` = rows refreshed, `c` = rows skipped.
    WindowEnd = 2,
    /// The engine observed a memory write (the replay input stream):
    /// `bank`, `a` = rank-row.
    Write = 3,
    /// An AR command refreshed its full set (untrusted access bit, or a
    /// non-skipping policy): `bank`, `a` = AR set, `b` = rows refreshed,
    /// `c` = discharged chip-rows found by the piggybacked scan.
    RefIssue = 4,
    /// An AR command trusted the status table and skipped: `bank`,
    /// `a` = AR set, `b` = rows refreshed, `c` = rows skipped.
    RefSkip = 5,
    /// Row activation in the timing domain: `bank`, `a` = rank-row,
    /// `b`/`c` = start/finish ns as `f64` bits.
    Act = 6,
    /// Column read in the timing domain (same payload as [`Self::Act`]).
    Rd = 7,
    /// Column write in the timing domain (same payload as [`Self::Act`]).
    Wr = 8,
    /// Precharge in the timing domain (same payload as [`Self::Act`]).
    Pre = 9,
    /// A chip-row's stored charge state flipped, observed by the refresh
    /// scan: `bank`, `a` = rank-row, `b` = chip; [`FLAG_DISCHARGED`] gives
    /// the new state.
    ChargeTransition = 10,
    /// One transformation-pipeline application: `a` = destination
    /// rank-row; stage-selection flags.
    Transform = 11,
    /// A functional cacheline read served by the controller: `bank`,
    /// `a` = rank-row, `b` = slot.
    McRead = 13,
    /// A functional cacheline write performed by the controller (same
    /// payload as [`Self::McRead`]).
    McWrite = 14,
}

impl RecordKind {
    /// All kinds, in tag order.
    pub const ALL: [RecordKind; 14] = [
        RecordKind::Meta,
        RecordKind::WindowStart,
        RecordKind::WindowEnd,
        RecordKind::Write,
        RecordKind::RefIssue,
        RecordKind::RefSkip,
        RecordKind::Act,
        RecordKind::Rd,
        RecordKind::Wr,
        RecordKind::Pre,
        RecordKind::ChargeTransition,
        RecordKind::Transform,
        RecordKind::McRead,
        RecordKind::McWrite,
    ];

    /// Decodes an on-disk tag.
    pub fn from_tag(tag: u8) -> Option<RecordKind> {
        Self::ALL.iter().copied().find(|&k| k as u8 == tag)
    }

    /// Stable lowercase name (CLI filters, summaries).
    pub fn name(self) -> &'static str {
        match self {
            RecordKind::Meta => "meta",
            RecordKind::WindowStart => "window_start",
            RecordKind::WindowEnd => "window_end",
            RecordKind::Write => "write",
            RecordKind::RefIssue => "ref_issue",
            RecordKind::RefSkip => "ref_skip",
            RecordKind::Act => "act",
            RecordKind::Rd => "rd",
            RecordKind::Wr => "wr",
            RecordKind::Pre => "pre",
            RecordKind::ChargeTransition => "charge_transition",
            RecordKind::Transform => "transform",
            RecordKind::McRead => "mc_read",
            RecordKind::McWrite => "mc_write",
        }
    }

    /// Parses a [`Self::name`] string (CLI `--kind` filter).
    pub fn parse(name: &str) -> Option<RecordKind> {
        Self::ALL.iter().copied().find(|k| k.name() == name)
    }
}

/// One 32-byte flight-recorder record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceRecord {
    /// What happened.
    pub kind: RecordKind,
    /// Which engine instance / component emitted it.
    pub src: u8,
    /// Kind-specific flag bits (`FLAG_*`, `POLICY_*`).
    pub flags: u16,
    /// Bank index.
    pub bank: u32,
    /// First kind-specific payload (usually a row or AR set).
    pub a: u64,
    /// Second kind-specific payload.
    pub b: u64,
    /// Third kind-specific payload.
    pub c: u64,
}

impl TraceRecord {
    /// Builds a record with zeroed payload fields.
    pub fn new(kind: RecordKind, src: u8) -> Self {
        TraceRecord {
            kind,
            src,
            flags: 0,
            bank: 0,
            a: 0,
            b: 0,
            c: 0,
        }
    }

    /// Serializes into exactly [`RECORD_BYTES`] little-endian bytes.
    pub fn encode(&self) -> [u8; RECORD_BYTES] {
        let mut out = [0u8; RECORD_BYTES];
        out[0] = self.kind as u8;
        out[1] = self.src;
        out[2..4].copy_from_slice(&self.flags.to_le_bytes());
        out[4..8].copy_from_slice(&self.bank.to_le_bytes());
        out[8..16].copy_from_slice(&self.a.to_le_bytes());
        out[16..24].copy_from_slice(&self.b.to_le_bytes());
        out[24..32].copy_from_slice(&self.c.to_le_bytes());
        out
    }

    /// Deserializes one record.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadLength`] for a short buffer and
    /// [`Error::InvalidConfig`] for an unknown kind tag.
    pub fn decode(bytes: &[u8]) -> Result<TraceRecord> {
        if bytes.len() < RECORD_BYTES {
            return Err(Error::BadLength {
                got: bytes.len(),
                expected: RECORD_BYTES,
            });
        }
        let kind = RecordKind::from_tag(bytes[0])
            .ok_or_else(|| Error::invalid_config(format!("unknown record kind {}", bytes[0])))?;
        Ok(TraceRecord {
            kind,
            src: bytes[1],
            flags: u16::from_le_bytes([bytes[2], bytes[3]]),
            bank: u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes")),
            a: u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes")),
            b: u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes")),
            c: u64::from_le_bytes(bytes[24..32].try_into().expect("8 bytes")),
        })
    }

    /// Whether this is a command-stream kind (ACT/RD/WR/PRE/REF) that the
    /// `diff` subcommand aligns by default.
    pub fn is_command(&self) -> bool {
        matches!(
            self.kind,
            RecordKind::Act
                | RecordKind::Rd
                | RecordKind::Wr
                | RecordKind::Pre
                | RecordKind::RefIssue
                | RecordKind::RefSkip
        )
    }

    /// `b` reinterpreted as a start timestamp in ns (timing kinds).
    pub fn start_ns(&self) -> f64 {
        f64::from_bits(self.b)
    }

    /// `c` reinterpreted as a finish timestamp in ns (timing kinds).
    pub fn finish_ns(&self) -> f64 {
        f64::from_bits(self.c)
    }
}

/// The engine configuration carried by a [`RecordKind::Meta`] record,
/// decoded for replay and inspection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineMeta {
    /// Engine instance id (the `src` of its records).
    pub engine: u8,
    /// Policy tag (`POLICY_*`).
    pub policy: u16,
    /// Banks per chip.
    pub num_banks: u32,
    /// Chips in the rank.
    pub num_chips: u64,
    /// Rows covered by one AR command, per chip.
    pub ar_rows: u64,
    /// AR sets per bank (commands per bank per retention window).
    pub ar_sets_per_bank: u64,
}

impl EngineMeta {
    /// Builds the meta record announcing this engine.
    pub fn to_record(self) -> TraceRecord {
        TraceRecord {
            kind: RecordKind::Meta,
            src: self.engine,
            flags: self.policy & POLICY_MASK,
            bank: self.num_banks,
            a: self.num_chips,
            b: self.ar_rows,
            c: self.ar_sets_per_bank,
        }
    }

    /// Decodes a [`RecordKind::Meta`] record; `None` for other kinds.
    pub fn from_record(r: &TraceRecord) -> Option<EngineMeta> {
        if r.kind != RecordKind::Meta {
            return None;
        }
        Some(EngineMeta {
            engine: r.src,
            policy: r.flags & POLICY_MASK,
            num_banks: r.bank,
            num_chips: r.a,
            ar_rows: r.b,
            ar_sets_per_bank: r.c,
        })
    }

    /// Human-readable policy name.
    pub fn policy_name(&self) -> &'static str {
        match self.policy {
            POLICY_CHARGE_AWARE => "charge_aware",
            POLICY_NAIVE_SRAM => "naive_sram",
            _ => "conventional",
        }
    }
}

/// Serializes the file header.
pub fn encode_header() -> [u8; HEADER_BYTES] {
    let mut out = [0u8; HEADER_BYTES];
    out[..8].copy_from_slice(MAGIC);
    out[8..10].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    out
}

/// Validates a file header.
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] for a short buffer, wrong magic or
/// unsupported version.
pub fn check_header(bytes: &[u8]) -> Result<()> {
    if bytes.len() < HEADER_BYTES {
        return Err(Error::invalid_config("trace shorter than its header"));
    }
    if &bytes[..8] != MAGIC {
        return Err(Error::invalid_config("not a zr-trace file (bad magic)"));
    }
    let version = u16::from_le_bytes([bytes[8], bytes[9]]);
    if version != FORMAT_VERSION {
        return Err(Error::invalid_config(format!(
            "unsupported trace format version {version} (expected {FORMAT_VERSION})"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_round_trips() {
        let rec = TraceRecord {
            kind: RecordKind::RefSkip,
            src: 3,
            flags: FLAG_TRUSTED,
            bank: 7,
            a: 41,
            b: 0,
            c: 8,
        };
        assert_eq!(TraceRecord::decode(&rec.encode()).unwrap(), rec);
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut bytes = TraceRecord::new(RecordKind::Act, 0).encode();
        for tag in [12, 15, 200] {
            bytes[0] = tag;
            assert!(TraceRecord::decode(&bytes).is_err(), "tag {tag}");
        }
    }

    #[test]
    fn short_buffer_rejected() {
        assert!(TraceRecord::decode(&[0u8; 31]).is_err());
    }

    #[test]
    fn kind_names_parse_back() {
        for kind in RecordKind::ALL {
            assert_eq!(RecordKind::parse(kind.name()), Some(kind));
            assert_eq!(RecordKind::from_tag(kind as u8), Some(kind));
        }
        assert_eq!(RecordKind::parse("nope"), None);
    }

    #[test]
    fn meta_round_trips() {
        let meta = EngineMeta {
            engine: 2,
            policy: POLICY_CHARGE_AWARE,
            num_banks: 8,
            num_chips: 8,
            ar_rows: 128,
            ar_sets_per_bank: 8192,
        };
        assert_eq!(EngineMeta::from_record(&meta.to_record()), Some(meta));
        assert_eq!(meta.policy_name(), "charge_aware");
        assert_eq!(
            EngineMeta::from_record(&TraceRecord::new(RecordKind::Act, 0)),
            None
        );
    }

    #[test]
    fn header_checks() {
        let h = encode_header();
        check_header(&h).unwrap();
        assert!(check_header(&h[..4]).is_err());
        let mut bad = h;
        bad[0] = b'X';
        assert!(check_header(&bad).is_err());
        let mut wrong_version = h;
        wrong_version[8] = 99;
        assert!(check_header(&wrong_version).is_err());
    }

    #[test]
    fn timestamps_round_trip_through_bits() {
        let mut rec = TraceRecord::new(RecordKind::Rd, SRC_TIMING);
        rec.b = 123.5f64.to_bits();
        rec.c = 456.25f64.to_bits();
        assert_eq!(rec.start_ns(), 123.5);
        assert_eq!(rec.finish_ns(), 456.25);
        assert!(rec.is_command());
        assert!(!TraceRecord::new(RecordKind::Write, 0).is_command());
    }
}
