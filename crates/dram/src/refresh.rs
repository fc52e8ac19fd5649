//! The charge-aware refresh engine (§IV).
//!
//! The engine models per-bank auto-refresh: within one retention window
//! (tRET) every bank receives `ar_sets_per_bank` AR commands, each covering
//! `ar_rows` refresh steps. At step `n`, chip `c` refreshes the staggered
//! row of §IV-C. Three policies are provided:
//!
//! - [`RefreshPolicy::Conventional`] — refresh every row (the baseline all
//!   figures normalize to);
//! - [`RefreshPolicy::ChargeAware`] — the paper's design: the coarse
//!   access-bit SRAM decides whether the DRAM-resident discharged-status
//!   table may be trusted (§IV-B);
//! - [`RefreshPolicy::NaiveSram`] — the rejected full-SRAM design, kept as
//!   an ablation.
//!
//! # Word-level decisions
//!
//! The engine decides each AR command a packed word at a time, the way the
//! hardware latches one command's status bits as a single batch (§IV-D).
//! `num_chips`, `ar_rows` and `rows_per_bank` are validated powers of two,
//! and a bank holds at least one `num_chips`-row stagger group of at most
//! 64 rows ([`check_stagger_geometry`]), so the rows a command visits on
//! each chip are found with masks and shifts:
//!
//! - with `ar_rows ≥ num_chips` the command's steps cover whole stagger
//!   groups, so every chip refreshes rows `set·ar_rows ..
//!   (set+1)·ar_rows`, each chip in its own rotated order;
//! - with fewer rows per command, chip `c` refreshes a run of `ar_rows`
//!   rows inside the command's group, starting at offset `(c + set·ar_rows)
//!   mod num_chips` and wrapping: the first chip's run rotated by `c`.
//!
//! Each run becomes a mask over the bank's packed charged, status, tracker
//! and spared words. A trusted set skips `popcount(mask & status &
//! !spared)` chip-rows; a scanned set stores `status = !charged & !spared`
//! under the mask. All three policies and [`RefreshEngine::audit_hazards`]
//! use the same masks. The per-row walk these replace is kept under
//! `#[cfg(test)]` as the reference the unit tests compare against, over
//! every policy, stagger skew and AR set size from 1 to 128 rows.

use std::sync::Arc;

use crate::rank::DramRank;
use crate::tracking::{AccessBitTable, DischargedStatusTable, NaiveSramTracker};
use zr_telemetry::{fraction_bounds, Counter, Event, Histogram, Telemetry};
use zr_trace::{
    EngineMeta, RecordKind, TraceRecord, TraceRecorder, FLAG_DISCHARGED, FLAG_TRUSTED,
    POLICY_CHARGE_AWARE, POLICY_CONVENTIONAL, POLICY_NAIVE_SRAM,
};
use zr_types::geometry::{BankId, ChipId, RowIndex};
use zr_types::{Error, Geometry, Result, SystemConfig};
use zr_xray::XrayRecorder;

/// Refresh management policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RefreshPolicy {
    /// Refresh every row of every chip, unconditionally.
    Conventional,
    /// ZERO-REFRESH: skip discharged rows using the split access-bit /
    /// status-table design of §IV-B.
    ChargeAware,
    /// Skip discharged rank-rows using the naive always-current SRAM
    /// mirror (ablation; see
    /// [`NaiveSramTracker`]).
    NaiveSram,
}

impl RefreshPolicy {
    /// Stable lowercase name used in telemetry events and reports.
    pub fn name(&self) -> &'static str {
        match self {
            RefreshPolicy::Conventional => "conventional",
            RefreshPolicy::ChargeAware => "charge_aware",
            RefreshPolicy::NaiveSram => "naive_sram",
        }
    }

    /// The flight-recorder policy tag carried by trace meta records.
    fn trace_tag(&self) -> u16 {
        match self {
            RefreshPolicy::Conventional => POLICY_CONVENTIONAL,
            RefreshPolicy::ChargeAware => POLICY_CHARGE_AWARE,
            RefreshPolicy::NaiveSram => POLICY_NAIVE_SRAM,
        }
    }
}

/// Pre-resolved `dram.refresh.*` metric handles (lookups happen once per
/// engine). The five totals are published once per window, or once per
/// standalone command, not per AR command of a window.
#[derive(Debug, Clone)]
struct RefreshMetrics {
    rows_refreshed: Counter,
    rows_skipped: Counter,
    ar_commands: Counter,
    table_reads: Counter,
    table_writes: Counter,
    windows: Counter,
    window_skip_fraction: Histogram,
}

impl RefreshMetrics {
    fn new(telemetry: &Telemetry) -> Self {
        RefreshMetrics {
            rows_refreshed: telemetry.counter("dram.refresh.rows_refreshed"),
            rows_skipped: telemetry.counter("dram.refresh.rows_skipped"),
            ar_commands: telemetry.counter("dram.refresh.ar_commands"),
            table_reads: telemetry.counter("dram.refresh.table_reads"),
            table_writes: telemetry.counter("dram.refresh.table_writes"),
            windows: telemetry.counter("dram.refresh.windows"),
            window_skip_fraction: telemetry
                .histogram("dram.refresh.window_skip_fraction", &fraction_bounds()),
        }
    }
}

/// Outcome of one per-bank auto-refresh command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArOutcome {
    /// Chip-rows actually refreshed by this command.
    pub rows_refreshed: u64,
    /// Chip-rows whose refresh was skipped.
    pub rows_skipped: u64,
    /// Batched discharged-status table reads (one per chip at most).
    pub table_reads: u64,
    /// Batched discharged-status table writes (one per chip at most).
    pub table_writes: u64,
}

/// Aggregate statistics over one or more refresh windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WindowStats {
    /// Chip-rows refreshed.
    pub rows_refreshed: u64,
    /// Chip-rows skipped.
    pub rows_skipped: u64,
    /// Auto-refresh commands processed.
    pub ar_commands: u64,
    /// Batched status-table reads from DRAM.
    pub table_reads: u64,
    /// Batched status-table writes to DRAM.
    pub table_writes: u64,
}

impl WindowStats {
    /// The statistics of the one AR command with outcome `out`.
    fn of_command(out: &ArOutcome) -> Self {
        WindowStats {
            rows_refreshed: out.rows_refreshed,
            rows_skipped: out.rows_skipped,
            ar_commands: 1,
            table_reads: out.table_reads,
            table_writes: out.table_writes,
        }
    }

    /// Fraction of chip-row refreshes skipped (0.0 when nothing was
    /// processed).
    ///
    /// # Examples
    ///
    /// ```
    /// let stats = zr_dram::WindowStats {
    ///     rows_refreshed: 25,
    ///     rows_skipped: 75,
    ///     ..Default::default()
    /// };
    /// assert!((stats.skip_fraction() - 0.75).abs() < 1e-12);
    /// ```
    pub fn skip_fraction(&self) -> f64 {
        let total = self.rows_refreshed + self.rows_skipped;
        if total == 0 {
            0.0
        } else {
            self.rows_skipped as f64 / total as f64
        }
    }

    /// Normalized refresh operations relative to the conventional
    /// baseline: `1.0 - skip_fraction()`.
    pub fn normalized_refreshes(&self) -> f64 {
        1.0 - self.skip_fraction()
    }

    /// Accumulates another window's statistics into this one.
    pub fn accumulate(&mut self, other: &WindowStats) {
        self.rows_refreshed += other.rows_refreshed;
        self.rows_skipped += other.rows_skipped;
        self.ar_commands += other.ar_commands;
        self.table_reads += other.table_reads;
        self.table_writes += other.table_writes;
    }
}

/// The chip-rows one AR command refreshes, as per-chip row runs (see the
/// [module docs](self)).
#[derive(Debug, Clone, Copy)]
struct SetRows {
    /// First refresh step of the command (`set · ar_rows`).
    first: u64,
    ar_rows: u64,
    num_chips: u64,
    /// The conformance fault injection ([`RefreshEngine::set_stagger_skew`]).
    skew: u64,
}

impl SetRows {
    /// Calls `f(chip, word, mask)` for every packed word the command
    /// touches on every chip, with `mask` selecting the command's rows of
    /// that chip in row word `word` (row `r` is bit `r % 64` of word
    /// `r / 64`). Returns the total number of bits set in the words `f`
    /// returns, each of which must lie inside its `mask`.
    #[inline]
    fn count_words(&self, mut f: impl FnMut(ChipId, usize, u64) -> u64) -> u64 {
        let (k, ar) = (self.num_chips, self.ar_rows);
        let first_word = (self.first / 64) as usize;
        if ar >= k {
            // Whole stagger groups: every chip covers the same rows, a
            // run that starts word-aligned once it spans whole words.
            let (width, offset) = (ar.min(64), self.first % 64);
            let mask = (u64::MAX >> (64 - width)) << offset;
            let mut tally = FieldTally::new(width);
            for word in first_word..first_word + (ar / 64).max(1) as usize {
                for chip in 0..k as usize {
                    tally.add(f(ChipId(chip), word, mask) >> offset);
                }
            }
            tally.total()
        } else {
            // One group of k ≤ 64 rows, inside one word: chip c's run is
            // `ar` rows from offset (c + first + skew) mod k, wrapping
            // within the group — the first run rotated by c.
            let group_mask = u64::MAX >> (64 - k);
            let offset = (self.first % 64) & !(k - 1);
            let run = (1u64 << ar) - 1;
            let mut tally = FieldTally::new(k);
            for chip in 0..k {
                let r = chip.wrapping_add(self.first).wrapping_add(self.skew) & (k - 1);
                let rotated =
                    (run << r | run.checked_shr((k - r) as u32).unwrap_or(0)) & group_mask;
                tally.add(f(ChipId(chip as usize), first_word, rotated << offset) >> offset);
            }
            tally.total()
        }
    }
}

/// Sums the set bits of many fields of one power-of-two width, packing
/// `64 / width` fields into each `count_ones` — a dozen-instruction
/// bit-twiddling sequence on targets without a population-count
/// instruction, such as baseline x86-64.
struct FieldTally {
    width: u64,
    /// Bit position of the next field in `packed`.
    next: u64,
    packed: u64,
    total: u64,
}

impl FieldTally {
    fn new(width: u64) -> Self {
        FieldTally {
            width,
            next: 0,
            packed: 0,
            total: 0,
        }
    }

    /// Adds one field (its bits must lie below `width`).
    #[inline]
    fn add(&mut self, field: u64) {
        self.packed |= field << self.next;
        self.next += self.width;
        if self.next == 64 {
            self.total += u64::from(self.packed.count_ones());
            (self.packed, self.next) = (0, 0);
        }
    }

    fn total(&self) -> u64 {
        self.total + u64::from(self.packed.count_ones())
    }
}

/// Checks that a geometry leaves room for the §IV-C stagger: its groups
/// span `num_chips` rows, so a bank with fewer rows than chips has no
/// staggered schedule (a write's group would reach past the bank), and
/// the word-level engine keeps one group inside one 64-row status word.
///
/// # Errors
///
/// [`Error::InvalidConfig`] for more than 64 chips, or naming
/// `row_bytes` and the capacity when a bank holds fewer rows than the
/// rank has chips.
pub fn check_stagger_geometry(geom: &Geometry) -> Result<()> {
    if geom.num_chips() > 64 {
        return Err(Error::invalid_config(format!(
            "num_chips {} exceeds the 64 chips one refresh stagger group can span",
            geom.num_chips()
        )));
    }
    if geom.rows_per_bank() < geom.num_chips() as u64 {
        return Err(Error::invalid_config(format!(
            "row_bytes {} at capacity {} bytes over {} banks leaves {} rows per bank, \
             fewer than the {} chips the refresh stagger rotates over",
            geom.row_bytes(),
            geom.capacity_bytes(),
            geom.num_banks(),
            geom.rows_per_bank(),
            geom.num_chips()
        )));
    }
    Ok(())
}

/// The refresh state machine for one rank.
///
/// The engine must observe every memory write through
/// [`RefreshEngine::note_write`] — that is what keeps the access-bit table
/// (and the naive tracker) coherent with the stored contents. The
/// higher-level memory controller in `zr-memctrl` wires this up.
#[derive(Debug, Clone)]
pub struct RefreshEngine {
    geom: Geometry,
    policy: RefreshPolicy,
    access: AccessBitTable,
    status: DischargedStatusTable,
    naive: Option<NaiveSramTracker>,
    totals: WindowStats,
    telemetry: Arc<Telemetry>,
    metrics: RefreshMetrics,
    trace: Arc<TraceRecorder>,
    xray: Arc<XrayRecorder>,
    /// This engine's index in the xray recorder (0 when the capture is
    /// off; the hooks are no-ops then, so the placeholder never binds).
    xray_engine: u32,
    /// Flight-recorder source id, allocated by the engine's recorder; all
    /// this engine's records carry it (clones share the id).
    engine_id: u8,
    /// Windows completed, for `WindowStart`/`WindowEnd` records.
    window_index: u64,
    /// Conformance fault injection: additional offset applied to the
    /// staggered-row schedule (see [`Self::set_stagger_skew`]). Zero in
    /// normal operation.
    stagger_skew: u64,
    /// Scratch of a traced scan: the chip-rows it flips, as (refresh
    /// step, chip, row). Empty between commands.
    flipped: Vec<(u64, usize, u64)>,
}

impl RefreshEngine {
    /// Builds a refresh engine for `config` under `policy`, issuing the
    /// paper's per-bank AR commands (§IV-A).
    ///
    /// # Errors
    ///
    /// Returns [`zr_types::Error::InvalidConfig`] if the configuration
    /// does not validate, or if a bank holds fewer rows than the rank has
    /// chips ([`check_stagger_geometry`]).
    pub fn new(config: &SystemConfig, policy: RefreshPolicy) -> Result<Self> {
        let geom = Geometry::new(config)?;
        check_stagger_geometry(&geom)?;
        let naive = match policy {
            RefreshPolicy::NaiveSram => Some(NaiveSramTracker::new(&geom)),
            _ => None,
        };
        let telemetry = Telemetry::current();
        let trace = TraceRecorder::current();
        let mut engine = RefreshEngine {
            access: AccessBitTable::new(&geom),
            status: DischargedStatusTable::new(&geom),
            naive,
            geom,
            policy,
            totals: WindowStats::default(),
            metrics: RefreshMetrics::new(&telemetry),
            telemetry,
            engine_id: trace.next_engine_id(),
            trace,
            xray: XrayRecorder::current(),
            xray_engine: 0,
            window_index: 0,
            stagger_skew: 0,
            flipped: Vec::new(),
        };
        engine.export_table_sizes();
        engine.announce_trace();
        engine.xray_engine = engine.announce_xray();
        Ok(engine)
    }

    /// The flight-recorder source id of this engine's records.
    pub fn trace_engine_id(&self) -> u8 {
        self.engine_id
    }

    /// A copy of this engine that records as a separate engine: it takes
    /// a fresh trace engine id and announces itself to the trace and xray
    /// recorders exactly as construction does, under the current scope
    /// label. (A plain clone shares the id, and its records would merge
    /// into this engine's stream.)
    ///
    /// Only an engine that has not run a refresh command may be forked.
    /// Replay starts each engine's shadow model from power-up, with every
    /// access bit set; writes only set bits, so before the first command
    /// the copied table is exactly that power-up state. A later fork
    /// would carry cleared bits the shadow model never saw.
    pub fn fork(&self) -> RefreshEngine {
        debug_assert_eq!(
            self.totals,
            WindowStats::default(),
            "an engine can only be forked before its first refresh command"
        );
        let mut engine = self.clone();
        engine.engine_id = engine.trace.next_engine_id();
        engine.announce_trace();
        engine.xray_engine = engine.announce_xray();
        engine
    }

    /// Registers this engine with its xray recorder and returns the
    /// per-recorder engine index. The label is the telemetry scope path
    /// at construction (e.g. `fig14_refresh_reduction/mcf`), which both
    /// the serial and the pooled sweep paths establish before building
    /// the system — engine indices are per-recorder (pool workers start
    /// at 0 and renumber on absorb), so captures stay byte-identical at
    /// any thread count.
    fn announce_xray(&self) -> u32 {
        if !self.xray.is_active() {
            return 0;
        }
        let label = Telemetry::current_scope_path().unwrap_or_else(|| "engine".to_string());
        self.xray.announce_engine(
            &label,
            self.policy.name(),
            self.geom.num_banks() as u32,
            self.geom.ar_sets_per_bank(),
        )
    }

    /// Fault injection for the conformance harness: offsets the §IV-C
    /// staggered-row schedule by `skew` positions within each chip group,
    /// i.e. step `n` on chip `c` refreshes row `k·⌊n/k⌋ + (c+n+skew) mod k`
    /// instead of the correct `k·⌊n/k⌋ + (c+n) mod k`. A non-zero skew
    /// still covers every chip-row each window (the schedule stays a
    /// permutation), but pairs chips with the wrong rows — exactly the
    /// class of off-by-one a differential oracle must catch. Never set
    /// this outside conformance tests.
    pub fn set_stagger_skew(&mut self, skew: u64) {
        self.stagger_skew = skew;
    }

    /// The rows AR set `set` covers on each chip.
    fn set_rows(&self, set: u64) -> SetRows {
        SetRows {
            first: set << self.geom.ar_rows().trailing_zeros(),
            ar_rows: self.geom.ar_rows(),
            num_chips: self.geom.num_chips() as u64,
            skew: self.stagger_skew,
        }
    }

    /// Emits the meta record registering this engine in the trace.
    fn announce_trace(&self) {
        if !self.trace.is_active() {
            return;
        }
        self.trace.record(
            EngineMeta {
                engine: self.engine_id,
                policy: self.policy.trace_tag(),
                num_banks: self.geom.num_banks() as u32,
                num_chips: self.geom.num_chips() as u64,
                ar_rows: self.geom.ar_rows(),
                ar_sets_per_bank: self.geom.ar_sets_per_bank(),
            }
            .to_record(),
        );
    }

    /// Publishes the (static) tracking-table sizes as gauges.
    fn export_table_sizes(&self) {
        self.telemetry
            .gauge("dram.tracking.access_bit_table_bytes")
            .set(self.access.size_bytes() as f64);
        self.telemetry
            .gauge("dram.tracking.status_table_bits")
            .set(self.status.bit_count() as f64);
        if let Some(naive) = &self.naive {
            self.telemetry
                .gauge("dram.tracking.naive_sram_bytes")
                .set(naive.size_bytes() as f64);
        }
    }

    /// The policy this engine runs.
    pub fn policy(&self) -> RefreshPolicy {
        self.policy
    }

    /// The geometry this engine was built for.
    pub fn geometry(&self) -> &Geometry {
        &self.geom
    }

    /// Accumulated statistics since construction.
    pub fn totals(&self) -> WindowStats {
        self.totals
    }

    /// Audits the discharged-status table against the rank's actual
    /// contents: counts chip-rows the table marks discharged (and whose
    /// AR set's access bit is clear, so the next window would trust the
    /// entry and skip) that are in fact charged — each one is a latent
    /// data-loss hazard.
    ///
    /// Under the engine's contract (every write reported through
    /// [`Self::note_write`]) the count is always zero; failure-injection
    /// tests use this to show the access-bit discipline is what protects
    /// integrity.
    pub fn audit_hazards(&self, rank: &DramRank) -> u64 {
        if self.policy != RefreshPolicy::ChargeAware {
            return 0;
        }
        let wpb = self.status.words_per_bank();
        let mut hazards = 0;
        for set in 0..self.geom.ar_sets_per_bank() {
            let rows = self.set_rows(set);
            for bank in 0..self.geom.num_banks() {
                let bank = BankId(bank);
                if self.access.is_written(bank, set) {
                    continue; // next window rescans this set: safe
                }
                let (bits, status) = (rank.bank_bits(bank), self.status.bank_words(bank));
                hazards += rows.count_words(|chip, word, mask| {
                    let promised = mask & status[chip.0 * wpb + word] & !bits.spared(word);
                    bits.charged(chip, word, promised)
                });
            }
        }
        hazards
    }

    /// Observes a memory write to (`bank`, `row`). Must be called for
    /// every write so the tracking structures stay coherent.
    ///
    /// For the charge-aware policy this sets the access bits of every AR
    /// set whose staggered steps touch the rank-row (§IV-B); a rank-row's
    /// chip-rows span `num_chips` consecutive refresh steps, which may
    /// straddle two AR sets.
    pub fn note_write(&mut self, rank: &DramRank, bank: BankId, row: RowIndex) {
        if self.trace.is_active() {
            let mut rec = TraceRecord::new(RecordKind::Write, self.engine_id);
            rec.bank = bank.0 as u32;
            rec.a = row.0;
            self.trace.record(rec);
        }
        match self.policy {
            RefreshPolicy::Conventional => {}
            RefreshPolicy::ChargeAware => {
                let k = self.geom.num_chips() as u64;
                let shift = self.geom.ar_rows().trailing_zeros();
                let first_step = row.0 & !(k - 1);
                self.access.mark_sets_written(
                    bank,
                    first_step >> shift,
                    (first_step + k - 1) >> shift,
                );
            }
            RefreshPolicy::NaiveSram => {
                let discharged = (0..self.geom.num_chips())
                    .all(|c| rank.chip_row_is_discharged(ChipId(c), bank, row));
                self.naive
                    .as_mut()
                    .expect("naive policy has tracker")
                    .record_write(bank, row, discharged);
            }
        }
    }

    /// Processes one per-bank auto-refresh command covering AR set `set`
    /// of `bank`.
    ///
    /// # Panics
    ///
    /// Panics if `bank` or `set` are out of range, or (in debug builds) if
    /// the skip logic would skip a charged row — the data-integrity
    /// invariant of the design.
    pub fn process_ar(&mut self, rank: &DramRank, bank: BankId, set: u64) -> ArOutcome {
        let out = self.ar_for_bank(rank, bank, set);
        let stats = self.account(&out);
        self.publish(&stats);
        out
    }

    /// Adds one AR command's outcome to the engine totals and returns it
    /// as statistics.
    fn account(&mut self, out: &ArOutcome) -> WindowStats {
        let stats = WindowStats::of_command(out);
        self.totals.accumulate(&stats);
        stats
    }

    /// Publishes statistics to the `dram.refresh.*` counters.
    fn publish(&self, stats: &WindowStats) {
        self.metrics.rows_refreshed.add(stats.rows_refreshed);
        self.metrics.rows_skipped.add(stats.rows_skipped);
        self.metrics.ar_commands.add(stats.ar_commands);
        self.metrics.table_reads.add(stats.table_reads);
        self.metrics.table_writes.add(stats.table_writes);
    }

    fn ar_for_bank(&mut self, rank: &DramRank, bank: BankId, set: u64) -> ArOutcome {
        assert!(set < self.geom.ar_sets_per_bank(), "AR set out of range");
        let chips = self.geom.num_chips() as u64;
        let per_command = self.geom.ar_rows() * chips;
        let rows = self.set_rows(set);
        let bits = rank.bank_bits(bank);
        let wpb = self.status.words_per_bank();
        let mut out = ArOutcome::default();
        let tracing = self.trace.is_active();
        let xraying = self.xray.is_active();
        // Discharged chip-rows found by an untrusted scan; recorded in
        // the RefIssue record so replay can verify later trusted skips.
        let mut scan_discharged = 0u64;
        // Discharged chip-rows this AR command saw, for the xray series:
        // the scan count on untrusted sets, the skip count on trusted
        // ones (skips are exactly the discharged rows there).
        let mut xray_discharged = 0u64;

        match self.policy {
            RefreshPolicy::Conventional => {
                out.rows_refreshed = per_command;
            }
            RefreshPolicy::ChargeAware => {
                let trusted = !self.access.is_written(bank, set);
                if !trusted {
                    // Refresh everything; while each row is open for
                    // refresh, recompute its discharged status for free and
                    // write the batch back to the in-DRAM table once per
                    // chip (§IV-B). Spared rows are never recorded
                    // discharged, and only unspared rows are sensed.
                    let status = self.status.bank_words_mut(bank);
                    let mut scan = |chip: ChipId, word: usize, mask: u64| {
                        let sensed = mask & !bits.spared(word);
                        let discharged = sensed & !bits.charged(chip, word, sensed);
                        let stored = &mut status[chip.0 * wpb + word];
                        let flips = (*stored ^ discharged) & mask;
                        *stored = (*stored & !mask) | discharged;
                        (discharged, flips)
                    };
                    scan_discharged = if tracing {
                        // Collect each flipped chip-row with the step that
                        // visits it, for the ChargeTransition records.
                        let (geom, flipped) = (&self.geom, &mut self.flipped);
                        let skew = self.stagger_skew as usize;
                        rows.count_words(|chip, word, mask| {
                            let (discharged, mut flips) = scan(chip, word, mask);
                            while flips != 0 {
                                let row = word as u64 * 64 + u64::from(flips.trailing_zeros());
                                let skewed = ChipId(chip.0.wrapping_add(skew));
                                flipped.push((
                                    geom.staggered_step(RowIndex(row), skewed),
                                    chip.0,
                                    row,
                                ));
                                flips &= flips - 1;
                            }
                            discharged
                        })
                    } else {
                        rows.count_words(|chip, word, mask| scan(chip, word, mask).0)
                    };
                    if tracing {
                        self.record_transitions(bank);
                    }
                    out.rows_refreshed = per_command;
                    for _ in 0..chips {
                        self.status.note_write();
                    }
                    out.table_writes = chips;
                    self.access.clear(bank, set);
                } else {
                    // Trust the stored status bits: one batched read per
                    // chip, then skip the discharged rows.
                    for _ in 0..chips {
                        self.status.note_read();
                    }
                    out.table_reads = chips;
                    let status = self.status.bank_words(bank);
                    out.rows_skipped = rows.count_words(|chip, word, mask| {
                        let skip = mask & status[chip.0 * wpb + word] & !bits.spared(word);
                        debug_assert_eq!(
                            bits.charged(chip, word, skip),
                            0,
                            "integrity violation: skipping charged row"
                        );
                        skip
                    });
                    out.rows_refreshed = per_command - out.rows_skipped;
                }
                xray_discharged = if trusted {
                    out.rows_skipped
                } else {
                    scan_discharged
                };
                self.telemetry.emit(|| Event::SkipDecision {
                    bank: bank.0,
                    set,
                    trusted,
                    rows_refreshed: out.rows_refreshed,
                    rows_skipped: out.rows_skipped,
                });
                if tracing {
                    let kind = if trusted {
                        RecordKind::RefSkip
                    } else {
                        RecordKind::RefIssue
                    };
                    let mut rec = TraceRecord::new(kind, self.engine_id);
                    rec.flags = if trusted { FLAG_TRUSTED } else { 0 };
                    rec.bank = bank.0 as u32;
                    rec.a = set;
                    rec.b = out.rows_refreshed;
                    rec.c = if trusted {
                        out.rows_skipped
                    } else {
                        scan_discharged
                    };
                    self.trace.record(rec);
                }
            }
            RefreshPolicy::NaiveSram => {
                let naive = self.naive.as_ref().expect("naive policy has tracker");
                let tracked = naive.bank_words(bank);
                out.rows_skipped = rows.count_words(|chip, word, mask| {
                    let skip = mask & tracked[word] & !bits.spared(word);
                    debug_assert_eq!(
                        bits.charged(chip, word, skip),
                        0,
                        "integrity violation: naive tracker skipped charged row"
                    );
                    skip
                });
                out.rows_refreshed = per_command - out.rows_skipped;
                // The tracker only skips rows it knows are discharged.
                xray_discharged = out.rows_skipped;
            }
        }

        if tracing && self.policy != RefreshPolicy::ChargeAware {
            // Non-charge-aware engines still leave a REF stream for
            // `zr-trace diff`; replay does not verify them.
            let kind = if out.rows_skipped > 0 {
                RecordKind::RefSkip
            } else {
                RecordKind::RefIssue
            };
            let mut rec = TraceRecord::new(kind, self.engine_id);
            rec.bank = bank.0 as u32;
            rec.a = set;
            rec.b = out.rows_refreshed;
            rec.c = out.rows_skipped;
            self.trace.record(rec);
        }

        if xraying {
            self.xray.record_ar(
                self.xray_engine,
                self.window_index,
                bank.0 as u32,
                set,
                out.rows_refreshed,
                out.rows_skipped,
                xray_discharged,
            );
        }

        out
    }

    /// Records a scan's status flips, one `ChargeTransition` per flipped
    /// chip-row, in the order the refresh steps visit them (step-major,
    /// chip-minor), and empties the scratch list.
    fn record_transitions(&mut self, bank: BankId) {
        self.flipped.sort_unstable();
        for &(_, chip, row) in &self.flipped {
            let discharged = self.status.get(ChipId(chip), bank, RowIndex(row));
            let mut rec = TraceRecord::new(RecordKind::ChargeTransition, self.engine_id);
            rec.flags = if discharged { FLAG_DISCHARGED } else { 0 };
            rec.bank = bank.0 as u32;
            rec.a = row;
            rec.b = chip as u64;
            self.trace.record(rec);
        }
        self.flipped.clear();
    }

    /// Runs one full retention window: every AR set of every bank once,
    /// one per-bank command each. Returns the statistics of just this window, which are published to
    /// the `dram.refresh.*` counters once, at the window's end. The loop
    /// is allocation-free.
    pub fn run_window(&mut self, rank: &mut DramRank) -> WindowStats {
        let span = self.telemetry.span("refresh.window");
        if self.trace.is_active() {
            let mut rec = TraceRecord::new(RecordKind::WindowStart, self.engine_id);
            rec.a = self.window_index;
            self.trace.record(rec);
        }
        let before = self.totals;
        for set in 0..self.geom.ar_sets_per_bank() {
            for bank in 0..self.geom.num_banks() {
                let out = self.ar_for_bank(rank, BankId(bank), set);
                self.account(&out);
            }
        }
        let mut window = self.totals;
        window.rows_refreshed -= before.rows_refreshed;
        window.rows_skipped -= before.rows_skipped;
        window.ar_commands -= before.ar_commands;
        window.table_reads -= before.table_reads;
        window.table_writes -= before.table_writes;
        self.publish(&window);
        self.metrics.windows.inc();
        self.metrics
            .window_skip_fraction
            .observe(window.skip_fraction());
        self.telemetry.emit(|| Event::RefreshWindow {
            policy: self.policy.name(),
            rows_refreshed: window.rows_refreshed,
            rows_skipped: window.rows_skipped,
            ar_commands: window.ar_commands,
            table_reads: window.table_reads,
            table_writes: window.table_writes,
            skip_fraction: window.skip_fraction(),
        });
        if self.trace.is_active() {
            let mut rec = TraceRecord::new(RecordKind::WindowEnd, self.engine_id);
            rec.a = self.window_index;
            rec.b = window.rows_refreshed;
            rec.c = window.rows_skipped;
            self.trace.record(rec);
        }
        if self.xray.is_active() {
            // End-of-window charge state per bank: how many chip rows sit
            // fully discharged right now. The scan is only paid with the
            // capture on — the off path stays allocation-free and
            // byte-identical.
            for bank in 0..self.geom.num_banks() {
                let discharged = rank.count_discharged_chip_rows_in_bank(BankId(bank));
                self.xray.record_window_state(
                    self.xray_engine,
                    self.window_index,
                    bank as u32,
                    discharged,
                );
            }
        }
        self.window_index += 1;
        drop(span);
        window
    }
}

/// The per-row walk the word-level engine replaced, kept as the
/// reference its unit tests compare against: every chip-row of a command
/// visited one at a time through the §IV-C formula with divisions, one
/// status bit and one discharge probe each. Observability hooks are left
/// out; decisions, table traffic and state updates are the originals.
#[cfg(test)]
mod per_row {
    use super::*;
    use std::ops::Range;

    impl RefreshEngine {
        /// The staggered schedule as the paper's formula, with divisions.
        fn sched_row_per_row(&self, n: u64, chip: ChipId) -> RowIndex {
            let k = self.geom.num_chips() as u64;
            RowIndex(k * (n / k) + (chip.0 as u64 + n + self.stagger_skew) % k)
        }

        pub(super) fn note_write_per_row(&mut self, rank: &DramRank, bank: BankId, row: RowIndex) {
            match self.policy {
                RefreshPolicy::Conventional => {}
                RefreshPolicy::ChargeAware => {
                    let k = self.geom.num_chips() as u64;
                    let first_step = (row.0 / k) * k;
                    let ar = self.geom.ar_rows();
                    for set in first_step / ar..=(first_step + k - 1) / ar {
                        if !self.access.is_written(bank, set) {
                            self.access.mark_written(bank, set);
                        }
                    }
                }
                RefreshPolicy::NaiveSram => {
                    let discharged = (0..self.geom.num_chips())
                        .all(|c| rank.chip_row_is_discharged(ChipId(c), bank, row));
                    self.naive
                        .as_mut()
                        .expect("naive policy has tracker")
                        .record_write(bank, row, discharged);
                }
            }
        }

        fn ar_for_bank_per_row(&mut self, rank: &DramRank, bank: BankId, set: u64) -> ArOutcome {
            assert!(set < self.geom.ar_sets_per_bank(), "AR set out of range");
            let ar = self.geom.ar_rows();
            let chips = self.geom.num_chips();
            let first = set * ar;
            let mut out = ArOutcome::default();
            match self.policy {
                RefreshPolicy::Conventional => {
                    out.rows_refreshed = ar * chips as u64;
                }
                RefreshPolicy::ChargeAware => {
                    if self.access.is_written(bank, set) {
                        for n in first..first + ar {
                            for c in 0..chips {
                                let row = self.sched_row_per_row(n, ChipId(c));
                                out.rows_refreshed += 1;
                                let discharged = !rank.is_spared(bank, row)
                                    && rank.chip_row_is_discharged(ChipId(c), bank, row);
                                self.status.set(ChipId(c), bank, row, discharged);
                            }
                        }
                        for _ in 0..chips {
                            self.status.note_write();
                        }
                        out.table_writes = chips as u64;
                        self.access.clear(bank, set);
                    } else {
                        for _ in 0..chips {
                            self.status.note_read();
                        }
                        out.table_reads = chips as u64;
                        for n in first..first + ar {
                            for c in 0..chips {
                                let row = self.sched_row_per_row(n, ChipId(c));
                                if !rank.is_spared(bank, row)
                                    && self.status.get(ChipId(c), bank, row)
                                {
                                    assert!(
                                        rank.chip_row_is_discharged(ChipId(c), bank, row),
                                        "integrity violation: skipping charged row"
                                    );
                                    out.rows_skipped += 1;
                                } else {
                                    out.rows_refreshed += 1;
                                }
                            }
                        }
                    }
                }
                RefreshPolicy::NaiveSram => {
                    let naive = self.naive.as_ref().expect("naive policy has tracker");
                    for n in first..first + ar {
                        for c in 0..chips {
                            let row = self.sched_row_per_row(n, ChipId(c));
                            if !rank.is_spared(bank, row) && naive.is_discharged(bank, row) {
                                assert!(
                                    rank.chip_row_is_discharged(ChipId(c), bank, row),
                                    "integrity violation: naive tracker skipped charged row"
                                );
                                out.rows_skipped += 1;
                            } else {
                                out.rows_refreshed += 1;
                            }
                        }
                    }
                }
            }
            out
        }

        pub(super) fn process_ar_per_row(
            &mut self,
            rank: &DramRank,
            bank: BankId,
            set: u64,
        ) -> ArOutcome {
            let out = self.ar_for_bank_per_row(rank, bank, set);
            self.account(&out);
            out
        }

        pub(super) fn run_window_per_row(&mut self, rank: &DramRank) -> WindowStats {
            let before = self.totals;
            for set in 0..self.geom.ar_sets_per_bank() {
                for bank in 0..self.geom.num_banks() {
                    self.process_ar_per_row(rank, BankId(bank), set);
                }
            }
            let mut window = self.totals;
            window.rows_refreshed -= before.rows_refreshed;
            window.rows_skipped -= before.rows_skipped;
            window.ar_commands -= before.ar_commands;
            window.table_reads -= before.table_reads;
            window.table_writes -= before.table_writes;
            window
        }

        /// The hazard audit over AR sets `sets` only.
        pub(super) fn audit_hazards_per_row(&self, rank: &DramRank, sets: Range<u64>) -> u64 {
            if self.policy != RefreshPolicy::ChargeAware {
                return 0;
            }
            let mut hazards = 0;
            for set in sets {
                for bank in 0..self.geom.num_banks() {
                    let bank = BankId(bank);
                    if self.access.is_written(bank, set) {
                        continue;
                    }
                    for n in set * self.geom.ar_rows()..(set + 1) * self.geom.ar_rows() {
                        for c in 0..self.geom.num_chips() {
                            let row = self.sched_row_per_row(n, ChipId(c));
                            if self.status.get(ChipId(c), bank, row)
                                && !rank.is_spared(bank, row)
                                && !rank.chip_row_is_discharged(ChipId(c), bank, row)
                            {
                                hazards += 1;
                            }
                        }
                    }
                }
            }
            hazards
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn system() -> (SystemConfig, DramRank) {
        let cfg = SystemConfig::small_test();
        let rank = DramRank::new(&cfg).unwrap();
        (cfg, rank)
    }

    fn total_rows(rank: &DramRank) -> u64 {
        rank.geometry().total_chip_row_refreshes_per_window()
    }

    #[test]
    fn conventional_refreshes_everything() {
        let (cfg, mut rank) = system();
        let mut eng = RefreshEngine::new(&cfg, RefreshPolicy::Conventional).unwrap();
        let w = eng.run_window(&mut rank);
        assert_eq!(w.rows_refreshed, total_rows(&rank));
        assert_eq!(w.rows_skipped, 0);
        assert_eq!(w.ar_commands, rank.geometry().ar_sets_per_bank() * 2);
    }

    #[test]
    fn charge_aware_first_window_scans_then_second_skips_all() {
        let (cfg, mut rank) = system();
        let mut eng = RefreshEngine::new(&cfg, RefreshPolicy::ChargeAware).unwrap();
        // Window 1: access bits start set, everything refreshed + scanned.
        let w1 = eng.run_window(&mut rank);
        assert_eq!(w1.rows_refreshed, total_rows(&rank));
        assert!(w1.table_writes > 0);
        // Window 2: nothing written, everything discharged -> all skipped.
        let w2 = eng.run_window(&mut rank);
        assert_eq!(w2.rows_skipped, total_rows(&rank));
        assert_eq!(w2.rows_refreshed, 0);
        assert!(w2.table_reads > 0);
        assert_eq!(w2.table_writes, 0);
    }

    #[test]
    fn xray_capture_matches_window_totals() {
        let (cfg, mut rank) = system();
        let xray = Arc::new(XrayRecorder::memory_with_cap(16));
        let mut eng = {
            let _xray = XrayRecorder::push_current(Arc::clone(&xray));
            RefreshEngine::new(&cfg, RefreshPolicy::ChargeAware).unwrap()
        };
        let w1 = eng.run_window(&mut rank);
        let w2 = eng.run_window(&mut rank);
        let snap = xray.snapshot();
        assert_eq!(snap.engines.len(), 1);
        let e = &snap.engines[0];
        assert_eq!(e.policy, "charge_aware");
        assert_eq!(e.num_banks, rank.geometry().num_banks() as u32);
        assert_eq!(e.ar_sets_per_bank, rank.geometry().ar_sets_per_bank());
        let (refreshed, skipped) = e.totals();
        assert_eq!(refreshed, w1.rows_refreshed + w2.rows_refreshed);
        assert_eq!(skipped, w1.rows_skipped + w2.rows_skipped);
        // Window 1 scans a fully discharged rank (untrusted), window 2
        // trusts and skips: either way every chip row is discharged.
        let per_window = rank.geometry().total_chip_row_refreshes_per_window();
        let discharged: u64 = e.windows.iter().map(|r| r.discharged).sum();
        assert_eq!(discharged, 2 * per_window);
        // End-of-window bank state was captured for both windows and
        // shows every bank fully discharged.
        assert_eq!(e.bank_discharged.len(), 2 * rank.geometry().num_banks());
        let full_bank = rank.geometry().rows_per_bank() * rank.geometry().num_chips() as u64;
        assert!(e
            .bank_discharged
            .iter()
            .all(|r| r.discharged_rows == full_bank));
    }

    #[test]
    fn fork_takes_a_fresh_trace_id_and_xray_engine() {
        let (cfg, mut rank) = system();
        let trace = Arc::new(TraceRecorder::memory());
        let xray = Arc::new(XrayRecorder::memory_with_cap(16));
        let _trace = TraceRecorder::push_current(Arc::clone(&trace));
        let _xray = XrayRecorder::push_current(Arc::clone(&xray));
        let telemetry = Telemetry::current();
        let _scope = telemetry.scope("fork-test");
        let mut eng = RefreshEngine::new(&cfg, RefreshPolicy::ChargeAware).unwrap();
        // A clone keeps the id; a fork allocates the next one.
        assert_eq!(eng.clone().trace_engine_id(), eng.trace_engine_id());
        let mut fork = eng.fork();
        assert_eq!(eng.trace_engine_id(), 0);
        assert_eq!(fork.trace_engine_id(), 1);
        assert_eq!((eng.xray_engine, fork.xray_engine), (0, 1));
        fork.run_window(&mut rank);
        eng.run_window(&mut rank);
        let records = zr_trace::parse_trace(&trace.take_bytes()).unwrap();
        let metas: Vec<u8> = records
            .iter()
            .filter(|r| r.kind == RecordKind::Meta)
            .map(|r| r.src)
            .collect();
        assert_eq!(metas, [0, 1]);
        // Each engine's window lands in its own xray series, both under
        // the scope the fork was taken in.
        let snap = xray.snapshot();
        assert_eq!(snap.engines.len(), 2);
        let per_window = rank.geometry().total_chip_row_refreshes_per_window();
        for e in &snap.engines {
            assert_eq!(e.label, "fork-test");
            let (refreshed, skipped) = e.totals();
            assert_eq!(refreshed + skipped, per_window);
        }
    }

    #[test]
    fn lib_doc_scenario_skips_everything_immediately() {
        // As in the crate-level example: the run_window of a freshly
        // cleansed rank. Window 1 scans; to match the lib.rs docs we use
        // two windows there. Here: verify the second window's totals.
        let (cfg, mut rank) = system();
        let mut eng = RefreshEngine::new(&cfg, RefreshPolicy::ChargeAware).unwrap();
        eng.run_window(&mut rank);
        let w = eng.run_window(&mut rank);
        assert_eq!(w.skip_fraction(), 1.0);
    }

    #[test]
    fn written_rows_are_refreshed_not_skipped() {
        let (cfg, mut rank) = system();
        let mut eng = RefreshEngine::new(&cfg, RefreshPolicy::ChargeAware).unwrap();
        eng.run_window(&mut rank); // settle
                                   // Charge one row via a write.
        let line = vec![0xABu8; 64];
        rank.write_encoded_line(BankId(0), RowIndex(2), 0, &line)
            .unwrap();
        eng.note_write(&rank, BankId(0), RowIndex(2));
        let w = eng.run_window(&mut rank);
        // The AR sets covering row 2's steps were refreshed in full; with
        // ar_rows == 1 in the small config, a rank-row spans num_chips
        // steps = num_chips AR sets of bank 0.
        let chips = rank.geometry().num_chips() as u64;
        assert_eq!(w.rows_refreshed, chips * chips);
        assert_eq!(w.rows_skipped, total_rows(&rank) - chips * chips);
    }

    #[test]
    fn rewritten_to_zero_rows_skip_again_after_scan() {
        let (cfg, mut rank) = system();
        let mut eng = RefreshEngine::new(&cfg, RefreshPolicy::ChargeAware).unwrap();
        eng.run_window(&mut rank);
        let line = vec![0x55u8; 64];
        rank.write_encoded_line(BankId(1), RowIndex(3), 1, &line)
            .unwrap();
        eng.note_write(&rank, BankId(1), RowIndex(3));
        eng.run_window(&mut rank); // scans, records charged
                                   // Cleanse it (OS dealloc) and note the write-like change.
        rank.cleanse_row(BankId(1), RowIndex(3)).unwrap();
        eng.note_write(&rank, BankId(1), RowIndex(3));
        eng.run_window(&mut rank); // scans, records discharged again
        let w = eng.run_window(&mut rank);
        assert_eq!(w.rows_skipped, total_rows(&rank));
    }

    #[test]
    fn stale_status_never_skips_charged_rows() {
        // A write lands *between* refreshes: the status table still says
        // "discharged", but the access bit forces a full refresh, so the
        // debug integrity assert must not fire.
        let (cfg, mut rank) = system();
        let mut eng = RefreshEngine::new(&cfg, RefreshPolicy::ChargeAware).unwrap();
        eng.run_window(&mut rank);
        let line = vec![0xFFu8; 64]; // charges true-cell row 0
        rank.write_encoded_line(BankId(0), RowIndex(0), 0, &line)
            .unwrap();
        eng.note_write(&rank, BankId(0), RowIndex(0));
        let w = eng.run_window(&mut rank); // would panic on violation
        assert!(w.rows_refreshed >= 8);
    }

    #[test]
    fn spared_rows_always_refreshed() {
        let (cfg, mut rank) = system();
        rank.add_spared_row(BankId(0), RowIndex(1));
        let mut eng = RefreshEngine::new(&cfg, RefreshPolicy::ChargeAware).unwrap();
        eng.run_window(&mut rank);
        let w = eng.run_window(&mut rank);
        // All but the spared row's chip-rows skip; the spared rank-row
        // keeps its num_chips chip-rows refreshed.
        assert_eq!(w.rows_refreshed, rank.geometry().num_chips() as u64);
        assert_eq!(
            w.rows_skipped,
            total_rows(&rank) - rank.geometry().num_chips() as u64
        );
    }

    #[test]
    fn spared_weak_rows_are_never_skipped() {
        // Weak rows spread over both banks: each spared rank-row keeps its
        // chips refreshed, everything else (fully discharged) skips.
        let (cfg, mut rank) = system();
        let weak = [(0, 3), (0, 40), (1, 0), (1, 17), (1, 63)];
        for (bank, row) in weak {
            rank.add_spared_row(BankId(bank), RowIndex(row));
        }
        let mut eng = RefreshEngine::new(&cfg, RefreshPolicy::ChargeAware).unwrap();
        eng.run_window(&mut rank); // scan
        let w = eng.run_window(&mut rank);
        let chips = rank.geometry().num_chips() as u64;
        assert_eq!(w.rows_refreshed, weak.len() as u64 * chips);
    }

    #[test]
    fn naive_policy_skips_without_scan_window() {
        let (cfg, mut rank) = system();
        let mut eng = RefreshEngine::new(&cfg, RefreshPolicy::NaiveSram).unwrap();
        // The naive mirror is accurate from the start: window 1 already
        // skips everything.
        let w = eng.run_window(&mut rank);
        assert_eq!(w.rows_skipped, total_rows(&rank));
        assert_eq!(w.table_reads, 0);
    }

    #[test]
    fn naive_policy_tracks_writes_immediately() {
        let (cfg, mut rank) = system();
        let mut eng = RefreshEngine::new(&cfg, RefreshPolicy::NaiveSram).unwrap();
        let line = vec![1u8; 64];
        rank.write_encoded_line(BankId(0), RowIndex(4), 0, &line)
            .unwrap();
        eng.note_write(&rank, BankId(0), RowIndex(4));
        let w = eng.run_window(&mut rank);
        // Rank-row granularity: all chips of row 4 lose their skip.
        assert_eq!(w.rows_refreshed, rank.geometry().num_chips() as u64);
    }

    #[test]
    fn forced_charge_without_note_write_is_caught_by_scan_policy() {
        // Failure injection: a row becomes charged without a CPU write
        // (e.g. disturbance). The split design only re-checks rows when
        // their set's access bit is set, so the stale skip would be wrong —
        // model VRT-style hazards by requiring force_charge users to mark
        // the set, as a scrubber would.
        let (cfg, mut rank) = system();
        let mut eng = RefreshEngine::new(&cfg, RefreshPolicy::ChargeAware).unwrap();
        eng.run_window(&mut rank);
        rank.force_charge_chip_row(ChipId(0), BankId(0), RowIndex(6))
            .unwrap();
        eng.note_write(&rank, BankId(0), RowIndex(6)); // scrubber notification
        let w = eng.run_window(&mut rank);
        assert!(w.rows_refreshed >= 1);
    }

    #[test]
    fn window_stats_accumulate() {
        let mut a = WindowStats {
            rows_refreshed: 1,
            rows_skipped: 2,
            ar_commands: 3,
            table_reads: 4,
            table_writes: 5,
        };
        a.accumulate(&a.clone());
        assert_eq!(a.rows_refreshed, 2);
        assert_eq!(a.table_writes, 10);
    }

    #[test]
    fn totals_accumulate_across_windows() {
        let (cfg, mut rank) = system();
        let mut eng = RefreshEngine::new(&cfg, RefreshPolicy::Conventional).unwrap();
        eng.run_window(&mut rank);
        eng.run_window(&mut rank);
        assert_eq!(eng.totals().rows_refreshed, 2 * total_rows(&rank));
    }

    #[test]
    fn audit_is_clean_under_the_write_contract() {
        let (cfg, mut rank) = system();
        let mut eng = RefreshEngine::new(&cfg, RefreshPolicy::ChargeAware).unwrap();
        eng.run_window(&mut rank);
        let line = vec![0xEEu8; 64];
        rank.write_encoded_line(BankId(0), RowIndex(1), 0, &line)
            .unwrap();
        eng.note_write(&rank, BankId(0), RowIndex(1));
        assert_eq!(eng.audit_hazards(&rank), 0);
        eng.run_window(&mut rank);
        assert_eq!(eng.audit_hazards(&rank), 0);
    }

    #[test]
    fn audit_detects_unreported_writes() {
        // Failure injection: content changes behind the engine's back
        // (e.g. a buggy controller forgets note_write). The audit must
        // flag the stale skip promises.
        let (cfg, mut rank) = system();
        let mut eng = RefreshEngine::new(&cfg, RefreshPolicy::ChargeAware).unwrap();
        eng.run_window(&mut rank); // everything scanned discharged
        let line = vec![0xEEu8; 64]; // charges true-cell row 1 segments
        rank.write_encoded_line(BankId(0), RowIndex(1), 0, &line)
            .unwrap();
        // note_write deliberately omitted.
        assert!(eng.audit_hazards(&rank) > 0);
    }

    #[test]
    fn banks_with_fewer_rows_than_chips_are_rejected() {
        // 1 MiB over 8 banks of 64 KiB rows: 2 rows per bank, 8 chips.
        let mut cfg = SystemConfig::paper_default();
        cfg.dram.capacity_bytes = 1 << 20;
        cfg.dram.row_bytes = 65536;
        cfg.dram.cell_block_rows = 1;
        cfg.validate().expect("the rank itself is valid");
        let message = RefreshEngine::new(&cfg, RefreshPolicy::ChargeAware)
            .unwrap_err()
            .to_string();
        assert!(message.contains("row_bytes 65536"), "{message}");
        assert!(message.contains("capacity 1048576 bytes"), "{message}");
        cfg.dram.capacity_bytes = 4 << 20; // 8 rows per bank: one per chip
        RefreshEngine::new(&cfg, RefreshPolicy::ChargeAware).unwrap();
    }

    /// A seeded stream: `draw(bound)` is uniform in `0..bound`.
    fn draws(seed: u64) -> impl FnMut(u64) -> u64 {
        let mut rng = zr_types::rng::SplitMix64::new(seed);
        move |bound| rng.below(bound)
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

    /// The engines' whole decision state: totals, status table (bits and
    /// traffic), access bits and naive tracker. Compared with `==` so a
    /// mismatch does not print megabytes of bits.
    fn assert_same_state(engine: &RefreshEngine, reference: &RefreshEngine, context: &str) {
        assert_eq!(engine.totals, reference.totals, "totals: {context}");
        assert!(engine.status == reference.status, "status table: {context}");
        assert!(engine.access == reference.access, "access bits: {context}");
        assert!(engine.naive == reference.naive, "naive tracker: {context}");
    }

    /// What one reference case saw, so the battery can show it reached
    /// skips and hazards at all.
    #[derive(Default)]
    struct CaseReach {
        skipped: u64,
        hazards: u64,
    }

    /// One seeded case: writes, cleanses, spares (up front and between
    /// commands), AR commands and (on small geometries) whole windows,
    /// each applied to the engine and to a clone driven through the
    /// per-row reference.
    /// Large geometries work on a focus of a few AR sets.
    fn reference_case(
        chips: usize,
        ar: u64,
        policy: RefreshPolicy,
        scalar: bool,
        skew: u64,
        draw: &mut impl FnMut(u64) -> u64,
    ) -> CaseReach {
        let k = chips as u64;
        let (banks, rows) = if ar == 1 {
            (
                1 + draw(2) as usize,
                [16, 64, 512, 4096][draw(4) as usize].max(k),
            )
        } else {
            (if ar <= 8 { 2 } else { 1 }, 8192 * ar)
        };
        let block = [8, 64, 512][draw(3) as usize].min(rows);
        let cfg = rank_config(chips, banks, rows, block, draw(2) == 1);
        let context = format!(
            "chips {chips} ar_rows {ar} banks {banks} rows {rows} block {block} \
             {policy:?} scalar {scalar} skew {skew}"
        );
        let mut rank = DramRank::new(&cfg).unwrap();
        assert_eq!(rank.geometry().ar_rows(), ar, "{context}");
        rank.set_force_scalar(scalar);
        let mut engine = RefreshEngine::new(&cfg, policy).unwrap();
        engine.set_stagger_skew(skew);
        let mut reference = engine.clone();

        let sets = rank.geometry().ar_sets_per_bank();
        let small = rows * k * banks as u64 <= 1 << 16;
        let focus = if small {
            0..sets
        } else {
            let span = (2 * k / ar).max(3);
            let start = draw(sets - span + 1);
            start..start + span
        };
        let focus_rows = focus.start * ar..focus.end * ar;
        let row_in_focus = |draw: &mut dyn FnMut(u64) -> u64| {
            RowIndex(focus_rows.start + draw(focus_rows.end - focus_rows.start))
        };
        let line_for = |rank: &DramRank, row: RowIndex, mask: u64, fill: u64| {
            let pattern = rank.cell_type(row).discharged_byte();
            let seg = 64 / chips;
            let mut line = vec![pattern; 64];
            for c in 0..chips {
                if mask >> c & 1 == 1 {
                    line[c * seg..(c + 1) * seg].fill(pattern ^ (fill as u8 | 1));
                }
            }
            line
        };
        for _ in 0..draw(3) {
            let row = row_in_focus(draw);
            rank.add_spared_row(BankId(draw(banks as u64) as usize), row);
        }

        let mut reach = CaseReach::default();
        for step in 0..24 {
            let bank = BankId(draw(banks as u64) as usize);
            let set = focus.start + draw(focus.end - focus.start);
            let what = format!("step {step}: {context}");
            match draw(11) {
                0..=3 => {
                    let row = row_in_focus(draw);
                    let line = line_for(&rank, row, draw(1 << chips) & draw(1 << chips), draw(256));
                    rank.write_encoded_line(bank, row, draw(32) as usize, &line)
                        .unwrap();
                    engine.note_write(&rank, bank, row);
                    reference.note_write_per_row(&rank, bank, row);
                }
                4 => {
                    let row = row_in_focus(draw);
                    rank.cleanse_row(bank, row).unwrap();
                    engine.note_write(&rank, bank, row);
                    reference.note_write_per_row(&rank, bank, row);
                }
                5..=8 => {
                    let out = engine.process_ar(&rank, bank, set);
                    assert_eq!(
                        out,
                        reference.process_ar_per_row(&rank, bank, set),
                        "{what}"
                    );
                    reach.skipped += out.rows_skipped;
                }
                9 => {
                    // Sparing after a scan: the stored status may promise
                    // a skip that sparing must override.
                    rank.add_spared_row(bank, row_in_focus(draw));
                }
                _ if small => {
                    let window = engine.run_window(&mut rank);
                    assert_eq!(window, reference.run_window_per_row(&rank), "{what}");
                    reach.skipped += window.rows_skipped;
                }
                _ => {
                    let out = engine.process_ar(&rank, bank, set);
                    assert_eq!(
                        out,
                        reference.process_ar_per_row(&rank, bank, set),
                        "{what}"
                    );
                }
            }
            assert_same_state(&engine, &reference, &what);
        }

        // Charge rows behind the engines' back, sparing the first: the
        // audits must count the same stale skip promises (outside the
        // focus there are none).
        assert_eq!(engine.audit_hazards(&rank), 0, "{context}");
        for i in 0..4 {
            let (bank, row) = (BankId(draw(banks as u64) as usize), row_in_focus(draw));
            let line = line_for(&rank, row, (1 << chips) - 1, draw(256));
            rank.write_encoded_line(bank, row, draw(32) as usize, &line)
                .unwrap();
            if i == 0 {
                rank.add_spared_row(bank, row);
            }
        }
        reach.hazards = engine.audit_hazards(&rank);
        assert_eq!(
            reach.hazards,
            reference.audit_hazards_per_row(&rank, focus),
            "audit: {context}"
        );
        reach
    }

    #[test]
    fn word_level_engine_matches_the_per_row_reference() {
        let mut draw = draws(0x5EED_A125_0F16_0001);
        let (mut skipped, mut hazards, mut case) = (0, 0, 0u64);
        for chips in [2usize, 4, 8, 16] {
            for ar in (0..=7).map(|e| 1u64 << e) {
                for policy in [
                    RefreshPolicy::Conventional,
                    RefreshPolicy::ChargeAware,
                    RefreshPolicy::NaiveSram,
                ] {
                    case += 1;
                    // The scalar oracle on in every other case, a stagger
                    // skew (up to two groups) in two of three.
                    let skew = if case % 3 == 0 {
                        0
                    } else {
                        1 + draw(2 * chips as u64)
                    };
                    let reach = reference_case(chips, ar, policy, case % 2 == 0, skew, &mut draw);
                    skipped += reach.skipped;
                    hazards += reach.hazards;
                }
            }
        }
        assert!(
            skipped > 0 && hazards > 0,
            "battery never skipped ({skipped}) or found a hazard ({hazards})"
        );
    }

    #[test]
    fn multi_row_scan_window_trace_is_pinned() {
        // 1 bank of 16384 rows: ar_rows = 2, under the 8-chip stagger
        // group. The answer was recorded from the per-row engine; it
        // pins the ChargeTransition order (step-major, chip-minor) and
        // every RefIssue count of a scan window.
        let mut cfg = SystemConfig::paper_default();
        cfg.dram.num_banks = 1;
        cfg.dram.row_bytes = 2048;
        cfg.dram.capacity_bytes = 16384 * 2048;
        cfg.dram.cell_block_rows = 64;
        let mut rank = DramRank::new(&cfg).unwrap();
        assert_eq!(rank.geometry().ar_rows(), 2);
        rank.add_spared_row(BankId(0), RowIndex(77));
        let trace = Arc::new(TraceRecorder::memory());
        let mut engine = {
            let _trace = TraceRecorder::push_current(Arc::clone(&trace));
            RefreshEngine::new(&cfg, RefreshPolicy::ChargeAware).unwrap()
        };
        for i in 0..40u64 {
            let row = RowIndex((i * 409 + 75) % 16384);
            let pattern = rank.cell_type(row).discharged_byte();
            let mut line = [pattern; 64];
            for c in 0..8 {
                if !(i + c as u64).is_multiple_of(3) {
                    line[c * 8..(c + 1) * 8].fill(pattern ^ ((i * 7 + c as u64) as u8 | 1));
                }
            }
            rank.write_encoded_line(BankId(0), row, (i % 32) as usize, &line)
                .unwrap();
            engine.note_write(&rank, BankId(0), row);
        }
        engine.run_window(&mut rank);
        let bytes = trace.take_bytes();
        assert_eq!(zr_trace::parse_trace(&bytes).unwrap().len(), 139_086);
        assert_eq!(zr_types::fnv64(&bytes), 0xf228_071a_15fe_01d1);
    }

    #[test]
    fn scan_transitions_follow_the_skewed_schedule() {
        // A first scan flips exactly the chip-rows it finds discharged
        // (status starts "charged"), one record each, whatever the skew,
        // and each command lists its flips by refresh step, then chip.
        // One AR row under 8 chips, and 2 AR rows over 2 chips.
        let skew = 3;
        for cfg in [
            SystemConfig::small_test(),
            rank_config(2, 1, 16384, 64, false),
        ] {
            let mut rank = DramRank::new(&cfg).unwrap();
            let geom = rank.geometry().clone();
            let bank = BankId(geom.num_banks() - 1);
            let trace = Arc::new(TraceRecorder::memory());
            let mut eng = {
                let _trace = TraceRecorder::push_current(Arc::clone(&trace));
                RefreshEngine::new(&cfg, RefreshPolicy::ChargeAware).unwrap()
            };
            eng.set_stagger_skew(skew);
            for row in [2, 9, 30] {
                rank.write_encoded_line(bank, RowIndex(row), 0, &[0x5A; 64])
                    .unwrap();
            }
            eng.run_window(&mut rank);
            let (mut flips, mut last) = (0, None);
            for r in zr_trace::parse_trace(&trace.take_bytes()).unwrap() {
                if r.kind != RecordKind::ChargeTransition {
                    last = None; // a command's decision record ends its flips
                    continue;
                }
                flips += 1;
                assert_ne!(r.flags & FLAG_DISCHARGED, 0);
                let (chip, row) = (r.b as usize, RowIndex(r.a));
                let bank = BankId(r.bank as usize);
                assert!(eng.status.get(ChipId(chip), bank, row));
                assert!(rank.chip_row_is_discharged(ChipId(chip), bank, row));
                let key = (geom.staggered_step(row, ChipId(chip + skew as usize)), chip);
                assert!(last < Some(key), "{key:?} after {last:?}");
                last = Some(key);
            }
            assert_eq!(flips, rank.count_discharged_chip_rows());
        }
    }

    #[test]
    #[should_panic]
    fn out_of_range_set_panics() {
        let (cfg, rank) = system();
        let mut eng = RefreshEngine::new(&cfg, RefreshPolicy::Conventional).unwrap();
        let sets = rank.geometry().ar_sets_per_bank();
        eng.process_ar(&rank, BankId(0), sets);
    }
}
