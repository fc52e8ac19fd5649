//! The rank-level timing simulator.

use std::sync::Arc;

use crate::bank::{AccessKind, BankTiming};
use crate::params::DerivedTiming;
use crate::requests::MemoryRequest;
use crate::stats::TimingStats;
use zr_telemetry::{Counter, Telemetry};
use zr_trace::{RecordKind, TraceRecord, TraceRecorder, FLAG_WRITE, SRC_TIMING};
use zr_types::{Error, Geometry, Result, SystemConfig};

/// Pre-resolved `timing.*` metric handles.
#[derive(Debug, Clone)]
struct TimingMetrics {
    requests: Counter,
    row_hits: Counter,
    row_closed: Counter,
    row_conflicts: Counter,
}

impl TimingMetrics {
    fn new(telemetry: &Telemetry) -> Self {
        TimingMetrics {
            requests: telemetry.counter("timing.requests"),
            row_hits: telemetry.counter("timing.row_hits"),
            row_closed: telemetry.counter("timing.row_closed"),
            row_conflicts: telemetry.counter("timing.row_conflicts"),
        }
    }

    /// Adds the requests and row outcomes served between two stats
    /// snapshots.
    fn publish(&self, before: &TimingStats, after: &TimingStats) {
        self.requests.add(after.requests - before.requests);
        self.row_hits.add(after.row_hits - before.row_hits);
        self.row_closed.add(after.row_closed - before.row_closed);
        self.row_conflicts
            .add(after.row_conflicts - before.row_conflicts);
    }
}

/// Start times of the last four activates, for tRRD (the last) and
/// tFAW (the fourth-last): a ring indexed by the activate count.
#[derive(Debug, Clone, Default)]
struct RecentActivates {
    starts: [f64; 4],
    count: u64,
}

impl RecentActivates {
    fn push(&mut self, start_ns: f64) {
        self.starts[(self.count % 4) as usize] = start_ns;
        self.count += 1;
    }

    fn last(&self) -> Option<f64> {
        (self.count >= 1).then(|| self.starts[((self.count - 1) % 4) as usize])
    }

    fn fourth_last(&self) -> Option<f64> {
        (self.count >= 4).then(|| self.starts[(self.count % 4) as usize])
    }
}

/// How long each auto-refresh command keeps its bank busy — the interface
/// through which ZERO-REFRESH's skipping reaches the timing domain.
#[derive(Debug, Clone, PartialEq)]
pub enum RefreshDurations {
    /// Every command refreshes its full set: busy for tRFC.
    Conventional,
    /// A mean-field model: every command refreshes `refreshed_fraction`
    /// of its rows; busy time interpolates between the skip overhead and
    /// tRFC.
    Uniform {
        /// Fraction of rows actually refreshed (the Fig. 14 normalized
        /// value).
        refreshed_fraction: f64,
    },
    /// Per-(bank, set) refreshed fractions, indexed
    /// `bank * ar_sets_per_bank + set`, as produced by running the
    /// functional refresh engine of `zr-dram`.
    PerSet(Vec<f64>),
}

impl RefreshDurations {
    fn busy_ns(&self, timing: &DerivedTiming, bank: usize, set: u64, sets_per_bank: u64) -> f64 {
        let span = timing.t_rfc_ns - timing.t_ar_skip_ns;
        match self {
            RefreshDurations::Conventional => timing.t_rfc_ns,
            RefreshDurations::Uniform { refreshed_fraction } => {
                timing.t_ar_skip_ns + span * refreshed_fraction.clamp(0.0, 1.0)
            }
            RefreshDurations::PerSet(fractions) => {
                let idx = bank as u64 * sets_per_bank + set % sets_per_bank;
                let f = fractions
                    .get(idx as usize)
                    .copied()
                    .unwrap_or(1.0)
                    .clamp(0.0, 1.0);
                timing.t_ar_skip_ns + span * f
            }
        }
    }
}

/// FCFS rank timing simulator: per-bank row-buffer state, staggered
/// per-bank refresh, and rank-level activation constraints (tRRD/tFAW).
#[derive(Debug, Clone)]
pub struct MemoryTimingSim {
    geom: Geometry,
    timing: DerivedTiming,
    durations: RefreshDurations,
    banks: Vec<BankTiming>,
    activates: RecentActivates,
    stats: TimingStats,
    telemetry: Arc<Telemetry>,
    metrics: TimingMetrics,
    trace: Arc<TraceRecorder>,
}

impl MemoryTimingSim {
    /// Builds a simulator for `config` with the given refresh-duration
    /// profile.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the configuration does not
    /// validate or a `PerSet` profile has the wrong length.
    pub fn new(config: &SystemConfig, durations: RefreshDurations) -> Result<Self> {
        let geom = Geometry::new(config)?;
        let timing = DerivedTiming::new(config)?;
        if let RefreshDurations::PerSet(f) = &durations {
            let expect = geom.num_banks() as u64 * geom.ar_sets_per_bank();
            if f.len() as u64 != expect {
                return Err(Error::BadLength {
                    got: f.len(),
                    expected: expect as usize,
                });
            }
        }
        // Banks stagger their refresh phases evenly across tREFI.
        let num_banks = geom.num_banks();
        let banks = (0..num_banks)
            .map(|b| BankTiming::new(b as f64 * timing.t_refi_ns / num_banks as f64))
            .collect();
        let telemetry = Telemetry::current();
        Ok(MemoryTimingSim {
            geom,
            timing,
            durations,
            banks,
            activates: RecentActivates::default(),
            stats: TimingStats::default(),
            metrics: TimingMetrics::new(&telemetry),
            telemetry,
            trace: TraceRecorder::current(),
        })
    }

    /// The derived timing constants in use.
    pub fn timing(&self) -> &DerivedTiming {
        &self.timing
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> TimingStats {
        self.stats
    }

    /// Processes a request stream (must be sorted by arrival time) and
    /// returns the statistics of just this batch.
    ///
    /// The `timing.*` counters are published once per batch, from the
    /// batch's stats, including the requests served before an error.
    ///
    /// # Errors
    ///
    /// Returns [`Error::AddressOutOfRange`] for requests beyond the
    /// capacity.
    pub fn process(&mut self, requests: &[MemoryRequest]) -> Result<TimingStats> {
        let _span = self.telemetry.span("timing.process");
        let before = self.stats;
        let mut stats = before;
        let served = self.serve_all(requests, &mut stats);
        self.metrics.publish(&before, &stats);
        self.stats = stats;
        served?;
        // Fold per-bank refresh-wait counters into the stats delta.
        let (mut waits, mut wait_ns) = (0u64, 0.0f64);
        for b in &self.banks {
            let (w, ns) = b.refresh_wait();
            waits += w;
            wait_ns += ns;
        }
        self.stats.refresh_stalled = waits;
        self.stats.refresh_wait_ns = wait_ns;

        let mut delta = self.stats;
        delta.requests -= before.requests;
        delta.row_hits -= before.row_hits;
        delta.row_closed -= before.row_closed;
        delta.row_conflicts -= before.row_conflicts;
        delta.refresh_stalled -= before.refresh_stalled;
        delta.refresh_wait_ns -= before.refresh_wait_ns;
        delta.total_latency_ns -= before.total_latency_ns;
        delta.rank_wait_ns -= before.rank_wait_ns;
        Ok(delta)
    }

    /// Serves `requests` in order, tallying into `stats`; stops at the
    /// first request beyond the capacity.
    fn serve_all(&mut self, requests: &[MemoryRequest], stats: &mut TimingStats) -> Result<()> {
        let sets = self.geom.ar_sets_per_bank();
        let timing = self.timing;
        for req in requests {
            let loc = self.geom.locate(req.addr)?;
            let bank_idx = loc.bank.0;
            // Rank-level activate serialization: approximate by delaying
            // arrival if four activates happened within tFAW.
            let arrival = self.rank_constrained_arrival(req.arrival_ns, stats);
            let durations = &self.durations;
            let busy = |k: u64| durations.busy_ns(&timing, bank_idx, k % sets, sets);
            let (finish, kind) = self.banks[bank_idx].serve(loc.row, arrival, &timing, busy);
            if kind != AccessKind::RowHit {
                self.activates
                    .push(finish - timing.t_burst_ns - timing.cl_ns);
            }
            stats.requests += 1;
            stats.total_latency_ns += finish - req.arrival_ns;
            match kind {
                AccessKind::RowHit => stats.row_hits += 1,
                AccessKind::RowClosed => stats.row_closed += 1,
                AccessKind::RowConflict => stats.row_conflicts += 1,
            }
            if self.trace.is_active() {
                self.trace_commands(req, bank_idx, loc.row.0, kind, finish);
            }
        }
        Ok(())
    }

    /// Records the implied DRAM command sequence of one request: PRE on
    /// a conflict, ACT when the row had to be opened, then the column
    /// RD/WR. Command times are reconstructed backward from `finish`
    /// with the derived timing constants.
    fn trace_commands(
        &self,
        req: &MemoryRequest,
        bank: usize,
        row: u64,
        kind: AccessKind,
        finish: f64,
    ) {
        let t = &self.timing;
        let cas_start = finish - t.t_burst_ns - t.cl_ns;
        let push = |k: RecordKind, flags: u16, start: f64, end: f64| {
            let mut rec = TraceRecord::new(k, SRC_TIMING);
            rec.flags = flags;
            rec.bank = bank as u32;
            rec.a = row;
            rec.b = start.to_bits();
            rec.c = end.to_bits();
            self.trace.record(rec);
        };
        if kind != AccessKind::RowHit {
            let act_start = cas_start - t.t_rcd_ns;
            if kind == AccessKind::RowConflict {
                push(RecordKind::Pre, 0, act_start - t.t_rp_ns, act_start);
            }
            push(RecordKind::Act, 0, act_start, cas_start);
        }
        let (col, flags) = if req.is_write {
            (RecordKind::Wr, FLAG_WRITE)
        } else {
            (RecordKind::Rd, 0)
        };
        push(col, flags, cas_start, finish);
    }

    fn rank_constrained_arrival(&self, arrival_ns: f64, stats: &mut TimingStats) -> f64 {
        // tRRD against the last activate; tFAW against the fourth-last.
        // The wait is capped at one tFAW: requests are processed in
        // arrival order, so without the cap an activate queued behind a
        // refreshing bank would serialize the whole rank behind that
        // bank's backlog — an artifact of FCFS ordering, not a DRAM rule
        // (a real controller issues other banks' ACTs in between).
        let mut t = arrival_ns;
        if let Some(last) = self.activates.last() {
            t = t.max(last + self.timing.t_rrd_ns);
        }
        if let Some(fourth) = self.activates.fourth_last() {
            t = t.max(fourth + self.timing.t_faw_ns);
        }
        t = t.min(arrival_ns + self.timing.t_faw_ns);
        stats.rank_wait_ns += t - arrival_ns;
        t
    }
}

/// The request loop before its per-request overhead was dropped, kept
/// as the reference the unit tests compare against: the durations
/// cloned per batch, the busy-time closure behind `&mut dyn`,
/// [`BankTiming::serve_reference`], and the last eight activates in a
/// `Vec` trimmed by `drain`. Observability hooks are left out; the
/// stats arithmetic is the original.
#[cfg(test)]
mod reference {
    use super::*;

    #[derive(Debug, Clone)]
    pub(super) struct ReferenceSim {
        geom: Geometry,
        timing: DerivedTiming,
        durations: RefreshDurations,
        pub(super) banks: Vec<BankTiming>,
        recent_activates: Vec<f64>,
        pub(super) stats: TimingStats,
    }

    impl ReferenceSim {
        pub(super) fn new(config: &SystemConfig, durations: RefreshDurations) -> Result<Self> {
            let sim = MemoryTimingSim::new(config, durations)?;
            Ok(ReferenceSim {
                geom: sim.geom,
                timing: sim.timing,
                durations: sim.durations,
                banks: sim.banks,
                recent_activates: Vec::new(),
                stats: TimingStats::default(),
            })
        }

        pub(super) fn process(&mut self, requests: &[MemoryRequest]) -> Result<TimingStats> {
            let before = self.stats;
            let sets = self.geom.ar_sets_per_bank();
            let durations = self.durations.clone();
            for req in requests {
                let loc = self.geom.locate(req.addr)?;
                let bank_idx = loc.bank.0;
                let timing = self.timing;
                let mut busy = |k: u64| durations.busy_ns(&timing, bank_idx, k % sets, sets);
                let arrival = self.rank_constrained_arrival(req.arrival_ns);
                let (finish, kind) =
                    self.banks[bank_idx].serve_reference(loc.row, arrival, &timing, &mut busy);
                if kind != AccessKind::RowHit {
                    self.note_activate(finish - timing.t_burst_ns - timing.cl_ns);
                }
                self.stats.requests += 1;
                self.stats.total_latency_ns += finish - req.arrival_ns;
                match kind {
                    AccessKind::RowHit => self.stats.row_hits += 1,
                    AccessKind::RowClosed => self.stats.row_closed += 1,
                    AccessKind::RowConflict => self.stats.row_conflicts += 1,
                }
            }
            let (mut waits, mut wait_ns) = (0u64, 0.0f64);
            for b in &self.banks {
                let (w, ns) = b.refresh_wait();
                waits += w;
                wait_ns += ns;
            }
            self.stats.refresh_stalled = waits;
            self.stats.refresh_wait_ns = wait_ns;

            let mut delta = self.stats;
            delta.requests -= before.requests;
            delta.row_hits -= before.row_hits;
            delta.row_closed -= before.row_closed;
            delta.row_conflicts -= before.row_conflicts;
            delta.refresh_stalled -= before.refresh_stalled;
            delta.refresh_wait_ns -= before.refresh_wait_ns;
            delta.total_latency_ns -= before.total_latency_ns;
            delta.rank_wait_ns -= before.rank_wait_ns;
            Ok(delta)
        }

        fn rank_constrained_arrival(&mut self, arrival_ns: f64) -> f64 {
            let mut t = arrival_ns;
            if let Some(&last) = self.recent_activates.last() {
                t = t.max(last + self.timing.t_rrd_ns);
            }
            if self.recent_activates.len() >= 4 {
                let fourth = self.recent_activates[self.recent_activates.len() - 4];
                t = t.max(fourth + self.timing.t_faw_ns);
            }
            t = t.min(arrival_ns + self.timing.t_faw_ns);
            self.stats.rank_wait_ns += t - arrival_ns;
            t
        }

        fn note_activate(&mut self, start_ns: f64) {
            self.recent_activates.push(start_ns);
            let len = self.recent_activates.len();
            if len > 8 {
                self.recent_activates.drain(..len - 8);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::requests::RequestGenerator;

    fn config() -> SystemConfig {
        SystemConfig::paper_default()
    }

    fn stream(n: usize, interval: f64, locality: f64) -> Vec<MemoryRequest> {
        let cfg = config();
        let mut g = RequestGenerator::new(&cfg, 99);
        g.arrival_interval_ns(interval).row_locality(locality);
        g.generate(n).unwrap()
    }

    #[test]
    fn latencies_are_at_least_service_time() {
        let cfg = config();
        let mut sim = MemoryTimingSim::new(&cfg, RefreshDurations::Conventional).unwrap();
        let stats = sim.process(&stream(2000, 50.0, 0.6)).unwrap();
        assert_eq!(stats.requests, 2000);
        assert!(stats.mean_latency_ns() >= sim.timing().hit_service_ns());
    }

    #[test]
    fn locality_raises_hit_rate_and_lowers_latency() {
        let cfg = config();
        let mut hi = MemoryTimingSim::new(&cfg, RefreshDurations::Conventional).unwrap();
        let mut lo = MemoryTimingSim::new(&cfg, RefreshDurations::Conventional).unwrap();
        let s_hi = hi.process(&stream(4000, 40.0, 0.9)).unwrap();
        let s_lo = lo.process(&stream(4000, 40.0, 0.1)).unwrap();
        assert!(s_hi.hit_rate() > s_lo.hit_rate() + 0.3);
        assert!(s_hi.mean_latency_ns() < s_lo.mean_latency_ns());
    }

    #[test]
    fn skipping_refreshes_reduces_latency_and_stalls() {
        let cfg = config();
        let reqs = stream(20_000, 10.0, 0.5);
        let mut conv = MemoryTimingSim::new(&cfg, RefreshDurations::Conventional).unwrap();
        let mut zr = MemoryTimingSim::new(
            &cfg,
            RefreshDurations::Uniform {
                refreshed_fraction: 0.3,
            },
        )
        .unwrap();
        let sc = conv.process(&reqs).unwrap();
        let sz = zr.process(&reqs).unwrap();
        assert!(sz.refresh_wait_ns < sc.refresh_wait_ns);
        assert!(sz.mean_latency_ns() <= sc.mean_latency_ns());
    }

    #[test]
    fn refresh_effect_is_monotone_in_refreshed_fraction() {
        let cfg = config();
        let reqs = stream(10_000, 10.0, 0.5);
        let mut prev_wait = -1.0;
        for f in [0.0, 0.5, 1.0] {
            let mut sim = MemoryTimingSim::new(
                &cfg,
                RefreshDurations::Uniform {
                    refreshed_fraction: f,
                },
            )
            .unwrap();
            let s = sim.process(&reqs).unwrap();
            assert!(s.refresh_wait_ns >= prev_wait);
            prev_wait = s.refresh_wait_ns;
        }
    }

    #[test]
    fn per_set_profile_validated_and_used() {
        let cfg = config();
        let geom = cfg.geometry();
        let n = (geom.num_banks() as u64 * geom.ar_sets_per_bank()) as usize;
        assert!(MemoryTimingSim::new(&cfg, RefreshDurations::PerSet(vec![0.5; 3])).is_err());
        let mut all_skip =
            MemoryTimingSim::new(&cfg, RefreshDurations::PerSet(vec![0.0; n])).unwrap();
        let mut none_skip =
            MemoryTimingSim::new(&cfg, RefreshDurations::PerSet(vec![1.0; n])).unwrap();
        let reqs = stream(10_000, 10.0, 0.5);
        let a = all_skip.process(&reqs).unwrap();
        let b = none_skip.process(&reqs).unwrap();
        assert!(a.refresh_wait_ns < b.refresh_wait_ns);
    }

    #[test]
    fn conventional_equals_uniform_one() {
        let cfg = config();
        let reqs = stream(5_000, 15.0, 0.5);
        let mut conv = MemoryTimingSim::new(&cfg, RefreshDurations::Conventional).unwrap();
        let mut one = MemoryTimingSim::new(
            &cfg,
            RefreshDurations::Uniform {
                refreshed_fraction: 1.0,
            },
        )
        .unwrap();
        let a = conv.process(&reqs).unwrap();
        let b = one.process(&reqs).unwrap();
        assert!((a.mean_latency_ns() - b.mean_latency_ns()).abs() < 1e-9);
    }

    #[test]
    fn out_of_range_request_rejected() {
        let cfg = config();
        let mut sim = MemoryTimingSim::new(&cfg, RefreshDurations::Conventional).unwrap();
        let bad = MemoryRequest {
            addr: zr_types::geometry::LineAddr(u64::MAX),
            arrival_ns: 0.0,
            is_write: false,
        };
        assert!(sim.process(&[bad]).is_err());
    }

    #[test]
    fn stats_deltas_are_per_batch() {
        let cfg = config();
        let mut sim = MemoryTimingSim::new(&cfg, RefreshDurations::Conventional).unwrap();
        let reqs = stream(1000, 30.0, 0.5);
        let a = sim.process(&reqs).unwrap();
        assert_eq!(a.requests, 1000);
        assert_eq!(sim.stats().requests, 1000);
    }

    /// Every field of a stats value as bits, so equality is exact.
    fn stats_bits(s: &TimingStats) -> [u64; 8] {
        [
            s.requests,
            s.row_hits,
            s.row_closed,
            s.row_conflicts,
            s.refresh_stalled,
            s.refresh_wait_ns.to_bits(),
            s.total_latency_ns.to_bits(),
            s.rank_wait_ns.to_bits(),
        ]
    }

    /// Per-bank (hits, closed, conflicts, refresh waits, wait-ns bits).
    fn bank_counters(banks: &[BankTiming]) -> Vec<(u64, u64, u64, u64, u64)> {
        banks
            .iter()
            .map(|b| {
                let (h, c, x) = b.access_counts();
                let (w, ns) = b.refresh_wait();
                (h, c, x, w, ns.to_bits())
            })
            .collect()
    }

    #[test]
    fn request_loop_matches_the_reference_bit_for_bit() {
        let (mut stalled, mut errors, mut variants) = (0u64, 0u64, [0u64; 3]);
        zr_types::rng::cases("timing_loop_matches_reference", 48, |rng| {
            let mut cfg = config();
            // Small capacities have few AR sets per bank, so the refresh
            // command index wraps around the sets within a stream.
            cfg.dram.capacity_bytes = [512 << 10, 4 << 20, 1 << 30][rng.below(3) as usize];
            cfg.dram.cell_block_rows = (cfg.dram.rows_per_bank() / 8).clamp(1, 512);
            // Table II's 28 ns, and the per-bank 16 Gb tRFC Fig. 17 runs
            // at, so refresh stalls are common in some cases.
            cfg.timing.t_rfc_ns = [28.0, 175.0, 550.0][rng.below(3) as usize];
            let geom = cfg.geometry();
            let n = (geom.num_banks() as u64 * geom.ar_sets_per_bank()) as usize;
            let variant = rng.below(3) as usize;
            variants[variant] += 1;
            let durations = match variant {
                0 => RefreshDurations::Conventional,
                1 => RefreshDurations::Uniform {
                    refreshed_fraction: rng.unit_f64() * 1.2 - 0.1,
                },
                _ => RefreshDurations::PerSet((0..n).map(|_| rng.unit_f64()).collect()),
            };
            let interval = 5.0 + rng.unit_f64() * 1995.0;
            let locality = rng.unit_f64();
            let mut gen = RequestGenerator::new(&cfg, rng.next_u64());
            gen.arrival_interval_ns(interval)
                .row_locality(locality)
                .write_fraction(rng.unit_f64());
            let requests = gen.generate(1500 + rng.below(1500) as usize).unwrap();
            let mut sim = MemoryTimingSim::new(&cfg, durations.clone()).unwrap();
            let mut reference = reference::ReferenceSim::new(&cfg, durations).unwrap();
            let context = format!(
                "capacity {} tRFC {} interval {interval} locality {locality}",
                cfg.dram.capacity_bytes, cfg.timing.t_rfc_ns
            );
            // Several batches, some cut short by an out-of-range request.
            let mut rest = &requests[..];
            while !rest.is_empty() {
                let take = (1 + rng.below(rest.len() as u64)) as usize;
                let mut batch = rest[..take].to_vec();
                rest = &rest[take..];
                if rng.below(4) == 0 {
                    let at = rng.below(batch.len() as u64 + 1) as usize;
                    batch.insert(
                        at,
                        MemoryRequest {
                            addr: zr_types::geometry::LineAddr(geom.total_lines()),
                            arrival_ns: batch.get(at).map_or(0.0, |r| r.arrival_ns),
                            is_write: false,
                        },
                    );
                }
                match (sim.process(&batch), reference.process(&batch)) {
                    (Ok(got), Ok(want)) => {
                        assert_eq!(stats_bits(&got), stats_bits(&want), "{context}")
                    }
                    (Err(_), Err(_)) => errors += 1,
                    (got, want) => panic!("{context}: {got:?} vs {want:?}"),
                }
                assert_eq!(
                    stats_bits(&sim.stats()),
                    stats_bits(&reference.stats),
                    "{context}"
                );
                assert_eq!(
                    bank_counters(&sim.banks),
                    bank_counters(&reference.banks),
                    "{context}"
                );
            }
            stalled += sim.stats().refresh_stalled;
        });
        assert!(
            stalled > 0 && errors > 0 && variants.iter().all(|&v| v > 0),
            "battery never stalled ({stalled}), errored ({errors}) or missed a variant ({variants:?})"
        );
    }

    #[test]
    fn counters_equal_the_stats_they_publish() {
        let telemetry = Arc::new(Telemetry::new());
        let _guard = Telemetry::push_current(Arc::clone(&telemetry));
        let counters = || {
            let snap = telemetry.snapshot();
            [
                "timing.requests",
                "timing.row_hits",
                "timing.row_closed",
                "timing.row_conflicts",
            ]
            .map(|name| snap.counter(name))
        };
        let outcomes = |s: &TimingStats| [s.requests, s.row_hits, s.row_closed, s.row_conflicts];
        let cfg = config();
        let mut sim = MemoryTimingSim::new(&cfg, RefreshDurations::Conventional).unwrap();
        let first = sim.process(&stream(3000, 20.0, 0.6)).unwrap();
        assert_eq!(counters(), outcomes(&first));
        // A stream that stops at an out-of-range request publishes the
        // requests it served before the error.
        let mut cut = stream(500, 20.0, 0.6);
        cut.insert(
            200,
            MemoryRequest {
                addr: zr_types::geometry::LineAddr(u64::MAX),
                arrival_ns: cut[200].arrival_ns,
                is_write: false,
            },
        );
        assert!(sim.process(&cut).is_err());
        assert_eq!(sim.stats().requests, 3200);
        assert_eq!(counters(), outcomes(&sim.stats()));
        let last = sim.process(&stream(1000, 20.0, 0.6)).unwrap();
        assert_eq!(last.requests, 1000);
        assert_eq!(counters(), outcomes(&sim.stats()));
    }
}
