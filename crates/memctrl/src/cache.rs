//! A last-level cache model in front of the memory controller.
//!
//! The paper places the value transformation "between the LLC miss
//! handling and memory controllers" (Fig. 7): DRAM only sees LLC *misses*
//! and *write-backs*, never every store the core executes. This module
//! provides that filter — a set-associative, write-allocate, write-back
//! LRU cache — so end-to-end experiments can drive realistic eviction
//! streams instead of feeding raw stores to the controller.
//!
//! The model is functional (it holds real data and must stay coherent
//! with the DRAM image through any access pattern); timing belongs to
//! `zr-timing`.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::controller::MemoryController;
use zr_telemetry::{Counter, Event, Telemetry};
use zr_trace::{RecordKind, TraceRecord, TraceRecorder, SRC_CACHE};
use zr_types::geometry::LineAddr;
use zr_types::{Error, Result};

/// Cache access statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Hits (reads and writes).
    pub hits: u64,
    /// Misses (reads and writes).
    pub misses: u64,
    /// Lines evicted to make room.
    pub evictions: u64,
    /// Dirty evictions written back to memory — the traffic the
    /// transformation actually sees.
    pub writebacks: u64,
}

impl CacheStats {
    /// Hit rate over all accesses (0.0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone)]
struct Way {
    tag: u64,
    dirty: bool,
    data: [u8; 64],
}

/// Pre-resolved `memctrl.cache.*` metric handles.
#[derive(Debug, Clone)]
struct CacheMetrics {
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    writebacks: Counter,
}

impl CacheMetrics {
    fn new(telemetry: &Telemetry) -> Self {
        CacheMetrics {
            hits: telemetry.counter("memctrl.cache.hits"),
            misses: telemetry.counter("memctrl.cache.misses"),
            evictions: telemetry.counter("memctrl.cache.evictions"),
            writebacks: telemetry.counter("memctrl.cache.writebacks"),
        }
    }
}

/// A set-associative write-back LLC.
///
/// # Examples
///
/// ```
/// use zr_memctrl::{cache::LastLevelCache, MemoryController};
/// use zr_dram::RefreshPolicy;
/// use zr_types::{geometry::LineAddr, SystemConfig};
///
/// let cfg = SystemConfig::small_test();
/// let mut mem = MemoryController::new(&cfg, RefreshPolicy::ChargeAware)?;
/// let mut llc = LastLevelCache::new(64 << 10, 8)?;
///
/// llc.write(&mut mem, LineAddr(7), &[42u8; 64])?;
/// assert_eq!(llc.read(&mut mem, LineAddr(7))?, [42u8; 64]);
/// // The store is still cached: memory hasn't seen it yet.
/// assert_eq!(mem.stats().writes, 0);
/// llc.flush(&mut mem)?;
/// assert_eq!(mem.stats().writes, 1);
/// # Ok::<(), zr_types::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct LastLevelCache {
    /// Per set, LRU order: front = least recent.
    sets: Vec<VecDeque<Way>>,
    ways: usize,
    stats: CacheStats,
    telemetry: Arc<Telemetry>,
    metrics: CacheMetrics,
    trace: Arc<TraceRecorder>,
}

impl LastLevelCache {
    /// Builds a cache of `capacity_bytes` with `ways`-way associativity
    /// over 64-byte lines.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the capacity is not a positive
    /// power-of-two multiple of `ways * 64`.
    pub fn new(capacity_bytes: usize, ways: usize) -> Result<Self> {
        if ways == 0 || capacity_bytes == 0 {
            return Err(Error::invalid_config(
                "cache size and ways must be non-zero",
            ));
        }
        if !capacity_bytes.is_multiple_of(ways * 64) {
            return Err(Error::invalid_config(
                "capacity must be a multiple of ways * 64",
            ));
        }
        let num_sets = capacity_bytes / (ways * 64);
        if !num_sets.is_power_of_two() {
            return Err(Error::invalid_config("set count must be a power of two"));
        }
        let telemetry = Telemetry::current();
        Ok(LastLevelCache {
            sets: vec![VecDeque::new(); num_sets],
            ways,
            stats: CacheStats::default(),
            metrics: CacheMetrics::new(&telemetry),
            telemetry,
            trace: TraceRecorder::current(),
        })
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.sets.len()
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Access statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn index(&self, addr: LineAddr) -> (usize, u64) {
        let set = (addr.0 % self.sets.len() as u64) as usize;
        let tag = addr.0 / self.sets.len() as u64;
        (set, tag)
    }

    fn addr_of(&self, set: usize, tag: u64) -> LineAddr {
        LineAddr(tag * self.sets.len() as u64 + set as u64)
    }

    /// Looks `addr` up; on a miss, fills from memory (evicting the LRU
    /// way, with write-back if dirty). Returns the way index within the
    /// set, positioned most-recently-used.
    fn fill(&mut self, mem: &mut MemoryController, addr: LineAddr) -> Result<()> {
        let (set, tag) = self.index(addr);
        if let Some(pos) = self.sets[set].iter().position(|w| w.tag == tag) {
            self.stats.hits += 1;
            self.metrics.hits.inc();
            let way = self.sets[set].remove(pos).expect("position exists");
            self.sets[set].push_back(way); // most-recently-used
            return Ok(());
        }
        self.stats.misses += 1;
        self.metrics.misses.inc();
        if self.sets[set].len() == self.ways {
            let victim = self.sets[set].pop_front().expect("full set");
            self.stats.evictions += 1;
            self.metrics.evictions.inc();
            if victim.dirty {
                self.stats.writebacks += 1;
                self.metrics.writebacks.inc();
                let victim_addr = self.addr_of(set, victim.tag);
                self.telemetry.emit(|| Event::CacheWriteback {
                    set,
                    line: victim_addr.0,
                });
                if self.trace.is_active() {
                    let mut rec = TraceRecord::new(RecordKind::Writeback, SRC_CACHE);
                    rec.bank = set as u32;
                    rec.a = victim_addr.0;
                    self.trace.record(rec);
                }
                mem.write_line(victim_addr, &victim.data)?;
            }
        }
        let mut data = [0u8; 64];
        data.copy_from_slice(&mem.read_line(addr)?);
        self.sets[set].push_back(Way {
            tag,
            dirty: false,
            data,
        });
        Ok(())
    }

    /// Reads one cacheline through the cache.
    ///
    /// # Errors
    ///
    /// Propagates controller address errors.
    pub fn read(&mut self, mem: &mut MemoryController, addr: LineAddr) -> Result<[u8; 64]> {
        self.fill(mem, addr)?;
        let (set, _) = self.index(addr);
        Ok(self.sets[set].back().expect("just filled").data)
    }

    /// Writes one cacheline through the cache (write-allocate,
    /// write-back: memory sees the data only on eviction or flush).
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadLength`] for a wrong-sized buffer, plus
    /// controller address errors.
    pub fn write(&mut self, mem: &mut MemoryController, addr: LineAddr, data: &[u8]) -> Result<()> {
        if data.len() != 64 {
            return Err(Error::BadLength {
                got: data.len(),
                expected: 64,
            });
        }
        self.fill(mem, addr)?;
        let (set, _) = self.index(addr);
        let way = self.sets[set].back_mut().expect("just filled");
        way.data.copy_from_slice(data);
        way.dirty = true;
        Ok(())
    }

    /// Writes every dirty line back to memory and marks it clean (lines
    /// stay resident).
    ///
    /// # Errors
    ///
    /// Propagates controller address errors.
    pub fn flush(&mut self, mem: &mut MemoryController) -> Result<()> {
        for set in 0..self.sets.len() {
            for pos in 0..self.sets[set].len() {
                if self.sets[set][pos].dirty {
                    let tag = self.sets[set][pos].tag;
                    let data = self.sets[set][pos].data;
                    mem.write_line(self.addr_of(set, tag), &data)?;
                    self.sets[set][pos].dirty = false;
                    self.stats.writebacks += 1;
                    self.metrics.writebacks.inc();
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zr_dram::RefreshPolicy;
    use zr_types::SystemConfig;

    fn setup(capacity: usize, ways: usize) -> (LastLevelCache, MemoryController) {
        let cfg = SystemConfig::small_test();
        (
            LastLevelCache::new(capacity, ways).unwrap(),
            MemoryController::new(&cfg, RefreshPolicy::ChargeAware).unwrap(),
        )
    }

    #[test]
    fn geometry_validation() {
        assert!(LastLevelCache::new(0, 8).is_err());
        assert!(LastLevelCache::new(64 << 10, 0).is_err());
        assert!(LastLevelCache::new(100, 1).is_err());
        let c = LastLevelCache::new(64 << 10, 8).unwrap();
        assert_eq!(c.num_sets(), 128);
        assert_eq!(c.ways(), 8);
    }

    #[test]
    fn read_after_write_hits_without_memory_traffic() {
        let (mut llc, mut mem) = setup(8 << 10, 4);
        llc.write(&mut mem, LineAddr(5), &[9u8; 64]).unwrap();
        assert_eq!(llc.read(&mut mem, LineAddr(5)).unwrap(), [9u8; 64]);
        assert_eq!(mem.stats().writes, 0, "write-back: memory untouched");
        assert_eq!(llc.stats().hits, 1);
    }

    #[test]
    fn eviction_writes_back_dirty_lines() {
        // 1 set x 2 ways: the third distinct line evicts the first.
        let (mut llc, mut mem) = setup(2 * 64, 2);
        assert_eq!(llc.num_sets(), 1);
        llc.write(&mut mem, LineAddr(1), &[1u8; 64]).unwrap();
        llc.write(&mut mem, LineAddr(2), &[2u8; 64]).unwrap();
        llc.write(&mut mem, LineAddr(3), &[3u8; 64]).unwrap(); // evicts line 1
        assert_eq!(llc.stats().evictions, 1);
        assert_eq!(llc.stats().writebacks, 1);
        // Line 1 must now be in memory with its cached value.
        assert_eq!(mem.read_line(LineAddr(1)).unwrap(), vec![1u8; 64]);
    }

    #[test]
    fn lru_keeps_recently_used_lines() {
        let (mut llc, mut mem) = setup(2 * 64, 2);
        llc.write(&mut mem, LineAddr(1), &[1u8; 64]).unwrap();
        llc.write(&mut mem, LineAddr(2), &[2u8; 64]).unwrap();
        llc.read(&mut mem, LineAddr(1)).unwrap(); // 1 becomes MRU
        llc.write(&mut mem, LineAddr(3), &[3u8; 64]).unwrap(); // evicts 2
        assert_eq!(mem.read_line(LineAddr(2)).unwrap(), vec![2u8; 64]);
        // Line 1 still cached: reading it is a hit.
        let hits = llc.stats().hits;
        llc.read(&mut mem, LineAddr(1)).unwrap();
        assert_eq!(llc.stats().hits, hits + 1);
    }

    #[test]
    fn clean_evictions_do_not_touch_memory() {
        let (mut llc, mut mem) = setup(2 * 64, 2);
        llc.read(&mut mem, LineAddr(1)).unwrap();
        llc.read(&mut mem, LineAddr(2)).unwrap();
        llc.read(&mut mem, LineAddr(3)).unwrap(); // evicts clean line 1
        assert_eq!(llc.stats().evictions, 1);
        assert_eq!(llc.stats().writebacks, 0);
        assert_eq!(mem.stats().writes, 0);
    }

    #[test]
    fn flush_persists_everything_and_cleans() {
        let (mut llc, mut mem) = setup(8 << 10, 4);
        for a in 0..20u64 {
            llc.write(&mut mem, LineAddr(a), &[(a + 1) as u8; 64])
                .unwrap();
        }
        llc.flush(&mut mem).unwrap();
        for a in 0..20u64 {
            assert_eq!(mem.read_line(LineAddr(a)).unwrap(), vec![(a + 1) as u8; 64]);
        }
        let wb = llc.stats().writebacks;
        llc.flush(&mut mem).unwrap();
        assert_eq!(llc.stats().writebacks, wb, "second flush writes nothing");
    }

    #[test]
    fn coherence_through_cache_memory_and_refresh() {
        let (mut llc, mut mem) = setup(4 << 10, 4);
        let mut shadow = std::collections::HashMap::new();
        let mut s = 77u64;
        for step in 0..500u64 {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            let addr = s % 200;
            if s & 2 == 0 {
                let fill = (s >> 32) as u8;
                llc.write(&mut mem, LineAddr(addr), &[fill; 64]).unwrap();
                shadow.insert(addr, fill);
            } else if let Some(&fill) = shadow.get(&addr) {
                assert_eq!(
                    llc.read(&mut mem, LineAddr(addr)).unwrap(),
                    [fill; 64],
                    "step {step}"
                );
            }
            if step % 100 == 99 {
                mem.run_refresh_window();
            }
        }
        // Everything also survives a flush + direct memory readback.
        llc.flush(&mut mem).unwrap();
        for (addr, fill) in shadow {
            assert_eq!(mem.read_line(LineAddr(addr)).unwrap(), vec![fill; 64]);
        }
    }

    #[test]
    fn memory_sees_only_miss_and_eviction_traffic() {
        // Repeatedly hammering a cached line generates zero DRAM traffic —
        // the property that makes the LLC the right interposition point.
        let (mut llc, mut mem) = setup(8 << 10, 4);
        llc.write(&mut mem, LineAddr(0), &[1u8; 64]).unwrap();
        let reads_before = mem.stats().reads;
        for _ in 0..1000 {
            llc.write(&mut mem, LineAddr(0), &[2u8; 64]).unwrap();
            llc.read(&mut mem, LineAddr(0)).unwrap();
        }
        assert_eq!(mem.stats().reads, reads_before);
        assert_eq!(mem.stats().writes, 0);
    }
}
