//! Three-level write-back, write-allocate cache hierarchy with DRAM traffic
//! accounting, non-temporal stores, way reservation, and an L2 stream
//! prefetcher.
//!
//! The hierarchy is *mostly-inclusive*: demand misses fill every level; clean
//! evictions are dropped silently; dirty evictions are written back one level
//! down and eventually to DRAM. This matches the level of detail the paper's
//! custom Pin-based cache simulator models (its LLC statistics are stated to
//! be within 5% of Sniper's).

use crate::cache::Cache;
use crate::config::MachineConfig;
use crate::prefetch::StreamPrefetcher;
use crate::stats::{Level, MemStats};
use crate::LINE_BYTES;

/// Result of one demand access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Level that satisfied the access.
    pub level: Level,
    /// Load-to-use latency in cycles.
    pub latency: u64,
}

/// The simulated memory hierarchy of one core (plus its LLC NUCA slice).
#[derive(Debug, Clone)]
pub struct Hierarchy {
    cfg: MachineConfig,
    l1: Cache,
    l2: Cache,
    llc: Cache,
    prefetcher: StreamPrefetcher,
    dram_read_bytes: u64,
    dram_write_bytes: u64,
    loads: u64,
    stores: u64,
    nt_store_bytes: u64,
}

impl Hierarchy {
    /// Builds the hierarchy described by `cfg`.
    pub fn new(cfg: MachineConfig) -> Self {
        Hierarchy {
            l1: Cache::from_config(&cfg.l1),
            l2: Cache::from_config(&cfg.l2),
            llc: Cache::from_config(&cfg.llc),
            prefetcher: StreamPrefetcher::new(cfg.prefetch),
            cfg,
            dram_read_bytes: 0,
            dram_write_bytes: 0,
            loads: 0,
            stores: 0,
            nt_store_bytes: 0,
        }
    }

    /// The machine configuration this hierarchy was built from.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Performs a demand load of any size that fits in one line.
    pub fn load(&mut self, addr: u64) -> AccessOutcome {
        self.loads += 1;
        self.demand(addr, false)
    }

    /// Performs a demand store (write-allocate).
    pub fn store(&mut self, addr: u64) -> AccessOutcome {
        self.stores += 1;
        self.demand(addr, true)
    }

    /// Non-temporal store: bypasses all caches and writes `bytes` bytes
    /// straight to DRAM (used by software PB's bulk bin flushes). Any cached
    /// copy of the line is invalidated; dirty copies are discarded because
    /// the NT store overwrites the line.
    pub fn nt_store(&mut self, addr: u64, bytes: u64) {
        self.stores += 1;
        self.nt_store_bytes += bytes;
        self.dram_write_bytes += bytes;
        let line = addr / LINE_BYTES;
        self.l1.invalidate(line);
        self.l2.invalidate(line);
        self.llc.invalidate(line);
    }

    /// Reserves ways for C-Buffers at one level (COBRA `bininit`). Displaced
    /// dirty LLC lines are charged as DRAM writebacks; displaced dirty lines
    /// of the private levels are assumed to be absorbed one level down.
    ///
    /// # Panics
    ///
    /// Panics if `ways` equals or exceeds the level's associativity.
    pub fn reserve_ways(&mut self, level: Level, ways: u32) {
        match level {
            Level::L1 => {
                self.l1.set_reserved_ways(ways);
            }
            Level::L2 => {
                self.l2.set_reserved_ways(ways);
            }
            Level::Llc => {
                let displaced = self.llc.set_reserved_ways(ways);
                self.dram_write_bytes += displaced * LINE_BYTES;
            }
            Level::Dram => panic!("cannot reserve ways in DRAM"),
        }
    }

    /// Current counters.
    pub fn stats(&self) -> MemStats {
        MemStats {
            l1d: self.l1.stats(),
            l2: self.l2.stats(),
            llc: self.llc.stats(),
            dram_read_bytes: self.dram_read_bytes,
            dram_write_bytes: self.dram_write_bytes,
            loads: self.loads,
            stores: self.stores,
            nt_store_bytes: self.nt_store_bytes,
        }
    }

    /// Adds raw DRAM write traffic (used by the COBRA model when LLC
    /// C-Buffers spill tuples to in-memory bins without passing through the
    /// normal caches).
    pub fn add_dram_write_bytes(&mut self, bytes: u64) {
        self.dram_write_bytes += bytes;
    }

    /// Total DRAM traffic so far (reads + writes), in bytes — cheap
    /// accessor for bandwidth accounting.
    pub fn dram_traffic_bytes(&self) -> u64 {
        self.dram_read_bytes + self.dram_write_bytes
    }

    fn demand(&mut self, addr: u64, write: bool) -> AccessOutcome {
        let line = addr / LINE_BYTES;
        if self.l1.access(line, write) {
            return AccessOutcome {
                level: Level::L1,
                latency: self.cfg.l1.latency,
            };
        }
        // L1 miss: the L2 sees the demand stream, which also trains the
        // prefetcher.
        let (level, latency) = if self.l2.access(line, false) {
            (Level::L2, self.cfg.l2.latency)
        } else if self.llc.access(line, false) {
            self.fill_l2(line, false, false);
            (Level::Llc, self.cfg.llc.latency)
        } else {
            self.dram_read_bytes += LINE_BYTES;
            self.fill_llc(line, false, false);
            self.fill_l2(line, false, false);
            (Level::Dram, self.cfg.dram_latency)
        };
        self.fill_l1(line, write);
        self.run_prefetcher(line);
        AccessOutcome { level, latency }
    }

    fn run_prefetcher(&mut self, demand_line: u64) {
        let lines = self.prefetcher.observe(demand_line);
        for pline in lines {
            if self.l2.probe(pline) {
                continue;
            }
            if !self.llc.probe(pline) {
                self.dram_read_bytes += LINE_BYTES;
                self.fill_llc(pline, false, true);
            }
            self.fill_l2(pline, false, true);
        }
    }

    fn fill_l1(&mut self, line: u64, dirty: bool) {
        if let Some(ev) = self.l1.fill(line, dirty, false) {
            if ev.dirty {
                self.fill_l2(ev.line_addr, true, false);
            }
        }
    }

    fn fill_l2(&mut self, line: u64, dirty: bool, prefetch: bool) {
        if let Some(ev) = self.l2.fill(line, dirty, prefetch) {
            if ev.dirty {
                self.fill_llc(ev.line_addr, true, false);
            }
        }
    }

    fn fill_llc(&mut self, line: u64, dirty: bool, prefetch: bool) {
        if let Some(ev) = self.llc.fill(line, dirty, prefetch) {
            if ev.dirty {
                self.dram_write_bytes += LINE_BYTES;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Hierarchy {
        Hierarchy::new(MachineConfig::tiny())
    }

    #[test]
    fn first_touch_misses_everywhere_then_hits_l1() {
        let mut h = tiny();
        let a = 0x1000_0000;
        let first = h.load(a);
        assert_eq!(first.level, Level::Dram);
        assert_eq!(first.latency, h.config().dram_latency);
        let second = h.load(a);
        assert_eq!(second.level, Level::L1);
        assert_eq!(h.stats().dram_read_bytes, LINE_BYTES);
    }

    #[test]
    fn l1_victim_hits_in_l2() {
        let mut h = tiny();
        // Tiny L1 = 8 sets x 2 ways. Fill one set with 3 distinct lines.
        let set_stride = 8 * LINE_BYTES;
        let a = 0x2000_0000;
        for i in 0..3 {
            h.load(a + i * set_stride);
        }
        // First line was evicted from L1 but must still be in L2.
        let out = h.load(a);
        assert_eq!(out.level, Level::L2);
    }

    #[test]
    fn dirty_data_written_back_to_dram_eventually() {
        let mut h = tiny();
        // Write a working set far larger than the whole hierarchy, twice.
        let llc_lines = h.config().llc.lines();
        let n = llc_lines * 8;
        for i in 0..n {
            h.store(0x4000_0000 + i * LINE_BYTES);
        }
        for i in 0..n {
            h.store(0x4000_0000 + i * LINE_BYTES);
        }
        let s = h.stats();
        assert!(s.dram_write_bytes > 0, "dirty evictions must reach DRAM");
        assert!(s.dram_read_bytes >= n * LINE_BYTES);
    }

    #[test]
    fn conservation_hits_plus_misses() {
        let mut h = tiny();
        for i in 0..1000u64 {
            h.load(0x5000_0000 + (i % 37) * LINE_BYTES * 3);
        }
        let s = h.stats();
        assert_eq!(s.l1d.accesses(), 1000);
        assert_eq!(s.l2.accesses(), s.l1d.misses);
        assert_eq!(s.llc.accesses(), s.l2.misses);
    }

    #[test]
    fn nt_store_bypasses_and_invalidates() {
        let mut h = tiny();
        let a = 0x6000_0000;
        h.load(a);
        let before = h.stats();
        h.nt_store(a, LINE_BYTES);
        let after = h.stats();
        assert_eq!(after.dram_write_bytes - before.dram_write_bytes, LINE_BYTES);
        // The line is gone from the hierarchy: next load goes to DRAM.
        let out = h.load(a);
        assert_eq!(out.level, Level::Dram);
    }

    #[test]
    fn reserving_llc_ways_reduces_capacity() {
        let mut h = tiny();
        let lines = h.config().llc.lines();
        // Warm the LLC with exactly its capacity, then re-touch: mostly hits.
        for i in 0..lines {
            h.load(0x7000_0000 + i * LINE_BYTES);
        }
        h.reserve_ways(Level::Llc, 3); // 1 of 4 ways left
        let mut dram_hits = 0;
        for i in 0..lines {
            if h.load(0x7000_0000 + i * LINE_BYTES).level == Level::Dram {
                dram_hits += 1;
            }
        }
        assert!(dram_hits > lines / 2, "reserved ways must shrink LLC reach");
    }

    #[test]
    fn streaming_with_prefetch_hits_l2() {
        let mut cfg = MachineConfig::tiny();
        cfg.prefetch.enabled = true;
        let mut h = Hierarchy::new(cfg);
        let mut l2_or_better = 0;
        let n = 512u64;
        for i in 0..n {
            let out = h.load(0x9000_0000 + i * LINE_BYTES);
            if out.level <= Level::L2 {
                l2_or_better += 1;
            }
        }
        assert!(
            l2_or_better > n / 2,
            "stream prefetcher should convert most DRAM accesses to L2 hits, got {l2_or_better}/{n}"
        );
        assert!(h.stats().l2.prefetch_useful > 0);
    }
}
