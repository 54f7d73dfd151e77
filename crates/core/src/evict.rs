//! C-Buffer eviction machinery: FIFO eviction buffers and binning engines
//! (Sections V-D and V-E), modeled as a discrete-event simulation.
//!
//! When a C-Buffer at level `L_i` fills, its line is pushed into a FIFO
//! *eviction buffer*; the *binning engine* between `L_i` and `L_{i+1}` pops
//! lines and re-inserts their tuples one per cycle into the next level's
//! C-Buffers. A full eviction buffer back-pressures: a full L1 buffer with a
//! full L1→L2 FIFO stalls the core; a full L2→LLC FIFO stalls the first
//! binning engine. Full LLC C-Buffers are written to their in-memory bin
//! (64 B DRAM line) using the bin offset stored in the repurposed tag.
//!
//! The DES uses eager scheduling: each line is assigned its engine start
//! time when created, and queue occupancy at time `t` is the number of
//! scheduled lines that have not yet started. This reproduces the paper's
//! Figure 13a methodology (stall fraction vs. eviction-buffer size).

use crate::backend::Level;
use crate::isa::BinHierarchy;
use cobra_pb::route::Destinations;
use cobra_pb::Tuple;
use cobra_sim::LINE_BYTES;
use std::collections::VecDeque;
use std::convert::Infallible;

/// Eviction-buffer sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DesConfig {
    /// L1→L2 eviction-buffer entries (the paper settles on 32).
    pub l1_evict_entries: usize,
    /// L2→LLC eviction-buffer entries (the paper overprovisions to 8).
    pub l2_evict_entries: usize,
}

impl DesConfig {
    /// The paper's chosen sizes: 32 and 8 entries.
    pub fn paper_default() -> Self {
        DesConfig {
            l1_evict_entries: 32,
            l2_evict_entries: 8,
        }
    }
}

impl Default for DesConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Counters accumulated by the eviction DES.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvictStats {
    /// Full-line writes of LLC C-Buffers to in-memory bins.
    pub llc_lines_written: u64,
    /// Tuples carried by those lines.
    pub llc_tuples_written: u64,
    /// Partial-line writes (binflush / forced context-switch evictions).
    pub partial_lines_written: u64,
    /// Bytes of DRAM bandwidth wasted by partial lines (64 B minus the
    /// bytes of live tuples in the line).
    pub wasted_bytes: u64,
    /// Core stall cycles caused by a full L1→L2 eviction buffer.
    pub core_stall_cycles: u64,
    /// L1 C-Buffer lines evicted.
    pub l1_lines_evicted: u64,
    /// L2 C-Buffer lines evicted.
    pub l2_lines_evicted: u64,
}

impl EvictStats {
    /// Total DRAM bytes written to bins (full + partial lines).
    pub fn dram_write_bytes(&self) -> u64 {
        (self.llc_lines_written + self.partial_lines_written) * LINE_BYTES
    }
}

/// A C-Buffer line's tuples, keys only: the DES times the lines, and
/// the values travel in the caller's functional bins.
type Line = Vec<Tuple<()>>;

/// Discrete-event model of the C-Buffer levels, the two binning engines
/// and their FIFOs. L1 → L2 → LLC are three chained [`route`] levels: an
/// L1 line that fills is shipped into the L1→L2 eviction buffer, whose
/// engine routes its keys into L2, whose full lines go the same way into
/// the LLC, whose full lines are written to memory.
///
/// [`route`]: cobra_pb::route::route
#[derive(Debug, Clone)]
pub struct EvictionDes {
    l1: Level<Line, Evict<Evict<ToMemory>>>,
}

/// A level's destinations, timed by the clock of what fills the level:
/// the core for L1, binning engine 1 for L2, engine 2 for the LLC.
trait Clocked: Destinations<(), Frame = Line, Refusal = Infallible> {
    /// The filler's clock; a ship advances it by any wait it imposes.
    fn clock(&mut self) -> &mut u64;
}

impl<D: Destinations<(), Frame = Line, Refusal = Infallible>> Level<Line, D> {
    fn new(hier: &BinHierarchy, level: usize, to: D) -> Self {
        let l = &hier.levels[level];
        Level {
            shift: l.shift,
            num_keys: hier.num_keys,
            line: hier.tuples_per_line() as usize,
            frames: (0..l.buffers).map(|_| Vec::new()).collect(),
            to,
        }
    }

    /// The `binflush` walk: ships every non-empty line in buffer order,
    /// running `after` once per line shipped.
    fn walk(&mut self, mut after: impl FnMut(&mut D)) {
        for (d, frame) in self.frames.iter_mut().enumerate() {
            if !frame.is_empty() {
                let Ok(()) = self.to.ship(d, frame);
                after(&mut self.to);
            }
        }
    }
}

/// An eviction buffer and the binning engine that drains it into the
/// next level.
#[derive(Debug, Clone)]
struct Evict<N> {
    /// Lines the buffer holds.
    entries: usize,
    /// Scheduled start times of lines waiting for the engine.
    starts: VecDeque<u64>,
    /// When the engine finishes the last line scheduled on it.
    engine_free_at: u64,
    /// The producer's clock (see [`Clocked`]).
    clock: u64,
    /// Cycles the producer waited on a full buffer.
    waited: u64,
    /// Lines pushed.
    lines: u64,
    next: Level<Line, N>,
}

impl<N: Clocked> Evict<N> {
    fn new(entries: usize, next: Level<Line, N>) -> Self {
        Evict {
            entries,
            starts: VecDeque::new(),
            engine_free_at: 0,
            clock: 0,
            waited: 0,
            lines: 0,
            next,
        }
    }
}

impl<N: Clocked> Destinations<()> for Evict<N> {
    type Frame = Line;
    type Refusal = Infallible;

    /// Pushes `line` at the producer's clock, which first waits for a free
    /// entry if the buffer is full. The engine then re-bins its tuples one
    /// per cycle; lines they fill leave at the time the engine finishes
    /// this one, and any back-pressure they meet delays the engine.
    fn ship(&mut self, _: usize, line: &mut Line) -> Result<(), Infallible> {
        self.lines += 1;
        // Occupancy at `t`: scheduled lines that have not started yet.
        let t = self.clock;
        while self.starts.front().is_some_and(|&s| s <= t) {
            self.starts.pop_front();
        }
        if self.starts.len() >= self.entries {
            // Wait until enough older lines have started.
            let wait = self.starts[self.starts.len() - self.entries] - t;
            self.clock += wait;
            self.waited += wait;
        }
        let start = self.engine_free_at.max(self.clock);
        self.starts.push_back(start);
        *self.next.to.clock() = start + line.len() as u64;
        self.next.route(line.iter().map(|t| (t.key, ())));
        self.engine_free_at = *self.next.to.clock();
        line.clear();
        Ok(())
    }
}

impl<N: Clocked> Clocked for Evict<N> {
    fn clock(&mut self) -> &mut u64 {
        &mut self.clock
    }
}

/// In-memory bins as the LLC C-Buffers' destinations: a line is written
/// to its bin at `BinBasePtr + BinOffset[binID]` (the offset lives in the
/// repurposed tag), and a partial line still costs a whole DRAM line.
#[derive(Debug, Clone)]
struct ToMemory {
    tuple_bytes: u32,
    /// Engine 2's clock; a memory write never makes it wait.
    clock: u64,
    /// The line and waste counters of [`EvictStats`].
    written: EvictStats,
}

impl Destinations<()> for ToMemory {
    type Frame = Line;
    type Refusal = Infallible;

    fn ship(&mut self, _: usize, line: &mut Line) -> Result<(), Infallible> {
        let w = &mut self.written;
        let wasted = LINE_BYTES - line.len() as u64 * self.tuple_bytes as u64;
        if wasted == 0 {
            w.llc_lines_written += 1;
        } else {
            w.partial_lines_written += 1;
        }
        w.llc_tuples_written += line.len() as u64;
        w.wasted_bytes += wasted;
        line.clear();
        Ok(())
    }
}

impl Clocked for ToMemory {
    fn clock(&mut self) -> &mut u64 {
        &mut self.clock
    }
}

impl EvictionDes {
    /// Creates the DES for the given C-Buffer hierarchy.
    pub fn new(hier: &BinHierarchy, cfg: DesConfig) -> Self {
        assert!(cfg.l1_evict_entries > 0 && cfg.l2_evict_entries > 0);
        let memory = ToMemory {
            tuple_bytes: hier.tuple_bytes,
            clock: 0,
            written: EvictStats::default(),
        };
        let llc = Level::new(hier, 2, memory);
        let l2 = Level::new(hier, 1, Evict::new(cfg.l2_evict_entries, llc));
        EvictionDes {
            l1: Level::new(hier, 0, Evict::new(cfg.l1_evict_entries, l2)),
        }
    }

    /// Current counters.
    pub fn stats(&self) -> EvictStats {
        let l1 = &self.l1.to;
        let l2 = &l1.next.to;
        EvictStats {
            core_stall_cycles: l1.waited,
            l1_lines_evicted: l1.lines,
            l2_lines_evicted: l2.lines,
            ..l2.next.to.written
        }
    }

    /// `binupdate`'s timing: stages `key` in its L1 C-Buffer at core time
    /// `now`. If that fills the line, the line cascades down the levels
    /// and the result is `Some` of the cycles the core must stall because
    /// the L1→L2 eviction buffer was full.
    ///
    /// # Panics
    ///
    /// Panics if `key` is past the hierarchy's key range.
    pub fn insert(&mut self, key: u32, now: u64) -> Option<u64> {
        let lines = self.l1.to.lines;
        self.l1.to.clock = now;
        self.l1.route([(key, ())]);
        (self.l1.to.lines > lines).then(|| self.l1.to.clock - now)
    }

    /// `binflush`, starting at core time `now`: ships every partially
    /// filled L1 C-Buffer (the core stalls on a full eviction buffer as
    /// in [`insert`](Self::insert)), then drains every partially filled
    /// L2 C-Buffer through binning engine 2, then writes every non-empty
    /// LLC C-Buffer to memory as a (possibly partial) line.
    ///
    /// Returns the cycle at which the flush completes.
    pub fn flush(&mut self, now: u64) -> u64 {
        self.l1.to.clock = now;
        self.l1.walk(|_| {});
        let e1 = &mut self.l1.to;
        let l2 = &mut e1.next;
        l2.to.clock = e1.engine_free_at.max(e1.clock);
        l2.walk(|e2| e2.clock += 1); // one cycle to walk the buffer
        let mut t = l2.to.clock.max(l2.to.engine_free_at);
        l2.to.next.walk(|_| t += 1);
        l2.to.engine_free_at = t;
        e1.engine_free_at = t;
        t
    }

    /// Forced eviction of every non-empty LLC C-Buffer (a context switch
    /// under static way partitioning, Figure 13c): each becomes a 64 B DRAM
    /// line regardless of how many live tuples it holds.
    pub fn force_evict_llc(&mut self) {
        self.l1.to.next.to.next.walk(|_| {});
    }
}

/// Result of a fixed-rate DES run (the paper's Figure 13a experiment).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixedRateReport {
    /// Total cycles simulated.
    pub cycles: u64,
    /// Eviction statistics; `core_stall_cycles` counts the cycles the
    /// producer was stalled on a full L1→L2 eviction buffer.
    pub stats: EvictStats,
}

impl FixedRateReport {
    /// Fraction of execution stalled on the eviction buffer.
    pub fn stall_fraction(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.stats.core_stall_cycles as f64 / self.cycles as f64
        }
    }
}

/// Drives the DES with a tuple trace at a fixed issue rate of one tuple per
/// `issue_interval` cycles, modeling the Binning-phase core as the paper's
/// DES does. Returns the stall report for the given eviction-buffer sizes.
pub fn simulate_fixed_rate<I>(
    hier: &BinHierarchy,
    cfg: DesConfig,
    keys: I,
    issue_interval: u64,
) -> FixedRateReport
where
    I: IntoIterator<Item = u32>,
{
    assert!(issue_interval > 0, "issue interval must be positive");
    let mut des = EvictionDes::new(hier, cfg);
    let mut now = 0u64;
    for k in keys {
        now += issue_interval;
        now += des.insert(k, now).unwrap_or(0);
    }
    let cycles = des.flush(now);
    FixedRateReport {
        cycles,
        stats: des.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::ReservedWays;
    use cobra_sim::config::MachineConfig;

    fn hier() -> BinHierarchy {
        let m = MachineConfig::hpca22();
        BinHierarchy::bininit(&m, ReservedWays::paper_default(&m), 1 << 20, 8)
    }

    #[test]
    fn tuples_are_conserved() {
        let h = hier();
        let n = 100_000u64;
        let keys = (0..n).map(|i| ((i * 2654435761) % (1 << 20)) as u32);
        let r = simulate_fixed_rate(&h, DesConfig::paper_default(), keys, 2);
        let s = r.stats;
        assert_eq!(
            s.llc_tuples_written, n,
            "every tuple must reach an in-memory bin (full {} partial {})",
            s.llc_lines_written, s.partial_lines_written
        );
    }

    #[test]
    fn large_eviction_buffer_eliminates_stalls() {
        let h = hier();
        let keys: Vec<u32> = (0..200_000u64)
            .map(|i| ((i * 2654435761) % (1 << 20)) as u32)
            .collect();
        let big = simulate_fixed_rate(
            &h,
            DesConfig {
                l1_evict_entries: 64,
                l2_evict_entries: 8,
            },
            keys.iter().copied(),
            2,
        );
        assert!(
            big.stall_fraction() < 0.01,
            "fraction {}",
            big.stall_fraction()
        );
    }

    #[test]
    fn tiny_eviction_buffer_stalls_more() {
        let h = hier();
        let keys: Vec<u32> = (0..200_000u64)
            .map(|i| ((i * 2654435761) % (1 << 20)) as u32)
            .collect();
        let tiny = simulate_fixed_rate(
            &h,
            DesConfig {
                l1_evict_entries: 1,
                l2_evict_entries: 8,
            },
            keys.iter().copied(),
            1, // full-rate producer
        );
        let big = simulate_fixed_rate(
            &h,
            DesConfig {
                l1_evict_entries: 32,
                l2_evict_entries: 8,
            },
            keys.iter().copied(),
            1,
        );
        assert!(
            tiny.stall_fraction() >= big.stall_fraction(),
            "tiny {} < big {}",
            tiny.stall_fraction(),
            big.stall_fraction()
        );
    }

    #[test]
    fn flush_writes_partial_lines_and_counts_waste() {
        let h = hier();
        let mut des = EvictionDes::new(&h, DesConfig::paper_default());
        // 8 tuples bound for 8 different LLC bins: all stay partial until
        // flush.
        for k in (0..8).map(|i| i * 64) {
            des.insert(k, 0);
        }
        let end = des.flush(100);
        assert!(end >= 100);
        let s = des.stats();
        assert_eq!(s.llc_tuples_written, 8);
        assert_eq!(s.llc_lines_written, 0);
        assert_eq!(s.partial_lines_written, 8);
        // Each partial line carries 1 tuple of 8 B -> 56 B wasted.
        assert_eq!(s.wasted_bytes, 8 * 56);
    }

    #[test]
    fn full_lines_waste_nothing() {
        let h = hier();
        let mut des = EvictionDes::new(&h, DesConfig::paper_default());
        // 8 tuples to the same LLC bin (keys within one range-64 window).
        for k in 0..8 {
            des.insert(k, 0);
        }
        // Give engines time, then flush.
        des.flush(1000);
        let s = des.stats();
        assert_eq!(s.llc_lines_written, 1);
        assert_eq!(s.wasted_bytes, 0);
    }

    #[test]
    fn force_evict_counts_context_switch_waste() {
        let h = hier();
        let mut des = EvictionDes::new(&h, DesConfig::paper_default());
        // The 8 keys share an L1 and an L2 C-Buffer, so the eighth fills
        // both lines and the tuples reach the LLC.
        for k in (0..8).map(|i| i * 64) {
            des.insert(k, 0);
        }
        assert_eq!(des.stats().l2_lines_evicted, 1);
        des.force_evict_llc();
        assert_eq!(des.stats().partial_lines_written, 8);
        assert!(des.stats().wasted_bytes > 0);
        // Idempotent: nothing left to evict.
        let before = des.stats();
        des.force_evict_llc();
        assert_eq!(des.stats(), before);
    }

    #[test]
    fn skewed_keys_fill_llc_lines() {
        // All keys in one 64-key window: every 8 tuples complete an LLC line.
        let h = hier();
        let keys = (0..800u32).map(|i| i % 64);
        let r = simulate_fixed_rate(&h, DesConfig::paper_default(), keys, 2);
        assert!(r.stats.llc_lines_written >= 90, "{:?}", r.stats);
    }

    #[test]
    fn tiny_l2_fifo_backpressures_engine_one() {
        // With a 1-entry L2->LLC FIFO, binning engine 1 must wait for
        // engine 2, lengthening its busy time and ultimately stalling the
        // core more than a comfortable FIFO would.
        let h = hier();
        let keys: Vec<u32> = (0..100_000u64)
            .map(|i| ((i * 2654435761) % (1 << 20)) as u32)
            .collect();
        let tight = simulate_fixed_rate(
            &h,
            DesConfig {
                l1_evict_entries: 4,
                l2_evict_entries: 1,
            },
            keys.iter().copied(),
            1,
        );
        let roomy = simulate_fixed_rate(
            &h,
            DesConfig {
                l1_evict_entries: 4,
                l2_evict_entries: 16,
            },
            keys.iter().copied(),
            1,
        );
        assert!(
            tight.stats.core_stall_cycles >= roomy.stats.core_stall_cycles,
            "tight {} vs roomy {}",
            tight.stats.core_stall_cycles,
            roomy.stats.core_stall_cycles
        );
        // Both still deliver every tuple.
        assert_eq!(tight.stats.llc_tuples_written, keys.len() as u64);
        assert_eq!(roomy.stats.llc_tuples_written, keys.len() as u64);
    }

    #[test]
    fn dram_bytes_accounting() {
        let s = EvictStats {
            llc_lines_written: 10,
            partial_lines_written: 3,
            ..Default::default()
        };
        assert_eq!(s.dram_write_bytes(), 13 * 64);
    }
}
