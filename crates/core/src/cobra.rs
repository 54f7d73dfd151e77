//! The COBRA machine: a simulated core whose cache hierarchy implements
//! hardware-assisted binning (Sections IV and V).
//!
//! [`CobraMachine`] wraps a [`SimEngine`] and adds the COBRA architecture
//! extensions:
//!
//! * `bininit` — executed at construction: reserves ways at each level
//!   (only the ways actually used by the power-of-two C-Buffer geometry)
//!   and latches per-level bin ranges ([`BinHierarchy`]);
//! * `binupdate` — [`PbBackend::insert`]: a single store-like instruction;
//!   the tuple goes to an L1 C-Buffer, and full C-Buffers cascade through
//!   the eviction-buffer DES ([`EvictionDes`]) down to in-memory bins;
//! * `binflush` — [`PbBackend::flush_and_take`]: walks all C-Buffer levels,
//!   forcing residual tuples to memory (partial LLC lines still cost a full
//!   64 B line of DRAM bandwidth);
//! * an optional context-switch model (Figure 13c): every `quantum` cycles
//!   all LLC C-Buffers are forcibly evicted, wasting the unfilled bytes of
//!   each partial line.
//!
//! Because every tuple bound for the same in-memory bin shares the same L1
//! and L2 C-Buffer (per-level ranges nest) and all buffers are FIFO,
//! per-bin tuple order equals program order — COBRA is safe for
//! non-commutative kernels, the paper's central generality claim.

use crate::backend::{forward_engine, BinStorage, PbBackend};
use crate::evict::{DesConfig, EvictStats, EvictionDes};
use crate::isa::{BinHierarchy, ReservedWays};
use cobra_bins::BinStore;
use cobra_sim::addr::ArrayAddr;
use cobra_sim::engine::{Engine, SimEngine, SimResult};
use cobra_sim::stats::Level;
use cobra_sim::MachineConfig;

/// A simulated core + cache hierarchy with COBRA's binning extensions.
#[derive(Debug)]
pub struct CobraMachine<V> {
    sim: SimEngine,
    hier: BinHierarchy,
    des: EvictionDes,
    /// Functional in-memory bins (columnar, indexed by LLC bin id).
    bins: BinStore<V>,
    bin_base: ArrayAddr,
    /// DRAM bytes from the DES already pushed into the hierarchy counters.
    synced_dram_bytes: u64,
    /// DRAM bytes from the DES already charged as channel bandwidth.
    bw_synced_bytes: u64,
    /// Context-switch quantum in cycles, if modeled.
    ctx_quantum: Option<u64>,
    next_ctx: u64,
    ctx_switches: u64,
    /// When static partitioning is disabled (Section V-E), L1 C-Buffer
    /// lines live in the ordinary cache: their address region and miss
    /// counters.
    unpartitioned: Option<UnpartitionedState>,
}

#[derive(Debug, Clone, Copy)]
struct UnpartitionedState {
    cbuf_base: ArrayAddr,
    accesses: u64,
    misses: u64,
}

impl<V: Copy> CobraMachine<V> {
    /// Builds a COBRA machine. `expected_tuples` sizes the in-memory bin
    /// region (the Init phase's allocation).
    ///
    /// # Panics
    ///
    /// Panics on invalid geometry (see [`BinHierarchy::bininit`]).
    pub fn new(
        machine: MachineConfig,
        reserved: ReservedWays,
        des_cfg: DesConfig,
        num_keys: u32,
        tuple_bytes: u32,
        expected_tuples: u64,
    ) -> Self {
        let hier = BinHierarchy::bininit(&machine, reserved, num_keys, tuple_bytes);
        let mut sim = SimEngine::new(machine);
        // bininit pins only the ways the C-Buffers actually use, letting
        // other data reclaim the rest (Section V-A).
        for (lvl, l) in [Level::L1, Level::L2, Level::Llc]
            .into_iter()
            .zip(hier.levels.iter())
        {
            sim.hierarchy_mut()
                .reserve_ways(lvl, l.ways_used.min(l.ways_reserved));
        }
        let bin_base = sim
            .address_space_mut()
            .alloc("cobra_bins", expected_tuples.max(1) * tuple_bytes as u64);
        let des = EvictionDes::new(&hier, des_cfg);
        let bins = BinStore::with_geometry(
            hier.memory_bin_shift(),
            num_keys,
            hier.levels[2].buffers as usize,
        );
        CobraMachine {
            sim,
            hier,
            des,
            bins,
            bin_base,
            synced_dram_bytes: 0,
            bw_synced_bytes: 0,
            ctx_quantum: None,
            next_ctx: u64::MAX,
            ctx_switches: 0,
            unpartitioned: None,
        }
    }

    /// Disables static cache partitioning (Section V-E, "Need for Static
    /// Cache Partitioning"): un-reserves every way, and C-Buffer accesses
    /// instead contend in the ordinary cache hierarchy. The paper observes
    /// that the replacement policy alone keeps the C-Buffer miss rate under
    /// ~1% because all other Binning-phase accesses are streaming.
    pub fn disable_static_partitioning(&mut self) {
        for lvl in [Level::L1, Level::L2, Level::Llc] {
            self.sim.hierarchy_mut().reserve_ways(lvl, 0);
        }
        let bytes = self.hier.levels[0].buffers * cobra_sim::LINE_BYTES;
        let cbuf_base = self.sim.address_space_mut().alloc("cobra_cbufs", bytes);
        self.unpartitioned = Some(UnpartitionedState {
            cbuf_base,
            accesses: 0,
            misses: 0,
        });
    }

    /// C-Buffer miss rate observed when running without static
    /// partitioning (0.0 when partitioning is on: pinned buffers never
    /// miss).
    pub fn cbuffer_miss_rate(&self) -> f64 {
        match &self.unpartitioned {
            Some(u) if u.accesses > 0 => u.misses as f64 / u.accesses as f64,
            _ => 0.0,
        }
    }

    /// Convenience constructor with the paper's default way reservation and
    /// eviction-buffer sizes.
    pub fn with_defaults(
        machine: MachineConfig,
        num_keys: u32,
        tuple_bytes: u32,
        expected_tuples: u64,
    ) -> Self {
        let reserved = ReservedWays::paper_default(&machine);
        Self::new(
            machine,
            reserved,
            DesConfig::paper_default(),
            num_keys,
            tuple_bytes,
            expected_tuples,
        )
    }

    /// Enables the OS context-switch model: every `quantum` cycles, other
    /// processes evict all (possibly partially filled) LLC C-Buffer lines.
    ///
    /// # Panics
    ///
    /// Panics if `quantum == 0`.
    pub fn set_context_switch_quantum(&mut self, quantum: u64) {
        assert!(quantum > 0, "quantum must be positive");
        self.ctx_quantum = Some(quantum);
        self.next_ctx = quantum;
    }

    /// Context switches taken so far.
    pub fn context_switches(&self) -> u64 {
        self.ctx_switches
    }

    /// Eviction/DES counters.
    pub fn evict_stats(&self) -> EvictStats {
        self.des.stats()
    }

    /// Finishes the run and returns the simulation result. Any un-flushed
    /// tuples are flushed first (as `binflush` would on process exit).
    pub fn finish(mut self) -> SimResult {
        if !self.bins.is_empty() {
            let _ = self.flush_and_take();
        }
        self.sync_dram();
        self.sim.finish()
    }

    fn sync_dram(&mut self) {
        let total = self.des.stats().dram_write_bytes();
        let delta = total - self.synced_dram_bytes;
        if delta > 0 {
            self.sim.hierarchy_mut().add_dram_write_bytes(delta);
            self.synced_dram_bytes = total;
        }
        self.charge_bandwidth();
    }

    /// Charges DES bin-spill traffic against the DRAM channel as it
    /// happens, so demand misses queue behind COBRA's bin writes.
    fn charge_bandwidth(&mut self) {
        let total = self.des.stats().dram_write_bytes();
        let delta = total - self.bw_synced_bytes;
        if delta > 0 {
            self.sim.charge_dram_bandwidth(delta);
            self.bw_synced_bytes = total;
        }
    }

    fn maybe_context_switch(&mut self) {
        if let Some(q) = self.ctx_quantum {
            let now = self.sim.core_mut().cycles();
            if now >= self.next_ctx {
                self.des.force_evict_llc();
                self.ctx_switches += 1;
                while self.next_ctx <= now {
                    self.next_ctx += q;
                }
            }
        }
    }
}

forward_engine!([V: Copy] CobraMachine<V>, sim);

impl<V: Copy> PbBackend<V> for CobraMachine<V> {
    fn bin_shift(&self) -> u32 {
        self.hier.memory_bin_shift()
    }

    fn num_bins(&self) -> usize {
        self.hier.num_memory_bins() as usize
    }

    fn presize(&mut self, counts: &[u64]) {
        assert_eq!(counts.len(), self.num_bins(), "one count per memory bin");
        // Initializing each LLC C-Buffer's tag with its starting bin offset
        // costs one instruction per buffer (Section V-E; the cost is
        // included in the paper's speedups).
        self.sim.alu(counts.len() as u32);
    }

    /// The `binupdate` instruction: one store-like dispatch; C-Buffer
    /// management happens in the cache controllers (no extra instructions,
    /// no branches).
    fn insert(&mut self, key: u32, value: V) {
        if let Some(u) = &mut self.unpartitioned {
            // C-Buffer lines are ordinary cached lines: the binupdate's
            // store can miss under pressure from other data.
            let b = (key >> self.hier.levels[0].shift) as u64;
            let before = self.sim.hierarchy().stats().l1d.misses;
            let addr = u.cbuf_base.base() + b * cobra_sim::LINE_BYTES;
            self.sim.store(addr, self.hier.tuple_bytes);
            u.accesses += 1;
            u.misses += self.sim.hierarchy().stats().l1d.misses - before;
        } else {
            self.sim.core_mut().store();
        }
        self.maybe_context_switch();
        // Timing effect: L1 C-Buffer occupancy and eviction cascade. A key
        // past the domain panics here, before it reaches the bins.
        let now = self.sim.core_mut().cycles();
        if let Some(stall) = self.des.insert(key, now) {
            self.sim.core_mut().stall(stall);
            self.charge_bandwidth();
        }
        // Functional effect: program order per memory bin.
        self.bins.insert(key, value);
    }

    /// The `binflush` instruction: walks L1, then L2, then LLC C-Buffers,
    /// forcing residual tuples to in-memory bins; the core waits for the
    /// walk to complete.
    fn flush_and_take(&mut self) -> BinStorage<V> {
        // One instruction to trigger the flush.
        self.sim.alu(1);
        let now = self.sim.core_mut().cycles();
        let end = self.des.flush(now);
        self.sim.core_mut().stall(end - now);
        self.sync_dram();
        let store = self.bins.take();
        BinStorage::new(self.bin_base, self.hier.tuple_bytes, store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SwPb;
    use crate::evict::simulate_fixed_rate;

    fn keys(n: usize, domain: u32) -> Vec<u32> {
        (0..n)
            .map(|i| ((i as u64 * 2654435761) % domain as u64) as u32)
            .collect()
    }

    fn machine(domain: u32, n: u64) -> CobraMachine<u32> {
        CobraMachine::with_defaults(MachineConfig::hpca22(), domain, 8, n)
    }

    #[test]
    fn per_bin_order_is_program_order() {
        let domain = 1 << 16;
        let ks = keys(20_000, domain);
        let mut m = machine(domain, ks.len() as u64);
        for (i, &k) in ks.iter().enumerate() {
            m.insert(k, i as u32);
        }
        let st = m.flush_and_take();
        for b in 0..st.num_bins() {
            // Values are insertion indices: within a bin they must ascend.
            for w in st.values(b).windows(2) {
                assert!(w[0] < w[1], "bin order violated: {:?}", &w);
            }
        }
        assert_eq!(st.len(), ks.len());
    }

    /// Bins a seeded stream and checks the two things Accumulate relies
    /// on: every tuple sits in the bin that owns its key, and none is lost
    /// or duplicated.
    fn assert_routes_by_shift_and_conserves<B: PbBackend<u32>>(mut backend: B, ks: &[u32]) {
        for (i, &k) in ks.iter().enumerate() {
            backend.insert(k, i as u32);
        }
        let st = backend.flush_and_take();
        for b in 0..st.num_bins() {
            for &k in st.keys(b) {
                assert_eq!((k >> st.bin_shift()) as usize, b, "key {k} in bin {b}");
            }
        }
        assert_eq!(st.len(), ks.len());
    }

    #[test]
    fn both_backends_route_every_key_to_its_owning_bin() {
        let domain = 1 << 16;
        let ks = keys(20_000, domain);
        let n = ks.len() as u64;
        let sw = SwPb::<_, u32>::new(cobra_sim::engine::NullEngine::new(), domain, 64, 8, n);
        assert_routes_by_shift_and_conserves(sw, &ks);
        assert_routes_by_shift_and_conserves(machine(domain, n), &ks);
    }

    #[test]
    fn cobra_bins_equal_software_bins_with_same_geometry() {
        let domain = 1 << 16;
        let ks = keys(10_000, domain);
        let mut m = machine(domain, ks.len() as u64);
        let nbins = PbBackend::<u32>::num_bins(&m);
        let mut sw = SwPb::<_, u32>::new(
            cobra_sim::engine::NullEngine::new(),
            domain,
            nbins,
            8,
            ks.len() as u64,
        );
        assert_eq!(
            PbBackend::<u32>::bin_shift(&m),
            PbBackend::<u32>::bin_shift(&sw)
        );
        for (i, &k) in ks.iter().enumerate() {
            m.insert(k, i as u32);
            sw.insert(k, i as u32);
        }
        let a = m.flush_and_take();
        let b = sw.flush_and_take();
        assert_eq!(
            a.store(),
            b.store(),
            "hardware and software binning must agree"
        );
    }

    #[test]
    fn cobra_executes_far_fewer_instructions_than_software_pb() {
        let domain = 1 << 20;
        let ks = keys(30_000, domain);
        let n = ks.len() as u64;

        let mut m = machine(domain, n);
        for &k in &ks {
            m.insert(k, k);
        }
        let _ = m.flush_and_take();
        let cobra = m.finish();

        let mut sw = SwPb::<_, u32>::new(
            SimEngine::new(MachineConfig::hpca22()),
            domain,
            PbBackend::<u32>::num_bins(&machine(domain, n)),
            8,
            n,
        );
        for &k in &ks {
            sw.insert(k, k);
        }
        let _ = sw.flush_and_take();
        let swr = sw.into_engine().finish();

        assert!(
            swr.core.instructions > 4 * cobra.core.instructions,
            "sw {} vs cobra {}",
            swr.core.instructions,
            cobra.core.instructions
        );
        assert!(
            cobra.cycles() < swr.cycles(),
            "cobra {} sw {}",
            cobra.cycles(),
            swr.cycles()
        );
        // COBRA binning has no C-Buffer management branches.
        assert_eq!(cobra.core.branches, 0);
    }

    #[test]
    fn all_tuples_reach_memory_bins() {
        let domain = 1 << 18;
        let ks = keys(50_000, domain);
        let mut m = machine(domain, ks.len() as u64);
        for &k in &ks {
            m.insert(k, k);
        }
        let st = m.flush_and_take();
        let s = m.evict_stats();
        assert_eq!(s.llc_tuples_written, ks.len() as u64);
        assert_eq!(st.len(), ks.len());
        // DRAM write traffic covers at least the tuple bytes.
        let r = m.finish();
        assert!(r.mem.dram_write_bytes >= ks.len() as u64 * 8);
    }

    #[test]
    fn the_machine_and_the_fixed_rate_driver_run_one_chain() {
        // One key stream down one hierarchy through both drivers: only the
        // core's stalls, which depend on its issue timing, may differ.
        let domain = 1 << 20;
        let ks = keys(30_000, domain);
        let mut m = machine(domain, ks.len() as u64);
        for &k in &ks {
            m.insert(k, k);
        }
        let staged = m.evict_stats();
        let _ = m.flush_and_take();
        let by_machine = m.evict_stats();
        // The flush shipped partial lines out of both L1 and L2.
        assert!(by_machine.l1_lines_evicted > staged.l1_lines_evicted);
        assert!(by_machine.l2_lines_evicted > staged.l2_lines_evicted);
        let cfg = MachineConfig::hpca22();
        let hier = BinHierarchy::bininit(&cfg, ReservedWays::paper_default(&cfg), domain, 8);
        let by_rate =
            simulate_fixed_rate(&hier, DesConfig::paper_default(), ks.iter().copied(), 1).stats;
        let timeless = |s: EvictStats| EvictStats {
            core_stall_cycles: 0,
            ..s
        };
        assert_eq!(timeless(by_machine), timeless(by_rate));
    }

    #[test]
    #[should_panic(expected = "key 100 out of range (domain is 0..100)")]
    fn a_key_past_the_domain_panics_in_every_build() {
        // On the tiny machine the L1 C-Buffers' power-of-two ranges (16
        // keys each) cover 0..112: only the range check refuses key 100.
        let ways = ReservedWays {
            l1: 1,
            l2: 1,
            llc: 1,
        };
        let des = DesConfig::paper_default();
        let mut m = CobraMachine::<u32>::new(MachineConfig::tiny(), ways, des, 100, 8, 10);
        m.insert(100, 0);
    }

    #[test]
    fn context_switches_waste_bandwidth() {
        let domain = 1 << 20;
        let ks = keys(60_000, domain);
        let mut with_ctx = machine(domain, ks.len() as u64);
        with_ctx.set_context_switch_quantum(5_000);
        let mut without = machine(domain, ks.len() as u64);
        for &k in &ks {
            with_ctx.insert(k, k);
            without.insert(k, k);
        }
        let _ = with_ctx.flush_and_take();
        let _ = without.flush_and_take();
        assert!(with_ctx.context_switches() > 0);
        assert!(
            with_ctx.evict_stats().wasted_bytes > without.evict_stats().wasted_bytes,
            "ctx {} vs none {}",
            with_ctx.evict_stats().wasted_bytes,
            without.evict_stats().wasted_bytes
        );
    }

    #[test]
    fn finish_flushes_implicitly() {
        let domain = 1 << 12;
        let mut m = machine(domain, 100);
        for k in 0..100u32 {
            m.insert(k * 13 % domain, k);
        }
        let r = m.finish();
        assert!(r.mem.dram_write_bytes > 0);
    }

    #[test]
    fn presize_costs_one_instruction_per_bin() {
        let domain = 1 << 16;
        let mut m = machine(domain, 10);
        let nbins = PbBackend::<u32>::num_bins(&m);
        let before = 0; // fresh machine has no instructions
        m.presize(&vec![0; nbins]);
        let r = m.finish();
        assert!(r.core.instructions >= before + nbins as u64);
    }

    #[test]
    fn engine_passthrough_traces_normally() {
        let mut m = machine(1 << 12, 10);
        let a = m.alloc("stream", 1 << 16);
        m.phase("streaming");
        for i in 0..1000u64 {
            m.load(a.addr(8, i), 8);
        }
        let r = m.finish();
        assert!(r.phase("streaming").is_some());
        assert_eq!(r.mem.loads, 1000);
    }
}

#[cfg(test)]
mod unpartitioned_tests {
    use super::*;
    use crate::backend::PbBackend;

    #[test]
    fn unpartitioned_cobra_is_functionally_identical() {
        let domain = 1 << 16;
        let keys: Vec<u32> = (0..20_000u64)
            .map(|i| ((i * 2654435761) % domain as u64) as u32)
            .collect();
        let mut pinned = CobraMachine::<u32>::with_defaults(
            MachineConfig::hpca22(),
            domain,
            8,
            keys.len() as u64,
        );
        let mut free = CobraMachine::<u32>::with_defaults(
            MachineConfig::hpca22(),
            domain,
            8,
            keys.len() as u64,
        );
        free.disable_static_partitioning();
        for &k in &keys {
            pinned.insert(k, k);
            free.insert(k, k);
        }
        let a = pinned.flush_and_take();
        let b = free.flush_and_take();
        assert_eq!(a.store(), b.store());
    }

    #[test]
    fn unpartitioned_cbuffer_miss_rate_is_low_under_streaming() {
        // Section V-E: without partitioning, streaming co-traffic leaves
        // the replacement policy able to keep C-Buffers resident.
        let domain = 1 << 20;
        let n = 60_000u64;
        let mut m = CobraMachine::<u32>::with_defaults(MachineConfig::hpca22(), domain, 8, n);
        m.disable_static_partitioning();
        let stream = Engine::alloc(&mut m, "edges", n * 8);
        for i in 0..n {
            // Streaming input load, then a binupdate — the Binning phase's
            // actual access mix.
            Engine::load(&mut m, stream.addr(8, i), 8);
            let k = ((i * 2654435761) % domain as u64) as u32;
            m.insert(k, k);
        }
        let _ = m.flush_and_take();
        let rate = m.cbuffer_miss_rate();
        assert!(rate < 0.10, "C-Buffer miss rate {rate} too high");
        assert!(rate > 0.0, "expected some contention misses");
    }

    #[test]
    fn pinned_mode_reports_zero_cbuffer_misses() {
        let m = CobraMachine::<u32>::with_defaults(MachineConfig::hpca22(), 1 << 12, 8, 10);
        assert_eq!(m.cbuffer_miss_rate(), 0.0);
        let _ = PbBackend::<u32>::num_bins(&m);
    }
}
