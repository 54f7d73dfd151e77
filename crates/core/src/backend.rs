//! The [`PbBackend`] abstraction: one kernel implementation, many binning
//! substrates.
//!
//! A kernel's PB form is identical whether binning is done in software
//! (extra instructions, C-Buffers in the normal cache hierarchy) or by
//! COBRA hardware (`binupdate`). Kernels are therefore written once against
//! [`PbBackend`]; [`SwPb`] provides the software implementation
//! (reproducing PB's instruction and locality behaviour on the simulated
//! machine), and [`CobraMachine`](crate::cobra::CobraMachine) the hardware
//! one.

use cobra_bins::{bin_geometry, cbuf_capacity, BinMemory, BinStore, CBufFrame};
use cobra_pb::route::{route, Destinations, Stop};
use cobra_sim::addr::ArrayAddr;
use cobra_sim::engine::Engine;
use cobra_sim::LINE_BYTES;
use std::convert::Infallible;

/// In-memory bins produced by a Binning phase, with the synthetic addresses
/// at which their tuples live (sequential per bin, bins contiguous — the
/// paper's Figure 9 layout).
///
/// Backed by the workspace-shared columnar [`BinStore`]: the simulated
/// address mapping lives here, the tuple data lives in the store's
/// per-bin `keys`/`values` columns.
#[derive(Debug, Clone)]
pub struct BinStorage<V> {
    base: ArrayAddr,
    tuple_bytes: u32,
    store: BinStore<V>,
}

impl<V> BinStorage<V> {
    /// Assembles storage from a functional columnar store.
    pub fn new(base: ArrayAddr, tuple_bytes: u32, store: BinStore<V>) -> Self {
        BinStorage {
            base,
            tuple_bytes,
            store,
        }
    }

    /// Number of bins.
    pub fn num_bins(&self) -> usize {
        self.store.num_bins()
    }

    /// log2 of the key range per bin.
    pub fn bin_shift(&self) -> u32 {
        self.store.bin_shift()
    }

    /// Total tuples.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the storage holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Bytes per tuple.
    pub fn tuple_bytes(&self) -> u32 {
        self.tuple_bytes
    }

    /// First byte of the bin region (tuples are laid out sequentially from
    /// here in bin-major order).
    pub fn base_addr(&self) -> u64 {
        self.base.base()
    }

    /// The backing columnar store.
    pub fn store(&self) -> &BinStore<V> {
        &self.store
    }

    /// Unwraps into the backing store (e.g. to freeze and share it).
    pub fn into_store(self) -> BinStore<V> {
        self.store
    }

    /// The key column of bin `b`, in insertion order.
    pub fn keys(&self, b: usize) -> &[u32] {
        self.store.keys(b)
    }

    /// The value column of bin `b`, in insertion order.
    pub fn values(&self, b: usize) -> &[V] {
        self.store.values(b)
    }

    /// Borrowed iteration over bin `b`'s tuples (nothing is cloned).
    pub fn iter_bin(&self, b: usize) -> impl Iterator<Item = (u32, &V)> {
        self.store.iter_bin(b).map(|(&k, v)| (k, v))
    }

    /// Bin-memory footprint of the backing columns.
    pub fn memory(&self) -> BinMemory {
        self.store.memory()
    }

    /// Iterates tuples bin-major with their memory addresses (sequential —
    /// the Accumulate phase's bin reads are streaming).
    pub fn iter(&self) -> impl Iterator<Item = (u64, u32, &V)> {
        let base = self.base.base();
        let tb = self.tuple_bytes as u64;
        (0..self.store.num_bins())
            .flat_map(move |b| self.store.iter_bin(b))
            .enumerate()
            .map(move |(i, (&k, v))| (base + i as u64 * tb, k, v))
    }
}

/// Implements [`Engine`] for a backend by handing every event, in order,
/// to the engine at `self.$path`, so the backend's trace and its kernel's
/// reach one engine.
macro_rules! forward_engine {
    ([$($generics:tt)*] $backend:ty, $($path:ident).+) => {
        impl<$($generics)*> cobra_sim::engine::Engine for $backend {
            fn alloc(&mut self, name: &str, bytes: u64) -> cobra_sim::addr::ArrayAddr {
                self.$($path).+.alloc(name, bytes)
            }
            fn load(&mut self, addr: u64, bytes: u32) {
                self.$($path).+.load(addr, bytes);
            }
            fn store(&mut self, addr: u64, bytes: u32) {
                self.$($path).+.store(addr, bytes);
            }
            fn nt_store(&mut self, addr: u64, bytes: u32) {
                self.$($path).+.nt_store(addr, bytes);
            }
            fn alu(&mut self, n: u32) {
                self.$($path).+.alu(n);
            }
            fn branch(&mut self, pc: u64, taken: bool) {
                self.$($path).+.branch(pc, taken);
            }
            fn phase(&mut self, name: &'static str) {
                self.$($path).+.phase(name);
            }
        }
    };
}
pub(crate) use forward_engine;

/// A binning substrate: routes update tuples into in-memory bins while
/// reporting the corresponding dynamic trace.
///
/// A backend is itself the [`Engine`] its kernel reports to, so the
/// kernel's own loads, stores and branches interleave with the backend's
/// binning trace in program order.
pub trait PbBackend<V: Copy>: Engine {
    /// log2 of the in-memory bin key range.
    fn bin_shift(&self) -> u32;

    /// Number of in-memory bins.
    fn num_bins(&self) -> usize;

    /// Declares exact per-bin tuple counts (the Init phase's `BinOffset`
    /// pre-computation; both PB and COBRA require it for the sequential
    /// bin layout).
    fn presize(&mut self, counts: &[u64]);

    /// Routes one update tuple (software: ~6 instructions + a branch;
    /// COBRA: one `binupdate`).
    fn insert(&mut self, key: u32, value: V);

    /// Ends Binning (software: flush partial C-Buffers; COBRA: `binflush`)
    /// and hands the bins to the Accumulate phase.
    fn flush_and_take(&mut self) -> BinStorage<V>;

    /// The Init phase: streams the `n` inputs through `key_of` (which
    /// emits the input loads and returns each key), histograms the keys by
    /// bin, emitting the histogram's own accesses, and [`presize`]s the
    /// bins with the counts.
    ///
    /// [`presize`]: PbBackend::presize
    fn init_bins<F>(&mut self, n: usize, mut key_of: F)
    where
        Self: Sized,
        F: FnMut(&mut Self, usize) -> u32,
    {
        self.phase(crate::exec::phases::INIT);
        let shift = self.bin_shift();
        let mut counts = vec![0u64; self.num_bins()];
        let counts_addr = self.alloc("bin_counts", counts.len() as u64 * 8);
        for i in 0..n {
            let b = (key_of(self, i) >> shift) as u64;
            // shift + micro-fused increment of counts[b].
            self.alu(1);
            self.load(counts_addr.addr(8, b), 8);
            self.store(counts_addr.addr(8, b), 8);
            counts[b as usize] += 1;
        }
        self.presize(&counts);
    }
}

/// One level of C-Buffers: a frame per buffer, the shift that names a
/// key's buffer, and where a full frame goes. Staging is [`route`] at one
/// cache line of tuples per frame.
#[derive(Debug, Clone)]
pub(crate) struct Level<F, D> {
    pub(crate) shift: u32,
    pub(crate) num_keys: u32,
    pub(crate) line: usize,
    pub(crate) frames: Vec<F>,
    pub(crate) to: D,
}

impl<F, D> Level<F, D> {
    /// Stages `run` in order, shipping each frame it fills. A key past the
    /// domain panics before it is staged, as in `cobra_pb::Binner`.
    pub(crate) fn route<V>(&mut self, run: impl IntoIterator<Item = (u32, V)>)
    where
        D: Destinations<V, Frame = F, Refusal = Infallible>,
    {
        let (num_keys, shift, line) = (self.num_keys, self.shift, self.line);
        let (_, stopped) = route(run, &mut self.frames, &mut self.to, num_keys, shift, line);
        if let Err(Stop::KeyOutOfRange(key)) = stopped {
            panic!("key {key} out of range (domain is 0..{num_keys})");
        }
    }
}

/// Software Propagation Blocking backend: per-insert C-Buffer management in
/// "software" (extra instructions and branches) with the C-Buffers,
/// occupancy counters and bin cursors living in the normal cache hierarchy;
/// full C-Buffers are bulk-written to bins with non-temporal stores.
#[derive(Debug)]
pub struct SwPb<E, V> {
    level: Level<CBufFrame<V>, SwBins<E, V>>,
}

/// Software PB's bins as the destinations of its C-Buffers, with the
/// engine that sees the trace of every step.
#[derive(Debug)]
struct SwBins<E, V> {
    engine: E,
    tuple_bytes: u32,
    store: BinStore<V>,
    cbuf_base: ArrayAddr,
    occ_base: ArrayAddr,
    binoff_base: ArrayAddr,
    bin_base: ArrayAddr,
    /// Start offset (in tuples) of each bin in the bin region.
    bin_start: Vec<u64>,
    /// Tuples already written to each bin.
    bin_written: Vec<u64>,
}

impl<E: Engine, V: Copy> Destinations<V> for SwBins<E, V> {
    type Frame = CBufFrame<V>;
    type Refusal = Infallible;
    const MERGES: bool = true;

    /// Not a merge: the software binning trace of a tuple about to take
    /// its slot (Algorithm 2, lines 3-5, plus C-Buffer management) —
    /// compute the bin id, read the occupancy counter, store the tuple
    /// into the C-Buffer line, bump and write the counter, then branch on
    /// "buffer full?".
    #[inline]
    fn merge(&mut self, b: usize, cbuf: &mut CBufFrame<V>, _: u32, _: &V) -> bool {
        let (b, tb) = (b as u64, self.tuple_bytes);
        self.engine.alu(1);
        self.engine.load(self.occ_base.addr(4, b), 4);
        self.engine.alu(2); // C-Buffer slot address computation
        let slot = self.cbuf_base.addr(LINE_BYTES, b) + cbuf.len() as u64 * tb as u64;
        self.engine.store(slot, tb);
        self.engine.alu(1);
        self.engine.store(self.occ_base.addr(4, b), 4);
        self.engine
            .branch(0x100 + b % 16, cbuf.len() + 1 == cbuf.capacity());
        false
    }

    /// Bulk transfer: read the bin cursor, read the C-Buffer line, write
    /// it to the bin with a non-temporal store, advance the cursor.
    fn ship(&mut self, b: usize, cbuf: &mut CBufFrame<V>) -> Result<(), Infallible> {
        let (n, tb) = (cbuf.len() as u64, self.tuple_bytes as u64);
        let cursor = self.bin_start[b] + self.bin_written[b];
        self.engine.load(self.binoff_base.addr(8, b as u64), 8);
        let line = self.cbuf_base.addr(LINE_BYTES, b as u64);
        self.engine.load(line, LINE_BYTES as u32);
        self.engine
            .nt_store(self.bin_base.base() + cursor * tb, (n * tb) as u32);
        self.engine.alu(4); // SIMD copy-loop arithmetic + cursor update
        self.engine.store(self.binoff_base.addr(8, b as u64), 8);
        self.bin_written[b] += n;
        cbuf.flush_into(&mut self.store, b);
        Ok(())
    }
}

impl<E: Engine, V: Copy> SwPb<E, V> {
    /// Creates a software-PB backend over `engine` with at least `min_bins`
    /// bins for keys `0..num_keys`; `expected_tuples` sizes the bin region.
    ///
    /// # Panics
    ///
    /// Panics if `num_keys == 0`, `min_bins == 0`, or `tuple_bytes` is not a
    /// power of two between 4 and 64.
    pub fn new(
        mut engine: E,
        num_keys: u32,
        min_bins: usize,
        tuple_bytes: u32,
        expected_tuples: u64,
    ) -> Self {
        assert!(num_keys > 0 && min_bins > 0);
        assert!(
            (4..=LINE_BYTES as u32).contains(&tuple_bytes) && tuple_bytes.is_power_of_two(),
            "bad tuple size {tuple_bytes}"
        );
        // Workspace-standard geometry (same rounding as cobra_pb::Binner).
        let (shift, num_bins) = bin_geometry(num_keys, min_bins);
        let line = cbuf_capacity(tuple_bytes as usize);
        let cbuf_base = engine.alloc("pb_cbufs", num_bins as u64 * LINE_BYTES);
        let occ_base = engine.alloc("pb_cbuf_occ", num_bins as u64 * 4);
        let binoff_base = engine.alloc("pb_bin_offsets", num_bins as u64 * 8);
        let bin_base = engine.alloc("pb_bins", expected_tuples.max(1) * tuple_bytes as u64);
        let to = SwBins {
            engine,
            tuple_bytes,
            store: BinStore::with_geometry(shift, num_keys, num_bins),
            cbuf_base,
            occ_base,
            binoff_base,
            bin_base,
            bin_start: vec![0; num_bins],
            bin_written: vec![0; num_bins],
        };
        let frames = (0..num_bins).map(|_| CBufFrame::with_capacity(line));
        SwPb {
            level: Level {
                shift,
                num_keys,
                line,
                frames: frames.collect(),
                to,
            },
        }
    }

    /// Consumes the backend, returning its engine.
    pub fn into_engine(self) -> E {
        self.level.to.engine
    }
}

forward_engine!([E: Engine, V] SwPb<E, V>, level.to.engine);

impl<E: Engine, V: Copy> PbBackend<V> for SwPb<E, V> {
    fn bin_shift(&self) -> u32 {
        self.level.shift
    }

    fn num_bins(&self) -> usize {
        self.level.frames.len()
    }

    fn presize(&mut self, counts: &[u64]) {
        assert_eq!(counts.len(), self.num_bins(), "one count per bin");
        let bins = &mut self.level.to;
        let mut acc = 0u64;
        for (b, &c) in counts.iter().enumerate() {
            bins.bin_start[b] = acc;
            acc += c;
            // The Init phase writes the BinOffset array.
            bins.engine.store(bins.binoff_base.addr(8, b as u64), 8);
            bins.engine.alu(1);
        }
    }

    fn insert(&mut self, key: u32, value: V) {
        self.level.route([(key, value)]);
    }

    fn flush_and_take(&mut self) -> BinStorage<V> {
        let bins = &mut self.level.to;
        for (b, cbuf) in self.level.frames.iter_mut().enumerate() {
            // Walk every C-Buffer; flush the non-empty ones.
            bins.engine.load(bins.occ_base.addr(4, b as u64), 4);
            let nonempty = !cbuf.is_empty();
            bins.engine.branch(0x200, nonempty);
            if nonempty {
                let Ok(()) = bins.ship(b, cbuf);
            }
        }
        bins.bin_written.iter_mut().for_each(|w| *w = 0);
        BinStorage::new(bins.bin_base, bins.tuple_bytes, bins.store.take())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_sim::engine::{NullEngine, SimEngine};
    use cobra_sim::MachineConfig;

    fn keys(n: usize, domain: u32) -> Vec<u32> {
        (0..n)
            .map(|i| ((i as u64 * 2654435761) % domain as u64) as u32)
            .collect()
    }

    #[test]
    fn swpb_bins_match_reference_binner() {
        let ks = keys(5000, 4096);
        let mut sw = SwPb::<_, u32>::new(NullEngine::new(), 4096, 64, 8, ks.len() as u64);
        let mut reference = cobra_pb::Binner::<u32>::new(4096, 64);
        for (i, &k) in ks.iter().enumerate() {
            sw.insert(k, i as u32);
            reference.insert(k, i as u32);
        }
        let got = sw.flush_and_take();
        let want = reference.finish();
        assert_eq!(got.num_bins(), want.num_bins());
        assert_eq!(got.bin_shift(), want.bin_shift());
        for b in 0..got.num_bins() {
            // Borrowed column iteration on both sides — no bin is cloned.
            assert!(
                got.iter_bin(b)
                    .map(|(k, &v)| (k, v))
                    .eq(want.iter_bin(b).map(|t| (t.key, t.value))),
                "bin {b}"
            );
        }
    }

    #[test]
    fn storage_addresses_are_sequential() {
        let ks = keys(100, 256);
        let mut sw = SwPb::<_, u32>::new(NullEngine::new(), 256, 4, 8, ks.len() as u64);
        for &k in &ks {
            sw.insert(k, k);
        }
        let st = sw.flush_and_take();
        let addrs: Vec<u64> = st.iter().map(|(a, _, _)| a).collect();
        assert_eq!(addrs.len(), 100);
        for w in addrs.windows(2) {
            assert_eq!(w[1] - w[0], 8);
        }
    }

    #[test]
    fn instrumented_run_counts_nt_traffic() {
        let ks = keys(4096, 1 << 16);
        let n = ks.len() as u64;
        let mut sw =
            SwPb::<_, u32>::new(SimEngine::new(MachineConfig::hpca22()), 1 << 16, 64, 8, n);
        for &k in &ks {
            sw.insert(k, k);
        }
        let _ = sw.flush_and_take();
        let r = sw.into_engine().finish();
        // Every tuple is eventually NT-stored to a bin: 8 bytes each.
        assert_eq!(r.mem.nt_store_bytes, n * 8);
        assert!(r.core.instructions > 6 * n, "instr {}", r.core.instructions);
        assert!(r.core.branches >= n);
    }

    #[test]
    fn presize_sets_layout_and_emits_trace() {
        let mut sw = SwPb::<_, u32>::new(NullEngine::new(), 1024, 4, 8, 100);
        let n = sw.num_bins();
        sw.presize(&vec![25; n]);
        for k in 0..100u32 {
            sw.insert(k * 10, k);
        }
        let st = sw.flush_and_take();
        assert_eq!(st.len(), 100);
    }

    #[test]
    fn more_bins_mean_more_cbuffer_cache_pressure() {
        // The Figure 4 effect: with many bins the C-Buffers outgrow L1/L2
        // and binning's locality degrades.
        let domain = 1 << 23;
        let ks = keys(120_000, domain);
        let run = |min_bins: usize| {
            let mut sw = SwPb::<_, u32>::new(
                SimEngine::new(MachineConfig::hpca22()),
                domain,
                min_bins,
                8,
                ks.len() as u64,
            );
            for &k in &ks {
                sw.insert(k, k);
            }
            let _ = sw.flush_and_take();
            sw.into_engine().finish()
        };
        let few = run(64);
        let many = run(128 * 1024);
        assert!(
            many.mem.l1d.misses > 2 * few.mem.l1d.misses,
            "few-bin misses {} vs many-bin misses {}",
            few.mem.l1d.misses,
            many.mem.l1d.misses
        );
        assert!(many.cycles() > few.cycles());
    }

    #[test]
    #[should_panic(expected = "key 100 out of range (domain is 0..100)")]
    fn a_key_past_the_domain_panics_in_every_build() {
        // Four power-of-two bins of 32 keys cover 0..128: only the range
        // check refuses key 100.
        let mut sw = SwPb::<_, u32>::new(NullEngine::new(), 100, 4, 8, 10);
        assert_eq!(sw.num_bins() << sw.bin_shift(), 128);
        sw.insert(100, 0);
    }

    #[test]
    #[should_panic]
    fn presize_wrong_length_rejected() {
        let mut sw = SwPb::<_, u32>::new(NullEngine::new(), 1024, 4, 8, 100);
        sw.presize(&[1, 2, 3]);
    }

    #[test]
    fn init_bins_presizes_from_the_key_histogram() {
        let mut sw = SwPb::<_, u32>::new(NullEngine::new(), 256, 4, 8, 5);
        let ks = [0u32, 5, 64, 65, 200];
        sw.init_bins(ks.len(), |_, i| ks[i]);
        // Bins of 64 keys hold 2, 2, 0 and 1 tuples.
        assert_eq!(sw.level.to.bin_start, vec![0, 2, 4, 4]);
    }
}
