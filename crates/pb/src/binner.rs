//! Single-threaded binning with multi-line coalescing buffers.
//!
//! Storage is the workspace-shared columnar [`BinStore`] (`cobra-bins`):
//! the binner stages tuples in cacheline-aligned [`CBufFrame`]s of
//! [`FRAME_KEYS`] tuples and transfers whole lines of each column into
//! the store's per-bin `keys`/`values` columns.

use crate::accumulate::{accumulate, Bin};
use crate::route::{route, Destinations, Stop};
use cobra_bins::{
    BinMemory, BinStore, CBufFrame, FrameFlushStats, FrozenBins, FuseStats, FuseTable, FRAME_KEYS,
};
use std::convert::Infallible;

/// One buffered update: apply `value` to the datum identified by `key`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Tuple<V> {
    /// Index of the irregularly-updated element.
    pub key: u32,
    /// The update payload.
    pub value: V,
}

impl<V> From<(u32, V)> for Tuple<V> {
    fn from((key, value): (u32, V)) -> Self {
        Tuple { key, value }
    }
}

/// A binner: routes `(key, value)` tuples into per-range bins through
/// coalescing buffers (C-Buffers) of whole cache lines per column, as
/// software PB's Binning phase does (paper, Section III).
///
/// The bin range is always a power of two so routing is a shift rather than
/// a division (Section V-A notes real implementations do the same).
///
/// Routing is the workspace's one routing body, [`route`], and it takes a
/// run of tuples. [`extend`](Self::extend) and
/// [`extend_fused`](Self::extend_fused) hand it a whole run;
/// [`insert`](Self::insert) and [`insert_fused`](Self::insert_fused) hand
/// it a run of one. The four names differ only in the run and the merge
/// step they pass (none / the caller's closure), and may be mixed freely
/// on one binner.
#[derive(Debug, Clone)]
pub struct Binner<V> {
    /// C-Buffers, one per bin, each a cacheline-aligned staging frame of
    /// [`FRAME_KEYS`] tuples — for every `V`: the frame is columnar, so
    /// the padded size of a [`Tuple<V>`] has no bearing on it.
    cbufs: Vec<CBufFrame<V>>,
    sink: BinSink<V>,
}

/// Where a binner's full C-Buffers go: bin memory and its counters.
#[derive(Debug, Clone)]
struct BinSink<V> {
    store: BinStore<V>,
    flush_stats: FrameFlushStats,
    /// Coup-style frame fusion state, allocated by the first non-empty
    /// run through `insert_fused` or `extend_fused` (plain binners pay
    /// nothing).
    fusion: Option<FusionState>,
}

/// Per-bin coalescing tables plus the fusion counters.
#[derive(Debug, Clone)]
struct FusionState {
    tables: Vec<FuseTable>,
    stats: FuseStats,
}

impl FusionState {
    fn new(num_bins: usize) -> Self {
        FusionState {
            tables: (0..num_bins).map(|_| FuseTable::new()).collect(),
            stats: FuseStats::default(),
        }
    }
}

/// A binner's bins as the destinations of one run of [`route`]: a full
/// C-Buffer flushes into its bin. With `FUSES` the merge step is the
/// Coup-style frame probe under the closure, and the sink's fusion state
/// is allocated before the run; without it the probe compiles out of the
/// routing body. The last field counts the run's fusion hits.
struct ToBins<'a, V, M, const FUSES: bool>(&'a mut BinSink<V>, M, u64);

/// The merge step of [`Binner::insert`] and [`Binner::extend`]: none.
fn never<V>(_: &mut V, _: &V) -> bool {
    false
}

impl<V: Copy, M, const FUSES: bool> Destinations<V> for ToBins<'_, V, M, FUSES>
where
    M: FnMut(&mut V, &V) -> bool,
{
    type Frame = CBufFrame<V>;
    type Refusal = Infallible;
    const MERGES: bool = FUSES;

    #[inline]
    fn merge(&mut self, b: usize, cbuf: &mut CBufFrame<V>, key: u32, value: &V) -> bool {
        let Some(f) = self.0.fusion.as_mut() else {
            unreachable!("a fused run allocates the fusion state first")
        };
        let table = &mut f.tables[b];
        if let Some(i) = table.probe(key) {
            // The table is cleared on every frame flush, so a live slot
            // always points at a staged tuple carrying exactly this key.
            debug_assert_eq!(cbuf.keys().get(i).copied(), Some(key));
            if (self.1)(cbuf.value_mut(i), value) {
                self.2 += 1;
                return true;
            }
        }
        table.note(key, cbuf.len());
        false
    }

    /// Bulk-transfers whole lines of each column to the in-memory bin
    /// (software PB uses non-temporal stores here).
    #[inline]
    fn ship(&mut self, b: usize, cbuf: &mut CBufFrame<V>) -> Result<(), Infallible> {
        let sink = &mut *self.0;
        sink.flush_stats.record(cbuf.flush_into(&mut sink.store, b));
        // The frame emptied: any coalescing positions it tracked are
        // gone, whichever merge step staged the tuple that filled it.
        if let Some(f) = sink.fusion.as_mut() {
            f.tables[b].clear();
            f.stats.flushes += 1;
        }
        Ok(())
    }
}

/// The bins produced by a [`Binner`], ready for the Accumulate phase.
///
/// A thin wrapper over the shared columnar [`BinStore`]; freeze it with
/// [`Bins::freeze`] to publish the columns zero-copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bins<V> {
    store: BinStore<V>,
}

impl<V: Copy> Binner<V> {
    /// Creates a binner for keys in `0..num_keys` with at least
    /// `min(min_bins, num_keys)` bins (rounded so the bin range is a power
    /// of two). The bin range can never go below one key, so asking for
    /// more bins than keys clamps to one single-key bin per key.
    ///
    /// # Panics
    ///
    /// Panics if `num_keys == 0` or `min_bins == 0`.
    pub fn new(num_keys: u32, min_bins: usize) -> Self {
        let store = BinStore::new(num_keys, min_bins);
        Binner {
            cbufs: (0..store.num_bins())
                .map(|_| CBufFrame::with_capacity(FRAME_KEYS))
                .collect(),
            sink: BinSink {
                flush_stats: FrameFlushStats {
                    frame_capacity: FRAME_KEYS as u32,
                    ..Default::default()
                },
                store,
                fusion: None,
            },
        }
    }

    /// Pre-reserves per-bin capacity from per-bin counts (the paper's Init
    /// phase computes exact ones with a counting pre-pass to avoid dynamic
    /// allocation during Binning; `bin_parallel` passes an estimate). A
    /// bin that outgrows its count grows on demand; a zero count reserves
    /// nothing.
    ///
    /// # Panics
    ///
    /// Panics if `counts.len() != num_bins()`.
    pub fn reserve(&mut self, counts: &[u32]) {
        self.sink.store.reserve(counts);
    }

    /// Number of bins.
    pub fn num_bins(&self) -> usize {
        self.sink.store.num_bins()
    }

    /// log2 of the bin range.
    pub fn bin_shift(&self) -> u32 {
        self.sink.store.bin_shift()
    }

    /// Number of keys per bin (a power of two).
    pub fn bin_range(&self) -> u64 {
        self.sink.store.bin_range()
    }

    /// Routes one update tuple: a one-tuple [`extend`](Self::extend).
    ///
    /// # Panics
    ///
    /// Panics if `key >= num_keys`.
    #[inline]
    pub fn insert(&mut self, key: u32, value: V) {
        self.route::<false>(std::iter::once((key, value)), never);
    }

    /// Routes a run of update tuples, in order. The bins, their tuple
    /// order and every counter come out exactly as one
    /// [`insert`](Self::insert) per tuple would leave them; the run only
    /// lets the routing body keep the bin shift and the frame slice in
    /// locals from its first tuple to its last.
    ///
    /// # Panics
    ///
    /// Panics if a key is `>= num_keys`.
    #[inline]
    pub fn extend<I: IntoIterator<Item = (u32, V)>>(&mut self, run: I) {
        self.route::<false>(run, never);
    }

    /// Routes one update tuple through the Coup-style frame fusion pass:
    /// if a tuple with the same key is still staged in the bin's C-Buffer
    /// frame, `merge` is offered the staged value and the new one, and a
    /// `true` return folds them into a single tuple — one fewer tuple
    /// crosses into bin memory. A `false` return (the payloads are not
    /// combinable, e.g. SpGEMM partial products for different output
    /// columns) stages the tuple normally, exactly as
    /// [`insert`](Self::insert) would. A one-tuple
    /// [`extend_fused`](Self::extend_fused).
    ///
    /// **Legality is the caller's contract**: only updates whose reducer
    /// is commutative may take this path, because fusion reassociates the
    /// reduction (two updates arrive as one). `cobra-check`'s
    /// commutativity oracle validates each kernel's declaration.
    ///
    /// # Panics
    ///
    /// Panics if `key >= num_keys`.
    #[inline]
    pub fn insert_fused<F: FnMut(&mut V, &V) -> bool>(&mut self, key: u32, value: V, merge: F) {
        self.route::<true>(std::iter::once((key, value)), merge);
    }

    /// Routes a run of update tuples, in order, through the fusion pass
    /// of [`insert_fused`](Self::insert_fused): the same bins, tuple
    /// order, [`flush_stats`](Self::flush_stats) and
    /// [`fuse_stats`](Self::fuse_stats) as one `insert_fused` per tuple
    /// with the same `merge`.
    ///
    /// # Panics
    ///
    /// Panics if a key is `>= num_keys`.
    #[inline]
    pub fn extend_fused<I, F>(&mut self, run: I, merge: F)
    where
        I: IntoIterator<Item = (u32, V)>,
        F: FnMut(&mut V, &V) -> bool,
    {
        self.route::<true>(run, merge);
    }

    /// Routes a run through the shared routing body into bin memory. The
    /// body checks every key against the domain, so a key past
    /// `num_keys` panics here, before it is staged, in every build.
    #[inline]
    fn route<const FUSES: bool>(
        &mut self,
        run: impl IntoIterator<Item = (u32, V)>,
        merge: impl FnMut(&mut V, &V) -> bool,
    ) {
        let (num_keys, shift) = (self.sink.store.num_keys(), self.bin_shift());
        let plain = self.sink.fusion.is_none();
        if FUSES && plain {
            self.sink.fusion = Some(FusionState::new(self.num_bins()));
        }
        let mut to = ToBins::<_, _, FUSES>(&mut self.sink, merge, 0);
        let (accepted, stopped) = route(run, &mut self.cbufs, &mut to, num_keys, shift, FRAME_KEYS);
        let hits = to.2;
        if FUSES {
            // An empty fused run leaves a plain binner plain: a later
            // plain flush is no fusion-table reset.
            if plain && accepted == 0 {
                self.sink.fusion = None;
            } else if let Some(f) = self.sink.fusion.as_mut() {
                f.stats.attempts += accepted as u64;
                f.stats.hits += hits;
            }
        }
        if let Err(Stop::KeyOutOfRange(key)) = stopped {
            panic!("key {key} out of range (domain is 0..{num_keys})");
        }
    }

    /// Flushes all partially-filled C-Buffers and returns the bins.
    pub fn finish(mut self) -> Bins<V> {
        self.flush_cbufs();
        Bins {
            store: self.sink.store,
        }
    }

    /// Flushes all partially-filled C-Buffers and swaps the filled bins
    /// out, leaving the binner empty but reusable with the same geometry.
    ///
    /// This is the double-buffering hook for incremental / streaming use:
    /// the returned [`Bins`] can be accumulated while new tuples keep
    /// flowing into this binner, with per-epoch insertion order preserved
    /// (a tuple inserted before `take_bins` lands in the returned bins,
    /// one inserted after lands in the next take — even mid-C-Buffer).
    pub fn take_bins(&mut self) -> Bins<V> {
        self.flush_cbufs();
        Bins {
            store: self.sink.store.take(),
        }
    }

    /// Tuples currently buffered (C-Buffers plus unflushed bins).
    pub fn buffered_len(&self) -> usize {
        self.cbufs.iter().map(CBufFrame::len).sum::<usize>() + self.sink.store.len()
    }

    /// Bin-memory footprint of the backing store (column bytes, tuples,
    /// slab segments). C-Buffer staging frames are not counted — they are
    /// fixed-size and cache resident by design.
    pub fn memory(&self) -> BinMemory {
        self.sink.store.memory()
    }

    /// Running C-Buffer flush statistics (occupancy of transferred
    /// frames; partial end-of-epoch flushes lower the average).
    pub fn flush_stats(&self) -> FrameFlushStats {
        self.sink.flush_stats
    }

    /// Running Coup-style fusion counters (all zero until a tuple takes
    /// [`insert_fused`](Self::insert_fused) or
    /// [`extend_fused`](Self::extend_fused)).
    pub fn fuse_stats(&self) -> FuseStats {
        let fusion = self.sink.fusion.as_ref();
        fusion.map(|f| f.stats).unwrap_or_default()
    }

    fn flush_cbufs(&mut self) {
        let mut to = ToBins::<_, _, false>(&mut self.sink, never, 0);
        for (b, cbuf) in self.cbufs.iter_mut().enumerate() {
            if !cbuf.is_empty() {
                let Ok(()) = to.ship(b, cbuf);
            }
        }
    }
}

impl<V> Bins<V> {
    /// Number of bins.
    pub fn num_bins(&self) -> usize {
        self.store.num_bins()
    }

    /// log2 of the bin range.
    pub fn bin_shift(&self) -> u32 {
        self.store.bin_shift()
    }

    /// The key range covered by bin `b`.
    pub fn key_range(&self, b: usize) -> std::ops::Range<u32> {
        self.store.key_range(b)
    }

    /// The key column of bin `b`, in insertion order.
    pub fn keys(&self, b: usize) -> &[u32] {
        self.store.keys(b)
    }

    /// The value column of bin `b`, in insertion order.
    pub fn values(&self, b: usize) -> &[V] {
        self.store.values(b)
    }

    /// Tuples in bin `b`.
    pub fn bin_len(&self, b: usize) -> usize {
        self.store.bin_len(b)
    }

    /// Total buffered tuples across bins.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether no tuples were buffered.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// The shared columnar store backing these bins.
    pub fn store(&self) -> &BinStore<V> {
        &self.store
    }

    /// Unwraps into the backing store.
    pub fn into_store(self) -> BinStore<V> {
        self.store
    }

    /// Freezes the bins behind an `Arc` — O(1), no column is copied —
    /// so snapshots and caches can share them by reference count.
    pub fn freeze(self) -> FrozenBins<V> {
        self.store.freeze()
    }
}

impl<V: Sync> Bins<V> {
    /// The Accumulate phase, serial: [`accumulate`] over these bins as
    /// one producing thread, on the caller's thread.
    pub fn accumulate<F: FnMut(u32, &V) + Send>(&self, mut f: F) {
        accumulate(std::slice::from_ref(self), 1, |_| {
            vec![move |bin: Bin<'_, V>| bin.for_each(&mut f)]
        });
    }
}

impl<V: Copy> Bins<V> {
    /// Borrowed iteration over bin `b`'s tuples in insertion order.
    ///
    /// Zips the bin's key/value columns; no tuple array is materialised
    /// and nothing is cloned.
    pub fn iter_bin(&self, b: usize) -> impl Iterator<Item = Tuple<V>> + '_ {
        self.store
            .iter_bin(b)
            .map(|(&key, &value)| Tuple { key, value })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A seeded stream with 80% of its tuples on the low 10% of the keys:
    /// uneven bin growth (hot bins span many slab segments, some stay
    /// empty) and same-key repeats inside a frame.
    pub(crate) fn skewed_tuples(n: u64, num_keys: u32, seed: u64) -> Vec<(u32, u64)> {
        let hot_keys = (num_keys / 10).max(1);
        (0..n)
            .map(|i| {
                let h = (i ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let hot = (h >> 8) % 10 < 8;
                let span = if hot { hot_keys } else { num_keys };
                (((h >> 24) % span as u64) as u32, h)
            })
            .collect()
    }

    #[test]
    fn routes_by_range_and_preserves_order() {
        let mut b = Binner::<u8>::new(100, 4);
        // range rounds to 32 => 4 bins
        assert_eq!(b.bin_range(), 32);
        assert_eq!(b.num_bins(), 4);
        for (i, k) in [0u32, 40, 33, 99, 31, 64].into_iter().enumerate() {
            b.insert(k, i as u8);
        }
        let bins = b.finish();
        assert_eq!(bins.keys(0), &[0, 31]);
        assert_eq!(bins.keys(1), &[40, 33]);
        assert_eq!(bins.keys(2), &[64]);
        assert_eq!(bins.keys(3), &[99]);
        assert_eq!(bins.len(), 6);
    }

    #[test]
    fn cbuffer_flush_transparent_across_capacity() {
        // (u32, u32) tuple = 8 bytes => 8 tuples per line; insert 20 tuples
        // into the same bin and verify nothing is lost or reordered.
        let mut b = Binner::<u32>::new(64, 1);
        for i in 0..20u32 {
            b.insert(i % 64, i);
        }
        let bins = b.finish();
        let vals: Vec<u32> = bins.iter_bin(0).map(|t| t.value).collect();
        assert_eq!(vals, (0..20).collect::<Vec<_>>());
        assert_eq!(bins.values(0), &(0..20).collect::<Vec<_>>()[..]);
    }

    #[test]
    fn key_ranges_partition_domain() {
        let b = Binner::<u32>::new(1000, 7);
        let bins = b.finish();
        let mut covered = 0u64;
        for i in 0..bins.num_bins() {
            let r = bins.key_range(i);
            assert_eq!(r.start as u64, covered);
            covered = r.end as u64;
        }
        assert_eq!(covered, 1000);
    }

    #[test]
    fn single_bin_degenerate_case() {
        let mut b = Binner::<u32>::new(10, 1);
        assert_eq!(b.num_bins(), 1);
        for k in 0..10 {
            b.insert(k, k);
        }
        assert_eq!(b.finish().len(), 10);
    }

    #[test]
    fn more_bins_than_keys_clamps() {
        let b = Binner::<u32>::new(4, 100);
        // range clamps to 1 => 4 bins.
        assert_eq!(b.bin_range(), 1);
        assert_eq!(b.num_bins(), 4);
    }

    #[test]
    fn accumulate_visits_bins_in_key_order() {
        let mut b = Binner::<u32>::new(256, 4);
        for k in [200u32, 10, 100, 11, 201] {
            b.insert(k, k);
        }
        let bins = b.finish();
        let mut seen = Vec::new();
        bins.accumulate(|k, _| seen.push(k >> bins.bin_shift()));
        let mut sorted = seen.clone();
        sorted.sort();
        assert_eq!(
            seen, sorted,
            "bins must replay in ascending key-range order"
        );
    }

    #[test]
    fn reserve_accepts_exact_counts() {
        let mut b = Binner::<u32>::new(64, 2);
        let n = b.num_bins();
        b.reserve(&vec![8; n]);
        for k in 0..64 {
            b.insert(k, k);
        }
        assert_eq!(b.finish().len(), 64);
    }

    #[test]
    fn exact_reserve_path_matches_unsized_path() {
        // The Init pre-pass reserves exact per-bin counts; binning into a
        // pre-sized store must produce the same columns as growing on demand.
        let num_keys = 1 << 12;
        let tuples = skewed_tuples(50_000, num_keys, 0x5E5);

        let mut grown = Binner::<u64>::new(num_keys, 32);
        let mut sized = Binner::<u64>::new(num_keys, 32);
        let shift = grown.bin_shift();
        let mut counts = vec![0u32; grown.num_bins()];
        for &(k, _) in &tuples {
            counts[(k >> shift) as usize] += 1;
        }
        sized.reserve(&counts);
        for &(k, v) in &tuples {
            grown.insert(k, v);
            sized.insert(k, v);
        }
        let (grown, sized) = (grown.finish(), sized.finish());
        // Every capacity acquisition counts as a grow event, so an exact
        // reserve shows one per non-empty bin and no mid-binning regrowth;
        // the on-demand path pays extra doubling grows on the hot bins.
        let nonempty = counts.iter().filter(|&&c| c > 0).count() as u64;
        assert_eq!(
            sized.store().grow_events(),
            nonempty,
            "exact reserve should acquire each bin's capacity exactly once"
        );
        assert!(
            grown.store().grow_events() > sized.store().grow_events(),
            "on-demand growth should regrow hot bins"
        );
        for b in 0..grown.num_bins() {
            assert!(grown.iter_bin(b).eq(sized.iter_bin(b)), "bin {b} differs");
        }
    }

    #[test]
    #[should_panic]
    fn reserve_rejects_wrong_len() {
        let mut b = Binner::<u32>::new(64, 2);
        b.reserve(&[1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn is_empty_on_fresh_binner() {
        let bins = Binner::<u32>::new(8, 2).finish();
        assert!(bins.is_empty());
        assert_eq!(bins.len(), 0);
    }

    #[test]
    fn ragged_last_bin_when_num_keys_not_multiple_of_range() {
        // 100 keys, range 32: last bin covers only 96..100.
        let mut b = Binner::<u32>::new(100, 4);
        for k in 0..100 {
            b.insert(k, k);
        }
        let bins = b.finish();
        let last = bins.num_bins() - 1;
        assert_eq!(bins.key_range(last), 96..100);
        assert_eq!(bins.bin_len(last), 4);
        assert_eq!(bins.len(), 100);
    }

    #[test]
    fn single_key_bins_route_exactly() {
        // min_bins == num_keys forces range 1: every key gets its own bin.
        let mut b = Binner::<u32>::new(8, 8);
        assert_eq!(b.bin_range(), 1);
        assert_eq!(b.num_bins(), 8);
        for k in [5u32, 0, 5, 7] {
            b.insert(k, k);
        }
        let bins = b.finish();
        assert_eq!(bins.bin_len(5), 2);
        assert_eq!(bins.bin_len(0), 1);
        assert_eq!(bins.bin_len(7), 1);
        assert_eq!(bins.bin_len(3), 0);
    }

    #[test]
    fn min_bins_guarantee_is_min_of_request_and_keys() {
        for (num_keys, min_bins) in [
            (1u32, 1usize),
            (1, 64),
            (4, 100),
            (5, 5),
            (7, 3),
            (1000, 1000),
            (1000, 4096),
        ] {
            let b = Binner::<u32>::new(num_keys, min_bins);
            let want = min_bins.min(num_keys as usize);
            assert!(
                b.num_bins() >= want,
                "({num_keys}, {min_bins}): got {} bins, want >= {want}",
                b.num_bins()
            );
        }
    }

    #[test]
    fn take_bins_splits_epochs_at_the_call_even_mid_cbuffer() {
        // (u32, u32) tuples => 8 per C-Buffer line. Insert 5 (a partial
        // line), take, insert 3 more: the epochs must not bleed together.
        let mut b = Binner::<u32>::new(64, 1);
        for i in 0..5u32 {
            b.insert(i, i);
        }
        assert_eq!(b.buffered_len(), 5);
        let epoch1 = b.take_bins();
        assert_eq!(
            epoch1.iter_bin(0).map(|t| t.value).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
        assert_eq!(b.buffered_len(), 0);
        for i in 5..8u32 {
            b.insert(i, i);
        }
        let epoch2 = b.take_bins();
        assert_eq!(
            epoch2.iter_bin(0).map(|t| t.value).collect::<Vec<_>>(),
            vec![5, 6, 7]
        );
        // Geometry is preserved across takes.
        assert_eq!(epoch2.num_bins(), epoch1.num_bins());
        assert_eq!(epoch2.bin_shift(), epoch1.bin_shift());
    }

    #[test]
    fn take_bins_then_finish_sees_only_the_tail() {
        let mut b = Binner::<u32>::new(256, 4);
        for k in 0..100u32 {
            b.insert(k, k);
        }
        let first = b.take_bins();
        assert_eq!(first.len(), 100);
        for k in 100..120u32 {
            b.insert(k, k);
        }
        let rest = b.finish();
        assert_eq!(rest.len(), 20);
        assert_eq!(rest.keys(1), &(100..120).collect::<Vec<_>>()[..]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn checked_insert_panics_on_out_of_range_key() {
        // The routing body checks the key against the domain, not
        // against the bins: 4 bins of 32 keys cover 0..128, yet 100 is
        // refused, in every build.
        let mut b = Binner::<u32>::new(100, 4);
        b.insert(100, 7);
    }

    #[test]
    fn take_bins_on_empty_binner_is_empty_with_geometry() {
        let mut b = Binner::<u32>::new(100, 4);
        let bins = b.take_bins();
        assert!(bins.is_empty());
        assert_eq!(bins.num_bins(), 4);
        b.insert(99, 7);
        assert_eq!(b.finish().len(), 1);
    }

    #[test]
    fn freeze_shares_columns_zero_copy() {
        let mut b = Binner::<u32>::new(64, 2);
        for k in 0..64u32 {
            b.insert(k, k);
        }
        let bins = b.take_bins();
        let col_ptr = bins.keys(0).as_ptr();
        let frozen = bins.freeze();
        let other = frozen.clone();
        assert!(cobra_bins::FrozenBins::ptr_eq(&frozen, &other));
        // take_bins -> freeze never copied the key column.
        assert_eq!(other.keys(0).as_ptr(), col_ptr);
    }

    #[test]
    fn flush_stats_track_occupancy() {
        // One frame filled exactly, then one more tuple: one full flush
        // mid-stream, one single-tuple partial flush at finish.
        let mut b = Binner::<u32>::new(64, 1);
        for i in 0..FRAME_KEYS as u32 - 1 {
            b.insert(0, i);
        }
        assert_eq!(
            b.flush_stats().frames,
            0,
            "a frame short of full stays staged"
        );
        assert_eq!(b.memory().tuples, 0);
        b.insert(0, FRAME_KEYS as u32 - 1);
        b.insert(0, FRAME_KEYS as u32);
        let stats_mid = b.flush_stats();
        assert_eq!(stats_mid.frames, 1);
        assert_eq!(stats_mid.tuples, FRAME_KEYS as u64);
        assert_eq!(stats_mid.frame_capacity as usize, FRAME_KEYS);
        assert_eq!(stats_mid.occupancy(), 1.0);
        let mem = b.memory();
        assert_eq!(
            mem.tuples, FRAME_KEYS as u64,
            "only the flushed frame reached the store"
        );
        assert_eq!(b.buffered_len(), FRAME_KEYS + 1);
        let bins = b.finish();
        assert_eq!(bins.len(), FRAME_KEYS + 1);
        let want: Vec<u32> = (0..=FRAME_KEYS as u32).collect();
        assert_eq!(bins.values(0), &want[..]);

        // The capacity is the same constant for every payload.
        for cap in [
            Binner::<()>::new(64, 1).flush_stats().frame_capacity,
            Binner::<u64>::new(64, 1).flush_stats().frame_capacity,
            Binner::<(u32, f64)>::new(64, 1)
                .flush_stats()
                .frame_capacity,
        ] {
            assert_eq!(cap as usize, FRAME_KEYS);
        }
    }

    #[test]
    fn fused_inserts_coalesce_same_key_within_a_frame() {
        // Commutative sum: repeated keys inside one frame fold into one
        // tuple, so fewer tuples cross into bin memory.
        let mut b = Binner::<u32>::new(64, 1);
        for _ in 0..6 {
            b.insert_fused(3, 1u32, |a, v| {
                *a += *v;
                true
            });
        }
        b.insert_fused(9, 10, |a, v| {
            *a += *v;
            true
        });
        let fs = b.fuse_stats();
        assert_eq!(fs.attempts, 7);
        assert_eq!(fs.hits, 5, "five of the six key-3 updates fused away");
        assert!((fs.fused_ratio() - 5.0 / 7.0).abs() < 1e-12);
        let bins = b.finish();
        assert_eq!(bins.len(), 2, "only one tuple per distinct key shipped");
        assert_eq!(bins.keys(0), &[3, 9]);
        assert_eq!(bins.values(0), &[6, 10]);
    }

    #[test]
    fn fused_result_matches_unfused_for_a_commutative_sum() {
        // Skewed keys (period 6 < the 8-tuple frame) so repeats land
        // while their predecessor is still staged.
        let updates: Vec<(u32, u32)> = (0..500u32).map(|i| (i % 6 * 37, i)).collect();
        let mut plain = Binner::<u32>::new(256, 4);
        let mut fused = Binner::<u32>::new(256, 4);
        for &(k, v) in &updates {
            plain.insert(k, v);
            fused.insert_fused(k, v, |a, x| {
                *a = a.wrapping_add(*x);
                true
            });
        }
        let mut want = vec![0u32; 256];
        plain
            .finish()
            .accumulate(|k, &v| want[k as usize] = want[k as usize].wrapping_add(v));
        let mut got = vec![0u32; 256];
        let fbins = fused.finish();
        assert!(fbins.len() < updates.len(), "some fusion must occur");
        fbins.accumulate(|k, &v| got[k as usize] = got[k as usize].wrapping_add(v));
        assert_eq!(got, want);
    }

    #[test]
    fn merge_refusal_stages_normally() {
        // A merge closure that refuses every pair degrades to plain
        // binning: nothing lost, zero hits.
        let mut b = Binner::<u32>::new(64, 1);
        for i in 0..10u32 {
            b.insert_fused(5, i, |_, _| false);
        }
        let fs = b.fuse_stats();
        assert_eq!(fs.hits, 0);
        assert_eq!(fs.attempts, 10);
        let bins = b.finish();
        assert_eq!(bins.len(), 10);
        assert_eq!(
            bins.iter_bin(0).map(|t| t.value).collect::<Vec<_>>(),
            (0..10).collect::<Vec<_>>()
        );

        // Same routing body, so on a skewed stream (same-key repeats do
        // meet in a frame, the probe does hit) an always-refusing policy
        // is `insert` bit for bit.
        let tuples = skewed_tuples(100_000, 1 << 12, 0xF05E);
        let mut plain = Binner::<u64>::new(1 << 12, 32);
        let mut refused = Binner::<u64>::new(1 << 12, 32);
        let mut offered = 0u32;
        for &(k, v) in &tuples {
            plain.insert(k, v);
            refused.insert_fused(k, v, |_, _| {
                offered += 1;
                false
            });
        }
        assert!(offered > 0, "the stream must exercise the probe");
        assert_eq!(refused.fuse_stats().hits, 0);
        assert_eq!(refused.fuse_stats().attempts, 100_000);
        assert_eq!(refused.flush_stats(), plain.flush_stats());
        assert_eq!(refused.finish(), plain.finish());
    }

    #[test]
    fn fusion_never_crosses_a_frame_flush() {
        // Fill a frame exactly with distinct keys, then repeat the last
        // one (the key the coalescing table cannot have evicted): the
        // frame flushed in between, so the repeat must NOT fuse into the
        // shipped tuple.
        let n = FRAME_KEYS as u32;
        let mut b = Binner::<u32>::new(n, 1);
        let sum = |a: &mut u32, v: &u32| {
            *a += *v;
            true
        };
        for k in 0..n {
            b.insert_fused(k, 100 + k, sum);
        }
        b.insert_fused(n - 1, 1, sum);
        let fs = b.fuse_stats();
        assert_eq!(fs.hits, 0);
        assert_eq!(fs.flushes, 1);
        let bins = b.finish();
        assert_eq!(bins.len(), FRAME_KEYS + 1);
        let mut want: Vec<u32> = (100..100 + n).collect();
        want.push(1);
        assert_eq!(bins.values(0), &want[..]);

        // One tuple short of the flush, the same kind of repeat does fuse.
        let mut open = Binner::<u32>::new(n, 1);
        for k in 0..n - 1 {
            open.insert_fused(k, 100 + k, sum);
        }
        open.insert_fused(n - 2, 1, sum);
        assert_eq!(open.fuse_stats().hits, 1);
        assert_eq!(open.fuse_stats().flushes, 0);
        assert_eq!(open.finish().values(0).last(), Some(&(100 + n - 2 + 1)));
    }

    #[test]
    fn a_plain_flush_clears_the_fusion_table() {
        // A fused insert notes key 1 at frame index 0; plain inserts then
        // fill the frame and flush it, and a plain key 7 takes index 0.
        // The flush must have forgotten key 1's position although no
        // fused insert caused it, or the last insert folds into key 7.
        let mut b = Binner::<u32>::new(64, 1);
        let sum = |a: &mut u32, v: &u32| {
            *a += *v;
            true
        };
        b.insert_fused(1, 10, sum);
        for _ in 1..FRAME_KEYS {
            b.insert(3, 0);
        }
        assert_eq!(b.flush_stats().frames, 1);
        b.insert(7, 70);
        b.insert_fused(1, 5, sum);
        assert_eq!(b.fuse_stats().hits, 0);
        assert_eq!(b.fuse_stats().flushes, 1);
        let bins = b.finish();
        assert_eq!(bins.keys(0)[FRAME_KEYS..], [7, 1]);
        assert_eq!(bins.values(0)[FRAME_KEYS..], [70, 5]);
    }

    #[test]
    fn runs_route_as_their_tuples_one_by_one() {
        let tuples = skewed_tuples(20_000, 1 << 12, 0x2C5);
        let sum = |a: &mut u64, v: &u64| {
            *a = a.wrapping_add(*v);
            true
        };
        let mut one = Binner::<u64>::new(1 << 12, 32);
        let mut runs = Binner::<u64>::new(1 << 12, 32);
        // Plain, fused, empty and plain again, so each policy meets the
        // other's staged tuples in frames a run left half full.
        let (a, b) = (7_000, 13_000);
        for &(k, v) in &tuples[..a] {
            one.insert(k, v);
        }
        for &(k, v) in &tuples[a..b] {
            one.insert_fused(k, v, sum);
        }
        for &(k, v) in &tuples[b..] {
            one.insert(k, v);
        }
        runs.extend(tuples[..a].iter().copied());
        runs.extend_fused(tuples[a..b].iter().copied(), sum);
        runs.extend(std::iter::empty());
        runs.extend(tuples[b..].iter().copied());
        assert!(one.fuse_stats().hits > 0, "the stream must fuse");
        assert_eq!(runs.flush_stats(), one.flush_stats());
        assert_eq!(runs.fuse_stats(), one.fuse_stats());
        assert_eq!(runs.finish(), one.finish());
    }

    #[test]
    fn an_empty_fused_run_leaves_the_binner_plain() {
        // Fusion state is allocated by the first fused tuple, not by the
        // first fused call: otherwise later plain flushes would be counted
        // as fusion-table resets.
        let mut b = Binner::<u32>::new(64, 1);
        b.extend_fused(std::iter::empty(), |_, _| true);
        for i in 0..2 * FRAME_KEYS as u32 {
            b.insert(i % 64, i);
        }
        assert_eq!(b.flush_stats().frames, 2);
        assert_eq!(b.fuse_stats(), FuseStats::default());
    }

    #[test]
    fn plain_and_fused_inserts_interleave_safely() {
        // Plain inserts between fused ones grow the frame without noting
        // positions; fused inserts must still fold onto *their* staged
        // tuples only.
        let mut b = Binner::<u32>::new(64, 1);
        let sum = |a: &mut u32, v: &u32| {
            *a += *v;
            true
        };
        b.insert_fused(1, 10, sum);
        b.insert(2, 20);
        b.insert_fused(1, 5, sum); // fuses onto the key-1 tuple
        b.insert(1, 7); // plain: stages a second key-1 tuple
        let bins = b.finish();
        assert_eq!(bins.keys(0), &[1, 2, 1]);
        assert_eq!(bins.values(0), &[15, 20, 7]);
    }
}
