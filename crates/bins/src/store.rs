//! The structure-of-arrays bin store and its slab accounting.
//!
//! A [`BinStore`] keeps one pair of contiguous columns per bin — `keys`
//! and `values` — instead of a `Vec` of `(key, value)` tuples. The
//! Accumulate phase therefore streams two dense arrays with unit stride,
//! and a bin's routing data (its keys) packs 16 entries per cache line
//! regardless of payload size. Column capacity is acquired in slab
//! *segments* of [`SEGMENT_BYTES`] (whole cache lines), which makes bin
//! memory easy to meter ([`BinStore::memory`]) and keeps growth
//! amortised without per-tuple allocator traffic.
//!
//! Publishing is O(1): [`BinStore::freeze`] moves the store behind an
//! `Arc` ([`FrozenBins`]); every downstream consumer — epoch snapshots,
//! caches, oracle replays — shares the same slabs by reference count.

use std::sync::Arc;

/// One slab segment: 64 cache lines. Column capacity is acquired in
/// whole segments so allocation count and footprint are meterable.
pub const SEGMENT_BYTES: usize = 4096;

/// Computes the power-of-two bin geometry every binning layer uses:
/// for keys in `0..num_keys` and at least `min(min_bins, num_keys)`
/// bins, returns `(bin_shift, num_bins)` with the per-bin key range
/// equal to `1 << bin_shift` (routing is a shift, never a division —
/// paper, Section V-A).
///
/// # Panics
///
/// Panics if `num_keys == 0` or `min_bins == 0`.
pub fn bin_geometry(num_keys: u32, min_bins: usize) -> (u32, usize) {
    assert!(num_keys > 0, "need at least one key");
    assert!(min_bins > 0, "need at least one bin");
    let min_bins = (min_bins as u64).min(num_keys as u64);
    // Largest power-of-two range with ceil(num_keys / range) >= min_bins.
    let mut range = (num_keys as u64).div_ceil(min_bins).next_power_of_two();
    if (num_keys as u64).div_ceil(range) < min_bins && range > 1 {
        range /= 2;
    }
    let shift = range.trailing_zeros();
    let num_bins = (num_keys as u64).div_ceil(range) as usize;
    (shift, num_bins)
}

/// One bin's columns. Kept private so growth always goes through the
/// segment-granular path.
#[derive(Debug, Clone)]
struct Column<V> {
    keys: Vec<u32>,
    values: Vec<V>,
}

impl<V> Default for Column<V> {
    fn default() -> Self {
        Column {
            keys: Vec::new(),
            values: Vec::new(),
        }
    }
}

/// Bin-memory accounting snapshot (see [`BinStore::memory`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BinMemory {
    /// Bytes of column capacity currently allocated across all bins.
    pub bytes: u64,
    /// Tuples currently stored.
    pub tuples: u64,
    /// Slab segments ([`SEGMENT_BYTES`] each, rounded up per bin)
    /// backing the allocated capacity.
    pub segments: u64,
}

impl BinMemory {
    /// Component-wise sum, for aggregating per-shard stores.
    pub fn add(&mut self, other: BinMemory) {
        self.bytes += other.bytes;
        self.tuples += other.tuples;
        self.segments += other.segments;
    }
}

/// Structure-of-arrays bins: per-bin contiguous `keys`/`values` columns
/// with segment-granular capacity growth. This is the single bin
/// representation shared by `cobra-pb`, `cobra-core`, `cobra-stream`
/// and `cobra-serve`.
///
/// The store routes nothing on its own ([`BinStore::push`] takes an
/// explicit bin index) so checker fixtures can represent routing
/// violations; use [`BinStore::insert`] (or a `Binner`'s C-Buffers) for
/// shift-routed writes.
#[derive(Debug, Clone)]
pub struct BinStore<V> {
    shift: u32,
    num_keys: u32,
    bins: Vec<Column<V>>,
    /// Slab-segment acquisitions since creation (growth events).
    grows: u64,
}

impl<V> BinStore<V> {
    /// A store with the workspace-standard geometry for `num_keys` keys
    /// and at least `min(min_bins, num_keys)` bins (see [`bin_geometry`]).
    pub fn new(num_keys: u32, min_bins: usize) -> Self {
        let (shift, num_bins) = bin_geometry(num_keys, min_bins);
        Self::with_geometry(shift, num_keys, num_bins)
    }

    /// A store with explicit geometry. `num_bins` is taken as given (it
    /// may exceed `ceil(num_keys >> shift)`; simulated backends size
    /// bins to hardware structures).
    ///
    /// # Panics
    ///
    /// Panics if `num_bins == 0`.
    pub fn with_geometry(shift: u32, num_keys: u32, num_bins: usize) -> Self {
        assert!(num_bins > 0, "need at least one bin");
        BinStore {
            shift,
            num_keys,
            bins: (0..num_bins).map(|_| Column::default()).collect(),
            grows: 0,
        }
    }

    /// Number of bins.
    pub fn num_bins(&self) -> usize {
        self.bins.len()
    }

    /// log2 of the per-bin key range.
    pub fn bin_shift(&self) -> u32 {
        self.shift
    }

    /// Number of keys per bin (a power of two).
    pub fn bin_range(&self) -> u64 {
        1u64 << self.shift
    }

    /// The key domain is `0..num_keys`.
    pub fn num_keys(&self) -> u32 {
        self.num_keys
    }

    /// The key range covered by bin `b`.
    pub fn key_range(&self, b: usize) -> std::ops::Range<u32> {
        let lo = (b as u64) << self.shift;
        let hi = ((b as u64 + 1) << self.shift).min(self.num_keys as u64);
        lo as u32..hi as u32
    }

    /// The key column of bin `b`, in insertion order.
    pub fn keys(&self, b: usize) -> &[u32] {
        &self.bins[b].keys
    }

    /// The value column of bin `b`, in insertion order.
    pub fn values(&self, b: usize) -> &[V] {
        &self.bins[b].values
    }

    /// Tuples in bin `b`.
    pub fn bin_len(&self, b: usize) -> usize {
        self.bins[b].keys.len()
    }

    /// Total tuples across bins.
    pub fn len(&self) -> usize {
        self.bins.iter().map(|c| c.keys.len()).sum()
    }

    /// Whether no tuples are stored.
    pub fn is_empty(&self) -> bool {
        self.bins.iter().all(|c| c.keys.is_empty())
    }

    /// Borrowed iteration over bin `b`'s tuples in insertion order —
    /// zips the two columns without materialising tuple structs.
    pub fn iter_bin(
        &self,
        b: usize,
    ) -> std::iter::Zip<std::slice::Iter<'_, u32>, std::slice::Iter<'_, V>> {
        self.bins[b].keys.iter().zip(self.bins[b].values.iter())
    }

    /// Current bin-memory footprint: allocated column bytes, stored
    /// tuples, and backing slab segments.
    pub fn memory(&self) -> BinMemory {
        let val_bytes = std::mem::size_of::<V>();
        let mut m = BinMemory::default();
        for c in &self.bins {
            let bytes = (c.keys.capacity() * std::mem::size_of::<u32>()
                + if val_bytes == 0 {
                    0
                } else {
                    c.values.capacity() * val_bytes
                }) as u64;
            m.bytes += bytes;
            m.tuples += c.keys.len() as u64;
            m.segments += bytes.div_ceil(SEGMENT_BYTES as u64);
        }
        m
    }

    /// Slab-segment acquisitions (growth events) since creation.
    pub fn grow_events(&self) -> u64 {
        self.grows
    }

    /// Drops all tuples, keeping geometry and allocated capacity.
    pub fn clear(&mut self) {
        for c in &mut self.bins {
            c.keys.clear();
            c.values.clear();
        }
    }

    /// Swaps the filled columns out, leaving this store empty with the
    /// same geometry (the double-buffering hook behind `take_bins`).
    pub fn take(&mut self) -> BinStore<V> {
        let fresh = (0..self.bins.len()).map(|_| Column::default()).collect();
        let bins = std::mem::replace(&mut self.bins, fresh);
        BinStore {
            shift: self.shift,
            num_keys: self.num_keys,
            bins,
            grows: std::mem::take(&mut self.grows),
        }
    }

    /// Freezes the store behind an `Arc`: O(1), no copy of any column.
    pub fn freeze(self) -> FrozenBins<V> {
        FrozenBins(Arc::new(self))
    }

    /// Grows bin `b` so `extra` more tuples fit, acquiring capacity in
    /// whole slab segments (amortised doubling, never per-tuple).
    fn ensure(&mut self, b: usize, extra: usize) {
        let c = &mut self.bins[b];
        let needed = c.keys.len() + extra;
        if needed <= c.keys.capacity() {
            return;
        }
        let tuple_bytes = (std::mem::size_of::<u32>() + std::mem::size_of::<V>()).max(1);
        let seg_tuples = (SEGMENT_BYTES / tuple_bytes).max(1);
        let target = needed.max(c.keys.capacity() * 2).div_ceil(seg_tuples) * seg_tuples;
        c.keys.reserve_exact(target - c.keys.len());
        if std::mem::size_of::<V>() > 0 {
            c.values.reserve_exact(target - c.values.len());
        }
        self.grows += 1;
    }

    /// Appends one tuple to bin `b` (no routing — `b` is the caller's).
    #[inline]
    pub fn push(&mut self, b: usize, key: u32, value: V) {
        if self.bins[b].keys.len() == self.bins[b].keys.capacity() {
            self.ensure(b, 1);
        }
        let c = &mut self.bins[b];
        c.keys.push(key);
        c.values.push(value);
    }

    /// Routes one tuple by the store's bin shift and appends it.
    #[inline]
    pub fn insert(&mut self, key: u32, value: V) {
        let b = (key >> self.shift) as usize;
        self.push(b, key, value);
    }

    /// Pre-reserves per-bin capacity from exact counts (Init pre-pass).
    ///
    /// # Panics
    ///
    /// Panics if `counts.len() != num_bins()`.
    pub fn reserve(&mut self, counts: &[u32]) {
        assert_eq!(counts.len(), self.bins.len(), "one count per bin");
        for (b, &c) in counts.iter().enumerate() {
            self.ensure(b, c as usize);
        }
    }
}

impl<V: Copy> BinStore<V> {
    /// Bulk-appends parallel key/value slices to bin `b` (the C-Buffer
    /// full-line transfer).
    ///
    /// # Panics
    ///
    /// Panics if `keys.len() != values.len()`.
    #[inline]
    pub fn extend_bin(&mut self, b: usize, keys: &[u32], values: &[V]) {
        assert_eq!(keys.len(), values.len(), "parallel columns");
        self.ensure(b, keys.len());
        let c = &mut self.bins[b];
        c.keys.extend_from_slice(keys);
        c.values.extend_from_slice(values);
    }
}

impl<V: PartialEq> PartialEq for BinStore<V> {
    /// Content equality: geometry and column contents (growth history
    /// and spare capacity are not observable).
    fn eq(&self, other: &Self) -> bool {
        self.shift == other.shift
            && self.num_keys == other.num_keys
            && self.bins.len() == other.bins.len()
            && self
                .bins
                .iter()
                .zip(other.bins.iter())
                .all(|(a, b)| a.keys == b.keys && a.values == b.values)
    }
}

impl<V: Eq> Eq for BinStore<V> {}

/// An immutable, reference-counted [`BinStore`]: cloning is O(1) and
/// every clone shares the same column slabs ([`FrozenBins::ptr_eq`]
/// observes the sharing). This is how bins travel from `take_bins`
/// through epoch snapshots to caches without a single deep copy.
#[derive(Debug)]
pub struct FrozenBins<V>(Arc<BinStore<V>>);

impl<V> Clone for FrozenBins<V> {
    fn clone(&self) -> Self {
        FrozenBins(Arc::clone(&self.0))
    }
}

impl<V> std::ops::Deref for FrozenBins<V> {
    type Target = BinStore<V>;

    fn deref(&self) -> &BinStore<V> {
        &self.0
    }
}

impl<V> FrozenBins<V> {
    /// Whether two handles share the same slabs (zero-copy witness).
    pub fn ptr_eq(a: &Self, b: &Self) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_matches_reference_rounding() {
        // (num_keys, min_bins) -> (range, num_bins) from the seed Binner.
        for (num_keys, min_bins, range, bins) in [
            (100u32, 4usize, 32u64, 4usize),
            (64, 1, 64, 1),
            (4, 100, 1, 4),
            (8, 8, 1, 8),
            (1000, 7, 128, 8),
            (1, 1, 1, 1),
            (1, 64, 1, 1),
        ] {
            let (shift, n) = bin_geometry(num_keys, min_bins);
            assert_eq!(1u64 << shift, range, "range for ({num_keys},{min_bins})");
            assert_eq!(n, bins, "bins for ({num_keys},{min_bins})");
        }
    }

    #[test]
    fn geometry_guarantees_min_bins() {
        for (num_keys, min_bins) in [
            (1u32, 1usize),
            (1, 64),
            (4, 100),
            (5, 5),
            (7, 3),
            (1000, 1000),
            (1000, 4096),
        ] {
            let (_, n) = bin_geometry(num_keys, min_bins);
            assert!(n >= min_bins.min(num_keys as usize));
        }
    }

    #[test]
    fn push_routes_nothing_insert_routes_by_shift() {
        let mut s = BinStore::<u8>::new(100, 4);
        assert_eq!(s.bin_range(), 32);
        s.insert(40, 7); // bin 1
        s.push(3, 2, 9); // misplaced on purpose: push takes the caller's bin
        assert_eq!(s.keys(1), &[40]);
        assert_eq!(s.keys(3), &[2]);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn columns_stay_parallel_and_ordered() {
        let mut s = BinStore::<u32>::new(256, 4);
        for k in [200u32, 10, 100, 11, 201] {
            s.insert(k, k * 2);
        }
        assert_eq!(s.keys(0), &[10, 11]);
        assert_eq!(s.values(0), &[20, 22]);
        assert_eq!(s.keys(3), &[200, 201]);
        let pairs: Vec<(u32, u32)> = s.iter_bin(3).map(|(&k, &v)| (k, v)).collect();
        assert_eq!(pairs, vec![(200, 400), (201, 402)]);
    }

    #[test]
    fn reserve_acquires_whole_segments() {
        let mut s = BinStore::<u32>::new(1 << 20, 4);
        s.reserve(&[100, 0, 5000, 1]);
        let m = s.memory();
        // (4 + 4)-byte tuples -> 512 tuples per 4 KiB segment, so the
        // three non-empty bins round up to 512 + 5120 + 512 slots.
        assert_eq!(s.grow_events(), 3, "three non-zero counts grew");
        assert!(m.bytes >= (100 + 5000 + 1) * 8);
        assert_eq!(m.bytes % SEGMENT_BYTES as u64, 0, "whole segments only");
        assert_eq!(m.segments, m.bytes / SEGMENT_BYTES as u64);
        assert_eq!(m.tuples, 0);
        let grows_before = s.grow_events();
        for k in 0..100u32 {
            s.push(0, k, k);
        }
        assert_eq!(s.grow_events(), grows_before, "reserved bin never regrows");
    }

    #[test]
    fn growth_is_segment_granular_not_per_tuple() {
        let mut s = BinStore::<u64>::new(64, 1);
        for k in 0..10_000u32 {
            s.insert(k % 64, k as u64);
        }
        assert_eq!(s.len(), 10_000);
        // 12-byte tuples -> 341 per segment; doubling keeps events ~log.
        assert!(
            s.grow_events() <= 12,
            "expected amortised growth, saw {} events",
            s.grow_events()
        );
        let m = s.memory();
        assert_eq!(m.tuples, 10_000);
        assert!(m.segments > 0);
    }

    #[test]
    fn zero_sized_values_cost_no_value_bytes() {
        let mut s = BinStore::<()>::new(1024, 4);
        for k in 0..1000u32 {
            s.insert(k, ());
        }
        let m = s.memory();
        assert_eq!(m.tuples, 1000);
        // Only the key column occupies memory.
        assert!(m.bytes >= 1000 * 4);
        assert!(m.bytes < 16 * SEGMENT_BYTES as u64);
    }

    #[test]
    fn take_preserves_geometry_and_resets_contents() {
        let mut s = BinStore::<u32>::new(100, 4);
        for k in 0..100u32 {
            s.insert(k, k);
        }
        let taken = s.take();
        assert_eq!(taken.len(), 100);
        assert_eq!(s.len(), 0);
        assert_eq!(s.num_bins(), taken.num_bins());
        assert_eq!(s.bin_shift(), taken.bin_shift());
        s.insert(99, 1);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn freeze_is_zero_copy_sharing() {
        let mut s = BinStore::<u32>::new(64, 2);
        for k in 0..64u32 {
            s.insert(k, k);
        }
        let keys_ptr = s.keys(0).as_ptr();
        let frozen = s.freeze();
        let a = frozen.clone();
        let b = a.clone();
        assert!(FrozenBins::ptr_eq(&frozen, &a));
        assert!(FrozenBins::ptr_eq(&a, &b));
        // The column slab itself never moved or copied.
        assert_eq!(b.keys(0).as_ptr(), keys_ptr);
        assert_eq!(b.len(), 64);
    }

    #[test]
    fn content_equality_ignores_capacity_history() {
        let mut a = BinStore::<u32>::new(64, 2);
        let mut b = BinStore::<u32>::new(64, 2);
        b.reserve(&[1000; 2]);
        for k in 0..64u32 {
            a.insert(k, k);
            b.insert(k, k);
        }
        assert_eq!(a, b);
        b.push(0, 1, 1);
        assert_ne!(a, b);
    }

    #[test]
    fn ragged_last_bin_key_range() {
        let s = BinStore::<u32>::new(100, 4);
        assert_eq!(s.key_range(3), 96..100);
        assert_eq!(s.key_range(0), 0..32);
    }
}
