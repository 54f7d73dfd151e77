//! Cacheline-aligned C-Buffer frames.
//!
//! Software PB's Binning phase never writes a bin one tuple at a time:
//! tuples are staged in a per-bin coalescing buffer and transferred in
//! bulk when it fills (paper, Section III). [`CBufFrame`] is that staging
//! buffer, and because bin memory is columnar it stages *columns*: a
//! 64-byte-aligned array of keys and a parallel array of values. A frame
//! a `Binner` owns holds [`FRAME_KEYS`] tuples whatever the payload, so a
//! flush moves whole cache lines of keys and — for any power-of-two
//! payload — whole lines of values: two fixed-size multi-line copies.
//!
//! That capacity deliberately does not depend on the padded
//! array-of-structs size of a tuple, which a columnar frame never stores
//! (sizing by it made a `(u32, u64)` frame four tuples: a quarter line of
//! keys and half a line of values per flush). [`cbuf_capacity`] is the
//! paper's one-line figure, kept for the simulated `SwPb` backend, which
//! models 64-byte C-Buffers and passes its own capacity to
//! [`CBufFrame::with_capacity`].

use crate::store::BinStore;

/// Cache-line size assumed throughout the workspace.
pub const LINE_BYTES: usize = 64;

/// Tuples a frame holds at most, and the capacity of every `Binner`
/// frame: eight lines of `u32` keys (sixteen of `u64` values). 128 bins
/// of `u64` payloads stage 192 KiB per thread, which stays L2-resident.
/// 128 is also the largest frame `FuseTable`'s `u8` index can address.
pub const FRAME_KEYS: usize = 128;

/// Tuples per *one-line* (64-byte) C-Buffer for a given tuple size in
/// bytes, the paper's hardware figure (at least one — oversized payloads
/// degrade to per-tuple transfers).
pub fn cbuf_capacity(tuple_bytes: usize) -> usize {
    (LINE_BYTES / tuple_bytes.max(1)).clamp(1, FRAME_KEYS)
}

/// One C-Buffer: a cacheline-aligned staging frame for up to
/// [`capacity`](Self::capacity) tuples bound for a single bin.
#[derive(Debug, Clone)]
#[repr(C, align(64))]
pub struct CBufFrame<V> {
    keys: [u32; FRAME_KEYS],
    values: Vec<V>,
    cap: u32,
}

/// Running totals over flushed C-Buffer frames, for occupancy reporting:
/// a full-line flush has occupancy 1.0, end-of-epoch partial flushes
/// drag the average down.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameFlushStats {
    /// Non-empty frames flushed.
    pub frames: u64,
    /// Tuples those flushes carried.
    pub tuples: u64,
    /// Tuple capacity of one frame.
    pub frame_capacity: u32,
}

impl FrameFlushStats {
    /// Average fill fraction of flushed frames (0.0 when none flushed).
    pub fn occupancy(&self) -> f64 {
        let cap = self.frames * self.frame_capacity as u64;
        if cap == 0 {
            0.0
        } else {
            self.tuples as f64 / cap as f64
        }
    }

    /// Records one flushed frame carrying `tuples` tuples.
    pub fn record(&mut self, tuples: usize) {
        self.frames += 1;
        self.tuples += tuples as u64;
    }
}

impl<V: Copy> CBufFrame<V> {
    /// A frame holding up to `cap` tuples.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= cap <= FRAME_KEYS`.
    pub fn with_capacity(cap: usize) -> Self {
        assert!(
            (1..=FRAME_KEYS).contains(&cap),
            "C-Buffer capacity {cap} outside 1..={FRAME_KEYS}"
        );
        CBufFrame {
            keys: [0; FRAME_KEYS],
            values: Vec::with_capacity(cap),
            cap: cap as u32,
        }
    }

    /// Tuple capacity of the frame.
    pub fn capacity(&self) -> usize {
        self.cap as usize
    }

    /// Tuples currently staged.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the frame holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Whether the next push would not fit.
    pub fn is_full(&self) -> bool {
        self.values.len() == self.cap as usize
    }

    /// Stages one tuple.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the frame is full — callers flush on full.
    #[inline]
    pub fn push(&mut self, key: u32, value: V) {
        debug_assert!(!self.is_full(), "C-Buffer overflow");
        self.keys[self.values.len()] = key;
        self.values.push(value);
    }

    /// Takes the last staged tuple back out (nothing if none is staged).
    pub fn pop(&mut self) {
        self.values.pop();
    }

    /// The staged keys, in insertion order.
    pub fn keys(&self) -> &[u32] {
        &self.keys[..self.values.len()]
    }

    /// The staged values, in insertion order.
    pub fn values(&self) -> &[V] {
        &self.values
    }

    /// Mutable access to the staged value at `idx` — the fusion hook:
    /// a commutative update to an already-staged key folds into the
    /// staged value instead of occupying a second slot (see
    /// [`FuseTable`](crate::FuseTable)).
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len()`.
    #[inline]
    pub fn value_mut(&mut self, idx: usize) -> &mut V {
        &mut self.values[idx]
    }

    /// Drops all staged tuples.
    pub fn clear(&mut self) {
        self.values.clear();
    }

    /// Bulk-transfers the staged tuples to bin `b` of `store` (the
    /// whole-line writes software PB does with non-temporal stores) and
    /// clears the frame. Returns the tuple count transferred.
    #[inline]
    pub fn flush_into(&mut self, store: &mut BinStore<V>, b: usize) -> usize {
        let n = self.values.len();
        if n > 0 {
            store.extend_bin(b, &self.keys[..n], &self.values);
            self.values.clear();
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_key_column_is_line_aligned() {
        let f = CBufFrame::<u64>::with_capacity(5);
        assert_eq!(std::mem::align_of_val(&f), LINE_BYTES);
        assert_eq!(f.capacity(), 5);
        assert!(f.is_empty());
    }

    #[test]
    fn capacity_matches_tuple_size() {
        // The one-line figure follows the tuple size...
        assert_eq!(cbuf_capacity(4), LINE_BYTES / 4); // key-only tuples
        assert_eq!(cbuf_capacity(12), 5);
        assert_eq!(cbuf_capacity(16), 4);
        assert_eq!(cbuf_capacity(100), 1); // oversized payload
        for bytes in 1..=200 {
            assert!((1..=FRAME_KEYS).contains(&cbuf_capacity(bytes)));
        }
        // ...and a frame's limit does not: FRAME_KEYS tuples are whole
        // lines of keys and of any power-of-two payload.
        assert_eq!(FRAME_KEYS * std::mem::size_of::<u32>() % LINE_BYTES, 0);
        let mut f = CBufFrame::<(u32, f64)>::with_capacity(FRAME_KEYS);
        for k in 0..FRAME_KEYS as u32 {
            assert!(!f.is_full());
            f.push(k, (k, 0.5));
        }
        assert!(f.is_full());
        assert_eq!(std::mem::size_of_val(f.values()) % LINE_BYTES, 0);
    }

    #[test]
    fn push_flush_roundtrip() {
        let mut store = BinStore::<u32>::with_geometry(4, 64, 4);
        let mut f = CBufFrame::<u32>::with_capacity(3);
        f.push(17, 1);
        f.push(18, 2);
        assert_eq!(f.keys(), &[17, 18]);
        assert_eq!(f.values(), &[1, 2]);
        f.push(19, 3);
        assert!(f.is_full());
        assert_eq!(f.flush_into(&mut store, 1), 3);
        assert!(f.is_empty());
        assert_eq!(store.keys(1), &[17, 18, 19]);
        assert_eq!(store.values(1), &[1, 2, 3]);
    }

    #[test]
    fn occupancy_accounting() {
        let mut s = FrameFlushStats {
            frame_capacity: 8,
            ..Default::default()
        };
        assert_eq!(s.occupancy(), 0.0);
        s.record(8);
        s.record(4);
        assert!((s.occupancy() - 0.75).abs() < 1e-12);
    }
}
