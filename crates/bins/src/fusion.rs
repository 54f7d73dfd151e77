//! Frame-level commutative reducer fusion (Coup-style).
//!
//! "Flexible Support for Fast Parallel Commutative Updates" (Coup)
//! observes that commutative updates need not reach the shared copy of a
//! datum individually — private partial results can absorb them and be
//! reduced later. Applied to propagation blocking, the C-Buffer staging
//! frame *is* that private copy: while a tuple sits staged for bin `b`,
//! a second update to the same key can be folded into the staged value
//! instead of occupying a second frame slot, so one tuple crosses to the
//! in-memory bin where two would have. On skewed key distributions this
//! cuts bin traffic exactly where it concentrates.
//!
//! [`FuseTable`] is the lookup structure that makes the fold O(1): a
//! small direct-mapped table (one slot per possible frame entry) mapping
//! a key hash to the frame index where that key is staged. It is a hint
//! structure only — a hash collision evicts the previous slot, which
//! costs a missed fusion, never a lost or misrouted update.
//!
//! **Legality** is the caller's problem by design: the table never
//! combines values itself, it only reports where a key is staged. The
//! caller supplies the merge closure, and only kernels whose reducer is
//! declared commutative (`Reducer::COMMUTATIVE` + `FUSABLE` in
//! `cobra-stream`, validated by cobra-check's commutativity oracle) may
//! route through the fused insert path at all. The merge closure may
//! also *refuse* a pair (return `false`) when the two payloads are not
//! combinable — e.g. SpGEMM partial products for the same output row but
//! different output columns — in which case the tuple stages normally.

use crate::frame::FRAME_KEYS;

/// Slot index for a key: top `log2(FRAME_KEYS)` bits of a Fibonacci hash.
const SLOT_SHIFT: u32 = 32 - (FRAME_KEYS as u32).trailing_zeros();

/// Key tag of a vacant [`FuseTable`] slot. No key in a domain equals it:
/// keys are `< num_keys <= u32::MAX`, so a probe needs one compare.
const VACANT: u32 = u32::MAX;

// A slot stores its frame index in a `u8` and `SLOT_SHIFT` takes a log2:
// a frame the table cannot index must not compile, because a truncated
// index would fold a value into another key's staged tuple.
const _: () = assert!(FRAME_KEYS.is_power_of_two() && FRAME_KEYS <= u8::MAX as usize);

/// Running counters for the fusion pass.
///
/// `attempts` counts every tuple offered to the fused insert path,
/// `hits` the ones folded into an already-staged tuple (so `attempts -
/// hits` tuples actually crossed into bin memory), and `flushes` the
/// table resets forced by frame flushes (each flush empties the frame,
/// so nothing staged remains to fuse with).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FuseStats {
    /// Tuples offered to the fused insert path.
    pub attempts: u64,
    /// Tuples folded into a staged tuple (never reached bin memory).
    pub hits: u64,
    /// Coalescing-table resets caused by frame flushes.
    pub flushes: u64,
}

impl FuseStats {
    /// Fraction of offered tuples that fused away (0.0 when none offered).
    pub fn fused_ratio(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.hits as f64 / self.attempts as f64
        }
    }
}

/// A direct-mapped coalescing table in front of one C-Buffer frame.
///
/// One slot per possible frame entry ([`FRAME_KEYS`]); each live slot
/// records the key staged at some frame index. [`probe`](Self::probe)
/// answers "where is `key` currently staged, if anywhere"; the caller
/// folds the new value there or stages normally and
/// [`note`](Self::note)s the new position. [`clear`](Self::clear) must
/// accompany every frame flush/clear, or stale indices would alias new
/// tuples.
#[derive(Debug, Clone)]
pub struct FuseTable {
    /// Frame index staged at each slot (meaningful where the slot is live).
    idx: [u8; FRAME_KEYS],
    /// Key tag of each slot ([`VACANT`] when the slot is not live).
    key: [u32; FRAME_KEYS],
}

impl Default for FuseTable {
    fn default() -> Self {
        Self::new()
    }
}

impl FuseTable {
    /// An empty table.
    pub fn new() -> Self {
        FuseTable {
            idx: [0; FRAME_KEYS],
            key: [VACANT; FRAME_KEYS],
        }
    }

    #[inline]
    fn slot(key: u32) -> usize {
        // Fibonacci hash: keys within one bin share their high bits (they
        // share a key range), so index by the multiplied top bits rather
        // than the raw low bits.
        (key.wrapping_mul(0x9E37_79B1) >> SLOT_SHIFT) as usize
    }

    /// Frame index where `key` is staged, if the table still tracks it.
    #[inline]
    pub fn probe(&self, key: u32) -> Option<usize> {
        let s = Self::slot(key);
        if self.key[s] == key {
            Some(self.idx[s] as usize)
        } else {
            None
        }
    }

    /// Records that `key` was just staged at frame index `frame_idx`
    /// (evicting whatever the slot tracked before — a missed fusion at
    /// worst). `key` is a domain key, so never `u32::MAX`.
    #[inline]
    pub fn note(&mut self, key: u32, frame_idx: usize) {
        debug_assert!(frame_idx < FRAME_KEYS && key != VACANT);
        let s = Self::slot(key);
        self.idx[s] = frame_idx as u8;
        self.key[s] = key;
    }

    /// Forgets every staged position. Must be called whenever the frame
    /// the table fronts is flushed or cleared.
    #[inline]
    pub fn clear(&mut self) {
        self.key = [VACANT; FRAME_KEYS];
    }

    /// Whether no slot is live.
    pub fn is_empty(&self) -> bool {
        self.key.iter().all(|&k| k == VACANT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::CBufFrame;

    #[test]
    fn probe_note_clear_roundtrip() {
        let mut t = FuseTable::new();
        assert!(t.is_empty());
        assert_eq!(t.probe(42), None);
        t.note(42, 3);
        assert_eq!(t.probe(42), Some(3));
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.probe(42), None);
    }

    #[test]
    fn a_fresh_or_cleared_table_misses_key_zero() {
        // Key 0 was the vacant slots' old tag: it must miss until noted.
        let mut t = FuseTable::new();
        assert_eq!(t.probe(0), None);
        t.note(0, 5);
        assert_eq!(t.probe(0), Some(5));
        t.clear();
        assert_eq!(t.probe(0), None);
    }

    #[test]
    fn colliding_key_evicts_slot_without_aliasing() {
        // Two keys that hash to the same slot: the later note wins, and
        // the earlier key misses instead of aliasing the wrong index.
        let mut t = FuseTable::new();
        let a = 7u32;
        let mut b = a + 1;
        while FuseTable::slot(b) != FuseTable::slot(a) {
            b += 1;
        }
        t.note(a, 0);
        t.note(b, 1);
        assert_eq!(t.probe(a), None, "evicted key must miss");
        assert_eq!(t.probe(b), Some(1));
    }

    #[test]
    fn fused_ratio_bounds() {
        let z = FuseStats::default();
        assert_eq!(z.fused_ratio(), 0.0);
        let s = FuseStats {
            attempts: 8,
            hits: 2,
            flushes: 1,
        };
        assert!((s.fused_ratio() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn table_drives_in_frame_coalescing() {
        // The intended use: probe, fold into the staged value on hit,
        // stage + note on miss.
        let mut frame = CBufFrame::<u64>::with_capacity(8);
        let mut table = FuseTable::new();
        let mut hits = 0u32;
        for (k, v) in [(5u32, 1u64), (9, 10), (5, 2), (9, 20), (5, 4)] {
            match table.probe(k) {
                Some(i) if frame.keys()[i] == k => {
                    *frame.value_mut(i) += v;
                    hits += 1;
                }
                _ => {
                    frame.push(k, v);
                    table.note(k, frame.len() - 1);
                }
            }
        }
        assert_eq!(hits, 3);
        assert_eq!(frame.keys(), &[5, 9]);
        assert_eq!(frame.values(), &[7, 30]);
    }

    #[test]
    fn full_frame_of_distinct_keys_never_aliases() {
        // Every index a full frame can hand to `note` — the last one
        // included — must fit a slot: a noted key probes back to its own
        // index or (evicted by a colliding key) to nothing, never to
        // another key's.
        for stride in [1u32, 7, 4096, 0x9E37] {
            let mut frame = CBufFrame::<u64>::with_capacity(FRAME_KEYS);
            let mut table = FuseTable::new();
            for i in 0..FRAME_KEYS {
                let key = i as u32 * stride;
                assert_eq!(table.probe(key), None, "distinct keys never hit");
                table.note(key, frame.len());
                frame.push(key, i as u64);
            }
            assert!(frame.is_full());
            let mut live = 0;
            for (i, &key) in frame.keys().iter().enumerate() {
                if let Some(at) = table.probe(key) {
                    assert_eq!(at, i, "key {key} aliases index {at}");
                    live += 1;
                }
            }
            assert!(live > 0, "the last noted key is never evicted");
            let last = FRAME_KEYS - 1;
            assert_eq!(table.probe(frame.keys()[last]), Some(last));
        }
    }
}
