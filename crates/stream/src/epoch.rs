//! Epoch accumulation: the streaming Accumulate phase.
//!
//! Shard workers double-buffer their bins: sealing an epoch swaps the
//! active bins out (`Binner::take_bins`) and the worker replays them into
//! the state segments of its own key range, so the Accumulate phase is
//! per-shard parallel over disjoint keys — the paper's per-bin parallel
//! Accumulate — and overlaps the producers filling the FIFO with epoch
//! `e+1`, the same overlap COBRA gets from its eviction buffers
//! decoupling the core from the binning engines. Every sealed epoch — any
//! reducer, live or recovered from the WAL — replays through one body,
//! [`apply_bins`]: bin by bin, tuples in per-shard arrival order, the
//! non-commutative correctness condition (paper, Section III), which a
//! commutative reducer satisfies a fortiori.
//!
//! Snapshots must still be *epoch-aligned*. Workers ship clones of their
//! segment handles — their cumulative state as of the seal — and the one
//! [`Accumulator`] thread keeps exactly what must be serial: it defers any
//! shard's epoch-`e` handles until every shard's epoch `e-1` is in, then
//! assembles the aligned wave into an immutable [`EpochSnapshot`] and runs
//! commit → hook → publish. It applies nothing.
//!
//! # Segmented state: recycle, or copy while shared
//!
//! The value array is split into fixed-size *segments*, each an
//! `Arc<Vec<A>>`. A worker holds the handles of the segments of its key
//! range and ships clones of them at every seal; a snapshot is
//! those handles (O(num_segments), independent of key count and value
//! size). A shipped handle is never written again, so epochs that touch
//! a sparse key set pay for the touched segments only: the worker writes
//! into the handle it retired an epoch earlier (its *spare*), replaying
//! the previous epoch's bin into it first, and copies only while that
//! spare is still shared (retained, cached, in flight). Downstream
//! consumers — the serve-layer block cache in particular — hold the same
//! `Arc`s, making snapshot-to-cache handoff zero-copy and
//! pointer-identity testable.
//!
//! The segment size is derived from the shard plan, never configured: a
//! power of two no wider than any shard's bins, so every segment lies in
//! one bin of one shard. No two workers ever write one segment, and the
//! accumulator installs every handle it receives as is.

use crate::channel::Receiver;
use crate::reducer::Reducer;
use cobra_pb::Bins;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// An immutable, epoch-aligned view of the accumulated state, backed by
/// shared copy-on-write segments.
#[derive(Debug, Clone)]
pub struct EpochSnapshot<A> {
    epoch: u64,
    num_keys: u32,
    segment_keys: u32,
    segments: Vec<Arc<Vec<A>>>,
}

impl<A> EpochSnapshot<A> {
    pub(crate) fn new(
        epoch: u64,
        num_keys: u32,
        segment_keys: u32,
        segments: Vec<Arc<Vec<A>>>,
    ) -> Self {
        EpochSnapshot {
            epoch,
            num_keys,
            segment_keys,
            segments,
        }
    }

    /// Builds a snapshot directly from copy-on-write segment handles —
    /// the constructor for retention layers and tests that manage segment
    /// sharing themselves (a pipeline publishes through the same path).
    /// All segments but the last must hold exactly `segment_keys` values;
    /// the last may be shorter but not empty.
    ///
    /// # Panics
    ///
    /// Panics on `segment_keys == 0`, an empty segment list, or segment
    /// lengths that violate the geometry above.
    pub fn from_segments(epoch: u64, segment_keys: u32, segments: Vec<Arc<Vec<A>>>) -> Self {
        assert!(segment_keys > 0, "need a positive segment size");
        assert!(!segments.is_empty(), "need at least one segment");
        let mut num_keys = 0u64;
        for (i, seg) in segments.iter().enumerate() {
            let expect_full = i + 1 < segments.len();
            assert!(
                if expect_full {
                    seg.len() == segment_keys as usize
                } else {
                    !seg.is_empty() && seg.len() <= segment_keys as usize
                },
                "segment {i} has {} keys, segment_keys is {segment_keys}",
                seg.len()
            );
            num_keys += seg.len() as u64;
        }
        assert!(num_keys <= u32::MAX as u64, "too many keys");
        EpochSnapshot {
            epoch,
            num_keys: num_keys as u32,
            segment_keys,
            segments,
        }
    }

    /// The epoch this snapshot reflects (0 = the empty initial state; the
    /// final drain publishes one extra epoch past the last seal).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of keys.
    pub fn num_keys(&self) -> u32 {
        self.num_keys
    }

    /// Keys per segment (the last segment may hold fewer).
    pub fn segment_keys(&self) -> u32 {
        self.segment_keys
    }

    /// Number of copy-on-write segments.
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// The shared handle of segment `i` (keys
    /// `i * segment_keys .. (i + 1) * segment_keys`). Cloning the `Arc`
    /// shares the segment zero-copy; `Arc::ptr_eq` across snapshots tells
    /// whether the segment was rewritten between them.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn segment(&self, i: usize) -> &Arc<Vec<A>> {
        &self.segments[i]
    }

    /// The accumulated value of `key`.
    ///
    /// # Panics
    ///
    /// Panics if `key` is out of range.
    pub fn get(&self, key: u32) -> &A {
        assert!(key < self.num_keys, "key {key} out of range");
        &self.segments[(key / self.segment_keys) as usize][(key % self.segment_keys) as usize]
    }

    /// The accumulated value of `key`, or `None` when `key` is out of
    /// range. Use this (not [`get`](Self::get)) for keys that come from
    /// untrusted input: a malformed key must produce an error response,
    /// not a panic in whichever worker handled the request.
    pub fn try_get(&self, key: u32) -> Option<&A> {
        if key < self.num_keys {
            Some(self.get(key))
        } else {
            None
        }
    }

    /// Iterates all accumulated values in key order.
    pub fn iter(&self) -> impl Iterator<Item = &A> {
        self.segments.iter().flat_map(|s| s.iter())
    }

    /// Collects all accumulated values into a flat key-indexed vector
    /// (a deep copy — use [`segment`](Self::segment) / [`iter`](Self::iter)
    /// where zero-copy access suffices).
    pub fn to_vec(&self) -> Vec<A>
    where
        A: Clone,
    {
        let mut out = Vec::with_capacity(self.num_keys as usize);
        for seg in &self.segments {
            out.extend_from_slice(seg);
        }
        out
    }
}

impl<A: PartialEq> PartialEq for EpochSnapshot<A> {
    fn eq(&self, other: &Self) -> bool {
        // Logical equality: same epoch, same per-key values; segment
        // geometry is a layout detail.
        self.epoch == other.epoch && self.num_keys == other.num_keys && self.iter().eq(other.iter())
    }
}

impl<A: Eq> Eq for EpochSnapshot<A> {}

/// Copy-on-write handles of consecutive snapshot segments.
pub(crate) type Handles<A> = Vec<Arc<Vec<A>>>;

/// All-identity state segments in the snapshot geometry: `segment_keys`
/// keys per segment, the last one shorter when `num_keys` is no multiple.
pub(crate) fn identity_segments<R: Reducer>(
    reducer: &R,
    num_keys: u32,
    segment_keys: u32,
) -> Handles<R::Acc> {
    (0..num_keys.div_ceil(segment_keys))
        .map(|seg| {
            let n = (num_keys - seg * segment_keys).min(segment_keys);
            Arc::new(vec![reducer.identity(); n as usize])
        })
        .collect()
}

/// A contiguous run of snapshot segments: the copy-on-write handles of
/// global segments `first..first + handles.len()`. A shard worker owns
/// the run of its key range; WAL recovery replays into the whole state
/// (`first == 0`).
pub(crate) struct Segments<A> {
    /// Global index of `handles[0]`.
    pub(crate) first: usize,
    pub(crate) segment_keys: u32,
    pub(crate) handles: Handles<A>,
    /// Per handle, the one the last [`apply_bins`] retired (empty until a
    /// call keeps any).
    pub(crate) spares: Vec<Option<Arc<Vec<A>>>>,
}

/// Shared segments one [`apply_bins`] call copied and recycled.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Privatised {
    pub(crate) copied: u64,
    pub(crate) recycled: u64,
}

/// The snapshot segments that overlap the (non-empty) global key range
/// `keys`, as a range of global segment indices.
pub(crate) fn segment_span(keys: &Range<u32>, segment_keys: u32) -> Range<usize> {
    (keys.start / segment_keys) as usize..keys.end.div_ceil(segment_keys) as usize
}

/// Replays one shard's bins (shard-local keys, `base` = the shard's first
/// global key) into `state`, bin by bin, tuples in arrival order. The one
/// accumulate body: a shard worker sealing an epoch and WAL recovery both
/// apply here, whatever the reducer declares.
///
/// Segments are resolved once per bin, never per tuple: a bin covers a
/// whole run of segments starting at its first key, so a key's segment
/// and slot are a shift and a mask, one pass over the key column marks the
/// segments the bin touches, each marked segment is made private once per
/// call, and the two columns then replay through plain slices. Per-key
/// order is the bin's arrival order, untouched.
///
/// A segment nobody else holds is written in place. A shared one is
/// retired as its spare and replaced by the previous call's spare, after
/// replaying the bin's tuples of `prev` (that call's bins) into it, if
/// `Arc::get_mut` succeeds on the spare; by a copy otherwise. Untaken
/// spares are dropped, so a spare lags by exactly one call's bins.
/// Without `prev` (WAL recovery, a worker's first seal) no spare is kept.
pub(crate) fn apply_bins<R: Reducer>(
    reducer: &R,
    bins: &Bins<R::Value>,
    prev: Option<&Bins<R::Value>>,
    base: u32,
    state: &mut Segments<R::Acc>,
) -> Privatised {
    let shift = state.segment_keys.trailing_zeros();
    let mut old = std::mem::replace(&mut state.spares, vec![None; state.handles.len()]);
    old.resize(state.handles.len(), None);
    let mut paths = Privatised::default();
    for b in (0..bins.num_bins()).filter(|&b| bins.bin_len(b) > 0) {
        let local = bins.key_range(b);
        let span = segment_span(&(base + local.start..base + local.end), state.segment_keys);
        let at = span.start - state.first..span.end - state.first;
        // Makes segment `i` of the run this call's to write. Returns
        // whether it is a recycled spare, still missing `prev`'s tuples.
        let privatise = |i: usize, live: &mut Arc<Vec<R::Acc>>| {
            if Arc::get_mut(live).is_some() {
                return false;
            }
            let mut spare = old[at.start + i].take().filter(|_| prev.is_some());
            let recycle = spare.as_mut().is_some_and(|s| Arc::get_mut(s).is_some());
            let fresh = match spare {
                Some(s) if recycle => s,
                _ => Arc::new(Vec::clone(live)),
            };
            state.spares[at.start + i] = Some(std::mem::replace(live, fresh));
            paths.recycled += u64::from(recycle);
            paths.copied += u64::from(!recycle);
            recycle
        };
        replay_bin(
            reducer,
            (bins.keys(b), bins.values(b)),
            prev.map(|p| (p.keys(b), p.values(b))),
            &mut state.handles[at.clone()],
            privatise,
            (local.start, shift),
        );
    }
    if prev.is_none() {
        state.spares.clear();
    }
    paths
}

/// One bin of [`apply_bins`]: `handles` are the segments of the bin's key
/// range, the first starting at its first (local) key `first`, and
/// `privatise` makes a touched one writable. A key's segment and slot are
/// a shift and a mask, as in `Binner`.
fn replay_bin<R: Reducer>(
    reducer: &R,
    (keys, values): (&[u32], &[R::Value]),
    prev: Option<(&[u32], &[R::Value])>,
    handles: &mut [Arc<Vec<R::Acc>>],
    mut privatise: impl FnMut(usize, &mut Arc<Vec<R::Acc>>) -> bool,
    (first, shift): (u32, u32),
) {
    let locate = |k: u32| {
        let off = k - first;
        ((off >> shift) as usize, (off & ((1 << shift) - 1)) as usize)
    };
    let mut touched = vec![false; handles.len()];
    for &k in keys {
        touched[locate(k).0] = true;
    }
    let recycled: Vec<bool> = (handles.iter_mut().enumerate().zip(&touched))
        .map(|((i, h), &hit)| hit && privatise(i, h))
        .collect();
    // Every touched handle is unshared by now: `make_mut` copies nothing.
    let mut slices: Vec<&mut [R::Acc]> = handles
        .iter_mut()
        .zip(touched)
        .map(|(h, hit)| {
            if hit {
                Arc::make_mut(h).as_mut_slice()
            } else {
                Default::default()
            }
        })
        .collect();
    // A recycled spare first catches up on the previous epoch's tuples.
    if let Some((keys, values)) = prev.filter(|_| recycled.contains(&true)) {
        for (&k, v) in keys.iter().zip(values) {
            let (seg, slot) = locate(k);
            if recycled[seg] {
                reducer.apply(&mut slices[seg][slot], v);
            }
        }
    }
    for (&k, v) in keys.iter().zip(values) {
        let (seg, slot) = locate(k);
        reducer.apply(&mut slices[seg][slot], v);
    }
}

/// Shard-to-accumulator protocol. A worker ships its *cumulative* state —
/// clones of its segment handles, taken right after it applied the sealed
/// epoch — never bins: the accumulator applies nothing.
pub(crate) enum AccMsg<A> {
    /// The shard's segment handles as of sealed epoch `epoch`.
    Sealed {
        shard: usize,
        epoch: u64,
        handles: Handles<A>,
        /// The shard WAL's logical offset just past this epoch's `Seal`
        /// marker (0 in non-durable mode): recorded into the checkpoint
        /// manifest so recovery replays from here.
        wal_offset: u64,
    },
    /// The shard's handles after its final drain; the shard has exited.
    Done {
        shard: usize,
        handles: Handles<A>,
        /// WAL offset past the drain epoch's `Seal` (0 when non-durable
        /// or when the shard exited without a drain seal).
        wal_offset: u64,
    },
}

/// What the durability hook observes at each epoch commit: the aligned
/// epoch, the assembled state segments, and every shard's WAL replay
/// boundary. Fired after the wave is assembled and *before* the snapshot
/// publishes, so an externally observable epoch is always durable first.
pub(crate) struct EpochEvent<'a, A> {
    pub(crate) epoch: u64,
    pub(crate) state: &'a [Arc<Vec<A>>],
    pub(crate) shard_offsets: &'a [u64],
    /// True for the final drain epoch.
    pub(crate) drain: bool,
}

/// The durability hook: writes the `EpochCommit` record (and periodically
/// a checkpoint) before the snapshot becomes visible.
pub(crate) type EpochSink<A> = Box<dyn FnMut(EpochEvent<'_, A>) + Send>;

/// A publish hook: called on the accumulator thread with every epoch
/// snapshot *before* it is swapped in as the published snapshot, so a
/// retention layer that admits the epoch here is guaranteed to hold any
/// epoch a reader can name via
/// [`published_epoch`](crate::IngestPipeline::published_epoch).
///
/// The hook runs after the durability sink (commit-before-publish is
/// preserved) and on the hot epoch boundary — keep it O(segments), not
/// O(keys): clone `Arc` handles, don't deep-copy state.
pub type PublishHook<A> = Box<dyn FnMut(&Arc<EpochSnapshot<A>>) + Send>;

/// What the pipeline starts from: the committed epoch, its COW state
/// segments, and the per-shard WAL replay boundaries (0, identity and
/// zeros unless a recovery found more).
pub(crate) type ResumeState<A> = (u64, Handles<A>, Vec<u64>);

/// One shard's sealed epoch: `(epoch, segment handles, WAL replay boundary)`.
type SealedEpoch<A> = (u64, Handles<A>, u64);

/// The single accumulator thread's state. It keeps exactly what must be
/// serial: aligning the shards' sealed epochs into waves in epoch order,
/// assembling each wave's segment handles into an [`EpochSnapshot`], and
/// commit → hook → publish. It applies no update.
pub(crate) struct Accumulator<A> {
    /// The key sub-range each shard owns.
    shard_ranges: Vec<Range<u32>>,
    num_keys: u32,
    segment_keys: u32,
    /// The assembled segments as of `applied_epoch`.
    state: Handles<A>,
    /// Per-shard queue of sealed epochs not yet assembled into an aligned
    /// wave, each with its WAL replay boundary.
    pending: Vec<VecDeque<SealedEpoch<A>>>,
    final_handles: Vec<Option<(Handles<A>, u64)>>,
    /// Latest known WAL replay boundary per shard (recovery-seeded, then
    /// updated at each assembled seal); recorded into checkpoint manifests.
    shard_offsets: Vec<u64>,
    applied_epoch: u64,
    published: Arc<Mutex<Arc<EpochSnapshot<A>>>>,
    epochs_published: Arc<AtomicU64>,
    epoch_sink: Option<EpochSink<A>>,
    publish_hook: Option<PublishHook<A>>,
}

impl<A> Accumulator<A> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        shard_ranges: Vec<Range<u32>>,
        num_keys: u32,
        segment_keys: u32,
        published: Arc<Mutex<Arc<EpochSnapshot<A>>>>,
        epochs_published: Arc<AtomicU64>,
        (applied_epoch, state, shard_offsets): ResumeState<A>,
        epoch_sink: Option<EpochSink<A>>,
        publish_hook: Option<PublishHook<A>>,
    ) -> Self {
        let shards = shard_ranges.len();
        Accumulator {
            state,
            pending: (0..shards).map(|_| VecDeque::new()).collect(),
            final_handles: (0..shards).map(|_| None).collect(),
            shard_offsets,
            shard_ranges,
            num_keys,
            segment_keys,
            applied_epoch,
            published,
            epochs_published,
            epoch_sink,
            publish_hook,
        }
    }

    /// Consumes shard messages until every shard reports `Done`, then
    /// assembles the remaining aligned epochs and the drain handles and
    /// publishes the final snapshot.
    pub(crate) fn run(mut self, rx: Receiver<AccMsg<A>>) {
        let mut done = 0usize;
        while done < self.shard_ranges.len() {
            // A vanished sender side (all workers gone) terminates too.
            let Some(msg) = rx.recv() else { break };
            match msg {
                AccMsg::Sealed {
                    shard,
                    epoch,
                    handles,
                    wal_offset,
                } => {
                    self.pending[shard].push_back((epoch, handles, wal_offset));
                    self.advance();
                }
                AccMsg::Done {
                    shard,
                    handles,
                    wal_offset,
                } => {
                    self.final_handles[shard] = Some((handles, wal_offset));
                    done += 1;
                }
            }
        }
        self.advance();
        let mut drain_sealed = true;
        for shard in 0..self.shard_ranges.len() {
            // Any unaligned stragglers (a shard died early) install in
            // per-shard epoch order before the drain handles: the state is
            // cumulative, so the latest one a shard shipped wins.
            while let Some((_, handles, wal_offset)) = self.pending[shard].pop_front() {
                self.install(shard, handles, wal_offset);
            }
            match self.final_handles[shard].take() {
                Some((handles, wal_offset)) => {
                    self.install(shard, handles, wal_offset);
                    drain_sealed &= wal_offset > 0;
                }
                None => drain_sealed = false,
            }
        }
        let drain_epoch = self.applied_epoch + 1;
        // Only a drain whose every shard wrote its `Seal(drain_epoch)`
        // marker (graceful shutdown, no degraded WAL) may be committed:
        // committing an unsealed drain would claim durability for updates
        // whose log records never made it out.
        if drain_sealed {
            self.commit(drain_epoch, true);
        }
        self.publish(drain_epoch);
    }

    /// Assembles complete epoch waves in order, publishing one snapshot
    /// per aligned epoch.
    fn advance(&mut self) {
        loop {
            let next = self.applied_epoch + 1;
            let ready = self
                .pending
                .iter()
                .all(|q| q.front().is_some_and(|&(e, _, _)| e == next));
            if !ready {
                return;
            }
            for shard in 0..self.pending.len() {
                let (_, handles, wal_offset) =
                    self.pending[shard].pop_front().expect("checked front");
                self.install(shard, handles, wal_offset);
            }
            self.applied_epoch = next;
            self.commit(next, false);
            self.publish(next);
        }
    }

    /// Takes over the handles `shard` shipped: its segments pass into the
    /// state zero-copy.
    fn install(&mut self, shard: usize, handles: Handles<A>, wal_offset: u64) {
        if wal_offset > 0 {
            self.shard_offsets[shard] = wal_offset;
        }
        let span = segment_span(&self.shard_ranges[shard], self.segment_keys);
        debug_assert_eq!(span.len(), handles.len());
        for (slot, h) in self.state[span].iter_mut().zip(handles) {
            *slot = h;
        }
    }

    /// Fires the durability hook (commit record + periodic checkpoint)
    /// for an assembled epoch. Ordering is deliberate: the hook runs
    /// before [`publish`](Self::publish), so no observer can see epoch `e`
    /// before its `EpochCommit` record is at least written to the OS.
    fn commit(&mut self, epoch: u64, drain: bool) {
        if let Some(sink) = &mut self.epoch_sink {
            sink(EpochEvent {
                epoch,
                state: &self.state,
                shard_offsets: &self.shard_offsets,
                drain,
            });
        }
    }

    fn publish(&mut self, epoch: u64) {
        // O(num_segments) handle clones — no per-key copy.
        let snap = Arc::new(EpochSnapshot::new(
            epoch,
            self.num_keys,
            self.segment_keys,
            self.state.clone(),
        ));
        // The hook sees the snapshot before the swap below makes it the
        // published one: a retention window admits epoch `e` before any
        // reader can learn "`e` is the latest", so epoch-or-latest lookups
        // never race a not-yet-admitted epoch.
        if let Some(hook) = &mut self.publish_hook {
            hook(&snap);
        }
        // The guard is a temporary of this statement, so the lock every
        // reader takes covers the pointer swap and nothing else.
        let replaced = std::mem::replace(
            &mut *self.published.lock().expect("snapshot lock poisoned"),
            snap,
        );
        // ordering: Relaxed — audited: the snapshot itself is published by
        // the mutexed Arc swap above (observers that see the new count and
        // then read the snapshot do so through that lock, which provides
        // the happens-before edge); this counter is progress telemetry.
        self.epochs_published.fetch_add(1, Ordering::Relaxed);
        // Freeing the replaced snapshot — up to every rewritten segment of
        // the state — waits until the new one is visible to everyone.
        drop(replaced);
    }
}
