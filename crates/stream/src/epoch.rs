//! Epoch accumulation: the streaming Accumulate phase.
//!
//! Shard workers double-buffer their bins: sealing an epoch swaps the
//! active bins out (`Binner::take_bins`) and ships them here, so binning
//! of epoch `e+1` proceeds while this accumulator replays epoch `e` —
//! the same overlap COBRA gets from its eviction buffers decoupling the
//! core from the binning engines.
//!
//! Bins from different shards cover disjoint key ranges, but snapshots
//! must still be *epoch-aligned*: the accumulator defers any shard's
//! epoch-`e` bins until every shard's epoch-`e-1` bins have been applied,
//! then applies the aligned wave and publishes an immutable
//! [`EpochSnapshot`]. Every sealed epoch — any reducer, live or recovered
//! from the WAL — replays through one body, [`apply_bins`]: bin by bin,
//! tuples in per-shard arrival order, the non-commutative correctness
//! condition (paper, Section III), which a commutative reducer satisfies
//! a fortiori.
//!
//! # Copy-on-write segmented state
//!
//! The authoritative value array is split into fixed-size *segments*, each
//! an `Arc<Vec<A>>`. Publishing a snapshot clones only the segment
//! handles (O(num_segments), independent of key count and value size);
//! the first write into a segment after a publish triggers exactly one
//! copy of that segment (`Arc::make_mut`), so epochs that touch a sparse
//! key set pay for the touched segments only. Downstream consumers — the
//! serve-layer block cache in particular — hold the same `Arc`s, making
//! snapshot-to-cache handoff zero-copy and pointer-identity testable.

use crate::channel::Receiver;
use crate::reducer::Reducer;
use cobra_pb::Bins;
use std::collections::VecDeque;
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

/// All-identity state segments in the snapshot geometry: `segment_keys`
/// keys per segment, the last one shorter when `num_keys` is no multiple.
pub(crate) fn identity_segments<R: Reducer>(
    reducer: &R,
    num_keys: u32,
    segment_keys: u32,
) -> Vec<Arc<Vec<R::Acc>>> {
    (0..num_keys.div_ceil(segment_keys))
        .map(|seg| {
            let n = (num_keys - seg * segment_keys).min(segment_keys);
            Arc::new(vec![reducer.identity(); n as usize])
        })
        .collect()
}

/// The state slot of (global) `key`. The first write into a segment since
/// the last publish copies that segment (`Arc::make_mut`); later writes
/// hit the now-unique segment for free.
pub(crate) fn slot_mut<A: Clone>(state: &mut [Arc<Vec<A>>], segment_keys: u32, key: u32) -> &mut A {
    &mut Arc::make_mut(&mut state[(key / segment_keys) as usize])[(key % segment_keys) as usize]
}

/// Replays one shard's bins (shard-local keys, `base` = the shard's first
/// global key) into the state, bin by bin, tuples in arrival order. The
/// one accumulate body: the live accumulator and WAL recovery both apply
/// every sealed epoch here, whatever the reducer declares.
pub(crate) fn apply_bins<R: Reducer>(
    reducer: &R,
    bins: &Bins<R::Value>,
    base: u32,
    segment_keys: u32,
    state: &mut [Arc<Vec<R::Acc>>],
) {
    bins.accumulate(|local_key, value| {
        reducer.apply(slot_mut(state, segment_keys, base + local_key), value)
    });
}

/// Shard-to-accumulator protocol.
pub(crate) enum AccMsg<R: Reducer> {
    /// A sealed epoch's bins (shard-local keys).
    Sealed {
        shard: usize,
        epoch: u64,
        bins: Bins<R::Value>,
        /// The shard WAL's logical offset just past this epoch's `Seal`
        /// marker (0 in non-durable mode): recorded into the checkpoint
        /// manifest so recovery replays from here.
        wal_offset: u64,
    },
    /// The shard's final drain bins; the shard has exited.
    Done {
        shard: usize,
        bins: Bins<R::Value>,
        /// WAL offset past the drain epoch's `Seal` (0 when non-durable
        /// or when the shard exited without a drain seal).
        wal_offset: u64,
    },
}

/// What the durability hook observes at each epoch commit: the aligned
/// epoch, the post-apply state segments, and every shard's WAL replay
/// boundary. Fired after the wave is applied and *before* the snapshot
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

/// What the accumulator starts from: the committed epoch, its COW state
/// segments, and the per-shard WAL replay boundaries (0, identity and
/// zeros unless a recovery found more).
pub(crate) type ResumeState<A> = (u64, Vec<Arc<Vec<A>>>, Vec<u64>);

/// One shard's sealed epoch: `(epoch, bins, WAL replay boundary)`.
type SealedEpoch<V> = (u64, Bins<V>, u64);

/// The single accumulator thread's state. Owns the authoritative
/// copy-on-write segments; publishes `Arc<EpochSnapshot>`s by cloning
/// segment handles only.
pub(crate) struct Accumulator<R: Reducer> {
    reducer: Arc<R>,
    /// Key base of each shard (local key + base = global key).
    bases: Vec<u32>,
    num_keys: u32,
    segment_keys: u32,
    state: Vec<Arc<Vec<R::Acc>>>,
    /// Per-shard queue of sealed epochs not yet merged into an aligned
    /// wave, each with its WAL replay boundary.
    pending: Vec<VecDeque<SealedEpoch<R::Value>>>,
    final_bins: Vec<Option<(Bins<R::Value>, u64)>>,
    /// Latest known WAL replay boundary per shard (recovery-seeded, then
    /// updated at each applied seal); recorded into checkpoint manifests.
    shard_offsets: Vec<u64>,
    applied_epoch: u64,
    published: Arc<Mutex<Arc<EpochSnapshot<R::Acc>>>>,
    epochs_published: Arc<AtomicU64>,
    epoch_sink: Option<EpochSink<R::Acc>>,
    publish_hook: Option<PublishHook<R::Acc>>,
}

impl<R: Reducer> Accumulator<R> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        reducer: Arc<R>,
        bases: Vec<u32>,
        num_keys: u32,
        segment_keys: u32,
        published: Arc<Mutex<Arc<EpochSnapshot<R::Acc>>>>,
        epochs_published: Arc<AtomicU64>,
        (applied_epoch, state, shard_offsets): ResumeState<R::Acc>,
        epoch_sink: Option<EpochSink<R::Acc>>,
        publish_hook: Option<PublishHook<R::Acc>>,
    ) -> Self {
        let shards = bases.len();
        Accumulator {
            state,
            reducer,
            pending: (0..shards).map(|_| VecDeque::new()).collect(),
            final_bins: (0..shards).map(|_| None).collect(),
            shard_offsets,
            bases,
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
    /// applies the remaining aligned epochs and the drain bins and
    /// publishes the final snapshot.
    pub(crate) fn run(mut self, rx: Receiver<AccMsg<R>>) {
        let mut done = 0usize;
        while done < self.bases.len() {
            // A vanished sender side (all workers gone) terminates too.
            let Some(msg) = rx.recv() else { break };
            match msg {
                AccMsg::Sealed {
                    shard,
                    epoch,
                    bins,
                    wal_offset,
                } => {
                    self.pending[shard].push_back((epoch, bins, wal_offset));
                    self.advance();
                }
                AccMsg::Done {
                    shard,
                    bins,
                    wal_offset,
                } => {
                    self.final_bins[shard] = Some((bins, wal_offset));
                    done += 1;
                }
            }
        }
        self.advance();
        let mut drain_sealed = true;
        for shard in 0..self.bases.len() {
            // Any unaligned stragglers (a shard died early) still apply in
            // per-shard epoch order before its drain bins.
            while let Some((_, bins, wal_offset)) = self.pending[shard].pop_front() {
                self.apply(shard, &bins);
                if wal_offset > 0 {
                    self.shard_offsets[shard] = wal_offset;
                }
            }
            if let Some((bins, wal_offset)) = self.final_bins[shard].take() {
                self.apply(shard, &bins);
                if wal_offset > 0 {
                    self.shard_offsets[shard] = wal_offset;
                } else {
                    drain_sealed = false;
                }
            } else {
                drain_sealed = false;
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

    /// Applies complete epoch waves in order, publishing one snapshot per
    /// aligned epoch.
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
                let (_, bins, wal_offset) = self.pending[shard].pop_front().expect("checked front");
                self.apply(shard, &bins);
                if wal_offset > 0 {
                    self.shard_offsets[shard] = wal_offset;
                }
            }
            self.applied_epoch = next;
            self.commit(next, false);
            self.publish(next);
        }
    }

    /// Fires the durability hook (commit record + periodic checkpoint)
    /// for an applied epoch. Ordering is deliberate: the hook runs before
    /// [`publish`](Self::publish), so no observer can see epoch `e`
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

    fn apply(&mut self, shard: usize, bins: &Bins<R::Value>) {
        let (base, seg_keys) = (self.bases[shard], self.segment_keys);
        apply_bins(&*self.reducer, bins, base, seg_keys, &mut self.state);
    }

    fn publish(&mut self, epoch: u64) {
        // O(num_segments) handle clones — no per-key copy.
        let snap = Arc::new(EpochSnapshot::new(
            epoch,
            self.num_keys,
            self.segment_keys,
            self.state.iter().map(Arc::clone).collect(),
        ));
        // The hook sees the snapshot before the swap below makes it the
        // published one: a retention window admits epoch `e` before any
        // reader can learn "`e` is the latest", so epoch-or-latest lookups
        // never race a not-yet-admitted epoch.
        if let Some(hook) = &mut self.publish_hook {
            hook(&snap);
        }
        *self.published.lock().expect("snapshot lock poisoned") = snap;
        // ordering: Relaxed — audited: the snapshot itself is published by
        // the mutexed Arc swap above (observers that see the new count and
        // then read the snapshot do so through that lock, which provides
        // the happens-before edge); this counter is progress telemetry.
        self.epochs_published.fetch_add(1, Ordering::Relaxed);
    }
}
