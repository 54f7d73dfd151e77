//! The long-lived ingestion pipeline: handles → shard FIFOs → binning
//! and accumulating workers → epoch accumulator → published snapshots.
//!
//! A handle ships *frames*: `batch_tuples` tuples staged in a buffer that
//! is allocated once at full capacity (16 KiB of `(u32, u64)` tuples at
//! the default 1024) and moved whole into the shard's FIFO, so the lock
//! round trip, the wake-up and the allocation are paid per frame.

use crate::channel::{self, ChannelCounters, Sender};
use crate::epoch::{
    identity_segments, segment_span, AccMsg, Accumulator, EpochSink, EpochSnapshot, PublishHook,
    Segments,
};
use crate::reducer::Reducer;
use crate::shard::{ShardMsg, ShardWal, ShardWorker};
use crate::stats::{ShardCounters, ShardStats, StreamStats};
use cobra_bins::bin_geometry;
use cobra_pb::route::{route, Destinations, Stop};
use cobra_pb::{Binner, Tuple};
use cobra_wal::WalStats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Error returned by handle operations after the pipeline has shut down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineClosed;

impl std::fmt::Display for PipelineClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ingest pipeline has shut down")
    }
}

impl std::error::Error for PipelineClosed {}

/// Why [`IngestHandle::try_send_all`] (or [`try_send`](IngestHandle::try_send))
/// stopped. In every case the offending tuple and everything after it
/// were **not** accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryIngestError {
    /// The destination shard's FIFO is full right now; accepting the
    /// tuple would have required blocking (`WouldBlock` analogue). Retry
    /// it verbatim later.
    Busy,
    /// The pipeline has shut down; the tuple can never be delivered.
    Closed,
    /// The key is `>= num_keys`. Only a run reports it; `try_send`
    /// panics instead, like `send`.
    KeyOutOfRange(u32),
}

impl std::fmt::Display for TryIngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TryIngestError::Busy => write!(f, "shard FIFO full, tuple not accepted"),
            TryIngestError::Closed => write!(f, "ingest pipeline has shut down"),
            TryIngestError::KeyOutOfRange(key) => write!(f, "key {key} out of range"),
        }
    }
}

impl std::error::Error for TryIngestError {}

/// Minimum bins per shard binner over a full shard span (per-shard
/// accumulate granularity); a ragged last shard keeps the bin width and
/// has fewer.
pub(crate) const MIN_BINS_PER_SHARD: usize = 16;

/// Keys per copy-on-write snapshot segment wherever every shard's bins are
/// at least this wide (see [`segment_keys`]). Publishing an epoch clones
/// one `Arc` per segment; an epoch's first write into a segment recycles
/// or copies just that segment.
pub(crate) const SEGMENT_KEYS: u32 = 1024;

/// Tuning knobs of an [`IngestPipeline`]. The snapshot segment size is not
/// one of them: it follows from the shard plan (1024 keys, or the shard bin
/// width when that is smaller; read it with
/// [`EpochSnapshot::segment_keys`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    /// Requested shard workers. The actual count is
    /// `min(shards, num_keys)`-ish: the shard key span is rounded to a
    /// power of two (routing is a shift, as in [`Binner`]).
    pub shards: usize,
    /// Capacity, in messages, of each shard's ingest FIFO (the eviction
    /// buffer analogue). Undersize it and producers observably stall.
    pub channel_capacity: usize,
    /// Tuples per ingest *frame*: a handle stages each shard's tuples in
    /// a buffer of exactly this capacity and ships it whole (the
    /// C-Buffer-line analogue). The default, 1024, is a 16 KiB frame of
    /// `(u32, u64)` tuples, so `channel_capacity` = 64 frames in flight is
    /// 1 MiB per shard: a producer pays the FIFO's lock round trip and
    /// wake-up per frame, never per tuple. Tests shrink it to force ragged
    /// frames and congestion.
    pub batch_tuples: usize,
    /// Auto-seal an epoch every this many ingested tuples (`None` =
    /// only explicit [`seal_epoch`](IngestPipeline::seal_epoch) calls and
    /// the final drain).
    pub epoch_tuples: Option<u64>,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            shards: 4,
            channel_capacity: 64,
            batch_tuples: 1024,
            epoch_tuples: None,
        }
    }
}

impl StreamConfig {
    /// Default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the requested shard count.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Sets each shard FIFO's capacity in messages.
    pub fn channel_capacity(mut self, capacity: usize) -> Self {
        self.channel_capacity = capacity;
        self
    }

    /// Sets the ingest frame size in tuples.
    pub fn batch_tuples(mut self, tuples: usize) -> Self {
        self.batch_tuples = tuples;
        self
    }

    /// Seals an epoch automatically every `tuples` ingested tuples.
    pub fn epoch_tuples(mut self, tuples: u64) -> Self {
        self.epoch_tuples = Some(tuples);
        self
    }
}

/// State shared between the pipeline and every [`IngestHandle`].
struct Core<V> {
    senders: Vec<Sender<ShardMsg<V>>>,
    shard_shift: u32,
    num_keys: u32,
    batch_tuples: usize,
    epoch_tuples: Option<u64>,
    tuples_sent: AtomicU64,
    batches_sent: AtomicU64,
    epochs_sealed: AtomicU64,
    /// Serializes seal/shutdown broadcasts so every shard sees the same
    /// marker sequence (epoch alignment depends on it).
    seal_lock: Mutex<()>,
}

impl<V> Core<V> {
    fn seal(&self) -> u64 {
        let _guard = self.seal_lock.lock().expect("seal lock poisoned");
        // ordering: Relaxed — audited: every mutation happens under
        // `seal_lock`, which already orders sealers against each other, so
        // epoch numbers are assigned in the same order the Seal markers are
        // broadcast (the alignment invariant the accumulator needs). The
        // epoch *value* reaches the shards through the channel mutex, never
        // through this atomic, so no release/acquire pairing is required.
        let epoch = self.epochs_sealed.fetch_add(1, Ordering::Relaxed) + 1;
        for tx in &self.senders {
            // A closed channel means shutdown already drained everything.
            let _ = tx.send(ShardMsg::Seal(epoch));
        }
        epoch
    }
}

/// A cloneable producer handle. Stages tuples into per-shard frames of
/// [`batch_tuples`](StreamConfig::batch_tuples) (the C-Buffer-line
/// analogue) and ships each full frame into its shard's FIFO, blocking
/// when a FIFO is full. Per-handle tuple order is preserved
/// end-to-end — the same per-producer guarantee as batch
/// [`bin_parallel`](cobra_pb::bin_parallel).
///
/// Dropping a handle flushes its partial batches.
pub struct IngestHandle<V> {
    core: Arc<Core<V>>,
    buffers: Vec<Vec<Tuple<V>>>,
}

/// What a shard FIFO does with a frame when it is full.
#[derive(Clone, Copy)]
enum OnFull {
    /// Park on the FIFO's `not_full` condvar (backpressure).
    Wait,
    /// Hand the frame back as [`TryIngestError::Busy`].
    Refuse,
}

/// A handle's destinations for the shared routing body
/// ([`cobra_pb::route`]): the shard FIFOs, under one [`OnFull`] policy.
struct ToShards<'a, V>(&'a Core<V>, OnFull);

impl<V> Destinations<V> for ToShards<'_, V> {
    type Frame = Vec<Tuple<V>>;
    type Refusal = TryIngestError;

    /// Moves `shard`'s frame into its FIFO and counts it. A frame the FIFO
    /// refuses as [`Busy`](TryIngestError::Busy) goes back into the
    /// buffer, so no tuple is lost and the caller decides whether to
    /// retry; one refused as `Closed` can never be delivered and is dropped.
    fn ship(&mut self, shard: usize, frame: &mut Vec<Tuple<V>>) -> Result<(), TryIngestError> {
        let n = frame.len() as u64;
        let batch = ShardMsg::Batch(std::mem::take(frame));
        let (core, on_full) = (self.0, self.1);
        let tx = &core.senders[shard];
        match on_full {
            OnFull::Wait => tx.send(batch).map_err(|_| TryIngestError::Closed)?,
            OnFull::Refuse => tx.try_send(batch).map_err(|e| match e {
                channel::TrySendError::Full(ShardMsg::Batch(batch)) => {
                    *frame = batch;
                    TryIngestError::Busy
                }
                _ => TryIngestError::Closed,
            })?,
        }
        // ordering: Relaxed — stats counter, no payload published through it.
        core.batches_sent.fetch_add(1, Ordering::Relaxed);
        // ordering: Relaxed — audited: the auto-seal decision below needs
        // only the atomicity of fetch_add (its linearization guarantees
        // exactly one shipper observes each `epoch_tuples` threshold
        // crossing, so exactly one triggers the seal); the seal itself
        // synchronizes via `seal_lock` and the channel mutexes.
        let before = core.tuples_sent.fetch_add(n, Ordering::Relaxed);
        if let Some(every) = core.epoch_tuples {
            if (before + n) / every > before / every {
                core.seal();
            }
        }
        Ok(())
    }
}

impl<V> IngestHandle<V> {
    /// Routes one `(key, value)` update: a one-tuple run that blocks when
    /// the destination shard's FIFO is full (backpressure).
    ///
    /// # Panics
    ///
    /// Panics if `key >= num_keys`.
    pub fn send(&mut self, key: u32, value: V) -> Result<(), PipelineClosed> {
        match self.route([(key, value)], OnFull::Wait).1 {
            Ok(()) => Ok(()),
            Err(Stop::KeyOutOfRange(key)) => panic!("key {key} out of range"),
            Err(Stop::Refused(_)) => Err(PipelineClosed),
        }
    }

    /// Ships every partially-filled batch buffer, blocking on full FIFOs.
    pub fn flush(&mut self) -> Result<(), PipelineClosed> {
        let mut to = ToShards(&self.core, OnFull::Wait);
        for (shard, frame) in self.buffers.iter_mut().enumerate() {
            if !frame.is_empty() {
                to.ship(shard, frame).map_err(|_| PipelineClosed)?;
            }
        }
        Ok(())
    }

    /// Flushes this handle's buffers, then seals the current epoch across
    /// every shard: each worker applies its bins into its own segments
    /// and ships their handles, and the accumulator publishes a new
    /// snapshot once every shard's handles for this epoch are in. Returns
    /// the sealed epoch number.
    ///
    /// Tuples still buffered in *other* handles land in a later epoch;
    /// flush or drop those handles first when exact epoch contents matter.
    pub fn seal_epoch(&mut self) -> Result<u64, PipelineClosed> {
        self.flush()?;
        Ok(self.core.seal())
    }

    /// Routes one `(key, value)` update without ever blocking: the
    /// one-tuple run of [`try_send_all`](Self::try_send_all).
    ///
    /// # Panics
    ///
    /// Panics if `key >= num_keys`.
    pub fn try_send(&mut self, key: u32, value: V) -> Result<(), TryIngestError> {
        match self.try_send_all([(key, value)]).1 {
            Err(TryIngestError::KeyOutOfRange(key)) => panic!("key {key} out of range"),
            result => result,
        }
    }

    /// Routes a run of `(key, value)` updates in order without ever
    /// blocking; returns how many were accepted and why the run stopped
    /// early, if it did.
    ///
    /// Each tuple coalesces into its shard's batch buffer exactly like
    /// [`send`](Self::send); when a buffer reaches the batch size the
    /// batch ships via the FIFO's non-blocking `try_send`. A full FIFO
    /// stops the run at [`TryIngestError::Busy`]: the tuple that filled
    /// the batch was taken back out, earlier tuples stay buffered and
    /// nothing is duplicated, so the caller retries the unaccepted suffix
    /// verbatim once the consumer has drained. This turns channel
    /// backpressure into an explicit refusal instead of parking the
    /// caller — an I/O worker, say — on a pipeline condvar. A key
    /// `>= num_keys` stops the run at [`TryIngestError::KeyOutOfRange`]
    /// with nothing staged from it on.
    pub fn try_send_all(
        &mut self,
        run: impl IntoIterator<Item = (u32, V)>,
    ) -> (usize, Result<(), TryIngestError>) {
        let (accepted, stopped) = self.route(run, OnFull::Refuse);
        let stopped = stopped.map_err(|stop| match stop {
            Stop::KeyOutOfRange(key) => TryIngestError::KeyOutOfRange(key),
            Stop::Refused(refusal) => refusal,
        });
        (accepted, stopped)
    }

    /// Routes a run through the shared routing body into the shard
    /// frames, shipping each full frame under `on_full`.
    #[inline]
    fn route(
        &mut self,
        run: impl IntoIterator<Item = (u32, V)>,
        on_full: OnFull,
    ) -> (usize, Result<(), Stop<TryIngestError>>) {
        let core = &*self.core;
        let (num_keys, shift, batch) = (core.num_keys, core.shard_shift, core.batch_tuples);
        let to = &mut ToShards(core, on_full);
        route(run, &mut self.buffers, to, num_keys, shift, batch)
    }
}

impl<V> Clone for IngestHandle<V> {
    fn clone(&self) -> Self {
        IngestHandle {
            core: Arc::clone(&self.core),
            buffers: (0..self.buffers.len()).map(|_| Vec::new()).collect(),
        }
    }
}

impl<V> Drop for IngestHandle<V> {
    fn drop(&mut self) {
        // Closed: the pipeline is gone and the tuples with it.
        let _ = self.flush();
    }
}

/// A long-lived, sharded irregular-update ingestion pipeline.
///
/// `(key, value)` tuples stream in through [`IngestHandle`]s, route across
/// shard workers (each owning a [`Binner`] over a disjoint key sub-range),
/// and accumulate under the pipeline's [`Reducer`]. Epochs sealed with
/// [`seal_epoch`](Self::seal_epoch) (or the
/// [`epoch_tuples`](StreamConfig::epoch_tuples) auto-seal) publish
/// immutable [`EpochSnapshot`]s queryable at any time with
/// [`snapshot`](Self::snapshot) / [`get`](Self::get), while binning of the
/// next epoch continues concurrently.
pub struct IngestPipeline<R: Reducer> {
    core: Arc<Core<R::Value>>,
    workers: Vec<JoinHandle<()>>,
    accumulator: Option<JoinHandle<()>>,
    published: Arc<Mutex<Arc<EpochSnapshot<R::Acc>>>>,
    epochs_published: Arc<AtomicU64>,
    shard_counters: Vec<Arc<ShardCounters>>,
    channel_counters: Vec<Arc<ChannelCounters>>,
    shard_ranges: Vec<std::ops::Range<u32>>,
    /// Durable-mode committed-epoch counter (None = in-memory pipeline,
    /// where publishing *is* committing).
    epochs_committed: Option<Arc<AtomicU64>>,
    /// Durable-mode WAL counters (None = in-memory pipeline).
    wal_stats: Option<Arc<WalStats>>,
    /// Records replayed by the recovery that built this pipeline.
    wal_replayed: u64,
    started: Instant,
}

/// Everything a durable pipeline needs beyond [`StreamConfig`]: the
/// recovered/fresh WAL writers, the recovered state, and the epoch-commit
/// hook. Built by [`recover`](IngestPipeline::recover) in `durable.rs`.
pub(crate) struct DurableParts<R: Reducer> {
    /// One WAL per shard, opened at its replay-truncated end.
    pub(crate) shard_wals: Vec<ShardWal<R::Value>>,
    /// The shard binners, reused from the recovery replay.
    pub(crate) binners: Vec<Binner<R::Value>>,
    /// The committed epoch recovery resumed at (0 = fresh directory).
    pub(crate) initial_epoch: u64,
    /// Recovered state segments (identity for a fresh directory).
    pub(crate) initial_state: Vec<Arc<Vec<R::Acc>>>,
    /// Per-shard WAL replay boundaries at `initial_epoch`.
    pub(crate) initial_offsets: Vec<u64>,
    /// Commit-log + checkpoint hook, fired before every publish.
    pub(crate) epoch_sink: EpochSink<R::Acc>,
    /// Shared committed-epoch counter, advanced by the sink after each
    /// successful `EpochCommit` append (starts at `initial_epoch`).
    pub(crate) committed: Arc<AtomicU64>,
    /// Shared WAL counters across all shard logs and the commit log.
    pub(crate) wal_stats: Arc<WalStats>,
    /// Records replayed during recovery.
    pub(crate) replayed_records: u64,
}

/// The power-of-two shard geometry: returns `(shard_shift, ranges)` where
/// each shard owns `ranges[s]` and routing is `key >> shard_shift`.
/// Shared by pipeline construction and WAL recovery, which must agree on
/// the key partition for replay to hit the right binners. Public because
/// the cluster router reuses the same plan to map key ranges onto nodes —
/// locale routing at every tier uses one geometry.
pub fn shard_plan(num_keys: u32, shards: usize) -> (u32, Vec<std::ops::Range<u32>>) {
    // Power-of-two shard span, mirroring Binner's bin-range rounding:
    // routing is a shift, and the shard count is as close to the
    // request as the rounding allows (at most min(shards, num_keys)).
    let mut span = (num_keys as u64)
        .div_ceil(shards as u64)
        .next_power_of_two();
    if (num_keys as u64).div_ceil(span) < shards as u64 && span > 1 {
        span /= 2;
    }
    let shard_shift = span.trailing_zeros();
    let num_shards = (num_keys as u64).div_ceil(span) as usize;
    let ranges = (0..num_shards)
        .map(|s| {
            let lo = (s as u64 * span) as u32;
            let hi = ((s as u64 + 1) * span).min(num_keys as u64) as u32;
            lo..hi
        })
        .collect();
    (shard_shift, ranges)
}

/// The bin width of every shard binner for a shard plan: that of the
/// first shard, which spans the whole power-of-two shard span whenever
/// there is more than one shard. A ragged last shard gets fewer bins of
/// this same width (see [`shard_binner`]), never narrower ones.
fn shard_bin_keys(shard_ranges: &[std::ops::Range<u32>]) -> u32 {
    let first = &shard_ranges[0];
    1 << bin_geometry(first.end - first.start, MIN_BINS_PER_SHARD).0
}

/// The snapshot segment size for a shard plan: [`SEGMENT_KEYS`], or the
/// shard bin width when that is smaller. It is a power of two no wider
/// than a bin, and every shard and every bin starts on a multiple of the
/// bin width, so each segment lies inside one bin of one shard — the
/// paper's nested power-of-two ranges, one level further. Shared by
/// pipeline construction and WAL recovery, like [`shard_plan`].
pub(crate) fn segment_keys(shard_ranges: &[std::ops::Range<u32>]) -> u32 {
    shard_bin_keys(shard_ranges).min(SEGMENT_KEYS)
}

/// Shard `s`'s binner, with bins [`shard_bin_keys`] wide. Asking for
/// `local_keys / width` bins (rounded up) gives exactly that width, or one
/// bin over the whole shard when it holds no more than `width` keys; for a
/// full shard that is the [`MIN_BINS_PER_SHARD`] geometry itself.
pub(crate) fn shard_binner<V: Copy>(shard_ranges: &[std::ops::Range<u32>], s: usize) -> Binner<V> {
    let local_keys = shard_ranges[s].end - shard_ranges[s].start;
    let bins = local_keys.div_ceil(shard_bin_keys(shard_ranges));
    Binner::new(local_keys, bins as usize)
}

impl<R: Reducer> IngestPipeline<R> {
    /// Builds the pipeline and starts its shard workers and accumulator.
    ///
    /// # Panics
    ///
    /// Panics if `num_keys == 0` or any config knob is zero.
    pub fn new(num_keys: u32, reducer: R, cfg: StreamConfig) -> Self {
        Self::build(num_keys, reducer, cfg, None, None)
    }

    /// Like [`new`](Self::new), but registers a [`PublishHook`] that the
    /// accumulator calls twice per epoch: with the snapshot just before
    /// it becomes the published one — the integration point for
    /// retention windows and push-subscription fan-out (see
    /// `cobra-mvcc`) — and once the epoch is visible.
    ///
    /// # Panics
    ///
    /// Panics on the same zero-value config knobs as [`new`](Self::new).
    pub fn with_publish_hook(
        num_keys: u32,
        reducer: R,
        cfg: StreamConfig,
        hook: PublishHook<R::Acc>,
    ) -> Self {
        Self::build(num_keys, reducer, cfg, None, Some(hook))
    }

    pub(crate) fn build(
        num_keys: u32,
        reducer: R,
        cfg: StreamConfig,
        durable: Option<DurableParts<R>>,
        publish_hook: Option<PublishHook<R::Acc>>,
    ) -> Self {
        assert!(num_keys > 0, "need at least one key");
        assert!(cfg.shards > 0, "need at least one shard");
        assert!(cfg.channel_capacity > 0, "need channel capacity");
        assert!(cfg.batch_tuples > 0, "need a batch size");
        if let Some(t) = cfg.epoch_tuples {
            assert!(t > 0, "epoch_tuples must be positive");
        }

        let (shard_shift, shard_ranges) = shard_plan(num_keys, cfg.shards);
        let segment_keys = segment_keys(&shard_ranges);
        let num_shards = shard_ranges.len();
        let mut durable = durable;
        if let Some(d) = &durable {
            assert_eq!(
                d.shard_wals.len(),
                num_shards,
                "recovery shard plan drifted"
            );
            assert_eq!(d.binners.len(), num_shards, "recovery shard plan drifted");
            assert_eq!(
                d.initial_offsets.len(),
                num_shards,
                "recovery shard plan drifted"
            );
        }

        let reducer = Arc::new(reducer);
        // The published snapshot, the accumulator and the shard workers
        // start out sharing the same segments; the first epoch's writes
        // copy what they touch, like every later epoch's.
        let resume = match &mut durable {
            Some(d) => (
                d.initial_epoch,
                std::mem::take(&mut d.initial_state),
                std::mem::take(&mut d.initial_offsets),
            ),
            None => (
                0,
                identity_segments(&*reducer, num_keys, segment_keys),
                vec![0; num_shards],
            ),
        };
        let initial_epoch = resume.0;
        let published = Arc::new(Mutex::new(Arc::new(EpochSnapshot::new(
            initial_epoch,
            num_keys,
            segment_keys,
            resume.1.clone(),
        ))));
        let epochs_published = Arc::new(AtomicU64::new(initial_epoch));

        // Accumulator inbox: sized so every shard can have a sealed epoch
        // and its drain handles in flight without blocking a worker.
        let (acc_tx, acc_rx) = channel::bounded::<AccMsg<R::Acc>>(2 * num_shards);

        let mut senders = Vec::with_capacity(num_shards);
        let mut receivers = Vec::with_capacity(num_shards);
        let mut channel_counters = Vec::with_capacity(num_shards);
        for _ in 0..num_shards {
            let (tx, rx) = channel::bounded::<ShardMsg<R::Value>>(cfg.channel_capacity);
            channel_counters.push(tx.counters());
            senders.push(tx);
            receivers.push(rx);
        }

        let shard_counters: Vec<Arc<ShardCounters>> = (0..num_shards)
            .map(|_| Arc::new(ShardCounters::default()))
            .collect();

        let mut shard_wals: Vec<Option<ShardWal<R::Value>>> = match &mut durable {
            Some(d) => d.shard_wals.drain(..).map(Some).collect(),
            None => (0..num_shards).map(|_| None).collect(),
        };
        let mut binners: Vec<Option<Binner<R::Value>>> = match &mut durable {
            Some(d) => d.binners.drain(..).map(Some).collect(),
            None => (0..num_shards).map(|_| None).collect(),
        };

        let mut workers = Vec::with_capacity(num_shards);
        for (s, rx) in receivers.into_iter().enumerate() {
            // The worker's per-key state: the handles of the snapshot
            // segments of its key range, which no other shard shares.
            let span = segment_span(&shard_ranges[s], segment_keys);
            let worker = ShardWorker::<R> {
                id: s,
                base: shard_ranges[s].start,
                // Durable mode reuses the binner the recovery replayed
                // through; otherwise build a fresh one.
                binner: binners[s]
                    .take()
                    .unwrap_or_else(|| shard_binner(&shard_ranges, s)),
                reducer: Arc::clone(&reducer),
                counters: Arc::clone(&shard_counters[s]),
                acc_tx: acc_tx.clone(),
                wal: shard_wals[s].take(),
                state: Segments {
                    first: span.start,
                    segment_keys,
                    handles: resume.1[span].to_vec(),
                    spares: Vec::new(),
                },
                prev: None,
            };
            let handle = std::thread::Builder::new()
                .name(format!("cobra-stream-shard-{s}"))
                .spawn(move || worker.run(rx))
                .expect("spawn shard worker");
            workers.push(handle);
        }
        drop(acc_tx);

        let (epoch_sink, wal_stats, wal_replayed, epochs_committed) = match durable {
            Some(d) => (
                Some(d.epoch_sink),
                Some(d.wal_stats),
                d.replayed_records,
                Some(d.committed),
            ),
            None => (None, None, 0, None),
        };

        let accumulator = {
            let acc = Accumulator::new(
                shard_ranges.clone(),
                num_keys,
                segment_keys,
                Arc::clone(&published),
                Arc::clone(&epochs_published),
                resume,
                epoch_sink,
                publish_hook,
            );
            std::thread::Builder::new()
                .name("cobra-stream-accumulate".into())
                .spawn(move || acc.run(acc_rx))
                .expect("spawn accumulator")
        };

        IngestPipeline {
            core: Arc::new(Core {
                senders,
                shard_shift,
                num_keys,
                batch_tuples: cfg.batch_tuples,
                epoch_tuples: cfg.epoch_tuples,
                tuples_sent: AtomicU64::new(0),
                batches_sent: AtomicU64::new(0),
                epochs_sealed: AtomicU64::new(initial_epoch),
                seal_lock: Mutex::new(()),
            }),
            workers,
            accumulator: Some(accumulator),
            published,
            epochs_published,
            shard_counters,
            channel_counters,
            shard_ranges,
            epochs_committed,
            wal_stats,
            wal_replayed,
            started: Instant::now(),
        }
    }

    /// A new producer handle.
    pub fn handle(&self) -> IngestHandle<R::Value> {
        IngestHandle {
            core: Arc::clone(&self.core),
            buffers: (0..self.core.senders.len()).map(|_| Vec::new()).collect(),
        }
    }

    /// Number of shard workers.
    pub fn num_shards(&self) -> usize {
        self.core.senders.len()
    }

    /// The key domain.
    pub fn num_keys(&self) -> u32 {
        self.core.num_keys
    }

    /// The key sub-range shard `s` owns.
    pub fn shard_range(&self, s: usize) -> std::ops::Range<u32> {
        self.shard_ranges[s].clone()
    }

    /// Seals the current epoch (see [`IngestHandle::seal_epoch`], which
    /// also flushes that handle's coalescing buffers first). Returns the
    /// sealed epoch number.
    pub fn seal_epoch(&self) -> u64 {
        self.core.seal()
    }

    /// The latest published epoch snapshot (initially the all-identity
    /// epoch 0).
    pub fn snapshot(&self) -> Arc<EpochSnapshot<R::Acc>> {
        Arc::clone(&self.published.lock().expect("snapshot lock poisoned"))
    }

    /// The latest published value of `key`, cloned out of the snapshot.
    /// Prefer [`with_value`](Self::with_value) when a borrow suffices —
    /// for accumulators like `Append`'s `Vec` this clone is a deep copy.
    ///
    /// # Panics
    ///
    /// Panics if `key >= num_keys`.
    pub fn get(&self, key: u32) -> R::Acc {
        self.with_value(key, |v| v.expect("key out of range").clone())
    }

    /// Applies `f` to a *borrow* of the latest published value of `key`
    /// (`None` when `key` is out of range) — no clone, no deep copy; the
    /// snapshot's segment stays shared for the duration of the call.
    pub fn with_value<T>(&self, key: u32, f: impl FnOnce(Option<&R::Acc>) -> T) -> T {
        f(self.snapshot().try_get(key))
    }

    /// The latest published value of `key`, or `None` when `key` is out
    /// of range — the panic-free lookup a server must use on keys that
    /// arrive from untrusted clients.
    pub fn try_get(&self, key: u32) -> Option<R::Acc> {
        self.with_value(key, |v| v.cloned())
    }

    /// The epoch number of the latest published snapshot. One atomic
    /// load — cheap enough to call per request (cache keying), unlike
    /// [`snapshot`](Self::snapshot) which takes the publish lock.
    pub fn published_epoch(&self) -> u64 {
        // ordering: Acquire — pairs with the Release store in
        // `Accumulator::publish`: epochs publish sequentially (1, 2, …),
        // so the counter is the latest snapshot's epoch number, and a
        // reader that sees it reach `e` also sees the committed epoch
        // reach `e` (the sink stores it first). Readers that then fetch
        // the snapshot synchronize through the publish mutex.
        self.epochs_published.load(Ordering::Acquire)
    }

    /// The latest *durably committed* epoch: the highest epoch whose
    /// `EpochCommit` record reached the commit log. For a non-durable
    /// pipeline publishing is committing, so this equals
    /// [`published_epoch`](Self::published_epoch).
    ///
    /// Because the accumulator commits before it publishes,
    /// `committed_epoch() >= published_epoch()` always holds on a durable
    /// pipeline — this is the number a cluster node reports in the
    /// cross-node epoch-alignment protocol.
    pub fn committed_epoch(&self) -> u64 {
        match &self.epochs_committed {
            // ordering: Relaxed — audited: monotonic counter advanced by
            // the epoch sink before the corresponding snapshot publishes;
            // observers that need the epoch's *state* fetch the snapshot
            // through the publish mutex, never through this atomic.
            Some(c) => c.load(Ordering::Relaxed),
            None => self.published_epoch(),
        }
    }

    /// Point-in-time pipeline statistics.
    pub fn stats(&self) -> StreamStats {
        // ordering: Relaxed throughout — point-in-time statistics reads;
        // each counter is individually atomic and monotonic, and no decision
        // with correctness consequences is taken from the combination.
        StreamStats {
            tuples_sent: self.core.tuples_sent.load(Ordering::Relaxed), // ordering: stats
            batches_sent: self.core.batches_sent.load(Ordering::Relaxed), // ordering: stats
            epochs_sealed: self.core.epochs_sealed.load(Ordering::Relaxed), // ordering: stats
            epochs_published: self.epochs_published.load(Ordering::Relaxed), // ordering: stats
            epochs_committed: self.committed_epoch(),
            wal_bytes_appended: self.wal_stats.as_ref().map_or(0, |w| w.bytes_appended()),
            wal_fsyncs: self.wal_stats.as_ref().map_or(0, |w| w.fsyncs()),
            wal_segments: self.wal_stats.as_ref().map_or(0, |w| w.segments_created()),
            wal_replayed_records: self.wal_replayed,
            elapsed: self.started.elapsed(),
            shards: (0..self.num_shards())
                .map(|s| {
                    let c = &self.shard_counters[s];
                    ShardStats {
                        shard: s,
                        key_range: self.shard_ranges[s].clone(),
                        tuples_binned: c.tuples_binned.load(Ordering::Relaxed), // ordering: stats
                        epoch_flushes: c.epoch_flushes.load(Ordering::Relaxed), // ordering: stats
                        flushed_tuples: c.flushed_tuples.load(Ordering::Relaxed), // ordering: stats
                        max_flush_tuples: c.max_flush_tuples.load(Ordering::Relaxed), // ordering: stats
                        reduced_flushes: 0,
                        segments_copied: c.segments_copied.load(Ordering::Relaxed), // ordering: stats
                        segments_recycled: c.segments_recycled.load(Ordering::Relaxed), // ordering: stats
                        bins_bytes: c.max_bins_bytes.load(Ordering::Relaxed), // ordering: stats
                        bin_segments: c.max_bin_segments.load(Ordering::Relaxed), // ordering: stats
                        bin_grow_events: c.bin_grow_events.load(Ordering::Relaxed), // ordering: stats
                        cbuf_flushes: cobra_bins::FrameFlushStats {
                            frames: c.cbuf_flush_frames.load(Ordering::Relaxed), // ordering: stats
                            tuples: c.cbuf_flush_tuples.load(Ordering::Relaxed), // ordering: stats
                            frame_capacity: c.cbuf_frame_capacity.load(Ordering::Relaxed) as u32, // ordering: stats
                        },
                        fusion: cobra_bins::FuseStats {
                            attempts: c.fusion_attempts.load(Ordering::Relaxed), // ordering: stats
                            hits: c.fusion_hits.load(Ordering::Relaxed),         // ordering: stats
                            flushes: c.fusion_flushes.load(Ordering::Relaxed),   // ordering: stats
                        },
                        channel: self.channel_counters[s].snapshot(),
                    }
                })
                .collect(),
        }
    }

    /// Graceful drain: broadcasts shutdown, waits for every shard to flush
    /// its remaining bins and for the accumulator to publish the final
    /// snapshot, then returns that snapshot and the final statistics.
    ///
    /// Flush or drop outstanding [`IngestHandle`]s first: tuples a handle
    /// sends after shutdown are rejected with [`PipelineClosed`], and
    /// tuples still sitting in an unflushed handle buffer are not part of
    /// the final snapshot.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panicked.
    pub fn shutdown(mut self) -> (Arc<EpochSnapshot<R::Acc>>, StreamStats) {
        {
            let _guard = self.core.seal_lock.lock().expect("seal lock poisoned");
            // The drain is one final epoch: numbering it under the seal
            // lock keeps it consistent with any concurrent seal_epoch, so
            // durable shards can write a `Seal(drain_epoch)` marker and a
            // clean restart loses nothing.
            // ordering: Relaxed — audited: read and used under `seal_lock`,
            // which orders it against every seal's fetch_add.
            let drain_epoch = self.core.epochs_sealed.load(Ordering::Relaxed) + 1;
            for tx in &self.core.senders {
                let _ = tx.send(ShardMsg::Shutdown(drain_epoch));
            }
        }
        for worker in self.workers.drain(..) {
            worker.join().expect("shard worker panicked");
        }
        if let Some(acc) = self.accumulator.take() {
            acc.join().expect("accumulator panicked");
        }
        let snapshot = self.snapshot();
        let stats = self.stats();
        (snapshot, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reducer::{Append, Count, Latest};

    #[test]
    fn count_matches_direct_histogram() {
        let p = IngestPipeline::new(1 << 10, Count, StreamConfig::new().shards(4));
        let mut h = p.handle();
        let mut direct = vec![0u32; 1 << 10];
        for i in 0..50_000u64 {
            let k = ((i * 2654435761) % (1 << 10)) as u32;
            h.send(k, ()).unwrap();
            direct[k as usize] += 1;
        }
        drop(h);
        let (snap, stats) = p.shutdown();
        assert_eq!(snap.to_vec(), direct);
        assert_eq!(stats.tuples_sent, 50_000);
        assert_eq!(stats.epochs_published, 1, "final drain publishes once");
        assert_eq!(
            stats.shards.iter().map(|s| s.tuples_binned).sum::<u64>(),
            50_000
        );
        // Bin-memory accounting: every shard sealed a non-empty store.
        assert!(stats.total_bins_bytes() > 0);
        assert!(stats.total_bin_segments() > 0);
        assert!(stats.cbuf_occupancy() > 0.0 && stats.cbuf_occupancy() <= 1.0);
    }

    #[test]
    fn fusable_sum_coalesces_skewed_stream_and_counts_it() {
        use crate::reducer::Sum;
        // Dyadic values keep f64 sums exact, so fused == unfused
        // bit-for-bit whatever the key stream.
        let run = |key: fn(u64) -> u32| {
            let p = IngestPipeline::new(1 << 10, Sum, StreamConfig::new().shards(2));
            let mut h = p.handle();
            let mut direct = vec![0f64; 1 << 10];
            for i in 0..40_000u64 {
                let (k, v) = (key(i), ((i % 16) as f64) * 0.25);
                h.send(k, v).unwrap();
                direct[k as usize] += v;
            }
            drop(h);
            let (snap, stats) = p.shutdown();
            for (k, want) in direct.iter().enumerate() {
                assert_eq!(
                    snap.get(k as u32).to_bits(),
                    want.to_bits(),
                    "key {k}: fused stream result must be bit-identical"
                );
            }
            stats
        };
        // A heavily skewed stream: a handful of hot keys repeat inside
        // every C-Buffer frame, so the fused path must fold tuples away
        // and the stats must say so.
        let stats = run(|i| ((i * i) % 7) as u32);
        assert!(
            stats.total_fusion_hits() > 0,
            "skewed keys must fuse in-frame"
        );
        assert!(stats.fused_ratio() > 0.0 && stats.fused_ratio() < 1.0);
        assert!(stats.total_fusion_flushes() > 0);
        // Fewer tuples crossed into bin memory than were sent.
        assert!(
            stats.shards.iter().map(|s| s.flushed_tuples).sum::<u64>() < stats.tuples_sent,
            "fusion must reduce bin traffic"
        );
        // The control: uniform keys rarely meet inside a frame.
        let uniform = run(|i| (i.wrapping_mul(2_654_435_761) >> 7) as u32 % (1 << 10));
        assert!(
            stats.fused_ratio() > uniform.fused_ratio(),
            "skewed keys must out-fuse uniform keys: {} vs {}",
            stats.fused_ratio(),
            uniform.fused_ratio()
        );
    }

    #[test]
    fn non_fusable_reducers_report_zero_fusion() {
        let p = IngestPipeline::new(64, Count, StreamConfig::new().shards(2));
        let mut h = p.handle();
        for i in 0..1000u32 {
            h.send(i % 4, ()).unwrap();
        }
        drop(h);
        let (_, stats) = p.shutdown();
        assert_eq!(stats.total_fusion_hits(), 0);
        assert_eq!(stats.fused_ratio(), 0.0);
    }

    #[test]
    fn append_preserves_per_producer_order() {
        let p = IngestPipeline::new(64, Append, StreamConfig::new().shards(4).batch_tuples(3));
        let mut h = p.handle();
        for i in 0..1000u32 {
            h.send(i % 64, i).unwrap();
        }
        drop(h);
        let (snap, _) = p.shutdown();
        for k in 0..64u32 {
            let expect: Vec<u32> = (0..1000).filter(|i| i % 64 == k).collect();
            assert_eq!(snap.get(k), &expect, "key {k}");
        }
    }

    #[test]
    fn epochs_publish_aligned_snapshots() {
        let p = IngestPipeline::new(256, Count, StreamConfig::new().shards(2));
        let mut h = p.handle();
        for k in 0..256u32 {
            h.send(k, ()).unwrap();
        }
        let e1 = h.seal_epoch().unwrap();
        assert_eq!(e1, 1);
        // Wait for the epoch-1 snapshot to surface.
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        loop {
            let s = p.snapshot();
            if s.epoch() >= 1 {
                assert!(s.iter().all(|&c| c == 1));
                break;
            }
            assert!(Instant::now() < deadline, "epoch snapshot never published");
            std::thread::yield_now();
        }
        for k in 0..128u32 {
            h.send(k, ()).unwrap();
        }
        drop(h);
        let (snap, stats) = p.shutdown();
        assert_eq!(snap.epoch(), 2, "drain epoch follows the sealed epoch");
        assert!(stats.epochs_published >= 2);
        assert_eq!(*snap.get(5), 2);
        assert_eq!(*snap.get(200), 1);
    }

    #[test]
    fn auto_seal_by_tuple_count() {
        let p = IngestPipeline::new(
            128,
            Count,
            StreamConfig::new()
                .shards(2)
                .batch_tuples(8)
                .epoch_tuples(1000),
        );
        let mut h = p.handle();
        for i in 0..10_000u32 {
            h.send(i % 128, ()).unwrap();
        }
        drop(h);
        let (snap, stats) = p.shutdown();
        assert!(stats.epochs_sealed >= 9, "sealed {}", stats.epochs_sealed);
        // 10_000 = 78 * 128 + 16: keys below 16 get one extra tuple.
        for (k, &c) in snap.iter().enumerate() {
            assert_eq!(c, 78 + u32::from(k < 16), "key {k}");
        }
    }

    #[test]
    fn untouched_segments_are_shared_across_epochs() {
        // Touch only segment 0 between two seals: segment 0's Arc must
        // differ across the two snapshots while every untouched segment is
        // pointer-identical.
        let p = IngestPipeline::new(4096, Count, StreamConfig::new().shards(2));
        let mut h = p.handle();
        for k in 0..4096u32 {
            h.send(k, ()).unwrap();
        }
        h.seal_epoch().unwrap();
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        while p.published_epoch() < 1 {
            assert!(Instant::now() < deadline, "epoch 1 never published");
            std::thread::yield_now();
        }
        let s1 = p.snapshot();
        let segments = s1.num_segments();
        assert_eq!(segments, (4096 / s1.segment_keys()) as usize);
        assert!(segments > 1);

        // Epoch 2 touches keys of segment 0 only.
        for k in 0..s1.segment_keys().min(100) {
            h.send(k, ()).unwrap();
        }
        h.seal_epoch().unwrap();
        while p.published_epoch() < 2 {
            assert!(Instant::now() < deadline, "epoch 2 never published");
            std::thread::yield_now();
        }
        let s2 = p.snapshot();
        assert!(
            !Arc::ptr_eq(s1.segment(0), s2.segment(0)),
            "touched segment must have been copied"
        );
        for seg in 1..segments {
            assert!(
                Arc::ptr_eq(s1.segment(seg), s2.segment(seg)),
                "untouched segment {seg} must be shared zero-copy"
            );
        }
        assert_eq!(*s2.get(5), 2);
        assert_eq!(*s2.get(2000), 1);
        drop(h);
        p.shutdown();
    }

    #[test]
    fn full_scale_geometries_keep_1024_key_segments() {
        // `stream_zipf`/`serve_ingest` and `serve_mixed` at full scale, and
        // the same spans with a ragged last shard of 1 and 3 keys: the
        // segment size follows the shard span, not the last shard's size.
        for num_keys in [1 << 22, 1 << 18, (1 << 22) + 1, (1 << 18) + 3] {
            assert_eq!(segment_keys(&shard_plan(num_keys, 2).1), 1024, "{num_keys}");
        }
    }

    #[test]
    fn every_segment_lies_inside_one_bin_of_its_shard() {
        let domains = [
            1,
            7,
            64,
            1000,
            4099,
            1 << 12,
            1 << 16,
            (1 << 16) + 3,
            1 << 20,
        ];
        for num_keys in domains {
            for shards in [1, 2, 3, 4, 8] {
                let (_, ranges) = shard_plan(num_keys, shards);
                let seg = segment_keys(&ranges);
                assert!(seg.is_power_of_two() && seg <= SEGMENT_KEYS);
                // Below the cap a segment is a whole bin, and a shard has
                // as many segments as bins: a few dozen at most.
                let span = ranges[0].end - ranges[0].start;
                assert!(
                    seg == SEGMENT_KEYS || span.div_ceil(seg) <= 64,
                    "{num_keys}/{shards}"
                );
                for (s, r) in ranges.iter().enumerate() {
                    let bins = shard_binner::<()>(&ranges, s).take_bins();
                    for b in 0..bins.num_bins() {
                        let keys = bins.key_range(b);
                        let (lo, hi) = (r.start + keys.start, r.start + keys.end);
                        // Both ends on a segment boundary (or the domain's
                        // end): no segment crosses into another bin.
                        assert_eq!(lo % seg, 0, "{num_keys} keys, {shards} shards, bin {b}");
                        assert!(hi % seg == 0 || hi == num_keys, "{num_keys}/{shards}/{b}");
                    }
                }
            }
        }
    }

    #[test]
    fn with_value_borrows_without_cloning() {
        let p = IngestPipeline::new(64, Append, StreamConfig::new().batch_tuples(1));
        let mut h = p.handle();
        for v in [7u32, 8, 9] {
            h.send(3, v).unwrap();
        }
        h.seal_epoch().unwrap();
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        while p.published_epoch() < 1 {
            assert!(Instant::now() < deadline, "epoch never published");
            std::thread::yield_now();
        }
        let len = p.with_value(3, |v| v.map(Vec::len));
        assert_eq!(len, Some(3));
        assert!(p.with_value(64, |v| v.is_none()));
        assert_eq!(p.get(3), vec![7, 8, 9]);
        drop(h);
        p.shutdown();
    }

    #[test]
    fn latest_sees_final_write_per_key() {
        let p = IngestPipeline::new(32, Latest, StreamConfig::default());
        let mut h = p.handle();
        for round in 0..100u64 {
            for k in 0..32u32 {
                h.send(k, round * 100 + k as u64).unwrap();
            }
        }
        drop(h);
        let (snap, _) = p.shutdown();
        for k in 0..32u32 {
            assert_eq!(*snap.get(k), Some(9900 + k as u64));
        }
    }

    #[test]
    fn handles_reject_sends_after_shutdown() {
        let p = IngestPipeline::new(16, Count, StreamConfig::default());
        let mut h = p.handle();
        h.send(3, ()).unwrap();
        h.flush().unwrap();
        let (snap, _) = p.shutdown();
        assert_eq!(*snap.get(3), 1);
        let mut failed = false;
        for k in 0..16 {
            if h.send(k, ()).is_err() {
                failed = true;
                break;
            }
        }
        // Buffered sends may succeed locally; the eventual flush must fail.
        assert!(failed || h.flush().is_err());
    }

    #[test]
    fn single_key_domain() {
        let p = IngestPipeline::new(1, Count, StreamConfig::new().shards(8));
        assert_eq!(p.num_shards(), 1);
        let mut h = p.handle();
        for _ in 0..100 {
            h.send(0, ()).unwrap();
        }
        drop(h);
        let (snap, _) = p.shutdown();
        assert_eq!(*snap.get(0), 100);
    }

    #[test]
    fn shard_ranges_partition_the_domain() {
        let p = IngestPipeline::new(1000, Count, StreamConfig::new().shards(7));
        let mut covered = 0u32;
        for s in 0..p.num_shards() {
            let r = p.shard_range(s);
            assert_eq!(r.start, covered);
            covered = r.end;
        }
        assert_eq!(covered, 1000);
        p.shutdown();
    }

    #[test]
    #[should_panic]
    fn out_of_range_key_panics() {
        let p = IngestPipeline::new(8, Count, StreamConfig::default());
        let mut h = p.handle();
        let _ = h.send(8, ());
    }

    #[test]
    #[should_panic]
    fn try_send_out_of_range_key_panics() {
        let p = IngestPipeline::new(8, Count, StreamConfig::default());
        let mut h = p.handle();
        let _ = h.try_send(8, ());
    }

    /// A handle over a hand-built core whose single shard FIFO has no
    /// worker draining it: the channel fills deterministically, which a
    /// live pipeline never guarantees.
    fn unserviced_handle<V>(
        capacity: usize,
        batch_tuples: usize,
    ) -> (IngestHandle<V>, crate::channel::Receiver<ShardMsg<V>>) {
        let (tx, rx) = channel::bounded::<ShardMsg<V>>(capacity);
        let core = Arc::new(Core {
            senders: vec![tx],
            shard_shift: 4, // one shard spanning keys 0..16
            num_keys: 16,
            batch_tuples,
            epoch_tuples: None,
            tuples_sent: AtomicU64::new(0),
            batches_sent: AtomicU64::new(0),
            epochs_sealed: AtomicU64::new(0),
            seal_lock: Mutex::new(()),
        });
        (
            IngestHandle {
                core,
                buffers: vec![Vec::new()],
            },
            rx,
        )
    }

    #[test]
    fn try_send_against_full_channel_is_busy_and_lossless() {
        let (mut h, rx) = unserviced_handle(1, 1);
        h.try_send(0, ()).unwrap(); // fills the 1-slot FIFO
        assert_eq!(h.try_send(1, ()), Err(TryIngestError::Busy));
        assert_eq!(h.try_send(2, ()), Err(TryIngestError::Busy));
        // Refused tuples were taken back out: nothing is buffered, and
        // exactly one tuple was accepted.
        assert!(h.buffers[0].is_empty());
        // ordering: Relaxed — test-side stats read.
        assert_eq!(h.core.tuples_sent.load(Ordering::Relaxed), 1);

        // Draining the FIFO makes the retry succeed, without duplicates.
        let Some(ShardMsg::Batch(b)) = rx.recv() else {
            panic!("expected the accepted batch")
        };
        assert_eq!(b.len(), 1);
        h.try_send(1, ()).unwrap();
        let Some(ShardMsg::Batch(b)) = rx.recv() else {
            panic!("expected the retried batch")
        };
        assert_eq!(b[0].key, 1);
    }

    #[test]
    fn try_send_below_batch_size_buffers_without_touching_channel() {
        let (mut h, rx) = unserviced_handle(1, 8);
        for k in 0..7 {
            h.try_send(k, ()).unwrap();
        }
        assert_eq!(h.buffers[0].len(), 7);
        h.flush().unwrap(); // fits: channel empty
        let Some(ShardMsg::Batch(b)) = rx.recv() else {
            panic!("expected flushed batch")
        };
        assert_eq!(b.len(), 7);
        // Channel full again → a refusing ship keeps the batch.
        for k in 0..8 {
            h.try_send(k, ()).unwrap();
        }
        assert!(h.buffers[0].is_empty(), "8th tuple shipped the batch");
        h.try_send(3, ()).unwrap();
        let refused = ToShards(&h.core, OnFull::Refuse).ship(0, &mut h.buffers[0]);
        assert_eq!(refused, Err(TryIngestError::Busy));
        assert_eq!(h.buffers[0].len(), 1, "refused batch stays buffered");
    }

    /// The one batch a 1-slot FIFO holds.
    fn queued<V>(rx: &crate::channel::Receiver<ShardMsg<V>>) -> Vec<Tuple<V>> {
        match rx.recv() {
            Some(ShardMsg::Batch(b)) => b,
            _ => panic!("expected a batch"),
        }
    }

    #[test]
    fn try_send_all_equals_the_per_tuple_loop() {
        let run: Vec<(u32, u64)> = (0..10).map(|k| (k, 100 + u64::from(k))).collect();
        let (mut by_run, run_rx) = unserviced_handle::<u64>(1, 4);
        let (mut by_loop, loop_rx) = unserviced_handle::<u64>(1, 4);
        // Tuples 0..4 fill the one slot; the 8th tuple completes the next
        // frame, whose ship is refused: Busy right at a frame boundary.
        let (accepted, result) = by_run.try_send_all(run.iter().copied());
        assert_eq!((accepted, result), (7, Err(TryIngestError::Busy)));
        let mut looped = 0;
        for &(key, value) in &run {
            if by_loop.try_send(key, value).is_err() {
                break;
            }
            looped += 1;
        }
        assert_eq!(looped, accepted);
        assert_eq!(by_run.buffers, by_loop.buffers, "same staged tuples");
        assert_eq!(by_run.buffers[0].len(), 3, "the refused tuple was popped");
        let delivered = queued(&run_rx);
        assert_eq!(delivered, queued(&loop_rx), "same FIFO contents");

        // Once the FIFO drains, the refused suffix resent verbatim lands
        // exactly once: what reaches the shard folds to the serial sum.
        assert_eq!(
            by_run.try_send_all(run[accepted..].iter().copied()),
            (3, Ok(()))
        );
        let mut all = delivered;
        all.extend(queued(&run_rx));
        by_run.flush().unwrap();
        all.extend(queued(&run_rx));
        let fold = |tuples: &mut dyn Iterator<Item = (u32, u64)>| {
            let mut table = [0u64; 16];
            for (key, value) in tuples {
                table[key as usize] += value;
            }
            table
        };
        assert_eq!(
            fold(&mut all.iter().map(|t| (t.key, t.value))),
            fold(&mut run.iter().copied())
        );
        assert_eq!(all.len(), run.len(), "nothing lost or duplicated");
    }

    #[test]
    fn try_send_all_stops_at_an_out_of_range_key() {
        let (mut h, _rx) = unserviced_handle::<u64>(1, 4);
        let run = [(1, 10), (2, 20), (16, 30), (3, 40)];
        assert_eq!(
            h.try_send_all(run),
            (2, Err(TryIngestError::KeyOutOfRange(16)))
        );
        let staged: Vec<u32> = h.buffers[0].iter().map(|t| t.key).collect();
        assert_eq!(staged, [1, 2], "nothing staged past the refused key");
    }

    #[test]
    fn a_send_loop_equals_one_try_send_all_when_the_fifo_never_fills() {
        let run: Vec<(u32, u64)> = (0..30).map(|i| ((i * 7) % 16, u64::from(i))).collect();
        let (mut by_send, send_rx) = unserviced_handle::<u64>(16, 4);
        let (mut by_run, run_rx) = unserviced_handle::<u64>(16, 4);
        for &(key, value) in &run {
            by_send.send(key, value).unwrap();
        }
        assert_eq!(
            by_run.try_send_all(run.iter().copied()),
            (run.len(), Ok(()))
        );
        assert_eq!(by_send.buffers, by_run.buffers, "same staged tuples");
        assert_eq!(by_run.buffers[0].len(), run.len() % 4);
        // ordering: Relaxed — test-side stats reads.
        let frames = by_run.core.batches_sent.load(Ordering::Relaxed);
        assert_eq!(frames, (run.len() / 4) as u64);
        // ordering: Relaxed — test-side stats read.
        assert_eq!(by_send.core.batches_sent.load(Ordering::Relaxed), frames);
        for _ in 0..frames {
            assert_eq!(queued(&send_rx), queued(&run_rx), "same FIFO contents");
        }
    }

    #[test]
    fn try_send_after_shutdown_is_closed() {
        let p = IngestPipeline::new(16, Count, StreamConfig::new().batch_tuples(1));
        let mut h = p.handle();
        h.try_send(3, ()).unwrap();
        let (snap, _) = p.shutdown();
        assert_eq!(*snap.get(3), 1);
        assert_eq!(h.try_send(4, ()), Err(TryIngestError::Closed));
    }

    #[test]
    fn try_get_is_total_over_any_key() {
        let p = IngestPipeline::new(8, Count, StreamConfig::new().batch_tuples(1));
        let mut h = p.handle();
        h.send(5, ()).unwrap();
        drop(h);
        let (snap, _) = p.shutdown();
        assert_eq!(snap.try_get(5), Some(&1));
        assert_eq!(snap.try_get(7), Some(&0));
        assert_eq!(snap.try_get(8), None);
        assert_eq!(snap.try_get(u32::MAX), None);
    }

    #[test]
    fn published_epoch_tracks_snapshot_epoch() {
        let p = IngestPipeline::new(64, Count, StreamConfig::new().shards(2));
        assert_eq!(p.published_epoch(), 0);
        let mut h = p.handle();
        h.send(1, ()).unwrap();
        h.seal_epoch().unwrap();
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        while p.published_epoch() < 1 {
            assert!(Instant::now() < deadline, "epoch 1 never published");
            std::thread::yield_now();
        }
        assert_eq!(p.snapshot().epoch(), 1);
        assert_eq!(p.try_get(1), Some(1));
        assert_eq!(p.try_get(64), None);
        drop(h);
        p.shutdown();
    }
}
