//! The TCP server: one reactor thread driving every connection over a
//! [`cobra_poll::Poller`] (epoll on Linux, kqueue on the BSDs).
//!
//! ```text
//!   clients ──TCP──▶ reactor (nonblocking sockets, level-triggered)
//!                      │ per round:
//!                      │   0. drain the wake socket (publish / shutdown)
//!                      │   1. answer WAIT_EPOCH waiters whose epoch is visible
//!                      │   2. accept (refuse past max_conns)
//!                      │   3. read readiness batch into the FrameBuf inbox → dispatch
//!                      │        UPDATE: records admitted in place,
//!                      │          IngestHandle::try_send_all (full FIFO → BUSY)
//!                      │        QUERY:  S3-FIFO snapshot cache
//!                      │   4. stream: SUBSCRIBE queues → DELTA frames,
//!                      │        REPLICATE → one SEGMENT chunk
//!                      │   5. settle: one blocking flush for the whole round
//!                      │   6. flush outboxes (WouldBlock → write interest)
//!                      ▼
//!                IngestPipeline ──▶ EpochSnapshot ──publish hook──▶ wake
//! ```
//!
//! This is propagation blocking applied at the network ingress: instead
//! of one thread per connection paying a pipeline handoff per frame, a
//! whole readiness round's updates coalesce in one [`IngestHandle`] and
//! reach the shard FIFOs in a single end-of-round *settle*. Responses are
//! staged in per-connection outboxes and **no response byte leaves before
//! the settle**, so `Accepted` still means *visible to a later `SEAL` on
//! any connection* — the property the cluster router's epoch barrier is
//! built on. Within a connection, responses flush in dispatch order, so
//! protocol pipelining (many frames in flight per connection) keeps the
//! old request/response ordering exactly.
//!
//! Admission control, all non-blocking:
//!
//! * **Connections**: past [`ServeConfig::max_conns`] (or on descriptor
//!   exhaustion, which the poll shim reports as a typed error) a new
//!   connection is refused (closed) instead of queueing without bound.
//! * **Updates**: an `UPDATE`'s records are admitted where the socket
//!   read left them, in the connection's inbox, as one run
//!   ([`IngestHandle::try_send_all`]): no per-frame allocation, no
//!   per-tuple call, and each tuple is copied twice (socket → inbox →
//!   shard frame). A full shard FIFO turns into an explicit
//!   `Busy { accepted }` naming how many tuples of the batch were taken;
//!   the reactor is never parked on a pipeline condvar while admitting,
//!   only once per round in the settle.
//! * **Memory**: responses a peer leaves unread stage at most
//!   `OUTBOX_HIGH_WATER` bytes (plus one in-flight frame). Past the
//!   mark the connection stops reading *and* dispatching — so a client
//!   pipelining amplifying requests (`SNAPSHOT` is ~20,000×) without
//!   consuming replies cannot stage unbounded outbox memory — and
//!   resumes when the flush phase drains the backlog. A backlog held
//!   past the idle budget is a disconnect, like any other stall.
//! * **Time**: a frame that has started arriving must finish within
//!   [`ServeConfig::idle_budget`] (progress resets the clock) — a
//!   one-byte-dribble or mid-frame-stall peer is disconnected without
//!   ever stalling the other connections. Idling *between* frames is
//!   unlimited, as before.
//!
//! Requests that cannot be answered in one frame never block the reactor
//! and never leave it; they are connection states (`Mode`):
//!
//! * `WAIT_EPOCH` parks the connection (read interest dropped) until the
//!   top of the round that first sees the epoch committed and published.
//!   Every publish writes the wake socket, so that round is the next one.
//! * `SUBSCRIBE` registers with the [`DeltaHub`]; each round stages what
//!   the subscriber's bounded hub queue holds as `DELTA`/`LAGGED` frames
//!   while the outbox sits below the high-water mark. A peer that stops
//!   reading therefore backs up into the hub queue, whose lossless
//!   `LAGGED` protocol is the flow control, and is cut at the idle
//!   budget like any other unread backlog.
//! * `REPLICATE` lists the data directory (commit log last), then stages
//!   one [`REPL_CHUNK`] `SEGMENT` per round under the same high-water
//!   rule.
//!   Frames pipelined behind it wait, as behind `WAIT_EPOCH`.
//!
//! The reactor waits in `Poller::wait` and has no tick. Every publish
//! (once the epoch is visible) and a shutdown write one byte to a
//! self-wake socket pair registered under a reserved token; the socket
//! buffer coalesces bytes nobody has drained yet. Every other reason to
//! run a round that no socket event starts is named in one function,
//! `poll_timeout`, evaluated once per round: no wait while a replication
//! round or a subscription held at the high-water mark has outbox room,
//! or while frames a drained backlog left in an inbox wait; otherwise
//! until the nearest idle-budget deadline, or until an event when no
//! clock runs.
//!
//! The read path never touches the pipeline's accumulators: QUERY is
//! served from `(epoch, block)` slices of published [`EpochSnapshot`]s,
//! cached in an [`S3FifoCache`] so a hot skewed key set is answered
//! without even taking the snapshot publish lock.
//!
//! Shutdown is a graceful drain: stop accepting, answer or fail parked
//! waiters, settle, flush what the sockets take within 50 ms (waiting in
//! the poll for writability), then drain the pipeline — no accepted
//! update is lost.
//!
//! [`EpochSnapshot`]: cobra_stream::EpochSnapshot

use crate::cache::S3FifoCache;
use crate::protocol::{
    self, ErrorCode, Frame, FrameBuf, Incoming, WireError, WireStats, MAX_DELTA_ENTRIES,
    MAX_SNAPSHOT_KEYS, REPL_CHUNK,
};
use cobra_mvcc::{
    diff_range, feed_publish_hook, DeltaHub, EpochStore, RetentionConfig, SubDelta, SubMsg,
    Subscriber,
};
use cobra_poll::{Event, Interest, Poller};
use cobra_stream::{
    commit_files, data_files, DurableConfig, EpochSnapshot, IngestHandle, IngestPipeline, Publish,
    PublishHook, RecoveryReport, Reducer, StreamConfig, TryIngestError,
};
use cobra_wal::ShipFile;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// `u64` summation — the server's update semantics. Commutative and
/// fusable, so same-key updates coalesce in the shard binners' C-Buffer
/// frames, and "zero lost updates" is checkable end-to-end by comparing
/// value sums.
#[derive(Debug, Clone, Copy, Default)]
pub struct SumU64;

impl Reducer for SumU64 {
    type Value = u64;
    type Acc = u64;
    const COMMUTATIVE: bool = true;
    // Wrapping u64 addition is associative, so frame-level fusion is
    // bit-exact here.
    const FUSABLE: bool = true;

    fn identity(&self) -> u64 {
        0
    }

    fn apply(&self, acc: &mut u64, value: &u64) {
        *acc = acc.wrapping_add(*value);
    }

    fn fuse_values(&self, a: &mut u64, b: &u64) -> bool {
        *a = a.wrapping_add(*b);
        true
    }
}

/// Tuning knobs of a [`Server`].
///
/// There is no poll interval among them: the reactor works out how long
/// it may wait from its connections' state (see the module docs).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind (use port 0 for an ephemeral port).
    pub addr: String,
    /// Connections the reactor serves concurrently before refusing new
    /// ones (subscribed and replicating connections count like any other).
    pub max_conns: usize,
    /// Snapshot-cache capacity, in blocks. A block is one copy-on-write
    /// snapshot segment, so its key count is the pipeline's segment size.
    pub cache_blocks: usize,
    /// Once a frame has started arriving, the connection must complete a
    /// frame within this budget or it is disconnected (slow-loris
    /// protection). Idling between frames is unlimited.
    pub idle_budget: Duration,
    /// Durable mode: when set, the pipeline write-ahead-logs every update
    /// under this configuration's data directory and recovers committed
    /// state from it on startup.
    pub durable: Option<DurableConfig>,
    /// Epoch snapshots retained for time travel (`QUERY_AT`), diff reads
    /// and subscriber re-sync. 1 (the default) keeps only the latest —
    /// exactly the pre-MVCC behavior.
    pub retain_epochs: usize,
    /// Optional age bound on retention: epochs older than this are
    /// evicted even when the count bound still has room (the latest is
    /// always kept).
    pub retain_age: Option<Duration>,
    /// Per-subscriber push-queue depth, in epochs, before the lossless
    /// lag protocol kicks in (`LAGGED` + diff re-sync).
    pub sub_queue_epochs: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            max_conns: 4096,
            cache_blocks: 128,
            idle_budget: Duration::from_secs(30),
            durable: None,
            retain_epochs: 1,
            retain_age: None,
            sub_queue_epochs: 16,
        }
    }
}

impl ServeConfig {
    /// Default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the bind address.
    pub fn addr(mut self, addr: &str) -> Self {
        self.addr = addr.to_string();
        self
    }

    /// Sets the concurrent-connection ceiling.
    pub fn max_conns(mut self, max_conns: usize) -> Self {
        self.max_conns = max_conns;
        self
    }

    /// Sets the snapshot-cache capacity in blocks.
    pub fn cache_blocks(mut self, blocks: usize) -> Self {
        self.cache_blocks = blocks;
        self
    }

    /// Sets the in-frame completion budget (slow-loris disconnect).
    pub fn idle_budget(mut self, budget: Duration) -> Self {
        self.idle_budget = budget;
        self
    }

    /// Enables durable mode with the default WAL tuning for `data_dir`
    /// (use [`durable`](Self::durable) for full control).
    pub fn data_dir<P: Into<std::path::PathBuf>>(self, data_dir: P) -> Self {
        self.durable(DurableConfig::new(data_dir))
    }

    /// Enables durable mode with an explicit WAL configuration.
    pub fn durable(mut self, durable: DurableConfig) -> Self {
        self.durable = Some(durable);
        self
    }

    /// Sets how many epoch snapshots the retention window keeps.
    pub fn retain_epochs(mut self, epochs: usize) -> Self {
        self.retain_epochs = epochs;
        self
    }

    /// Sets the age bound on the retention window.
    pub fn retain_age(mut self, age: Duration) -> Self {
        self.retain_age = Some(age);
        self
    }

    /// Sets the per-subscriber push-queue depth in epochs.
    pub fn sub_queue_epochs(mut self, epochs: usize) -> Self {
        self.sub_queue_epochs = epochs;
        self
    }
}

/// Live server counters (the serve-layer complement of the pipeline's
/// [`StreamStats`](cobra_stream::StreamStats)).
#[derive(Debug, Default)]
struct ServeCounters {
    connections: AtomicU64,
    frames: AtomicU64,
    queries: AtomicU64,
    busy_tuples: AtomicU64,
    repl_rounds: AtomicU64,
    repl_bytes_shipped: AtomicU64,
    repl_acked_epoch: AtomicU64,
}

/// Everything the reactor thread and the [`Server`] handle share.
struct Ctx {
    pipeline: IngestPipeline<SumU64>,
    cache: S3FifoCache<(u64, u32), Arc<Vec<u64>>>,
    counters: ServeCounters,
    stop: AtomicBool,
    num_keys: u32,
    /// Keys per cache block: the pipeline's snapshot segment size.
    block_keys: u32,
    /// The durable data directory (None = in-memory server; replication
    /// requests are refused with `NotDurable`).
    data_dir: Option<PathBuf>,
    /// The MVCC retention window (fed by the pipeline's publish hook).
    store: Arc<EpochStore<u64>>,
    /// Push-subscription fan-out (fed by the same hook).
    hub: Arc<DeltaHub<u64>>,
    /// Queue depth handed to each new subscriber.
    sub_queue_epochs: usize,
    /// The reactor's self-wake pair: a publish or a shutdown writes a
    /// byte to `wake_tx`, the poll reports `wake_rx` under [`WAKE_TOKEN`].
    /// Both ends live here so they outlast the pipeline's final publish
    /// (a wake after the reactor has left must not hit a closed socket).
    wake_tx: UnixStream,
    wake_rx: UnixStream,
}

impl Ctx {
    fn wire_stats(&self) -> WireStats {
        let s = self.pipeline.stats();
        let c = self.cache.stats();
        // ordering: Relaxed throughout — point-in-time statistics reads;
        // monotonic counters, nothing is published through them.
        WireStats {
            tuples_ingested: s.tuples_sent,
            busy_tuples: self.counters.busy_tuples.load(Ordering::Relaxed), // ordering: stats
            epochs_sealed: s.epochs_sealed,
            epochs_published: s.epochs_published,
            connections: self.counters.connections.load(Ordering::Relaxed), // ordering: stats
            frames: self.counters.frames.load(Ordering::Relaxed),           // ordering: stats
            queries: self.counters.queries.load(Ordering::Relaxed),         // ordering: stats
            cache_hits: c.hits,
            cache_misses: c.misses,
            cache_insertions: c.insertions,
            cache_evictions: c.evictions,
            cache_len: c.len,
            bins_bytes: s.total_bins_bytes(),
            bin_segments: s.total_bin_segments(),
            cbuf_occupancy_bp: (s.cbuf_occupancy() * 10_000.0).round() as u64,
            wal_bytes_appended: s.wal_bytes_appended,
            wal_fsyncs: s.wal_fsyncs,
            wal_segments: s.wal_segments,
            wal_replayed_records: s.wal_replayed_records,
            epochs_committed: s.epochs_committed,
            repl_rounds: self.counters.repl_rounds.load(Ordering::Relaxed), // ordering: stats
            repl_bytes_shipped: self.counters.repl_bytes_shipped.load(Ordering::Relaxed), // ordering: stats
            repl_acked_epoch: self.counters.repl_acked_epoch.load(Ordering::Relaxed), // ordering: stats
            retained_epochs: self.store.retained_epochs(),
            retained_bytes: self.store.retained_bytes(),
            active_subscribers: self.hub.active_subscribers(),
            deltas_pushed: self.hub.deltas_pushed(),
            fusion_hits: s.total_fusion_hits(),
            fusion_flushes: s.total_fusion_flushes(),
            fused_ratio_bp: (s.fused_ratio() * 10_000.0).round() as u64,
        }
    }

    /// `(published, committed)`, read in that order: the published
    /// epoch's Acquire load makes the committed epoch the accumulator
    /// stored before it visible too, so a `WAIT_EPOCH` is answered only
    /// once its epoch is durable and readable.
    fn visible_epochs(&self) -> (u64, u64) {
        let published = self.pipeline.published_epoch();
        (published, self.pipeline.committed_epoch())
    }

    fn stopping(&self) -> bool {
        // ordering: Relaxed — audited: the flag is a pure boolean signal
        // with no associated payload; the reactor re-checks it every
        // round, so propagation delay only adds (bounded) latency.
        self.stop.load(Ordering::Relaxed)
    }
}

/// A running COBRA network service. Binds on [`start`](Self::start),
/// serves until [`shutdown`](Self::shutdown).
pub struct Server {
    ctx: Arc<Ctx>,
    local_addr: SocketAddr,
    reactor: Option<JoinHandle<()>>,
    recovery: Option<RecoveryReport>,
}

impl Server {
    /// Builds the pipeline, binds the listener and starts the reactor
    /// thread.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.max_conns`, `cfg.cache_blocks < 2` or
    /// `cfg.sub_queue_epochs` are out of range (programmer error — the
    /// config is server-side, not client input).
    pub fn start(num_keys: u32, stream_cfg: StreamConfig, cfg: ServeConfig) -> io::Result<Server> {
        assert!(cfg.max_conns > 0, "need at least one connection slot");
        assert!(cfg.cache_blocks >= 2, "cache needs at least two blocks");
        assert!(
            cfg.sub_queue_epochs > 0,
            "subscriber queues need at least one epoch"
        );

        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let poller = Poller::new().map_err(io::Error::from)?;
        poller
            .register(&listener, LISTENER_TOKEN, Interest::READ)
            .map_err(io::Error::from)?;
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        poller
            .register(&wake_rx, WAKE_TOKEN, Interest::READ)
            .map_err(io::Error::from)?;
        let data_dir = cfg.durable.as_ref().map(|d| d.dir.clone());
        // The MVCC pair behind QUERY_AT/DIFF/SUBSCRIBE: every published
        // snapshot is admitted into the retention window and its delta
        // fanned out to subscribers by the pipeline's publish hook.
        let mut retention = RetentionConfig::new().max_epochs(cfg.retain_epochs);
        if let Some(age) = cfg.retain_age {
            retention = retention.max_age(age);
        }
        let store = Arc::new(EpochStore::new(retention));
        let hub: Arc<DeltaHub<u64>> = Arc::new(DeltaHub::new());
        let mut feed = feed_publish_hook(Arc::clone(&store), Arc::clone(&hub));
        let hook_wake = wake_tx.try_clone()?;
        // Fan out at admission, wake once the epoch is visible: the
        // reactor drains the wake socket before it answers parked
        // waiters or pumps subscriber queues, so neither a delta
        // enqueued before the byte nor a `WAIT_EPOCH` for this epoch is
        // left waiting for some later event.
        let hook: PublishHook<u64> = Box::new(move |step| match step {
            Publish::Visible(_) => wake(&hook_wake),
            admit => feed(admit),
        });
        // Durable mode recovers committed state from the data dir before
        // serving; the first published snapshot is the recovered one.
        let (pipeline, recovery) = match cfg.durable {
            Some(durable) => {
                let (p, report) = IngestPipeline::recover_with_hook(
                    num_keys,
                    SumU64,
                    stream_cfg,
                    durable,
                    Some(hook),
                )?;
                (p, Some(report))
            }
            None => (
                IngestPipeline::with_publish_hook(num_keys, SumU64, stream_cfg, hook),
                None,
            ),
        };
        // Seed the window with the initial (or recovered) snapshot so the
        // first sealed epoch diffs against it instead of emitting full
        // state, and so epoch-0/latest lookups always resolve.
        store.admit(pipeline.snapshot());
        // The cache blocks are the snapshot segments: a fill shares the
        // segment's `Arc` instead of copying the block's values.
        let block_keys = pipeline.snapshot().segment_keys();
        let ctx = Arc::new(Ctx {
            pipeline,
            cache: S3FifoCache::new(cfg.cache_blocks),
            counters: ServeCounters::default(),
            stop: AtomicBool::new(false),
            num_keys,
            block_keys,
            data_dir,
            store,
            hub,
            sub_queue_epochs: cfg.sub_queue_epochs,
            wake_tx,
            wake_rx,
        });

        let reactor = {
            let ctx = Arc::clone(&ctx);
            let max_conns = cfg.max_conns;
            let idle_budget = cfg.idle_budget;
            std::thread::Builder::new()
                .name("cobra-serve-reactor".into())
                .spawn(move || reactor_loop(&ctx, &listener, &poller, max_conns, idle_budget))
                .expect("spawn serve reactor")
        };

        Ok(Server {
            ctx,
            local_addr,
            reactor: Some(reactor),
            recovery,
        })
    }

    /// The startup recovery report (`None` when the server runs without a
    /// data directory).
    pub fn recovery(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Point-in-time server statistics (same numbers a `STATS` frame
    /// reports).
    pub fn stats(&self) -> WireStats {
        self.ctx.wire_stats()
    }

    /// Graceful drain: stops accepting, seals a final epoch so in-flight
    /// updates become queryable state, lets the reactor settle and flush
    /// its last round, then drains the pipeline. Returns the final
    /// snapshot (containing every accepted update) and the final
    /// statistics.
    ///
    /// # Panics
    ///
    /// Panics if the reactor thread panicked.
    pub fn shutdown(mut self) -> (Arc<EpochSnapshot<u64>>, WireStats) {
        // ordering: Relaxed — audited: pure stop signal (see
        // Ctx::stopping); the reactor checks it every round and is woken
        // for one below.
        self.ctx.stop.store(true, Ordering::Relaxed);
        // Close every subscriber queue: the reactor's last round stages
        // what is still queued and ends those connections cleanly.
        self.ctx.hub.close_all();
        // Seal the final epoch while sockets are still draining: sealed
        // work becomes queryable, and whatever trickles in afterwards is
        // captured by the pipeline drain below.
        self.ctx.pipeline.seal_epoch();
        wake(&self.ctx.wake_tx);
        if let Some(reactor) = self.reactor.take() {
            reactor.join().expect("serve reactor panicked");
        }
        let stats = self.ctx.wire_stats();
        let ctx = Arc::try_unwrap(self.ctx)
            .ok()
            .expect("reactor joined, ctx uniquely owned");
        let (snapshot, _) = ctx.pipeline.shutdown();
        (snapshot, stats)
    }
}

/// The listener's poll token; connections get 0, 1, 2, …
const LISTENER_TOKEN: u64 = u64::MAX;
/// The self-wake socket's poll token.
const WAKE_TOKEN: u64 = u64::MAX - 1;

/// Wakes the reactor out of `Poller::wait`. Non-blocking: a full socket
/// buffer already means a wake is pending, and with both ends held by
/// `Ctx` the write has no other way to fail, so the result is ignored.
fn wake(mut wake_tx: &UnixStream) {
    let _ = wake_tx.write(&[1]);
}

/// Empties the wake socket (level-triggered: an undrained byte would
/// spin the poll). Runs at the top of the round, before any subscriber
/// queue is pumped — a publish landing after this leaves its byte for
/// the next round.
fn drain_wake(mut wake_rx: &UnixStream) {
    let mut buf = [0u8; 64];
    loop {
        match wake_rx.read(&mut buf) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return, // WouldBlock: drained
        }
    }
}

/// Per-connection per-round read ceiling: one firehose connection may
/// not starve the rest of the round (level triggering re-reports the
/// remainder next round).
const ROUND_READ_CAP: usize = 1 << 20;
/// Per-connection staged-response ceiling (write backpressure). Small
/// requests can yield huge responses (a `SNAPSHOT` amplifies ~20,000×),
/// so a peer that pipelines requests without reading replies could
/// otherwise stage unbounded outbox memory. Once the unflushed backlog
/// reaches this mark the connection stops reading *and* dispatching —
/// already-buffered frames wait — until the flush phase drains the
/// outbox below it. The bound is soft by one response: the frame that
/// crosses the mark completes, so peak staging is `OUTBOX_HIGH_WATER`
/// plus one maximal frame.
const OUTBOX_HIGH_WATER: usize = 1 << 20;

/// What a connection is currently doing.
enum Mode {
    /// Normal request/response dispatch.
    Request,
    /// Parked on `WAIT_EPOCH`: answered at the top of the round that
    /// first sees `epoch` committed and published; read interest is
    /// dropped meanwhile.
    Parked { epoch: u64 },
    /// Subscribed: each round stages the hub queue's deltas; the only
    /// valid incoming frame is `UNSUBSCRIBE`.
    Subscribed(Push),
    /// Mid-`REPLICATE`: each round stages one segment chunk; frames
    /// pipelined behind the request wait until `ReplDone` is staged.
    Replicating(Box<ReplRound>),
    /// A goodbye (usually an `Error` frame) is in the outbox; close once
    /// it has flushed.
    Draining,
}

/// A live push subscription. Dropping it unregisters from the hub, so no
/// way of losing the connection (EOF, reset, idle budget, protocol
/// violation, shutdown) can leak the registration.
struct Push {
    sub: Subscriber<u64>,
    hub: Arc<DeltaHub<u64>>,
    /// The epoch the next delta builds on.
    prev: u64,
    /// A delta part-way through chunking: the next entry to ship.
    cursor: Option<(SubDelta<u64>, usize)>,
    /// `UNSUBSCRIBE` arrived: the hub queue is closed; once its remainder
    /// is staged the connection returns to request mode.
    unsubscribing: bool,
    /// The last pump stopped (or was skipped) at the high-water mark
    /// before it saw the queue empty: once the outbox has room, the next
    /// round must pump again, and no socket event will say so.
    held: bool,
}

impl Drop for Push {
    fn drop(&mut self) {
        self.hub.unsubscribe(self.sub.id());
    }
}

impl Push {
    /// Stages queued pushes — per-epoch `Delta` frames chunked at
    /// [`MAX_DELTA_ENTRIES`], `Lagged` on overflow — until the queue is
    /// empty or the outbox backlog reaches the high-water mark, one frame
    /// at a time. An epoch with no changes in range still ships an empty
    /// `Delta`: delivery is gap-free per epoch, which is what lets the
    /// client assert `to_epoch == last + 1` and trust pure delta replay.
    /// Returns true once the (closed) queue is exhausted; sets `held`
    /// when the mark stopped it first.
    fn stage_queued(&mut self, outbox: &mut Vec<u8>, sent: usize, scratch: &mut Vec<u8>) -> bool {
        while outbox.len() - sent < OUTBOX_HIGH_WATER {
            let (delta, at) = match self.cursor.take() {
                Some(cursor) => cursor,
                None => match self.sub.next_msg(Duration::ZERO) {
                    // A publish racing the registration can enqueue an
                    // epoch the baseline snapshot already covers; skip it.
                    SubMsg::Delta(delta) if delta.epoch() <= self.prev => continue,
                    SubMsg::Delta(delta) => (delta, 0),
                    SubMsg::Lagged { resume_epoch } => {
                        if resume_epoch > self.prev {
                            self.prev = resume_epoch;
                            stage(outbox, &Frame::Lagged { resume_epoch }, scratch);
                        }
                        continue;
                    }
                    SubMsg::Idle => {
                        self.held = false;
                        return false;
                    }
                    SubMsg::Closed => return true,
                },
            };
            let entries = delta.entries();
            let end = (at + MAX_DELTA_ENTRIES as usize).min(entries.len());
            let frame = Frame::Delta {
                from_epoch: self.prev,
                to_epoch: delta.epoch(),
                done: end == entries.len(),
                entries: entries[at..end].to_vec(),
            };
            stage(outbox, &frame, scratch);
            if end == entries.len() {
                self.prev = delta.epoch();
            } else {
                self.cursor = Some((delta, end));
            }
        }
        self.held = true;
        false
    }
}

/// One round of WAL shipping in flight. The follower's manifest says how
/// many bytes of each file it already has; the round streams the missing
/// suffixes as `Segment` frames and finishes with `ReplDone`.
///
/// The round is one queue of files from the data directory's one layout
/// owner ([`cobra_stream::commit_files`], [`cobra_stream::data_files`]).
/// Each file ships up to the length it had when listed, in reads of at
/// most [`REPL_CHUNK`] bytes, one per reactor round as the outbox drains;
/// bytes appended after the listing ship next round. So a round holds one
/// chunk in memory, however far the follower is behind.
///
/// Ordering is the crux. The round reads the committed epoch first, then
/// lists the commit log, then lists the shard logs and checkpoints; the
/// commit log goes at the end of the queue and ships *last*. Every listed
/// commit record was written after the shard `Seal` markers it commits
/// were flushed, and the shard logs are listed after the commit log, so
/// those markers are always shipped. Shard bytes beyond what the shipped
/// commit records cover are an uncommitted tail — so on the follower,
/// exactly as on the primary, observable implies durable, and a
/// promotion recovers a consistent prefix.
///
/// A connection that dies mid-round just drops this; the round's partial
/// shard bytes on the follower are harmless (uncommitted tail).
struct ReplRound {
    /// The follower's manifest: file name → bytes already held.
    have: HashMap<String, u64>,
    /// The committed epoch read before the listing.
    committed: u64,
    /// Files still to ship, the commit log last.
    files: VecDeque<ShipFile>,
    /// Bytes of the front file already staged this round.
    staged: u64,
    shipped_files: u32,
    shipped_bytes: u64,
}

impl ReplRound {
    /// Reads the committed epoch and lists what the follower is missing.
    fn begin(ctx: &Ctx, data_dir: &Path, manifest: Vec<(String, u64)>) -> io::Result<ReplRound> {
        let committed = ctx.pipeline.committed_epoch();
        // The commit log is listed before the shard logs: see the
        // ordering note.
        let commit = commit_files(data_dir)?;
        let mut files = VecDeque::from(data_files(data_dir)?);
        files.extend(commit);
        Ok(ReplRound {
            have: manifest.into_iter().collect(),
            committed,
            files,
            staged: 0,
            shipped_files: 0,
            shipped_bytes: 0,
        })
    }

    /// The round's next `Segment` frame, at most [`REPL_CHUNK`] bytes;
    /// `None` once everything has shipped.
    fn next_segment(&mut self) -> Option<Frame> {
        while let Some(f) = self.files.front() {
            let offset = self.have.get(&f.name).copied().unwrap_or(0) + self.staged;
            let want = f.len.saturating_sub(offset).min(REPL_CHUNK as u64) as usize;
            // A file that vanished since the listing (checkpoint GC) ends
            // its turn like a fully shipped one.
            match cobra_wal::read_chunk(&f.path, offset, want) {
                Ok(bytes) if !bytes.is_empty() => {
                    if self.staged == 0 {
                        self.shipped_files += 1;
                    }
                    self.staged += bytes.len() as u64;
                    self.shipped_bytes += bytes.len() as u64;
                    return Some(Frame::Segment {
                        name: f.name.clone(),
                        offset,
                        bytes,
                    });
                }
                _ => {
                    self.files.pop_front();
                    self.staged = 0;
                }
            }
        }
        None
    }
}

/// One reactor-managed connection.
struct Conn {
    stream: TcpStream,
    inbox: FrameBuf,
    outbox: Vec<u8>,
    /// Outbox bytes already written to the socket.
    sent: usize,
    mode: Mode,
    /// Interest currently registered with the poller.
    interest: Interest,
    /// Set while a frame is partially buffered and no frame has
    /// completed since — the idle-budget clock.
    partial_since: Option<Instant>,
    /// Set while the unflushed outbox backlog sits at or above
    /// [`OUTBOX_HIGH_WATER`] — the write-backpressure clock. A peer
    /// that leaves its responses unread past the idle budget is cut.
    backlogged_since: Option<Instant>,
    /// Set when the connection entered [`Mode::Draining`].
    draining_since: Option<Instant>,
    /// Read observed EOF or a socket error; close once the outbox is
    /// done (best effort).
    peer_gone: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            inbox: FrameBuf::new(),
            outbox: Vec::new(),
            sent: 0,
            mode: Mode::Request,
            interest: Interest::READ,
            partial_since: None,
            backlogged_since: None,
            draining_since: None,
            peer_gone: false,
        }
    }

    /// Staged response bytes not yet written to the socket.
    fn backlog(&self) -> usize {
        self.outbox.len() - self.sent
    }

    /// True while write backpressure pauses this connection: no reads,
    /// no dispatch, until the flush phase drains the outbox below the
    /// high-water mark.
    fn backlogged(&self) -> bool {
        self.backlog() >= OUTBOX_HIGH_WATER
    }

    /// True while incoming frames are read and dispatched: request mode,
    /// and a subscription still listening for its `UNSUBSCRIBE`. In
    /// every other mode buffered frames wait and the socket is not read,
    /// so the kernel buffer backpressures the peer.
    fn dispatching(&self) -> bool {
        match &self.mode {
            Mode::Request => true,
            Mode::Subscribed(push) => !push.unsubscribing,
            Mode::Parked { .. } | Mode::Replicating(_) | Mode::Draining => false,
        }
    }

    /// True when write backpressure has let go of buffered bytes that no
    /// drain has seen since: frames to dispatch, or a partial frame
    /// whose clock must re-arm. No readable event announces bytes
    /// already read. (A drain leaves a dispatching connection with no
    /// whole frame, and with its frame clock running iff bytes remain.)
    fn resumable(&self) -> bool {
        self.dispatching()
            && !self.backlogged()
            && self.inbox.pending() > 0
            && self.partial_since.is_none()
    }

    /// When the idle budget cuts this connection: the earliest running
    /// clock (frame, backlog or goodbye) plus the budget.
    fn deadline(&self, idle_budget: Duration) -> Option<Instant> {
        [
            self.partial_since,
            self.backlogged_since,
            self.draining_since,
        ]
        .into_iter()
        .flatten()
        .min()
        .map(|since| since + idle_budget)
    }

    /// True once `now` has reached the deadline: the budget sweep's test,
    /// and the instant `poll_timeout`'s wait for this connection ends.
    fn expired(&self, idle_budget: Duration, now: Instant) -> bool {
        self.deadline(idle_budget).is_some_and(|d| d <= now)
    }

    fn start_draining(&mut self) {
        self.mode = Mode::Draining;
        self.partial_since = None;
        if self.draining_since.is_none() {
            self.draining_since = Some(Instant::now());
        }
    }
}

/// How long shutdown's last flush waits for sockets to take the
/// goodbye bytes.
const FINAL_FLUSH: Duration = Duration::from_millis(50);

/// How long the reactor may wait in `Poller::wait` before its next
/// round: the one place that names every reason to run a round that no
/// socket event starts. `None` waits for an event; a publish (which
/// answers parked waiters and feeds subscribers) and a shutdown write
/// the wake socket.
fn poll_timeout(
    conns: &HashMap<u64, Conn>,
    idle_budget: Duration,
    now: Instant,
) -> Option<Duration> {
    let due = |c: &Conn| {
        // Work on the reactor's side of the socket: a replication round
        // or a held subscription with outbox room, or frames a drained
        // backlog left in the inbox.
        let streaming = match &c.mode {
            Mode::Replicating(_) => true,
            Mode::Subscribed(push) => push.held,
            _ => false,
        };
        if (streaming && !c.backlogged()) || c.resumable() {
            return Some(Duration::ZERO);
        }
        c.deadline(idle_budget)
            .map(|d| d.saturating_duration_since(now))
    };
    conns.values().filter_map(due).min()
}

/// Appends one encoded frame to an outbox.
fn stage(outbox: &mut Vec<u8>, frame: &Frame, scratch: &mut Vec<u8>) {
    protocol::encode(frame, scratch);
    outbox.extend_from_slice(scratch);
}

/// The reactor: every connection, one thread, no blocking socket I/O.
fn reactor_loop(
    ctx: &Arc<Ctx>,
    listener: &TcpListener,
    poller: &Poller,
    max_conns: usize,
    idle_budget: Duration,
) {
    let mut handle = ctx.pipeline.handle();
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token: u64 = 0;
    let mut events: Vec<Event> = Vec::new();
    let mut scratch = Vec::new();
    let mut timeout = None;
    loop {
        // A poller that fails cannot serve anything: leave through the
        // stop path below. (`EINTR` is not a failure.)
        let failed = poller.wait(&mut events, timeout).is_err();
        if events.iter().any(|e| e.token == WAKE_TOKEN) {
            drain_wake(&ctx.wake_rx);
        }
        let mut admitted = false;

        // 1. Unpark WAIT_EPOCH waiters first: frames pipelined behind
        // the wait are already buffered, and dispatching them now lets
        // their updates ride this round's settle.
        let visible = ctx.visible_epochs();
        let ready: Vec<(u64, Frame)> = conns
            .iter()
            .filter_map(|(t, c)| match c.mode {
                Mode::Parked { epoch } => Some((*t, wait_reply(epoch, visible, false)?)),
                _ => None,
            })
            .collect();
        for (token, reply) in ready {
            if let Some(conn) = conns.get_mut(&token) {
                stage(&mut conn.outbox, &reply, &mut scratch);
                conn.mode = Mode::Request;
                drain_inbox(ctx, &mut handle, conn, &mut admitted, &mut scratch);
            }
        }

        // 2. Accept round.
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if ctx.stopping() {
                        continue;
                    }
                    if conns.len() >= max_conns || stream.set_nonblocking(true).is_err() {
                        // Dropping the stream closes the socket (the
                        // refusal).
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = next_token;
                    next_token += 1;
                    if poller.register(&stream, token, Interest::READ).is_err() {
                        // Typed FdExhausted (or anything else): shed the
                        // connection, keep serving.
                        continue;
                    }
                    // ordering: Relaxed — stats counter.
                    ctx.counters.connections.fetch_add(1, Ordering::Relaxed);
                    conns.insert(token, Conn::new(stream));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break, // WouldBlock or transient accept failure
            }
        }

        // 3. Read phase: drain readable sockets into frame buffers and
        // dispatch every complete frame. Responses only reach the outbox
        // here — no socket write happens before the settle below.
        //
        // Connections whose write-backpressure pause ended (the flush
        // phase drained their outbox below the high-water mark) resume
        // first: the frames they buffered but could not answer ride this
        // round's settle. No readable event fires for them — the bytes
        // sit in the inbox, not the socket — so they need this sweep.
        let resumable: Vec<u64> = conns
            .iter()
            .filter(|(_, c)| c.resumable())
            .map(|(t, _)| *t)
            .collect();
        for token in resumable {
            if let Some(conn) = conns.get_mut(&token) {
                drain_inbox(ctx, &mut handle, conn, &mut admitted, &mut scratch);
            }
        }
        for event in events.iter().filter(|e| e.readable) {
            // The listener and wake tokens name no connection.
            let Some(conn) = conns.get_mut(&event.token) else {
                continue;
            };
            if !conn.interest.read {
                // Registered without read interest, a connection hears
                // only a hangup or a socket error (epoll reports both
                // whatever the mask, level-triggered): the peer can take
                // no reply, and the event would end every wait.
                if let Some(gone) = conns.remove(&event.token) {
                    let _ = poller.deregister(&gone.stream);
                }
                continue;
            }
            if !conn.dispatching() || conn.backlogged() {
                // Paused connections (parked, replicating, draining, or
                // under write backpressure: responses staged for the
                // peer are stuck above the high-water mark) stop
                // reading; the kernel buffer backpressures the peer.
                continue;
            }
            read_into_inbox(conn);
            drain_inbox(ctx, &mut handle, conn, &mut admitted, &mut scratch);
        }

        // 4. Stream phase: subscriptions stage what their hub queues
        // hold, replication rounds their next chunk. A stream that ends
        // here hands the connection back to request dispatch, so frames
        // pipelined behind it still ride this round's settle.
        for conn in conns.values_mut() {
            if pump_stream(ctx, conn, &mut scratch) {
                drain_inbox(ctx, &mut handle, conn, &mut admitted, &mut scratch);
            }
        }

        // 5. Settle: one flush of the round's coalesced updates into the
        // shard FIFOs. Every `Accepted`/`Busy` staged above only becomes
        // visible on the wire after this — the cross-connection seal
        // guarantee.
        if admitted {
            settle(&mut handle);
        }

        // 6. Flush phase: outbox writes with interest re-registration on
        // WouldBlock.
        let tokens: Vec<u64> = conns.keys().copied().collect();
        for token in tokens {
            let Some(mut conn) = conns.remove(&token) else {
                continue;
            };
            flush_outbox(&mut conn);
            let drained = conn.sent == conn.outbox.len();
            if (matches!(conn.mode, Mode::Draining) && drained)
                || (conn.peer_gone && drained && !conn.inbox.has_partial())
            {
                let _ = poller.deregister(&conn.stream);
                continue; // drop closes the socket
            }
            // Backpressure clock: runs while the unflushed backlog sits
            // at the high-water mark, stops the moment it drains below.
            // A gone peer needs no clock of its own: the flush above
            // abandoned its outbox.
            if conn.backlogged() {
                if conn.backlogged_since.is_none() {
                    conn.backlogged_since = Some(Instant::now());
                }
            } else {
                conn.backlogged_since = None;
            }
            let desired = Interest {
                read: conn.dispatching() && !conn.peer_gone && !conn.backlogged(),
                write: !drained,
            };
            if desired != conn.interest {
                if poller.modify(&conn.stream, token, desired).is_err() {
                    let _ = poller.deregister(&conn.stream);
                    continue;
                }
                conn.interest = desired;
            }
            conns.insert(token, conn);
        }

        // 7. Budget sweep: a connection mid-frame, mid-goodbye, or
        // sitting on an unread response backlog is cut loose once that
        // clock has run for the idle budget. Paused connections never
        // tick the partial clock: it is cleared on pause and re-arms on
        // resume.
        // The next poll times out at the nearest deadline this sweep
        // left, so the reactor never spins at one.
        let now = Instant::now();
        conns.retain(|_, c| {
            let expired = c.expired(idle_budget, now);
            if expired {
                let _ = poller.deregister(&c.stream);
            }
            !expired
        });
        timeout = poll_timeout(&conns, idle_budget, now);

        // 8. Stop check: answer or fail parked waiters, settle, flush
        // what the sockets will take, leave.
        if failed || ctx.stopping() {
            let visible = ctx.visible_epochs();
            for conn in conns.values_mut() {
                if let Mode::Parked { epoch } = conn.mode {
                    if let Some(reply) = wait_reply(epoch, visible, true) {
                        stage(&mut conn.outbox, &reply, &mut scratch);
                        conn.mode = Mode::Request;
                    }
                }
            }
            settle(&mut handle);
            // Best-effort final flush, bounded: the kernel buffers
            // almost always take the goodbye bytes immediately. Only
            // writability may end the waits below, so the listener, the
            // wake socket and every read interest leave the poller; a
            // connection closes once its outbox is out or its peer gone.
            let _ = poller.deregister(listener);
            let _ = poller.deregister(&ctx.wake_rx);
            let deadline = Instant::now() + FINAL_FLUSH;
            loop {
                conns.retain(|&token, c| {
                    flush_outbox(c);
                    let pending = !c.peer_gone && c.sent < c.outbox.len();
                    pending && poller.modify(&c.stream, token, Interest::WRITE).is_ok()
                });
                let now = Instant::now();
                if conns.is_empty()
                    || now >= deadline
                    || poller.wait(&mut events, Some(deadline - now)).is_err()
                {
                    break;
                }
            }
            let _ = handle.flush();
            return; // dropping `conns` closes every socket
        }
    }
}

/// Reads straight into the inbox until `WouldBlock`, EOF, or the
/// per-round cap.
fn read_into_inbox(conn: &mut Conn) {
    let mut total = 0usize;
    loop {
        match conn.inbox.read_from(&mut conn.stream) {
            Ok(0) => {
                conn.peer_gone = true;
                return;
            }
            Ok(n) => {
                total += n;
                if total >= ROUND_READ_CAP {
                    return;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(_) => {
                conn.peer_gone = true;
                return;
            }
        }
    }
}

/// Dispatches every complete frame buffered on `conn` for as long as its
/// mode takes frames, maintaining the idle-budget clock (reset on
/// progress, armed while a frame is partial).
fn drain_inbox(
    ctx: &Ctx,
    handle: &mut IngestHandle<u64>,
    conn: &mut Conn,
    admitted: &mut bool,
    scratch: &mut Vec<u8>,
) {
    let mut extracted = 0usize;
    // The inbox is lent out for the loop, so an UPDATE's records stay
    // borrowed from it while `dispatch` holds the connection.
    let mut inbox = std::mem::take(&mut conn.inbox);
    // Write backpressure stops dispatch too: once this connection's
    // staged responses exceed the high-water mark, buffered frames keep
    // (bounded) and are picked up by the resume sweep once the outbox
    // drains. So does any mode that makes later frames wait.
    while conn.dispatching() && !conn.backlogged() {
        match inbox.next_incoming() {
            Ok(Some(request)) => {
                extracted += 1;
                // ordering: Relaxed — stats counter.
                ctx.counters.frames.fetch_add(1, Ordering::Relaxed);
                dispatch(ctx, handle, conn, request, admitted, scratch);
            }
            Ok(None) => break,
            Err(e) => {
                // Framing is lost; tell the client why, then hang up.
                stage(
                    &mut conn.outbox,
                    &Frame::Error {
                        code: ErrorCode::Malformed,
                        detail: e.to_string(),
                    },
                    scratch,
                );
                conn.start_draining();
            }
        }
    }
    conn.inbox = inbox;
    if !conn.dispatching() || conn.backlogged() {
        // Paused: the buffered bytes sit by the reactor's choice, not
        // the peer's dribble (and a paused connection stops reading, so
        // a pipelined partial frame cannot complete). The frame clock
        // pauses — the backpressure clock governs a backlog — and
        // re-arms when dispatch resumes.
        conn.partial_since = None;
    } else if conn.inbox.has_partial() {
        // Progress (a completed frame) restarts the clock; a frame
        // that dribbles without ever completing does not.
        if extracted > 0 || conn.partial_since.is_none() {
            conn.partial_since = Some(Instant::now());
        }
        if conn.peer_gone {
            // EOF mid-frame: the peer can never complete it.
            stage(
                &mut conn.outbox,
                &Frame::Error {
                    code: ErrorCode::Malformed,
                    detail: WireError::Truncated.to_string(),
                },
                scratch,
            );
            conn.start_draining();
        }
    } else {
        conn.partial_since = None;
    }
}

/// One frame's worth of policy: stages the response and moves the
/// connection between modes. Pure dispatch — no socket I/O.
fn dispatch(
    ctx: &Ctx,
    handle: &mut IngestHandle<u64>,
    conn: &mut Conn,
    request: Incoming<'_>,
    admitted: &mut bool,
    scratch: &mut Vec<u8>,
) {
    if let Mode::Subscribed(push) = &mut conn.mode {
        if matches!(&request, Incoming::Frame(f) if matches!(**f, Frame::Unsubscribe)) {
            // Closes the hub queue; the stream phase stages what is
            // still queued, then the acknowledgement.
            push.hub.unsubscribe(push.sub.id());
            push.unsubscribing = true;
        } else {
            // Any other request mid-subscription would interleave its
            // response with the pushes; refuse and hang up.
            stage(
                &mut conn.outbox,
                &Frame::Error {
                    code: ErrorCode::Malformed,
                    detail: "only UNSUBSCRIBE is valid while subscribed".to_string(),
                },
                scratch,
            );
            conn.start_draining();
        }
        return;
    }
    let frame = match request {
        Incoming::Update(records) => {
            *admitted = true;
            stage(&mut conn.outbox, &admit(ctx, handle, records), scratch);
            return;
        }
        Incoming::Frame(frame) => *frame,
    };
    let response = match frame {
        Frame::Update(tuples) => {
            *admitted = true;
            admit(ctx, handle, tuples)
        }
        Frame::Seal => match handle.seal_epoch() {
            Ok(epoch) => Frame::Sealed { epoch },
            Err(_) => Frame::Error {
                code: ErrorCode::ShuttingDown,
                detail: "pipeline closed".to_string(),
            },
        },
        Frame::Query { key } => {
            // ordering: Relaxed — stats counter.
            ctx.counters.queries.fetch_add(1, Ordering::Relaxed);
            handle_query(ctx, key)
        }
        Frame::Snapshot { epoch, lo, hi } => handle_snapshot(ctx, epoch, lo, hi),
        Frame::QueryAt { epoch, key } => {
            // ordering: Relaxed — stats counter.
            ctx.counters.queries.fetch_add(1, Ordering::Relaxed);
            handle_query_at(ctx, epoch, key)
        }
        Frame::Diff {
            from_epoch,
            to_epoch,
            lo,
            hi,
        } => handle_diff(ctx, from_epoch, to_epoch, lo, hi),
        Frame::Unsubscribe => Frame::Error {
            code: ErrorCode::Malformed,
            detail: "UNSUBSCRIBE without an active subscription".to_string(),
        },
        Frame::Stats => Frame::StatsReport(ctx.wire_stats()),
        Frame::WaitEpoch { epoch } => {
            match wait_reply(epoch, ctx.visible_epochs(), ctx.stopping()) {
                Some(reply) => reply,
                None => {
                    conn.mode = Mode::Parked { epoch };
                    return;
                }
            }
        }
        Frame::Ack { epoch, bytes: _ } => {
            // ordering: Relaxed — audited: monotonic high-water mark of
            // follower acknowledgements, read only by stats; replication
            // correctness never depends on it.
            ctx.counters
                .repl_acked_epoch
                .fetch_max(epoch, Ordering::Relaxed); // ordering: stats high-water
            Frame::EpochCommitted {
                epoch: ctx.pipeline.committed_epoch(),
            }
        }
        Frame::Replicate { manifest } => match &ctx.data_dir {
            None => Frame::Error {
                code: ErrorCode::NotDurable,
                detail: "server has no data directory; nothing to replicate".to_string(),
            },
            Some(data_dir) => match ReplRound::begin(ctx, data_dir, manifest) {
                Ok(round) => {
                    conn.mode = Mode::Replicating(Box::new(round));
                    return;
                }
                Err(e) => Frame::Error {
                    code: ErrorCode::Internal,
                    detail: format!("replication listing failed: {e}"),
                },
            },
        },
        Frame::Subscribe { lo, hi } => {
            if lo >= hi || hi > ctx.num_keys {
                Frame::Error {
                    code: ErrorCode::BadRange,
                    detail: format!(
                        "subscribe range {lo}..{hi} invalid (num_keys {})",
                        ctx.num_keys
                    ),
                }
            } else {
                // Register BEFORE reading the baseline: an epoch
                // published between the two is then either enqueued for
                // us or already part of the baseline (the hook admits to
                // the store before fanning out) — never silently missed.
                // Staging drops queued epochs <= baseline.
                let sub = ctx.hub.subscribe(lo, hi, ctx.sub_queue_epochs);
                let baseline = match ctx.store.latest() {
                    Some(snap) => snap.epoch(),
                    None => ctx.pipeline.published_epoch(),
                };
                conn.mode = Mode::Subscribed(Push {
                    sub,
                    hub: Arc::clone(&ctx.hub),
                    prev: baseline,
                    cursor: None,
                    unsubscribing: false,
                    held: false,
                });
                Frame::Subscribed { epoch: baseline }
            }
        }
        // A client sending response-kind frames is confused; refuse
        // politely instead of guessing.
        _ => Frame::Error {
            code: ErrorCode::Malformed,
            detail: "response-kind frame sent as a request".to_string(),
        },
    };
    stage(&mut conn.outbox, &response, scratch);
}

/// The reply to `WAIT_EPOCH { epoch }` given `(published, committed)`
/// from [`Ctx::visible_epochs`]: `EpochCommitted` carrying the committed
/// epoch once both cover `epoch`, else a `ShuttingDown` error if the
/// server is `stopping`, else `None` (the wait goes on).
fn wait_reply(epoch: u64, (published, committed): (u64, u64), stopping: bool) -> Option<Frame> {
    if published >= epoch && committed >= epoch {
        Some(Frame::EpochCommitted { epoch: committed })
    } else if stopping {
        Some(Frame::Error {
            code: ErrorCode::ShuttingDown,
            detail: format!("stopped while waiting for epoch {epoch} (at {published})"),
        })
    } else {
        None
    }
}

/// Advances a subscribed or replicating connection by one round's worth
/// of staging (nothing while the outbox sits at the high-water mark).
/// Returns true when the stream ended and the connection is back in
/// request mode, so the caller resumes dispatching its buffered frames.
fn pump_stream(ctx: &Ctx, conn: &mut Conn, scratch: &mut Vec<u8>) -> bool {
    if !matches!(conn.mode, Mode::Subscribed(_) | Mode::Replicating(_)) {
        return false;
    }
    if conn.peer_gone {
        // Nobody left to stream to: drop the subscription or the round.
        conn.start_draining();
        return false;
    }
    let backlogged = conn.backlogged();
    let done = match &mut conn.mode {
        // Skipped at the mark too, so that `held` records the skip.
        Mode::Subscribed(push) => {
            if !push.stage_queued(&mut conn.outbox, conn.sent, scratch) {
                return false;
            }
            if !push.unsubscribing {
                // The hub closed the queue (shutdown): everything queued
                // is staged; close cleanly once it has flushed.
                conn.start_draining();
                return false;
            }
            Frame::Unsubscribed {
                epoch: ctx.pipeline.published_epoch(),
            }
        }
        Mode::Replicating(_) if backlogged => return false,
        Mode::Replicating(round) => {
            if let Some(segment) = round.next_segment() {
                stage(&mut conn.outbox, &segment, scratch);
                return false;
            }
            // ordering: Relaxed — stats counters.
            ctx.counters.repl_rounds.fetch_add(1, Ordering::Relaxed);
            ctx.counters
                .repl_bytes_shipped
                .fetch_add(round.shipped_bytes, Ordering::Relaxed); // ordering: stats counter
            Frame::ReplDone {
                epoch: round.committed,
                files: round.shipped_files,
                bytes: round.shipped_bytes,
            }
        }
        _ => return false,
    };
    stage(&mut conn.outbox, &done, scratch);
    conn.mode = Mode::Request;
    true
}

/// Writes as much outbox as the socket will take right now. A fatal
/// write error marks the peer gone and abandons the outbox.
fn flush_outbox(conn: &mut Conn) {
    while conn.sent < conn.outbox.len() {
        match conn.stream.write(&conn.outbox[conn.sent..]) {
            Ok(0) => {
                conn.peer_gone = true;
                break;
            }
            Ok(n) => conn.sent += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(_) => {
                conn.peer_gone = true;
                break;
            }
        }
    }
    if conn.peer_gone || conn.sent == conn.outbox.len() {
        conn.outbox.clear();
        conn.sent = 0;
    } else if conn.sent > 0 && conn.sent * 2 >= conn.outbox.len() {
        // Compact once the cursor passes the halfway mark so a slowly
        // draining outbox does not grow without bound.
        conn.outbox.drain(..conn.sent);
        conn.sent = 0;
    }
}

/// Pushes everything the handle still buffers into the shard FIFOs.
///
/// Acknowledged tuples must be visible to a `SEAL` arriving on *any*
/// connection — the cluster router seals over its own connection after
/// other clients' updates were acknowledged — so no response that counts
/// tuples as taken may leave for a socket before this settles. This is
/// the one place the reactor waits on the pipeline (on a full FIFO's
/// `not_full` condvar, counted in `send_blocks`/`send_stall_nanos`), and
/// the wait is bounded: the shard workers drain the FIFOs continuously
/// (and the shutdown drain empties them even mid-stop).
fn settle(handle: &mut IngestHandle<u64>) {
    // Closed: the pipeline drain owns whatever was shipped; nothing left
    // to settle.
    let _ = handle.flush();
}

/// Admits one `UPDATE` batch — records borrowed from the inbox or a
/// decoded frame's tuples — into the handle's coalescing buffers in one
/// run and names the response. The caller owns the settle: the reactor
/// settles once per round.
fn admit<I>(ctx: &Ctx, handle: &mut IngestHandle<u64>, tuples: I) -> Frame
where
    I: IntoIterator<Item = (u32, u64)>,
    I::IntoIter: ExactSizeIterator,
{
    let tuples = tuples.into_iter();
    let len = tuples.len();
    let (accepted, result) = handle.try_send_all(tuples);
    // At most `MAX_UPDATE_TUPLES`, so it fits the wire's `u32`.
    let accepted = accepted as u32;
    match result {
        Ok(()) => Frame::Accepted { accepted },
        Err(TryIngestError::Busy) => {
            let refused = (len - accepted as usize) as u64;
            ctx.counters
                .busy_tuples
                .fetch_add(refused, Ordering::Relaxed); // ordering: stats counter
            Frame::Busy { accepted }
        }
        // One malformed key must not kill the reactor nor silently drop
        // the batch's remainder.
        Err(TryIngestError::KeyOutOfRange(key)) => Frame::Error {
            code: ErrorCode::KeyOutOfRange,
            detail: format!(
                "key {key} >= {} (first {accepted} tuples of the batch were accepted)",
                ctx.num_keys
            ),
        },
        Err(TryIngestError::Closed) => Frame::Error {
            code: ErrorCode::ShuttingDown,
            detail: format!("pipeline closed after {accepted} tuples"),
        },
    }
}

/// The `KeyOutOfRange` refusal for a point read past the key space.
fn key_out_of_range(ctx: &Ctx, key: u32) -> Option<Frame> {
    (key >= ctx.num_keys).then(|| Frame::Error {
        code: ErrorCode::KeyOutOfRange,
        detail: format!("key {key} >= {}", ctx.num_keys),
    })
}

/// QUERY: served from the S3-FIFO cache of `(epoch, block)` snapshot
/// slices; a miss materializes the block from the latest published
/// snapshot (never from the pipeline's live accumulators).
fn handle_query(ctx: &Ctx, key: u32) -> Frame {
    if let Some(refusal) = key_out_of_range(ctx, key) {
        return refusal;
    }
    // The snapshot resolves lazily: a hit answers without even taking
    // the snapshot publish lock. A stale epoch hint just misses.
    let epoch = ctx.pipeline.published_epoch();
    cached_value(ctx, epoch, key, || ctx.pipeline.snapshot())
}

/// QUERY_AT: time travel. Resolves the epoch against the retention
/// window, then serves through the same `(epoch, block)` cache as QUERY —
/// the cache key already carries the epoch, so retained epochs coexist
/// with the latest without any invalidation.
fn handle_query_at(ctx: &Ctx, epoch: u64, key: u32) -> Frame {
    if let Some(refusal) = key_out_of_range(ctx, key) {
        return refusal;
    }
    match resolve_epoch(ctx, epoch) {
        Ok(snap) => cached_value(ctx, snap.epoch(), key, || snap),
        Err(frame) => *frame,
    }
}

/// The point-read path behind QUERY and QUERY_AT: answers `key` from the
/// cached `(epoch, block)` slice, filling the block from `snap()` on a
/// miss. Blocks are segment-aligned because a block *is* a snapshot
/// segment (`block_keys` is the pipeline's segment size), so the fill
/// shares the segment's copy-on-write `Arc` — no value copied.
fn cached_value(
    ctx: &Ctx,
    epoch: u64,
    key: u32,
    snap: impl FnOnce() -> Arc<EpochSnapshot<u64>>,
) -> Frame {
    let block = key / ctx.block_keys;
    let lo = block * ctx.block_keys;
    if let Some(slice) = ctx.cache.get(&(epoch, block)) {
        if let Some(&value) = slice.get((key - lo) as usize) {
            return Frame::Value { epoch, value };
        }
    }
    let snap = snap();
    let epoch = snap.epoch();
    let slice = Arc::clone(snap.segment(block as usize));
    let value = slice.get((key - lo) as usize).copied();
    ctx.cache.insert((epoch, block), slice);
    match value {
        Some(value) => Frame::Value { epoch, value },
        None => Frame::Error {
            code: ErrorCode::KeyOutOfRange,
            detail: format!("key {key} outside materialized block"),
        },
    }
}

/// Maps a wire epoch (0 = latest) to a readable snapshot. Epochs newer
/// than the published head keep the pre-MVCC `SnapshotUnavailable` code
/// ("not yet published"); epochs below the retention window earn the
/// typed `EpochEvicted`, whose detail names the retained bounds so the
/// client can pick a retrievable epoch.
fn resolve_epoch(ctx: &Ctx, epoch: u64) -> Result<Arc<EpochSnapshot<u64>>, Box<Frame>> {
    let latest = ctx.pipeline.snapshot();
    if epoch == 0 || latest.epoch() == epoch {
        return Ok(latest);
    }
    match ctx.store.get(epoch) {
        Ok(snap) => Ok(snap),
        Err(e) => {
            let code = if epoch > latest.epoch() {
                ErrorCode::SnapshotUnavailable
            } else {
                ErrorCode::EpochEvicted
            };
            Err(Box::new(Frame::Error {
                code,
                detail: e.to_string(),
            }))
        }
    }
}

/// DIFF: changed keys in `lo..hi` between two retained epochs, computed
/// by segment identity (shared COW segments are skipped without a scan).
/// The reply is a single `Delta` frame — the range cap
/// ([`MAX_SNAPSHOT_KEYS`]) keeps the entry count within
/// [`MAX_DELTA_ENTRIES`](crate::protocol::MAX_DELTA_ENTRIES).
fn handle_diff(ctx: &Ctx, from_epoch: u64, to_epoch: u64, lo: u32, hi: u32) -> Frame {
    if lo >= hi || hi > ctx.num_keys || hi - lo > MAX_SNAPSHOT_KEYS {
        return Frame::Error {
            code: ErrorCode::BadRange,
            detail: format!(
                "range {lo}..{hi} invalid (num_keys {}, max slice {MAX_SNAPSHOT_KEYS})",
                ctx.num_keys
            ),
        };
    }
    let from = match resolve_epoch(ctx, from_epoch) {
        Ok(snap) => snap,
        Err(frame) => return *frame,
    };
    let to = match resolve_epoch(ctx, to_epoch) {
        Ok(snap) => snap,
        Err(frame) => return *frame,
    };
    Frame::Delta {
        from_epoch: from.epoch(),
        to_epoch: to.epoch(),
        done: true,
        entries: diff_range(&from, &to, lo, hi),
    }
}

/// SNAPSHOT: a `[lo, hi)` slice of a retained epoch's values.
fn handle_snapshot(ctx: &Ctx, epoch: u64, lo: u32, hi: u32) -> Frame {
    if lo >= hi || hi > ctx.num_keys || hi - lo > MAX_SNAPSHOT_KEYS {
        return Frame::Error {
            code: ErrorCode::BadRange,
            detail: format!(
                "range {lo}..{hi} invalid (num_keys {}, max slice {MAX_SNAPSHOT_KEYS})",
                ctx.num_keys
            ),
        };
    }
    let snap = match resolve_epoch(ctx, epoch) {
        Ok(snap) => snap,
        Err(frame) => return *frame,
    };
    if hi > snap.num_keys() {
        return Frame::Error {
            code: ErrorCode::BadRange,
            detail: format!("range {lo}..{hi} outside the snapshot"),
        };
    }
    // The wire copy is inherent here — the slice is serialized anyway.
    Frame::SnapshotSlice {
        epoch: snap.epoch(),
        lo,
        values: (lo..hi).map(|k| *snap.get(k)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_ctx(num_keys: u32) -> Ctx {
        let pipeline = IngestPipeline::new(num_keys, SumU64, StreamConfig::new().shards(2));
        let block_keys = pipeline.snapshot().segment_keys();
        let (wake_tx, wake_rx) = UnixStream::pair().expect("socket pair");
        Ctx {
            pipeline,
            cache: S3FifoCache::new(16),
            counters: ServeCounters::default(),
            stop: AtomicBool::new(false),
            num_keys,
            block_keys,
            data_dir: None,
            store: Arc::new(EpochStore::new(RetentionConfig::new())),
            hub: Arc::new(DeltaHub::new()),
            sub_queue_epochs: 16,
            wake_tx,
            wake_rx,
        }
    }

    /// A connection over a loopback socket. The wait reads only the
    /// connection's state, so nothing is ever sent on it.
    fn test_conn() -> Conn {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        Conn::new(TcpStream::connect(addr).expect("connect"))
    }

    fn wait_for(conn: Conn, now: Instant) -> Option<Duration> {
        poll_timeout(&HashMap::from([(0, conn)]), BUDGET, now)
    }

    const BUDGET: Duration = Duration::from_millis(300);

    #[test]
    fn the_wait_is_unbounded_with_no_clock_running() {
        assert_eq!(poll_timeout(&HashMap::new(), BUDGET, Instant::now()), None);
        // An idle request connection: only its socket can start a round.
        assert_eq!(wait_for(test_conn(), Instant::now()), None);
    }

    #[test]
    fn a_parked_waiter_adds_no_timeout() {
        // The publish that makes its epoch visible writes the wake socket.
        let mut conn = test_conn();
        conn.mode = Mode::Parked { epoch: 1 };
        assert_eq!(wait_for(conn, Instant::now()), None);
    }

    #[test]
    fn wait_epoch_answers_once_its_epoch_is_committed_and_published() {
        // Published but not committed (a durable sink behind), and
        // committed but not yet published: both wait.
        assert_eq!(wait_reply(3, (3, 2), false), None);
        assert_eq!(wait_reply(3, (2, 3), false), None);
        assert_eq!(
            wait_reply(3, (3, 4), false),
            Some(Frame::EpochCommitted { epoch: 4 })
        );
        assert!(matches!(
            wait_reply(3, (2, 3), true),
            Some(Frame::Error {
                code: ErrorCode::ShuttingDown,
                ..
            })
        ));
    }

    #[test]
    fn a_replication_round_with_outbox_room_does_not_wait() {
        let round = || ReplRound {
            have: HashMap::new(),
            committed: 0,
            files: VecDeque::new(),
            staged: 0,
            shipped_files: 0,
            shipped_bytes: 0,
        };
        let mut conn = test_conn();
        conn.mode = Mode::Replicating(Box::new(round()));
        assert_eq!(wait_for(conn, Instant::now()), Some(Duration::ZERO));
        // At the mark the round waits for writability, a socket event.
        let mut conn = test_conn();
        conn.mode = Mode::Replicating(Box::new(round()));
        conn.outbox = vec![0; OUTBOX_HIGH_WATER];
        assert_eq!(wait_for(conn, Instant::now()), None);
    }

    #[test]
    fn a_pump_held_at_the_high_water_mark_does_not_wait_once_the_outbox_drains() {
        let hub = Arc::new(DeltaHub::new());
        let mut conn = test_conn();
        let mut push = Push {
            sub: hub.subscribe(0, 16, 4),
            hub: Arc::clone(&hub),
            prev: 0,
            cursor: None,
            unsubscribing: false,
            held: false,
        };
        hub.fan_out(1, vec![(3, 30)]);
        // The outbox sits at the mark: the pump stages nothing and holds.
        let mut scratch = Vec::new();
        conn.outbox = vec![0; OUTBOX_HIGH_WATER];
        assert!(!push.stage_queued(&mut conn.outbox, 0, &mut scratch));
        assert!(push.held);
        conn.mode = Mode::Subscribed(push);
        let mut conns = HashMap::from([(0, conn)]);
        assert_eq!(poll_timeout(&conns, BUDGET, Instant::now()), None);
        // A flush takes the whole outbox; no event says the delta waits.
        let conn = conns.get_mut(&0).expect("conn");
        conn.outbox.clear();
        assert_eq!(
            poll_timeout(&conns, BUDGET, Instant::now()),
            Some(Duration::ZERO)
        );
        // The next pump stages the delta and sees the queue empty.
        let conn = conns.get_mut(&0).expect("conn");
        let Mode::Subscribed(push) = &mut conn.mode else {
            unreachable!()
        };
        assert!(!push.stage_queued(&mut conn.outbox, 0, &mut scratch));
        assert!(!push.held);
        conn.outbox.clear();
        assert_eq!(poll_timeout(&conns, BUDGET, Instant::now()), None);
    }

    #[test]
    fn an_inbox_left_waiting_by_backpressure_does_not_wait() {
        let mut wire = Vec::new();
        protocol::encode(&Frame::Query { key: 1 }, &mut wire);
        let mut conn = test_conn();
        conn.inbox
            .read_from(&mut wire.as_slice())
            .expect("a slice reads");
        // Paused at the mark, the frame waits for writability.
        conn.outbox = vec![0; OUTBOX_HIGH_WATER];
        let mut conns = HashMap::from([(0, conn)]);
        assert_eq!(poll_timeout(&conns, BUDGET, Instant::now()), None);
        // The flush drained it: the resume sweep must run at once.
        let conn = conns.get_mut(&0).expect("conn");
        conn.outbox.clear();
        assert!(conn.resumable());
        assert_eq!(
            poll_timeout(&conns, BUDGET, Instant::now()),
            Some(Duration::ZERO)
        );
    }

    #[test]
    fn a_half_arrived_frame_is_due_at_its_idle_budget() {
        let mut conn = test_conn();
        conn.inbox
            .read_from(&mut [5u8, 0, 0].as_slice())
            .expect("a slice reads");
        let t = Instant::now();
        conn.partial_since = Some(t);
        let step = Duration::from_millis(40);
        assert!(!conn.expired(BUDGET, t + BUDGET - step));
        assert!(conn.expired(BUDGET, t + BUDGET));
        let mut conns = HashMap::from([(0, conn)]);
        assert_eq!(poll_timeout(&conns, BUDGET, t + step), Some(BUDGET - step));
        // The wait's end is the sweep's cut: no round spins short of it.
        assert_eq!(poll_timeout(&conns, BUDGET, t + BUDGET - step), Some(step));
        // The nearest of several clocks decides.
        let conn = conns.get_mut(&0).expect("conn");
        conn.backlogged_since = Some(t + step);
        conn.draining_since = Some(t - step);
        assert_eq!(poll_timeout(&conns, BUDGET, t), Some(BUDGET - step));
    }

    #[test]
    fn sum_u64_fused_pair_applies_like_its_two_halves() {
        // The law cobra-check's oracle probes (it cannot link this crate).
        for (acc, a, b) in [(0, 1, 2), (7, u64::MAX, 3), (u64::MAX, u64::MAX, 1 << 63)] {
            let mut fused = a;
            assert!(SumU64.fuse_values(&mut fused, &b));
            let (mut once, mut twice) = (acc, acc);
            SumU64.apply(&mut once, &fused);
            SumU64.apply(&mut twice, &a);
            SumU64.apply(&mut twice, &b);
            assert_eq!(once, twice, "acc {acc}, pair ({a}, {b})");
        }
    }

    #[test]
    fn query_miss_fills_cache_with_the_snapshot_segment_zero_copy() {
        let ctx = test_ctx(4096);
        let mut h = ctx.pipeline.handle();
        for k in 0..4096u32 {
            h.send(k, u64::from(k)).unwrap();
        }
        h.seal_epoch().unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while ctx.pipeline.published_epoch() < 1 {
            assert!(Instant::now() < deadline, "epoch never published");
            std::thread::yield_now();
        }

        // Miss path: the fill must share the snapshot's segment Arc, not
        // copy the block's values.
        let key = 1000u32;
        let block = key / ctx.block_keys;
        assert!(block > 0, "the key lies past the first block");
        let Frame::Value { epoch, value } = handle_query(&ctx, key) else {
            panic!("expected a value response");
        };
        assert_eq!((epoch, value), (1, 1000));
        let snap = ctx.pipeline.snapshot();
        let cached = ctx
            .cache
            .get(&(1, block))
            .expect("block cached by the miss");
        assert!(
            Arc::ptr_eq(&cached, snap.segment(block as usize)),
            "cache fill must alias the snapshot segment"
        );

        // Hit path returns the same shared slice.
        let other = block * ctx.block_keys + 1;
        let Frame::Value { value, .. } = handle_query(&ctx, other) else {
            panic!("expected a value response");
        };
        assert_eq!(value, u64::from(other));
        // Two hits: the test's own aliasing check above plus this query.
        assert_eq!(ctx.cache.stats().hits, 2);
        drop(h);
        ctx.pipeline.shutdown();
    }
}
