//! The length-prefixed binary wire protocol.
//!
//! Every frame is `[u32 LE length][u8 version][u8 opcode][payload]`; the
//! length covers the version byte, the opcode byte and the payload.
//! Integers are little-endian throughout. The protocol is deliberately
//! tiny and every decoder is total: truncated payloads, oversized
//! lengths, version mismatches and unknown opcodes come back as
//! [`WireError`]s, never panics, because frames arrive from untrusted
//! clients.
//!
//! The version byte is the cluster handshake: a node built against a
//! different protocol revision fails its very first frame with
//! [`WireError::VersionMismatch`] instead of desyncing mid-stream, which
//! matters once frames are exchanged between independently deployed
//! `cobra-served` processes.
//!
//! ```text
//! requests                         responses
//! ----------------------------     ---------------------------------
//! Update { (key, value)… }    ───▶ Accepted { accepted } | Busy { accepted }
//! Seal                        ───▶ Sealed { epoch }
//! Query { key }               ───▶ Value { epoch, value } | Error
//! Snapshot { epoch, lo, hi }  ───▶ SnapshotSlice { epoch, lo, values } | Error
//! Stats                       ───▶ StatsReport { … }
//! WaitEpoch { epoch }         ───▶ EpochCommitted { epoch } | Error
//! Replicate { manifest… }     ───▶ Segment { … }* ReplDone { … } | Error
//! Ack { epoch, bytes }        ───▶ EpochCommitted { epoch }
//! QueryAt { epoch, key }      ───▶ Value { epoch, value } | Error
//! Diff { e1, e2, lo, hi }     ───▶ Delta { … } | Error
//! Subscribe { lo, hi }        ───▶ Subscribed { epoch } then Delta/Lagged pushes
//! Unsubscribe                 ───▶ Unsubscribed { epoch }
//! ```
//!
//! `Busy { accepted }` is the admission-control refusal: the first
//! `accepted` tuples of the batch were taken, the rest were not — resend
//! exactly the remainder. Nothing is ever dropped silently or duplicated.
//!
//! `Replicate` is the one request answered by *multiple* frames: a
//! follower sends its manifest (the files it already holds and their
//! lengths) and the primary streams back the missing byte ranges as
//! `Segment` frames, terminated by a single `ReplDone`. See the server's
//! replication handler for the shard-logs-before-commit-log ordering that
//! keeps a shipped directory recoverable at every prefix.

use std::io::{self, Read, Write};

/// Wire protocol revision. Bumped whenever the frame grammar changes
/// (revision 2 added the version byte itself plus the cluster frames:
/// `WaitEpoch`/`EpochCommitted`, `Replicate`/`Segment`/`ReplDone`, `Ack`;
/// revision 3 added the MVCC frames: `QueryAt`, `Diff`,
/// `Subscribe`/`Subscribed`, `Unsubscribe`/`Unsubscribed`, `Delta`,
/// `Lagged`, plus the `EpochEvicted` error code and four retention
/// fields in `StatsReport`; revision 4 added the three reducer-fusion
/// fields in `StatsReport`: `fusion_hits`, `fusion_flushes`,
/// `fused_ratio_bp`).
pub const PROTOCOL_VERSION: u8 = 4;

/// Default ceiling on one frame's length field. Requests are small; the
/// largest legitimate frames are snapshot-slice responses, bounded by
/// [`MAX_SNAPSHOT_KEYS`] values, and replication segments, bounded by
/// [`REPL_CHUNK`] bytes.
pub const MAX_FRAME: usize = 1 << 20;

/// Most keys one `Snapshot` request may ask for (keeps every response
/// frame under [`MAX_FRAME`]).
pub const MAX_SNAPSHOT_KEYS: u32 = 65_536;

/// Largest tuple count one `Update` frame may carry.
pub const MAX_UPDATE_TUPLES: u32 = 65_536;

/// Largest byte payload one `Segment` frame may carry (a quarter of
/// [`MAX_FRAME`], leaving room for the file name and headers).
pub const REPL_CHUNK: usize = 256 << 10;

/// Most files one `Replicate` manifest may list (shard logs rotate, but a
/// follower tracking a live primary holds a few files per shard).
pub const MAX_MANIFEST_FILES: u32 = 16_384;

/// Longest directory-relative file name in a manifest or `Segment` frame.
pub const MAX_FILE_NAME: usize = 256;

/// Largest `(key, value)` entry count one `Delta` frame may carry (keeps
/// the frame under [`MAX_FRAME`]); larger per-epoch deltas are chunked
/// into several `Delta` frames, the last one flagged `done`. `Diff`
/// requests bound their key range by [`MAX_SNAPSHOT_KEYS`], so a diff
/// reply always fits one frame.
pub const MAX_DELTA_ENTRIES: u32 = 65_536;

/// Raw opcode bytes (request kinds in `0x01..=0x7F`, response kinds
/// with the high bit set) — public so raw-socket tooling and tests can
/// speak the protocol without going through [`Frame`].
pub mod opcodes {
    #![allow(missing_docs)]
    pub const UPDATE: u8 = 0x01;
    pub const SEAL: u8 = 0x02;
    pub const QUERY: u8 = 0x03;
    pub const SNAPSHOT: u8 = 0x04;
    pub const STATS: u8 = 0x05;
    pub const WAIT_EPOCH: u8 = 0x06;
    pub const REPLICATE: u8 = 0x07;
    pub const ACK: u8 = 0x08;
    pub const QUERY_AT: u8 = 0x09;
    pub const DIFF: u8 = 0x0A;
    pub const SUBSCRIBE: u8 = 0x0B;
    pub const UNSUBSCRIBE: u8 = 0x0C;
    pub const ACCEPTED: u8 = 0x81;
    pub const BUSY: u8 = 0x82;
    pub const SEALED: u8 = 0x83;
    pub const VALUE: u8 = 0x84;
    pub const SNAPSHOT_SLICE: u8 = 0x85;
    pub const STATS_REPORT: u8 = 0x86;
    pub const EPOCH_COMMITTED: u8 = 0x87;
    pub const SEGMENT: u8 = 0x88;
    pub const REPL_DONE: u8 = 0x89;
    pub const DELTA: u8 = 0x8A;
    pub const LAGGED: u8 = 0x8B;
    pub const SUBSCRIBED: u8 = 0x8C;
    pub const UNSUBSCRIBED: u8 = 0x8D;
    pub const ERROR: u8 = 0x8F;
}

use opcodes as op;

/// Machine-readable error category carried by [`Frame::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The requested key is `>= num_keys`.
    KeyOutOfRange = 1,
    /// A snapshot range with `lo >= hi`, `hi > num_keys`, or more than
    /// [`MAX_SNAPSHOT_KEYS`] keys.
    BadRange = 2,
    /// The requested epoch is not the currently published one (only the
    /// latest snapshot is retained).
    SnapshotUnavailable = 3,
    /// The request frame failed to decode.
    Malformed = 4,
    /// The server is draining and no longer accepts this request.
    ShuttingDown = 5,
    /// A replication request reached a server running without a data
    /// directory — there is no WAL to ship.
    NotDurable = 6,
    /// The server hit an unexpected local error (for example an I/O
    /// failure while listing WAL files for replication).
    Internal = 7,
    /// The requested epoch lies outside the retained window — evicted by
    /// the retention policy, or never published. The detail names the
    /// window bounds so the client can pick a retrievable epoch.
    EpochEvicted = 8,
}

impl ErrorCode {
    fn from_u8(b: u8) -> Option<ErrorCode> {
        Some(match b {
            1 => ErrorCode::KeyOutOfRange,
            2 => ErrorCode::BadRange,
            3 => ErrorCode::SnapshotUnavailable,
            4 => ErrorCode::Malformed,
            5 => ErrorCode::ShuttingDown,
            6 => ErrorCode::NotDurable,
            7 => ErrorCode::Internal,
            8 => ErrorCode::EpochEvicted,
            _ => return None,
        })
    }
}

/// Server-side counters shipped in a [`Frame::StatsReport`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Tuples accepted into the pipeline.
    pub tuples_ingested: u64,
    /// Tuples refused with `Busy` (admission control).
    pub busy_tuples: u64,
    /// Epochs sealed.
    pub epochs_sealed: u64,
    /// Epoch snapshots published.
    pub epochs_published: u64,
    /// Connections accepted.
    pub connections: u64,
    /// Request frames served.
    pub frames: u64,
    /// `Query` requests served.
    pub queries: u64,
    /// Snapshot-cache hits.
    pub cache_hits: u64,
    /// Snapshot-cache misses.
    pub cache_misses: u64,
    /// Snapshot-cache insertions.
    pub cache_insertions: u64,
    /// Snapshot-cache evictions (small- and main-queue combined).
    pub cache_evictions: u64,
    /// Entries resident in the cache right now.
    pub cache_len: u64,
    /// Peak bin-store column bytes, summed across the pipeline's shards.
    pub bins_bytes: u64,
    /// Peak slab segment count backing those columns, summed across shards.
    pub bin_segments: u64,
    /// Average C-Buffer flush occupancy in basis points (10_000 = every
    /// flushed frame was full).
    pub cbuf_occupancy_bp: u64,
    /// WAL bytes appended (0 when the server runs without a data dir).
    pub wal_bytes_appended: u64,
    /// WAL fsync calls issued.
    pub wal_fsyncs: u64,
    /// WAL segment files opened (across shards and the commit log).
    pub wal_segments: u64,
    /// WAL records replayed during recovery at startup.
    pub wal_replayed_records: u64,
    /// Epochs durably committed (equals `epochs_published` when the
    /// server runs without a data dir).
    pub epochs_committed: u64,
    /// Replication rounds served to followers.
    pub repl_rounds: u64,
    /// Bytes of WAL/checkpoint data shipped to followers.
    pub repl_bytes_shipped: u64,
    /// Highest epoch any follower has acknowledged.
    pub repl_acked_epoch: u64,
    /// Epoch snapshots currently held by the retention window.
    pub retained_epochs: u64,
    /// Bytes of unique segment versions pinned by the retention window
    /// (shared segments counted once).
    pub retained_bytes: u64,
    /// Push subscribers currently registered.
    pub active_subscribers: u64,
    /// Delta frames' worth of per-epoch updates enqueued to subscribers.
    pub deltas_pushed: u64,
    /// Tuples folded away by Coup-style frame fusion before ever
    /// reaching bin memory, summed across shards.
    pub fusion_hits: u64,
    /// Fusion-table resets forced by C-Buffer frame flushes, summed
    /// across shards.
    pub fusion_flushes: u64,
    /// Fraction of fusable tuples that fused away, in basis points
    /// (10_000 = every offered tuple coalesced).
    pub fused_ratio_bp: u64,
}

impl WireStats {
    /// Cache hit rate over all lookups so far (0.0 when none happened).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Average C-Buffer flush occupancy as a fraction (from the
    /// wire-encoded basis points).
    pub fn cbuf_occupancy(&self) -> f64 {
        self.cbuf_occupancy_bp as f64 / 10_000.0
    }

    /// Fraction of fusable tuples that fused away (from the wire-encoded
    /// basis points).
    pub fn fused_ratio(&self) -> f64 {
        self.fused_ratio_bp as f64 / 10_000.0
    }

    const FIELDS: usize = 30;

    fn to_words(self) -> [u64; Self::FIELDS] {
        [
            self.tuples_ingested,
            self.busy_tuples,
            self.epochs_sealed,
            self.epochs_published,
            self.connections,
            self.frames,
            self.queries,
            self.cache_hits,
            self.cache_misses,
            self.cache_insertions,
            self.cache_evictions,
            self.cache_len,
            self.bins_bytes,
            self.bin_segments,
            self.cbuf_occupancy_bp,
            self.wal_bytes_appended,
            self.wal_fsyncs,
            self.wal_segments,
            self.wal_replayed_records,
            self.epochs_committed,
            self.repl_rounds,
            self.repl_bytes_shipped,
            self.repl_acked_epoch,
            self.retained_epochs,
            self.retained_bytes,
            self.active_subscribers,
            self.deltas_pushed,
            self.fusion_hits,
            self.fusion_flushes,
            self.fused_ratio_bp,
        ]
    }

    fn from_words(w: [u64; Self::FIELDS]) -> WireStats {
        WireStats {
            tuples_ingested: w[0],
            busy_tuples: w[1],
            epochs_sealed: w[2],
            epochs_published: w[3],
            connections: w[4],
            frames: w[5],
            queries: w[6],
            cache_hits: w[7],
            cache_misses: w[8],
            cache_insertions: w[9],
            cache_evictions: w[10],
            cache_len: w[11],
            bins_bytes: w[12],
            bin_segments: w[13],
            cbuf_occupancy_bp: w[14],
            wal_bytes_appended: w[15],
            wal_fsyncs: w[16],
            wal_segments: w[17],
            wal_replayed_records: w[18],
            epochs_committed: w[19],
            repl_rounds: w[20],
            repl_bytes_shipped: w[21],
            repl_acked_epoch: w[22],
            retained_epochs: w[23],
            retained_bytes: w[24],
            active_subscribers: w[25],
            deltas_pushed: w[26],
            fusion_hits: w[27],
            fusion_flushes: w[28],
            fused_ratio_bp: w[29],
        }
    }
}

/// One protocol frame, request or response.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// A batch of `(key, value)` updates.
    Update(Vec<(u32, u64)>),
    /// Seal the current epoch.
    Seal,
    /// Read one key's latest published value.
    Query {
        /// Key to look up.
        key: u32,
    },
    /// Read a slice of a published snapshot. `epoch == 0` means "the
    /// latest"; any other value must match the published epoch exactly.
    Snapshot {
        /// Requested epoch (0 = latest).
        epoch: u64,
        /// First key of the slice (inclusive).
        lo: u32,
        /// One past the last key of the slice.
        hi: u32,
    },
    /// Fetch server statistics.
    Stats,
    /// Block until the server has durably committed `epoch` (the
    /// cluster's epoch-alignment barrier: a router fans `Seal` out to
    /// every node, then `WaitEpoch`s each node's commit before the
    /// cluster snapshot for that epoch becomes observable).
    WaitEpoch {
        /// The epoch to wait for.
        epoch: u64,
    },
    /// A follower's catch-up request: the files it already holds (by
    /// data-dir-relative name) and how many bytes of each. The primary
    /// streams back the missing suffixes as `Segment` frames and
    /// finishes with `ReplDone`.
    Replicate {
        /// `(relative file name, bytes already held)` per file.
        manifest: Vec<(String, u64)>,
    },
    /// A follower's acknowledgement after applying a replication round.
    Ack {
        /// The `ReplDone` epoch the follower caught up to.
        epoch: u64,
        /// Bytes the follower applied in that round.
        bytes: u64,
    },
    /// Read one key's value as of a retained epoch (time travel).
    /// `epoch == 0` means "the latest"; an epoch outside the retention
    /// window earns an `Error { code: EpochEvicted }`.
    QueryAt {
        /// Requested epoch (0 = latest).
        epoch: u64,
        /// Key to look up.
        key: u32,
    },
    /// Changed keys in `lo..hi` between two retained epochs, answered by
    /// one `Delta` frame carrying absolute values at `to_epoch`
    /// (`to_epoch == 0` means "the latest"). The range is bounded by
    /// [`MAX_SNAPSHOT_KEYS`] like `Snapshot`.
    Diff {
        /// Older epoch of the pair.
        from_epoch: u64,
        /// Newer epoch of the pair (0 = latest).
        to_epoch: u64,
        /// First key of the window (inclusive).
        lo: u32,
        /// One past the last key of the window.
        hi: u32,
    },
    /// Register for per-epoch delta pushes over keys `lo..hi`. The server
    /// replies `Subscribed { epoch }` (the baseline the pushes build on),
    /// then streams `Delta` / `Lagged` frames until `Unsubscribe` or
    /// disconnect.
    Subscribe {
        /// First key of the subscribed window (inclusive).
        lo: u32,
        /// One past the last key of the subscribed window.
        hi: u32,
    },
    /// Leave subscription mode; the server drains its pushes, replies
    /// `Unsubscribed { epoch }`, and the connection returns to
    /// request/response mode.
    Unsubscribe,
    /// Whole update batch accepted.
    Accepted {
        /// Number of tuples taken (the full batch).
        accepted: u32,
    },
    /// Admission control refused part of the batch: the first `accepted`
    /// tuples were taken, the remainder must be retried.
    Busy {
        /// Number of tuples taken before the refusal.
        accepted: u32,
    },
    /// Epoch sealed.
    Sealed {
        /// The sealed epoch number.
        epoch: u64,
    },
    /// A key's value as of `epoch`.
    Value {
        /// Epoch the value was read from.
        epoch: u64,
        /// The accumulated value.
        value: u64,
    },
    /// A snapshot slice.
    SnapshotSlice {
        /// Epoch of the snapshot served.
        epoch: u64,
        /// First key of the slice.
        lo: u32,
        /// Values for keys `lo..lo + values.len()`.
        values: Vec<u64>,
    },
    /// Server statistics.
    StatsReport(WireStats),
    /// The requested epoch (or a later one) is durably committed; also
    /// the reply to `Ack`, reporting the primary's current committed
    /// epoch so a follower can measure its lag.
    EpochCommitted {
        /// The server's committed epoch at reply time.
        epoch: u64,
    },
    /// One byte range of one replicated file.
    Segment {
        /// Data-dir-relative file name (e.g. `shard-000/seg-00000001.wal`).
        name: String,
        /// Byte offset this chunk starts at.
        offset: u64,
        /// The chunk payload (at most [`REPL_CHUNK`] bytes).
        bytes: Vec<u8>,
    },
    /// End of a replication round.
    ReplDone {
        /// The primary's committed epoch captured at the start of the
        /// round — after applying every `Segment`, the follower's
        /// directory recovers to at least this epoch.
        epoch: u64,
        /// Files touched by this round.
        files: u32,
        /// Total `Segment` payload bytes shipped in this round.
        bytes: u64,
    },
    /// Changed keys between two epochs, as absolute `(key, value)` pairs
    /// at `to_epoch` — the reply to `Diff` and the per-epoch push to
    /// subscribers. A delta larger than [`MAX_DELTA_ENTRIES`] is split
    /// into several frames; only the last carries `done == true`.
    Delta {
        /// Older epoch of the pair (for a push: the previous epoch).
        from_epoch: u64,
        /// Epoch the values are absolute at.
        to_epoch: u64,
        /// Whether this frame completes the delta.
        done: bool,
        /// Sorted `(key, value at to_epoch)` pairs.
        entries: Vec<(u32, u64)>,
    },
    /// Push-mode overflow notice: the subscriber fell behind and epochs
    /// up to and including `resume_epoch` were not enqueued. Pushes
    /// resume at `resume_epoch + 1`; the subscriber closes the gap with
    /// one `Diff { from_epoch: last_applied, to_epoch: resume_epoch }`
    /// re-sync (lossless because delta entries are absolute).
    Lagged {
        /// Newest epoch the queue missed.
        resume_epoch: u64,
    },
    /// Subscription registered.
    Subscribed {
        /// The published epoch at registration — deltas start after it.
        epoch: u64,
    },
    /// Subscription torn down; request/response mode resumes.
    Unsubscribed {
        /// The published epoch at teardown.
        epoch: u64,
    },
    /// Request-level failure.
    Error {
        /// Machine-readable category.
        code: ErrorCode,
        /// Human-readable detail.
        detail: String,
    },
}

/// Why a frame failed to decode. Every variant is a protocol violation by
/// the peer (or a truncated stream), never an internal state problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The stream ended (or the payload ran out) mid-frame.
    Truncated,
    /// The length prefix exceeds the frame ceiling.
    Oversized {
        /// Claimed frame length.
        len: usize,
        /// The enforced ceiling.
        max: usize,
    },
    /// Unknown opcode byte.
    UnknownOpcode(u8),
    /// The peer speaks a different protocol revision. Surfaced on the
    /// very first frame of a connection between mismatched builds, before
    /// any opcode is interpreted — the clean refusal that keeps a mixed
    /// cluster from desyncing.
    VersionMismatch {
        /// The version byte the peer sent.
        got: u8,
        /// This build's [`PROTOCOL_VERSION`].
        want: u8,
    },
    /// The payload's structure contradicts its own header fields.
    Malformed(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::Oversized { len, max } => {
                write!(f, "frame length {len} exceeds the {max}-byte ceiling")
            }
            WireError::UnknownOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            WireError::VersionMismatch { got, want } => {
                write!(
                    f,
                    "protocol version mismatch: peer sent {got}, this build speaks {want}"
                )
            }
            WireError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// A forward-only payload reader that turns every out-of-bounds access
/// into [`WireError::Truncated`].
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn finish(self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes after payload"))
        }
    }
}

fn put_name(buf: &mut Vec<u8>, name: &str) {
    let bytes = name.as_bytes();
    let n = bytes.len().min(MAX_FILE_NAME);
    buf.extend_from_slice(&(n as u16).to_le_bytes());
    buf.extend_from_slice(&bytes[..n]);
}

/// Serializes `frame` into `out` (cleared first): length prefix, version
/// byte, opcode, payload.
pub fn encode(frame: &Frame, out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(&[0; 4]); // length back-patched below
    out.push(PROTOCOL_VERSION);
    match frame {
        Frame::Update(tuples) => {
            out.push(op::UPDATE);
            put_u32(out, tuples.len() as u32);
            for &(k, v) in tuples {
                put_u32(out, k);
                put_u64(out, v);
            }
        }
        Frame::Seal => out.push(op::SEAL),
        Frame::Query { key } => {
            out.push(op::QUERY);
            put_u32(out, *key);
        }
        Frame::Snapshot { epoch, lo, hi } => {
            out.push(op::SNAPSHOT);
            put_u64(out, *epoch);
            put_u32(out, *lo);
            put_u32(out, *hi);
        }
        Frame::Stats => out.push(op::STATS),
        Frame::WaitEpoch { epoch } => {
            out.push(op::WAIT_EPOCH);
            put_u64(out, *epoch);
        }
        Frame::Replicate { manifest } => {
            out.push(op::REPLICATE);
            put_u32(out, manifest.len() as u32);
            for (name, have) in manifest {
                put_name(out, name);
                put_u64(out, *have);
            }
        }
        Frame::Ack { epoch, bytes } => {
            out.push(op::ACK);
            put_u64(out, *epoch);
            put_u64(out, *bytes);
        }
        Frame::QueryAt { epoch, key } => {
            out.push(op::QUERY_AT);
            put_u64(out, *epoch);
            put_u32(out, *key);
        }
        Frame::Diff {
            from_epoch,
            to_epoch,
            lo,
            hi,
        } => {
            out.push(op::DIFF);
            put_u64(out, *from_epoch);
            put_u64(out, *to_epoch);
            put_u32(out, *lo);
            put_u32(out, *hi);
        }
        Frame::Subscribe { lo, hi } => {
            out.push(op::SUBSCRIBE);
            put_u32(out, *lo);
            put_u32(out, *hi);
        }
        Frame::Unsubscribe => out.push(op::UNSUBSCRIBE),
        Frame::Accepted { accepted } => {
            out.push(op::ACCEPTED);
            put_u32(out, *accepted);
        }
        Frame::Busy { accepted } => {
            out.push(op::BUSY);
            put_u32(out, *accepted);
        }
        Frame::Sealed { epoch } => {
            out.push(op::SEALED);
            put_u64(out, *epoch);
        }
        Frame::Value { epoch, value } => {
            out.push(op::VALUE);
            put_u64(out, *epoch);
            put_u64(out, *value);
        }
        Frame::SnapshotSlice { epoch, lo, values } => {
            out.push(op::SNAPSHOT_SLICE);
            put_u64(out, *epoch);
            put_u32(out, *lo);
            put_u32(out, values.len() as u32);
            for &v in values {
                put_u64(out, v);
            }
        }
        Frame::StatsReport(stats) => {
            out.push(op::STATS_REPORT);
            for w in stats.to_words() {
                put_u64(out, w);
            }
        }
        Frame::EpochCommitted { epoch } => {
            out.push(op::EPOCH_COMMITTED);
            put_u64(out, *epoch);
        }
        Frame::Segment {
            name,
            offset,
            bytes,
        } => {
            out.push(op::SEGMENT);
            put_name(out, name);
            put_u64(out, *offset);
            put_u32(out, bytes.len() as u32);
            out.extend_from_slice(bytes);
        }
        Frame::ReplDone {
            epoch,
            files,
            bytes,
        } => {
            out.push(op::REPL_DONE);
            put_u64(out, *epoch);
            put_u32(out, *files);
            put_u64(out, *bytes);
        }
        Frame::Delta {
            from_epoch,
            to_epoch,
            done,
            entries,
        } => {
            out.push(op::DELTA);
            put_u64(out, *from_epoch);
            put_u64(out, *to_epoch);
            out.push(u8::from(*done));
            put_u32(out, entries.len() as u32);
            for &(k, v) in entries {
                put_u32(out, k);
                put_u64(out, v);
            }
        }
        Frame::Lagged { resume_epoch } => {
            out.push(op::LAGGED);
            put_u64(out, *resume_epoch);
        }
        Frame::Subscribed { epoch } => {
            out.push(op::SUBSCRIBED);
            put_u64(out, *epoch);
        }
        Frame::Unsubscribed { epoch } => {
            out.push(op::UNSUBSCRIBED);
            put_u64(out, *epoch);
        }
        Frame::Error { code, detail } => {
            out.push(op::ERROR);
            out.push(*code as u8);
            let bytes = detail.as_bytes();
            let n = bytes.len().min(u16::MAX as usize);
            out.extend_from_slice(&(n as u16).to_le_bytes());
            out.extend_from_slice(&bytes[..n]);
        }
    }
    let len = (out.len() - 4) as u32;
    out[..4].copy_from_slice(&len.to_le_bytes());
}

fn take_name(c: &mut Cursor<'_>) -> Result<String, WireError> {
    let len = {
        let b = c.take(2)?;
        u16::from_le_bytes([b[0], b[1]]) as usize
    };
    if len > MAX_FILE_NAME {
        return Err(WireError::Malformed("file name too long"));
    }
    let s = std::str::from_utf8(c.take(len)?)
        .map_err(|_| WireError::Malformed("file name is not utf-8"))?;
    Ok(s.to_string())
}

/// Decodes one frame body (version byte + opcode + payload, the length
/// prefix already stripped). The version byte is checked first: a peer on
/// a different protocol revision fails here, before any opcode of its
/// dialect is interpreted.
pub fn decode(body: &[u8]) -> Result<Frame, WireError> {
    let mut c = Cursor::new(body);
    let version = c.u8()?;
    if version != PROTOCOL_VERSION {
        return Err(WireError::VersionMismatch {
            got: version,
            want: PROTOCOL_VERSION,
        });
    }
    let opcode = c.u8()?;
    let frame = match opcode {
        op::UPDATE => {
            let count = c.u32()?;
            if count > MAX_UPDATE_TUPLES {
                return Err(WireError::Malformed("update batch too large"));
            }
            let mut tuples = Vec::with_capacity(count as usize);
            for _ in 0..count {
                let k = c.u32()?;
                let v = c.u64()?;
                tuples.push((k, v));
            }
            Frame::Update(tuples)
        }
        op::SEAL => Frame::Seal,
        op::QUERY => Frame::Query { key: c.u32()? },
        op::SNAPSHOT => Frame::Snapshot {
            epoch: c.u64()?,
            lo: c.u32()?,
            hi: c.u32()?,
        },
        op::STATS => Frame::Stats,
        op::WAIT_EPOCH => Frame::WaitEpoch { epoch: c.u64()? },
        op::REPLICATE => {
            let count = c.u32()?;
            if count > MAX_MANIFEST_FILES {
                return Err(WireError::Malformed("manifest too large"));
            }
            let mut manifest = Vec::with_capacity(count.min(1024) as usize);
            for _ in 0..count {
                let name = take_name(&mut c)?;
                let have = c.u64()?;
                manifest.push((name, have));
            }
            Frame::Replicate { manifest }
        }
        op::ACK => Frame::Ack {
            epoch: c.u64()?,
            bytes: c.u64()?,
        },
        op::QUERY_AT => Frame::QueryAt {
            epoch: c.u64()?,
            key: c.u32()?,
        },
        op::DIFF => Frame::Diff {
            from_epoch: c.u64()?,
            to_epoch: c.u64()?,
            lo: c.u32()?,
            hi: c.u32()?,
        },
        op::SUBSCRIBE => Frame::Subscribe {
            lo: c.u32()?,
            hi: c.u32()?,
        },
        op::UNSUBSCRIBE => Frame::Unsubscribe,
        op::ACCEPTED => Frame::Accepted { accepted: c.u32()? },
        op::BUSY => Frame::Busy { accepted: c.u32()? },
        op::SEALED => Frame::Sealed { epoch: c.u64()? },
        op::VALUE => Frame::Value {
            epoch: c.u64()?,
            value: c.u64()?,
        },
        op::SNAPSHOT_SLICE => {
            let epoch = c.u64()?;
            let lo = c.u32()?;
            let count = c.u32()?;
            if count > MAX_SNAPSHOT_KEYS {
                return Err(WireError::Malformed("snapshot slice too large"));
            }
            let mut values = Vec::with_capacity(count as usize);
            for _ in 0..count {
                values.push(c.u64()?);
            }
            Frame::SnapshotSlice { epoch, lo, values }
        }
        op::STATS_REPORT => {
            let mut words = [0u64; WireStats::FIELDS];
            for w in &mut words {
                *w = c.u64()?;
            }
            Frame::StatsReport(WireStats::from_words(words))
        }
        op::EPOCH_COMMITTED => Frame::EpochCommitted { epoch: c.u64()? },
        op::SEGMENT => {
            let name = take_name(&mut c)?;
            let offset = c.u64()?;
            let count = c.u32()? as usize;
            if count > REPL_CHUNK {
                return Err(WireError::Malformed("segment chunk too large"));
            }
            let bytes = c.take(count)?.to_vec();
            Frame::Segment {
                name,
                offset,
                bytes,
            }
        }
        op::REPL_DONE => Frame::ReplDone {
            epoch: c.u64()?,
            files: c.u32()?,
            bytes: c.u64()?,
        },
        op::DELTA => {
            let from_epoch = c.u64()?;
            let to_epoch = c.u64()?;
            let done = match c.u8()? {
                0 => false,
                1 => true,
                _ => return Err(WireError::Malformed("delta done flag is not 0/1")),
            };
            let count = c.u32()?;
            if count > MAX_DELTA_ENTRIES {
                return Err(WireError::Malformed("delta too large"));
            }
            let mut entries = Vec::with_capacity(count as usize);
            for _ in 0..count {
                let k = c.u32()?;
                let v = c.u64()?;
                entries.push((k, v));
            }
            Frame::Delta {
                from_epoch,
                to_epoch,
                done,
                entries,
            }
        }
        op::LAGGED => Frame::Lagged {
            resume_epoch: c.u64()?,
        },
        op::SUBSCRIBED => Frame::Subscribed { epoch: c.u64()? },
        op::UNSUBSCRIBED => Frame::Unsubscribed { epoch: c.u64()? },
        op::ERROR => {
            let code =
                ErrorCode::from_u8(c.u8()?).ok_or(WireError::Malformed("unknown error code"))?;
            let len = {
                let b = c.take(2)?;
                u16::from_le_bytes([b[0], b[1]]) as usize
            };
            let detail = String::from_utf8_lossy(c.take(len)?).into_owned();
            Frame::Error { code, detail }
        }
        other => return Err(WireError::UnknownOpcode(other)),
    };
    c.finish()?;
    Ok(frame)
}

/// What went wrong while reading a frame off a stream.
#[derive(Debug)]
pub enum ReadError {
    /// A read timeout fired **between** frames: no byte of the next frame
    /// had arrived, the stream is still in sync, and the caller may simply
    /// try again (servers use this to poll their shutdown flag).
    Idle,
    /// Transport-level failure, including a timeout that struck mid-frame
    /// (the stream can no longer be trusted to be frame-aligned).
    Io(io::Error),
    /// The bytes arrived but were not a valid frame.
    Wire(WireError),
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Idle => write!(f, "idle: read timed out between frames"),
            ReadError::Io(e) => write!(f, "i/o: {e}"),
            ReadError::Wire(e) => write!(f, "wire: {e}"),
        }
    }
}

impl std::error::Error for ReadError {}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> Self {
        ReadError::Io(e)
    }
}

impl From<WireError> for ReadError {
    fn from(e: WireError) -> Self {
        ReadError::Wire(e)
    }
}

/// Reads one frame. `Ok(None)` is a clean end-of-stream (the peer closed
/// between frames); EOF mid-frame is [`WireError::Truncated`].
pub fn read_frame<R: Read>(r: &mut R, max_frame: usize) -> Result<Option<Frame>, ReadError> {
    let mut len_buf = [0u8; 4];
    // A clean close may surface as 0 bytes read or as an EOF error kind,
    // but only before any length byte has arrived.
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(WireError::Truncated.into()),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if filled == 0
                    && matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
            {
                return Err(ReadError::Idle)
            }
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > max_frame {
        return Err(WireError::Oversized {
            len,
            max: max_frame,
        }
        .into());
    }
    if len == 0 {
        return Err(WireError::Malformed("empty frame body").into());
    }
    let mut body = vec![0u8; len];
    if let Err(e) = r.read_exact(&mut body) {
        return Err(match e.kind() {
            io::ErrorKind::UnexpectedEof => WireError::Truncated.into(),
            _ => e.into(),
        });
    }
    Ok(Some(decode(&body)?))
}

/// Serializes `frame` and writes it to `w` (one `write_all`, no flush —
/// `TcpStream` is unbuffered).
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame, scratch: &mut Vec<u8>) -> io::Result<()> {
    encode(frame, scratch);
    w.write_all(scratch)
}

/// Incremental frame decoder for nonblocking transports.
///
/// The reactor feeds whatever bytes a readiness round produced into
/// [`extend`](Self::extend) and pulls complete frames back out with
/// [`next_frame`](Self::next_frame); a frame split across any number of
/// reads decodes identically to one that arrived whole. Consumed bytes
/// are compacted away lazily so a one-byte-at-a-time peer cannot make
/// the buffer grow past one frame.
#[derive(Debug, Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
    /// Bytes before `start` are already-decoded frames awaiting compaction.
    start: usize,
}

impl FrameBuf {
    /// An empty buffer.
    pub fn new() -> FrameBuf {
        FrameBuf::default()
    }

    /// Appends bytes read off the transport.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Number of buffered, not-yet-decoded bytes.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// True when a frame has started arriving (at least one byte of the
    /// length prefix) but is not yet complete — the idle-budget clock
    /// should be running.
    pub fn has_partial(&self) -> bool {
        self.pending() > 0
    }

    /// Decodes the next complete frame, if one is fully buffered.
    ///
    /// `Ok(None)` means "need more bytes"; errors mean the stream can no
    /// longer be trusted to be frame-aligned (same taxonomy as
    /// [`read_frame`]: oversized, empty, or malformed bodies).
    pub fn next_frame(&mut self, max_frame: usize) -> Result<Option<Frame>, WireError> {
        let avail = &self.buf[self.start..];
        if avail.len() < 4 {
            self.compact();
            return Ok(None);
        }
        let len = u32::from_le_bytes([avail[0], avail[1], avail[2], avail[3]]) as usize;
        if len > max_frame {
            return Err(WireError::Oversized {
                len,
                max: max_frame,
            });
        }
        if len == 0 {
            return Err(WireError::Malformed("empty frame body"));
        }
        if avail.len() < 4 + len {
            self.compact();
            return Ok(None);
        }
        let frame = decode(&avail[4..4 + len])?;
        self.start += 4 + len;
        Ok(Some(frame))
    }

    /// Drops consumed bytes. Called when decoding pauses, so the shift
    /// cost is paid once per readiness round, not once per frame.
    fn compact(&mut self) {
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(f: Frame) {
        let mut buf = Vec::new();
        encode(&f, &mut buf);
        let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
        assert_eq!(len, buf.len() - 4, "length prefix covers the body");
        let got = decode(&buf[4..]).expect("decode");
        assert_eq!(got, f);
        // And through the stream reader too.
        let mut cursor = io::Cursor::new(buf);
        let via_stream = read_frame(&mut cursor, MAX_FRAME)
            .expect("read")
            .expect("some");
        assert_eq!(via_stream, f);
    }

    #[test]
    fn every_frame_kind_round_trips() {
        roundtrip(Frame::Update(vec![]));
        roundtrip(Frame::Update(vec![(0, 0), (7, u64::MAX), (u32::MAX, 1)]));
        roundtrip(Frame::Seal);
        roundtrip(Frame::Query { key: 42 });
        roundtrip(Frame::Snapshot {
            epoch: 3,
            lo: 10,
            hi: 20,
        });
        roundtrip(Frame::Stats);
        roundtrip(Frame::Accepted { accepted: 256 });
        roundtrip(Frame::Busy { accepted: 3 });
        roundtrip(Frame::Sealed { epoch: 9 });
        roundtrip(Frame::Value {
            epoch: 2,
            value: 77,
        });
        roundtrip(Frame::SnapshotSlice {
            epoch: 5,
            lo: 128,
            values: vec![1, 2, 3],
        });
        roundtrip(Frame::WaitEpoch { epoch: 12 });
        roundtrip(Frame::Replicate { manifest: vec![] });
        roundtrip(Frame::Replicate {
            manifest: vec![
                ("shard-000/seg-00000001.wal".into(), 4096),
                ("commit/seg-00000001.wal".into(), 17),
            ],
        });
        roundtrip(Frame::Ack {
            epoch: 4,
            bytes: 8192,
        });
        roundtrip(Frame::EpochCommitted { epoch: 6 });
        roundtrip(Frame::Segment {
            name: "ckpt-00000000000000000008.bin".into(),
            offset: 65_536,
            bytes: vec![0xAB; 100],
        });
        roundtrip(Frame::ReplDone {
            epoch: 8,
            files: 5,
            bytes: 1 << 20,
        });
        roundtrip(Frame::StatsReport(WireStats {
            tuples_ingested: 1,
            busy_tuples: 2,
            epochs_sealed: 3,
            epochs_published: 4,
            connections: 5,
            frames: 6,
            queries: 7,
            cache_hits: 8,
            cache_misses: 9,
            cache_insertions: 10,
            cache_evictions: 11,
            cache_len: 12,
            bins_bytes: 13,
            bin_segments: 14,
            cbuf_occupancy_bp: 9_500,
            wal_bytes_appended: 15,
            wal_fsyncs: 16,
            wal_segments: 17,
            wal_replayed_records: 18,
            epochs_committed: 19,
            repl_rounds: 20,
            repl_bytes_shipped: 21,
            repl_acked_epoch: 22,
            retained_epochs: 23,
            retained_bytes: 24,
            active_subscribers: 25,
            deltas_pushed: 26,
            fusion_hits: 27,
            fusion_flushes: 28,
            fused_ratio_bp: 2_900,
        }));
        roundtrip(Frame::QueryAt { epoch: 14, key: 3 });
        roundtrip(Frame::QueryAt { epoch: 0, key: 0 });
        roundtrip(Frame::Diff {
            from_epoch: 10,
            to_epoch: 14,
            lo: 8,
            hi: 24,
        });
        roundtrip(Frame::Subscribe { lo: 0, hi: 1024 });
        roundtrip(Frame::Unsubscribe);
        roundtrip(Frame::Delta {
            from_epoch: 13,
            to_epoch: 14,
            done: true,
            entries: vec![(0, 5), (9, u64::MAX)],
        });
        roundtrip(Frame::Delta {
            from_epoch: 1,
            to_epoch: 2,
            done: false,
            entries: vec![],
        });
        roundtrip(Frame::Lagged { resume_epoch: 41 });
        roundtrip(Frame::Subscribed { epoch: 7 });
        roundtrip(Frame::Unsubscribed { epoch: 55 });
        roundtrip(Frame::Error {
            code: ErrorCode::KeyOutOfRange,
            detail: "key 9 >= 8".into(),
        });
        roundtrip(Frame::Error {
            code: ErrorCode::EpochEvicted,
            detail: "epoch 3 outside retained window [7, 9]".into(),
        });
    }

    #[test]
    fn truncated_payloads_are_rejected_not_panics() {
        let mut buf = Vec::new();
        encode(&Frame::Update(vec![(1, 2), (3, 4)]), &mut buf);
        // Chop the body at every possible point: each must error cleanly.
        for cut in 0..buf.len() - 4 {
            let r = decode(&buf[4..4 + cut]);
            assert!(r.is_err(), "cut at {cut} decoded: {r:?}");
        }
    }

    #[test]
    fn truncated_stream_is_distinguished_from_clean_eof() {
        // Clean EOF before any byte: None.
        let mut empty = io::Cursor::new(Vec::<u8>::new());
        assert!(matches!(read_frame(&mut empty, MAX_FRAME), Ok(None)));
        // EOF mid-length-prefix: Truncated.
        let mut partial = io::Cursor::new(vec![5u8, 0]);
        assert!(matches!(
            read_frame(&mut partial, MAX_FRAME),
            Err(ReadError::Wire(WireError::Truncated))
        ));
        // EOF mid-body: Truncated.
        let mut buf = Vec::new();
        encode(&Frame::Sealed { epoch: 1 }, &mut buf);
        buf.truncate(buf.len() - 3);
        let mut cut = io::Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut cut, MAX_FRAME),
            Err(ReadError::Wire(WireError::Truncated))
        ));
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        buf.push(op::SEAL);
        let mut cursor = io::Cursor::new(buf);
        match read_frame(&mut cursor, MAX_FRAME) {
            Err(ReadError::Wire(WireError::Oversized { len, max })) => {
                assert_eq!(len, u32::MAX as usize);
                assert_eq!(max, MAX_FRAME);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn lying_counts_and_trailing_bytes_are_malformed() {
        // Update frame whose count claims more tuples than the payload holds.
        let mut body = vec![PROTOCOL_VERSION, op::UPDATE];
        body.extend_from_slice(&10u32.to_le_bytes());
        body.extend_from_slice(&1u32.to_le_bytes());
        body.extend_from_slice(&2u64.to_le_bytes());
        assert_eq!(decode(&body), Err(WireError::Truncated));
        // Update batch count over the ceiling is refused outright.
        let mut huge = vec![PROTOCOL_VERSION, op::UPDATE];
        huge.extend_from_slice(&(MAX_UPDATE_TUPLES + 1).to_le_bytes());
        assert!(matches!(decode(&huge), Err(WireError::Malformed(_))));
        // Trailing garbage after a well-formed payload.
        let mut buf = Vec::new();
        encode(&Frame::Seal, &mut buf);
        let mut body = buf[4..].to_vec();
        body.push(0xAA);
        assert!(matches!(decode(&body), Err(WireError::Malformed(_))));
        // Unknown opcode.
        assert_eq!(
            decode(&[PROTOCOL_VERSION, 0x7F]),
            Err(WireError::UnknownOpcode(0x7F))
        );
        // Empty body via the stream path.
        let mut zero = io::Cursor::new(0u32.to_le_bytes().to_vec());
        assert!(matches!(
            read_frame(&mut zero, MAX_FRAME),
            Err(ReadError::Wire(WireError::Malformed(_)))
        ));
        // Oversized manifest count.
        let mut manifest = vec![PROTOCOL_VERSION, op::REPLICATE];
        manifest.extend_from_slice(&(MAX_MANIFEST_FILES + 1).to_le_bytes());
        assert!(matches!(decode(&manifest), Err(WireError::Malformed(_))));
        // Segment chunk claiming more bytes than REPL_CHUNK allows.
        let mut seg = vec![PROTOCOL_VERSION, op::SEGMENT];
        seg.extend_from_slice(&1u16.to_le_bytes());
        seg.push(b'x');
        seg.extend_from_slice(&0u64.to_le_bytes());
        seg.extend_from_slice(&((REPL_CHUNK + 1) as u32).to_le_bytes());
        assert!(matches!(decode(&seg), Err(WireError::Malformed(_))));
        // Non-UTF-8 file name.
        let mut bad_name = vec![PROTOCOL_VERSION, op::SEGMENT];
        bad_name.extend_from_slice(&2u16.to_le_bytes());
        bad_name.extend_from_slice(&[0xFF, 0xFE]);
        assert!(matches!(decode(&bad_name), Err(WireError::Malformed(_))));
        // Delta entry count over the ceiling is refused outright.
        let mut delta = vec![PROTOCOL_VERSION, op::DELTA];
        delta.extend_from_slice(&0u64.to_le_bytes());
        delta.extend_from_slice(&1u64.to_le_bytes());
        delta.push(1);
        delta.extend_from_slice(&(MAX_DELTA_ENTRIES + 1).to_le_bytes());
        assert!(matches!(decode(&delta), Err(WireError::Malformed(_))));
        // Delta done flag outside 0/1.
        let mut flag = vec![PROTOCOL_VERSION, op::DELTA];
        flag.extend_from_slice(&0u64.to_le_bytes());
        flag.extend_from_slice(&1u64.to_le_bytes());
        flag.push(7);
        flag.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(decode(&flag), Err(WireError::Malformed(_))));
    }

    #[test]
    fn version_mismatch_is_refused_before_opcode_dispatch() {
        // A hypothetical v1 frame: no version byte, body starts with the
        // opcode. Under versioned rules its first byte (UPDATE = 0x01)
        // parses as the version and is refused cleanly — this is exactly
        // how an old build's frames die on a new node, and vice versa.
        let mut v1_style = vec![op::UPDATE];
        v1_style.extend_from_slice(&0u32.to_le_bytes());
        assert_eq!(
            decode(&v1_style),
            Err(WireError::VersionMismatch {
                got: op::UPDATE,
                want: PROTOCOL_VERSION
            })
        );
        // A future version is refused the same way, even when the rest of
        // the frame would parse under the current grammar.
        let mut buf = Vec::new();
        encode(&Frame::Seal, &mut buf);
        let mut body = buf[4..].to_vec();
        body[0] = PROTOCOL_VERSION + 1;
        assert_eq!(
            decode(&body),
            Err(WireError::VersionMismatch {
                got: PROTOCOL_VERSION + 1,
                want: PROTOCOL_VERSION
            })
        );
        // And through the stream reader: the connection fails fast with a
        // wire error, not a hang or a desynced opcode stream.
        let mut framed = Vec::new();
        framed.extend_from_slice(&(v1_style.len() as u32).to_le_bytes());
        framed.extend_from_slice(&v1_style);
        let mut cursor = io::Cursor::new(framed);
        assert!(matches!(
            read_frame(&mut cursor, MAX_FRAME),
            Err(ReadError::Wire(WireError::VersionMismatch { .. }))
        ));
    }

    #[test]
    fn framebuf_one_byte_dribble_decodes_like_a_whole_read() {
        let frames = vec![
            Frame::Update(vec![(1, 2), (3, 4)]),
            Frame::Seal,
            Frame::Query { key: 7 },
            Frame::WaitEpoch { epoch: 3 },
        ];
        let mut wire = Vec::new();
        for f in &frames {
            let mut one = Vec::new();
            encode(f, &mut one);
            wire.extend_from_slice(&one);
        }
        // Feed byte by byte: frames pop out exactly when complete, in
        // order, identical to a batch feed.
        let mut fb = FrameBuf::new();
        let mut got = Vec::new();
        for b in &wire {
            fb.extend(std::slice::from_ref(b));
            while let Some(f) = fb.next_frame(MAX_FRAME).expect("dribble decode") {
                got.push(f);
            }
        }
        assert_eq!(got, frames);
        assert!(!fb.has_partial(), "all bytes consumed");

        let mut batch = FrameBuf::new();
        batch.extend(&wire);
        let mut got_batch = Vec::new();
        while let Some(f) = batch.next_frame(MAX_FRAME).expect("batch decode") {
            got_batch.push(f);
        }
        assert_eq!(got_batch, frames);
    }

    #[test]
    fn framebuf_tracks_a_partial_frame() {
        let mut wire = Vec::new();
        encode(&Frame::Seal, &mut wire);
        let mut trailer = Vec::new();
        encode(&Frame::Query { key: 1 }, &mut trailer);
        wire.extend_from_slice(&trailer[..3]); // second frame half-arrived

        let mut fb = FrameBuf::new();
        fb.extend(&wire);
        assert!(matches!(fb.next_frame(MAX_FRAME), Ok(Some(Frame::Seal))));
        // Only a partial frame remains: that is what the idle budget keys on.
        assert!(matches!(fb.next_frame(MAX_FRAME), Ok(None)));
        assert!(fb.has_partial());
        assert_eq!(fb.pending(), 3);
        // The rest of the frame completes it, wherever the split fell.
        fb.extend(&trailer[3..]);
        assert!(matches!(
            fb.next_frame(MAX_FRAME),
            Ok(Some(Frame::Query { key: 1 }))
        ));
        assert!(!fb.has_partial());
    }

    #[test]
    fn framebuf_rejects_oversized_and_empty_frames_like_read_frame() {
        let mut fb = FrameBuf::new();
        fb.extend(&(u32::MAX).to_le_bytes());
        assert!(matches!(
            fb.next_frame(MAX_FRAME),
            Err(WireError::Oversized { .. })
        ));
        let mut fb = FrameBuf::new();
        fb.extend(&0u32.to_le_bytes());
        assert!(matches!(
            fb.next_frame(MAX_FRAME),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn stats_hit_rate() {
        let mut s = WireStats::default();
        assert_eq!(s.cache_hit_rate(), 0.0);
        s.cache_hits = 3;
        s.cache_misses = 1;
        assert!((s.cache_hit_rate() - 0.75).abs() < 1e-12);
        s.cbuf_occupancy_bp = 9_500;
        assert!((s.cbuf_occupancy() - 0.95).abs() < 1e-12);
    }
}
