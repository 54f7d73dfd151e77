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
//! Update { (key, value)… }    ───▶ Accepted { accepted } | Error
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
//! An `Update` is never refused for load: a full shard FIFO stalls the
//! server until it drains, so `Accepted` always counts the whole batch.
//! An `Error` (an out-of-range key, shutdown) names the prefix taken.
//!
//! `Replicate` is the one request answered by *multiple* frames: a
//! follower sends its manifest (the files it already holds and their
//! lengths) and the primary streams back the missing byte ranges as
//! `Segment` frames, terminated by a single `ReplDone`. See the server's
//! replication handler for the shard-logs-before-commit-log ordering that
//! keeps a shipped directory recoverable at every prefix.
//!
//! # Changing the grammar
//!
//! The grammar is declared once, in this file, as three lists; the codec
//! is generated from them and the compiler keeps it exhaustive.
//!
//! * **A new opcode** is one row in the `frames!` table (opcode byte,
//!   constant, variant, fields in wire order). That row is the `opcodes`
//!   constant, the [`Frame`] variant, the [`encode`] arm and the
//!   [`decode`] arm. What is left to write by hand, and what
//!   `cobra-check` rule R7 holds you to: the server's `dispatch` arm, the
//!   [`ServeClient`](crate::ServeClient) method, and one entry in this
//!   file's test `samples()`. A field of a new type needs one `Wire` impl.
//! * **A new STATS counter** is one entry in the `wire_stats!` list plus
//!   the line that fills it in the server's `Ctx::wire_stats`. It changes
//!   the `StatsReport` payload, so it still bumps [`PROTOCOL_VERSION`].
//! * **A new error code** is one row in the `error_codes!` list.

use std::io::{self, Read, Write};

/// Wire protocol revision. Bumped whenever the frame grammar changes
/// (revision 2 added the version byte itself plus the cluster frames:
/// `WaitEpoch`/`EpochCommitted`, `Replicate`/`Segment`/`ReplDone`, `Ack`;
/// revision 3 added the MVCC frames: `QueryAt`, `Diff`,
/// `Subscribe`/`Subscribed`, `Unsubscribe`/`Unsubscribed`, `Delta`,
/// `Lagged`, plus the `EpochEvicted` error code and four retention
/// fields in `StatsReport`; revision 4 added the three reducer-fusion
/// fields in `StatsReport`: `fusion_hits`, `fusion_flushes`,
/// `fused_ratio_bp`; revision 5 retired the `BUSY` response, opcode `0x82`).
pub const PROTOCOL_VERSION: u8 = 5;

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
/// reply always fits one frame. The same ceiling as an `Update` batch:
/// both are `(u32, u64)` lists on the wire and share one decoder.
pub const MAX_DELTA_ENTRIES: u32 = MAX_UPDATE_TUPLES;

/// Declares [`ErrorCode`] from its one list of `Variant = wire byte` rows:
/// the enum and the byte decoder are both derived from it.
macro_rules! error_codes {
    ($($(#[$doc:meta])* $variant:ident = $byte:literal),* $(,)?) => {
        /// Machine-readable error category carried by [`Frame::Error`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(u8)]
        pub enum ErrorCode {
            $($(#[$doc])* $variant = $byte),*
        }

        impl ErrorCode {
            fn from_u8(b: u8) -> Option<ErrorCode> {
                match b {
                    $($byte => Some(ErrorCode::$variant),)*
                    _ => None,
                }
            }
        }
    };
}

error_codes! {
    /// The requested key is `>= num_keys`.
    KeyOutOfRange = 1,
    /// A snapshot range with `lo >= hi`, `hi > num_keys`, or more than
    /// [`MAX_SNAPSHOT_KEYS`] keys.
    BadRange = 2,
    /// The requested epoch is newer than the published head: it has not
    /// been published yet. (An epoch that was published but has left the
    /// retention window is [`ErrorCode::EpochEvicted`].)
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

/// Declares [`WireStats`] from its one list of counters. Every counter is
/// a `u64` and travels in list order, so the struct, the field count and
/// the two word-array conversions all follow from the list.
macro_rules! wire_stats {
    ($($(#[$doc:meta])* $field:ident),* $(,)?) => {
        /// Server-side counters shipped in a [`Frame::StatsReport`].
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct WireStats {
            $($(#[$doc])* pub $field: u64),*
        }

        impl WireStats {
            const FIELDS: usize = [$(stringify!($field)),*].len();

            fn to_words(self) -> [u64; Self::FIELDS] {
                [$(self.$field),*]
            }

            fn from_words(words: [u64; Self::FIELDS]) -> WireStats {
                let [$($field),*] = words;
                WireStats { $($field),* }
            }
        }
    };
}

wire_stats! {
    /// Tuples accepted into the pipeline.
    tuples_ingested,
    /// Always 0 since protocol revision 5 (a full FIFO stalls admission;
    /// nothing is refused). Kept only because `benchmarks/ladder` reads it
    /// (`serve.busy_frac`); goes with that metric in the next `benchmark`
    /// PR (ROADMAP item 1).
    busy_tuples,
    /// Epochs sealed.
    epochs_sealed,
    /// Epoch snapshots published.
    epochs_published,
    /// Connections accepted.
    connections,
    /// Request frames served.
    frames,
    /// `Query` requests served.
    queries,
    /// Snapshot-cache hits.
    cache_hits,
    /// Snapshot-cache misses.
    cache_misses,
    /// Snapshot-cache insertions.
    cache_insertions,
    /// Snapshot-cache evictions (small- and main-queue combined).
    cache_evictions,
    /// Entries resident in the cache right now.
    cache_len,
    /// Peak bin-store column bytes, summed across the pipeline's shards.
    bins_bytes,
    /// Peak slab segment count backing those columns, summed across shards.
    bin_segments,
    /// Average C-Buffer flush occupancy in basis points (10_000 = every
    /// flushed frame was full).
    cbuf_occupancy_bp,
    /// WAL bytes appended (0 when the server runs without a data dir).
    wal_bytes_appended,
    /// WAL fsync calls issued.
    wal_fsyncs,
    /// WAL segment files opened (across shards and the commit log).
    wal_segments,
    /// WAL records replayed during recovery at startup.
    wal_replayed_records,
    /// Epochs durably committed (equals `epochs_published` when the
    /// server runs without a data dir).
    epochs_committed,
    /// Replication rounds served to followers.
    repl_rounds,
    /// Bytes of WAL/checkpoint data shipped to followers.
    repl_bytes_shipped,
    /// Highest epoch any follower has acknowledged.
    repl_acked_epoch,
    /// Epoch snapshots currently held by the retention window.
    retained_epochs,
    /// Bytes of unique segment versions pinned by the retention window
    /// (shared segments counted once).
    retained_bytes,
    /// Push subscribers currently registered.
    active_subscribers,
    /// Delta frames' worth of per-epoch updates enqueued to subscribers.
    deltas_pushed,
    /// Tuples folded away by Coup-style frame fusion before ever
    /// reaching bin memory, summed across shards.
    fusion_hits,
    /// Fusion-table resets forced by C-Buffer frame flushes, summed
    /// across shards.
    fusion_flushes,
    /// Fraction of fusable tuples that fused away, in basis points
    /// (10_000 = every offered tuple coalesced).
    fused_ratio_bp,
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

/// A forward-only payload reader that turns every out-of-bounds access
/// into [`WireError::Truncated`].
struct Cursor<'a>(&'a [u8]);

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let (head, rest) = self.0.split_at_checked(n).ok_or(WireError::Truncated)?;
        self.0 = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let (head, rest) = self
            .0
            .split_first_chunk::<N>()
            .ok_or(WireError::Truncated)?;
        self.0 = rest;
        Ok(*head)
    }

    fn finish(self) -> Result<(), WireError> {
        if self.0.is_empty() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes after payload"))
        }
    }
}

/// How one field type is laid out in a payload. Implemented on the
/// field's own type, except where one Rust type has two layouts
/// (`String`: [`FileName`], [`Detail`]), which a `frames!` row picks
/// with `field: String as FileName`. Every `take` is total: it bounds a
/// length it reads before allocating for it and fails with a
/// [`WireError`], never a panic.
trait Wire<T = Self> {
    fn put(v: &T, out: &mut Vec<u8>);
    fn take(c: &mut Cursor<'_>) -> Result<T, WireError>;
}

macro_rules! wire_le_int {
    ($($int:ty),*) => {$(
        impl Wire for $int {
            fn put(v: &$int, out: &mut Vec<u8>) {
                out.extend_from_slice(&v.to_le_bytes());
            }
            fn take(c: &mut Cursor<'_>) -> Result<$int, WireError> {
                Ok(<$int>::from_le_bytes(c.array()?))
            }
        }
    )*};
}

wire_le_int!(u8, u16, u32, u64);

impl Wire for bool {
    fn put(v: &bool, out: &mut Vec<u8>) {
        out.push(u8::from(*v));
    }
    fn take(c: &mut Cursor<'_>) -> Result<bool, WireError> {
        match u8::take(c)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Malformed("flag byte is not 0/1")),
        }
    }
}

/// Bytes of one `(u32 key, u64 value)` record on the wire.
const RECORD: usize = 12;

/// A `u32`-counted list of `(key, value)` records, validated and borrowed
/// from a frame body. [`decode`] collects it into `Update`'s and
/// `Delta`'s tuple lists; [`FrameBuf::next_incoming`] lends an `UPDATE`'s
/// out in place. Both run the one parse, `Records::take`: count at most
/// [`MAX_UPDATE_TUPLES`], then exactly that many records.
#[derive(Debug, Clone, Copy)]
pub struct Records<'a>(&'a [[u8; RECORD]]);

impl<'a> Records<'a> {
    fn take(c: &mut Cursor<'a>) -> Result<Records<'a>, WireError> {
        let count = u32::take(c)?;
        if count > MAX_UPDATE_TUPLES {
            return Err(WireError::Malformed("tuple batch too large"));
        }
        let (records, _) = c.take(count as usize * RECORD)?.as_chunks();
        Ok(Records(records))
    }
}

/// One record's `(key, value)`.
fn record(r: &[u8; RECORD]) -> (u32, u64) {
    let [k0, k1, k2, k3, v0, v1, v2, v3, v4, v5, v6, v7] = *r;
    (
        u32::from_le_bytes([k0, k1, k2, k3]),
        u64::from_le_bytes([v0, v1, v2, v3, v4, v5, v6, v7]),
    )
}

impl<'a> IntoIterator for Records<'a> {
    type Item = (u32, u64);
    type IntoIter =
        std::iter::Map<std::slice::Iter<'a, [u8; RECORD]>, fn(&[u8; RECORD]) -> (u32, u64)>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter().map(record)
    }
}

/// The tuple lists of `Update` and `Delta`.
impl Wire for Vec<(u32, u64)> {
    fn put(v: &Vec<(u32, u64)>, out: &mut Vec<u8>) {
        u32::put(&(v.len() as u32), out);
        for (key, value) in v {
            u32::put(key, out);
            u64::put(value, out);
        }
    }
    fn take(c: &mut Cursor<'_>) -> Result<Vec<(u32, u64)>, WireError> {
        Ok(Records::take(c)?.into_iter().collect())
    }
}

/// One manifest entry: `(relative file name, bytes already held)`.
impl Wire for (String, u64) {
    fn put(v: &(String, u64), out: &mut Vec<u8>) {
        FileName::put(&v.0, out);
        u64::put(&v.1, out);
    }
    fn take(c: &mut Cursor<'_>) -> Result<(String, u64), WireError> {
        Ok((FileName::take(c)?, u64::take(c)?))
    }
}

/// A type that travels as the element of a `u32`-counted `Vec`. The
/// ceiling is checked against the count before anything is allocated.
trait Elem: Wire + Sized {
    /// Largest count one frame may carry.
    const MAX: u32;
    /// The [`WireError::Malformed`] reason for a count above it.
    const TOO_MANY: &'static str;
}

impl Elem for u64 {
    const MAX: u32 = MAX_SNAPSHOT_KEYS;
    const TOO_MANY: &'static str = "snapshot slice too large";
}

impl Elem for (String, u64) {
    const MAX: u32 = MAX_MANIFEST_FILES;
    const TOO_MANY: &'static str = "manifest too large";
}

impl<T: Elem> Wire for Vec<T> {
    fn put(v: &Vec<T>, out: &mut Vec<u8>) {
        u32::put(&(v.len() as u32), out);
        for item in v {
            T::put(item, out);
        }
    }
    fn take(c: &mut Cursor<'_>) -> Result<Vec<T>, WireError> {
        let count = u32::take(c)?;
        if count > T::MAX {
            return Err(WireError::Malformed(T::TOO_MANY));
        }
        let mut items = Vec::with_capacity(count as usize);
        for _ in 0..count {
            items.push(T::take(c)?);
        }
        Ok(items)
    }
}

/// A replication chunk: `u32` length, then at most [`REPL_CHUNK`] raw
/// bytes.
impl Wire for Vec<u8> {
    fn put(v: &Vec<u8>, out: &mut Vec<u8>) {
        u32::put(&(v.len() as u32), out);
        out.extend_from_slice(v);
    }
    fn take(c: &mut Cursor<'_>) -> Result<Vec<u8>, WireError> {
        let count = u32::take(c)? as usize;
        if count > REPL_CHUNK {
            return Err(WireError::Malformed("segment chunk too large"));
        }
        Ok(c.take(count)?.to_vec())
    }
}

/// Writes `u16` length + bytes, cutting `s` at `max` bytes.
fn put_short_str(s: &str, max: usize, out: &mut Vec<u8>) {
    let bytes = &s.as_bytes()[..s.len().min(max)];
    u16::put(&(bytes.len() as u16), out);
    out.extend_from_slice(bytes);
}

/// Layout of a data-dir-relative file name: `u16` length, then at most
/// [`MAX_FILE_NAME`] bytes of strict UTF-8.
struct FileName;

impl Wire<String> for FileName {
    fn put(v: &String, out: &mut Vec<u8>) {
        put_short_str(v, MAX_FILE_NAME, out);
    }
    fn take(c: &mut Cursor<'_>) -> Result<String, WireError> {
        let len = u16::take(c)? as usize;
        if len > MAX_FILE_NAME {
            return Err(WireError::Malformed("file name too long"));
        }
        let s = std::str::from_utf8(c.take(len)?)
            .map_err(|_| WireError::Malformed("file name is not utf-8"))?;
        Ok(s.to_string())
    }
}

/// Layout of an error detail: `u16` length, then that many bytes, read
/// leniently (the text is for humans).
struct Detail;

impl Wire<String> for Detail {
    fn put(v: &String, out: &mut Vec<u8>) {
        put_short_str(v, u16::MAX as usize, out);
    }
    fn take(c: &mut Cursor<'_>) -> Result<String, WireError> {
        let len = u16::take(c)? as usize;
        Ok(String::from_utf8_lossy(c.take(len)?).into_owned())
    }
}

impl Wire for ErrorCode {
    fn put(v: &ErrorCode, out: &mut Vec<u8>) {
        out.push(*v as u8);
    }
    fn take(c: &mut Cursor<'_>) -> Result<ErrorCode, WireError> {
        ErrorCode::from_u8(u8::take(c)?).ok_or(WireError::Malformed("unknown error code"))
    }
}

impl Wire for WireStats {
    fn put(v: &WireStats, out: &mut Vec<u8>) {
        for w in v.to_words() {
            u64::put(&w, out);
        }
    }
    fn take(c: &mut Cursor<'_>) -> Result<WireStats, WireError> {
        let mut words = [0u64; WireStats::FIELDS];
        for w in &mut words {
            *w = u64::take(c)?;
        }
        Ok(WireStats::from_words(words))
    }
}

/// The layout a `frames!` field travels in: its own type, or the one
/// named after `as`.
macro_rules! layout {
    ($ty:ty) => {
        $ty
    };
    ($ty:ty, $layout:ty) => {
        $layout
    };
}

/// Declares the frame grammar. One row per frame kind —
/// `opcode CONST Variant`, then nothing, `(binding: type)` or
/// `{ field: type, … }` — and the row *is* the opcode constant, the
/// [`Frame`] variant, the [`encode`] arm and the [`decode`] arm: fields
/// travel in row order, each in its type's [`Wire`] layout.
macro_rules! frames {
    ($(
        $(#[$doc:meta])*
        $code:literal $konst:ident $variant:ident
        $(($inner:ident: $ity:ty))?
        $({$($(#[$fdoc:meta])* $field:ident: $fty:ty $(as $layout:ty)?),* $(,)?})?
    ),* $(,)?) => {
        /// Raw opcode bytes (request kinds in `0x01..=0x7F`, response kinds
        /// with the high bit set) — public so raw-socket tooling and tests can
        /// speak the protocol without going through [`Frame`].
        pub mod opcodes {
            #![allow(missing_docs)]
            $(pub const $konst: u8 = $code;)*
        }

        /// Every opcode of the grammar, in table order.
        pub const OPCODES: &[u8] = &[$($code),*];

        /// One protocol frame, request or response.
        #[derive(Debug, Clone, PartialEq)]
        pub enum Frame {
            $(
                $(#[$doc])*
                $variant $(($ity))? $({$($(#[$fdoc])* $field: $fty),*})?
            ),*
        }

        /// Serializes `frame` into `out` (cleared first): length prefix, version
        /// byte, opcode, payload.
        pub fn encode(frame: &Frame, out: &mut Vec<u8>) {
            out.clear();
            out.extend_from_slice(&[0; 4]); // length back-patched below
            out.push(PROTOCOL_VERSION);
            match frame {
                $(Frame::$variant $(($inner))? $({$($field),*})? => {
                    out.push($code);
                    $(<$ity as Wire>::put($inner, out);)?
                    $($(<layout!($fty $(, $layout)?) as Wire<$fty>>::put($field, out);)*)?
                })*
            }
            let len = (out.len() - 4) as u32;
            out[..4].copy_from_slice(&len.to_le_bytes());
        }

        /// Decodes one frame body (version byte + opcode + payload, the length
        /// prefix already stripped). The version byte is checked first: a peer on
        /// a different protocol revision fails here, before any opcode of its
        /// dialect is interpreted.
        pub fn decode(body: &[u8]) -> Result<Frame, WireError> {
            let mut c = Cursor(body);
            let version = u8::take(&mut c)?;
            if version != PROTOCOL_VERSION {
                return Err(WireError::VersionMismatch {
                    got: version,
                    want: PROTOCOL_VERSION,
                });
            }
            let frame = match u8::take(&mut c)? {
                $($code => Frame::$variant
                    $((<$ity as Wire>::take(&mut c)?))?
                    $({$($field: <layout!($fty $(, $layout)?) as Wire<$fty>>::take(&mut c)?),*})?,
                )*
                other => return Err(WireError::UnknownOpcode(other)),
            };
            c.finish()?;
            Ok(frame)
        }
    };
}

frames! {
    /// A batch of `(key, value)` updates.
    0x01 UPDATE Update(tuples: Vec<(u32, u64)>),
    /// Seal the current epoch.
    0x02 SEAL Seal,
    /// Read one key's latest published value.
    0x03 QUERY Query {
        /// Key to look up.
        key: u32,
    },
    /// Read a slice of a published snapshot. `epoch == 0` means "the
    /// latest"; any other value must match the published epoch exactly.
    0x04 SNAPSHOT Snapshot {
        /// Requested epoch (0 = latest).
        epoch: u64,
        /// First key of the slice (inclusive).
        lo: u32,
        /// One past the last key of the slice.
        hi: u32,
    },
    /// Fetch server statistics.
    0x05 STATS Stats,
    /// Block until the server has durably committed `epoch` *and*
    /// published it, so a `Snapshot` or `Query` sent next reads an epoch
    /// `>= epoch` (the cluster's epoch-alignment barrier: a router fans
    /// `Seal` out to every node, then `WaitEpoch`s each node before the
    /// cluster snapshot for that epoch is assembled). A durable node
    /// publishes one accumulator step after it commits.
    0x06 WAIT_EPOCH WaitEpoch {
        /// The epoch to wait for.
        epoch: u64,
    },
    /// A follower's catch-up request: the files it already holds (by
    /// data-dir-relative name) and how many bytes of each. The primary
    /// streams back the missing suffixes as `Segment` frames and
    /// finishes with `ReplDone`.
    0x07 REPLICATE Replicate {
        /// `(relative file name, bytes already held)` per file.
        manifest: Vec<(String, u64)>,
    },
    /// A follower's acknowledgement after applying a replication round.
    0x08 ACK Ack {
        /// The `ReplDone` epoch the follower caught up to.
        epoch: u64,
        /// Bytes the follower applied in that round.
        bytes: u64,
    },
    /// Read one key's value as of a retained epoch (time travel).
    /// `epoch == 0` means "the latest"; an epoch outside the retention
    /// window earns an `Error { code: EpochEvicted }`.
    0x09 QUERY_AT QueryAt {
        /// Requested epoch (0 = latest).
        epoch: u64,
        /// Key to look up.
        key: u32,
    },
    /// Changed keys in `lo..hi` between two retained epochs, answered by
    /// one `Delta` frame carrying absolute values at `to_epoch`
    /// (`to_epoch == 0` means "the latest"). The range is bounded by
    /// [`MAX_SNAPSHOT_KEYS`] like `Snapshot`.
    0x0A DIFF Diff {
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
    0x0B SUBSCRIBE Subscribe {
        /// First key of the subscribed window (inclusive).
        lo: u32,
        /// One past the last key of the subscribed window.
        hi: u32,
    },
    /// Leave subscription mode; the server drains its pushes, replies
    /// `Unsubscribed { epoch }`, and the connection returns to
    /// request/response mode.
    0x0C UNSUBSCRIBE Unsubscribe,
    /// Whole update batch accepted.
    0x81 ACCEPTED Accepted {
        /// Number of tuples taken (the full batch).
        accepted: u32,
    },
    // 0x82 was `BUSY` up to revision 4; retired, never reuse it.
    /// Epoch sealed.
    0x83 SEALED Sealed {
        /// The sealed epoch number.
        epoch: u64,
    },
    /// A key's value as of `epoch`.
    0x84 VALUE Value {
        /// Epoch the value was read from.
        epoch: u64,
        /// The accumulated value.
        value: u64,
    },
    /// A snapshot slice.
    0x85 SNAPSHOT_SLICE SnapshotSlice {
        /// Epoch of the snapshot served.
        epoch: u64,
        /// First key of the slice.
        lo: u32,
        /// Values for keys `lo..lo + values.len()`.
        values: Vec<u64>,
    },
    /// Server statistics.
    0x86 STATS_REPORT StatsReport(stats: WireStats),
    /// As the reply to `WaitEpoch`: the requested epoch (or a later one)
    /// is durably committed and the requested one is published. Also
    /// the reply to `Ack`, reporting the primary's current committed
    /// epoch so a follower can measure its lag.
    0x87 EPOCH_COMMITTED EpochCommitted {
        /// The server's committed epoch at reply time.
        epoch: u64,
    },
    /// One byte range of one replicated file.
    0x88 SEGMENT Segment {
        /// Data-dir-relative file name (e.g. `shard-000/seg-00000001.wal`).
        name: String as FileName,
        /// Byte offset this chunk starts at.
        offset: u64,
        /// The chunk payload (at most [`REPL_CHUNK`] bytes).
        bytes: Vec<u8>,
    },
    /// End of a replication round.
    0x89 REPL_DONE ReplDone {
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
    0x8A DELTA Delta {
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
    0x8B LAGGED Lagged {
        /// Newest epoch the queue missed.
        resume_epoch: u64,
    },
    /// Subscription registered.
    0x8C SUBSCRIBED Subscribed {
        /// The published epoch at registration — deltas start after it.
        epoch: u64,
    },
    /// Subscription torn down; request/response mode resumes.
    0x8D UNSUBSCRIBED Unsubscribed {
        /// The published epoch at teardown.
        epoch: u64,
    },
    /// Request-level failure.
    0x8F ERROR Error {
        /// Machine-readable category.
        code: ErrorCode,
        /// Human-readable detail.
        detail: String as Detail,
    },
}

/// Checks a frame's length prefix against the two rules [`FrameBuf`]
/// enforces before touching the body: at most [`MAX_FRAME`] bytes (so a
/// hostile length cannot size an allocation), and not empty.
fn body_len(prefix: [u8; 4]) -> Result<usize, WireError> {
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME {
        return Err(WireError::Oversized {
            len,
            max: MAX_FRAME,
        });
    }
    if len == 0 {
        return Err(WireError::Malformed("empty frame body"));
    }
    Ok(len)
}

/// Serializes `frame` and writes it to `w` (one `write_all`, no flush —
/// `TcpStream` is unbuffered).
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame, scratch: &mut Vec<u8>) -> io::Result<()> {
    encode(frame, scratch);
    w.write_all(scratch)
}

/// Free room a [`FrameBuf::read_from`] offers the transport at least.
const READ_ROOM: usize = 16 * 1024;

/// The next frame out of a [`FrameBuf`]: an `UPDATE` of this protocol
/// revision lent out as its records, anything else decoded.
#[derive(Debug)]
pub enum Incoming<'a> {
    /// An `UPDATE`'s records, borrowed from the buffer.
    Update(Records<'a>),
    /// Every other frame (boxed: a `Frame` is some 250 bytes, records
    /// 16).
    Frame(Box<Frame>),
}

/// Incremental frame decoder: the one way frames are read off a stream.
///
/// The reactor reads whatever a readiness round produced straight into
/// the buffer with [`read_from`](Self::read_from) and takes complete
/// frames back out with [`next_incoming`](Self::next_incoming) (an
/// `UPDATE` stays in the buffer and is admitted from there); the
/// [`ServeClient`](crate::ServeClient) reads its blocking socket into
/// one until [`next_frame`](Self::next_frame) yields a reply. A frame
/// split across any number of reads decodes identically to one that
/// arrived whole, and bytes of the next frame that came with it stay
/// buffered. Consumed bytes
/// are compacted away when a read needs the room, so the buffer's size
/// follows what is pending (at most doubled, plus the 16 KiB read room),
/// never what has passed through.
#[derive(Debug, Default)]
pub struct FrameBuf {
    /// Zero-initialised storage: `start..end` holds buffered bytes, the
    /// rest is room for the next read.
    buf: Vec<u8>,
    /// Bytes before `start` are already-taken frames awaiting compaction.
    start: usize,
    end: usize,
}

impl FrameBuf {
    /// An empty buffer.
    pub fn new() -> FrameBuf {
        FrameBuf::default()
    }

    /// One `read` from `r` into the buffer's free room, which is made at
    /// least 16 KiB first (compacting, then growing); returns what `read`
    /// returned. `Ok(0)` is end-of-stream.
    pub fn read_from<R: Read>(&mut self, r: &mut R) -> io::Result<usize> {
        if self.buf.len() - self.end < READ_ROOM {
            self.compact();
            if self.buf.len() - self.end < READ_ROOM {
                let len = (self.end + READ_ROOM).max(2 * self.buf.len());
                self.buf.resize(len, 0);
            }
        }
        let n = r.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// Number of buffered, not-yet-decoded bytes.
    pub fn pending(&self) -> usize {
        self.end - self.start
    }

    /// True when a frame has started arriving (at least one byte of the
    /// length prefix) but is not yet complete — the idle-budget clock
    /// should be running.
    pub fn has_partial(&self) -> bool {
        self.pending() > 0
    }

    /// Takes the next complete frame, if one is fully buffered. A
    /// current-revision `UPDATE` comes out as its records, validated by
    /// the parse [`decode`] runs on it — so it fails with exactly the
    /// [`WireError`] `decode` would — and borrowed, not copied.
    ///
    /// `Ok(None)` means "need more bytes"; errors mean the stream can no
    /// longer be trusted to be frame-aligned (oversized, empty, or
    /// malformed bodies).
    pub fn next_incoming(&mut self) -> Result<Option<Incoming<'_>>, WireError> {
        let Some(&prefix) = self.buf[self.start..self.end].first_chunk::<4>() else {
            self.rewind();
            return Ok(None);
        };
        let len = body_len(prefix)?;
        if self.pending() < 4 + len {
            return Ok(None);
        }
        let at = self.start + 4;
        let body = &self.buf[at..at + len];
        let next = if let [PROTOCOL_VERSION, opcodes::UPDATE, payload @ ..] = body {
            let mut c = Cursor(payload);
            let records = Records::take(&mut c)?;
            c.finish()?;
            Incoming::Update(records)
        } else {
            Incoming::Frame(Box::new(decode(body)?))
        };
        self.start += 4 + len;
        Ok(Some(next))
    }

    /// [`next_incoming`](Self::next_incoming) with an `UPDATE` decoded
    /// too.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        Ok(self.next_incoming()?.map(|next| match next {
            Incoming::Update(records) => Frame::Update(records.into_iter().collect()),
            Incoming::Frame(frame) => *frame,
        }))
    }

    /// Starts over at the front of the storage once everything buffered
    /// is taken (free: nothing to move).
    fn rewind(&mut self) {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
    }

    /// Moves the buffered bytes to the front of the storage.
    fn compact(&mut self) {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::opcodes as op;
    use super::*;

    /// At least one frame of every kind (`samples_cover_every_opcode`
    /// keeps it that way), plus the empty-list edge of each counted field.
    fn samples() -> Vec<Frame> {
        vec![
            Frame::Update(vec![(0, 0), (7, u64::MAX), (u32::MAX, 1)]),
            Frame::Update(vec![]),
            Frame::Seal,
            Frame::Query { key: 42 },
            Frame::Snapshot {
                epoch: 3,
                lo: 10,
                hi: 20,
            },
            Frame::Stats,
            Frame::WaitEpoch { epoch: 12 },
            Frame::Replicate {
                manifest: vec![
                    ("shard-000/seg-00000001.wal".into(), 4096),
                    ("commit/seg-00000001.wal".into(), 17),
                ],
            },
            Frame::Replicate { manifest: vec![] },
            Frame::Ack {
                epoch: 4,
                bytes: 8192,
            },
            Frame::QueryAt { epoch: 14, key: 3 },
            Frame::Diff {
                from_epoch: 10,
                to_epoch: 14,
                lo: 8,
                hi: 24,
            },
            Frame::Subscribe { lo: 0, hi: 1024 },
            Frame::Unsubscribe,
            Frame::Accepted { accepted: 256 },
            Frame::Sealed { epoch: 9 },
            Frame::Value {
                epoch: 2,
                value: 77,
            },
            Frame::SnapshotSlice {
                epoch: 5,
                lo: 128,
                values: vec![1, 2, 3],
            },
            Frame::StatsReport(WireStats::from_words(std::array::from_fn(|i| i as u64 + 1))),
            Frame::EpochCommitted { epoch: 6 },
            Frame::Segment {
                name: "ckpt-00000000000000000008.bin".into(),
                offset: 65_536,
                bytes: vec![0xAB; 5],
            },
            Frame::ReplDone {
                epoch: 8,
                files: 5,
                bytes: 1 << 20,
            },
            Frame::Delta {
                from_epoch: 13,
                to_epoch: 14,
                done: true,
                entries: vec![(0, 5), (9, u64::MAX)],
            },
            Frame::Delta {
                from_epoch: 1,
                to_epoch: 2,
                done: false,
                entries: vec![],
            },
            Frame::Lagged { resume_epoch: 41 },
            Frame::Subscribed { epoch: 7 },
            Frame::Unsubscribed { epoch: 55 },
            Frame::Error {
                code: ErrorCode::KeyOutOfRange,
                detail: "key 9 >= 8".into(),
            },
            Frame::Error {
                code: ErrorCode::EpochEvicted,
                detail: "epoch 3 outside retained window [7, 9]".into(),
            },
        ]
    }

    /// `encode` of each of `samples()`, in order, as hex — captured from
    /// the hand-written codec this table replaced (commit c8d5713). These
    /// are protocol revision 5; they change only with `PROTOCOL_VERSION`.
    const GOLDEN: &[&str] = &[
        "2a00000005010300000000000000000000000000000007000000ffffffffffffffffffffffff0100000000000000",
        "06000000050100000000",
        "020000000502",
        "0600000005032a000000",
        "12000000050403000000000000000a00000014000000",
        "020000000505",
        "0a00000005060c00000000000000",
        "4b0000000507020000001a0073686172642d3030302f7365672d30303030303030312e77616c00100000000000001700636f6d6d69742f7365672d30303030303030312e77616c1100000000000000",
        "06000000050700000000",
        "12000000050804000000000000000020000000000000",
        "0e00000005090e0000000000000003000000",
        "1a000000050a0a000000000000000e000000000000000800000018000000",
        "0a000000050b0000000000040000",
        "02000000050c",
        "06000000058100010000",
        "0a00000005830900000000000000",
        "12000000058402000000000000004d00000000000000",
        "2a000000058505000000000000008000000003000000010000000000000002000000000000000300000000000000",
        "f200000005860100000000000000020000000000000003000000000000000400000000000000050000000000000006000000000000000700000000000000080000000000000009000000000000000a000000000000000b000000000000000c000000000000000d000000000000000e000000000000000f0000000000000010000000000000001100000000000000120000000000000013000000000000001400000000000000150000000000000016000000000000001700000000000000180000000000000019000000000000001a000000000000001b000000000000001c000000000000001d000000000000001e00000000000000",
        "0a00000005870600000000000000",
        "3200000005881d00636b70742d30303030303030303030303030303030303030382e62696e000001000000000005000000ababababab",
        "1600000005890800000000000000050000000000100000000000",
        "2f000000058a0d000000000000000e00000000000000010200000000000000050000000000000009000000ffffffffffffffff",
        "17000000058a010000000000000002000000000000000000000000",
        "0a000000058b2900000000000000",
        "0a000000058c0700000000000000",
        "0a000000058d3700000000000000",
        "0f000000058f010a006b65792039203e3d2038",
        "2b000000058f08260065706f63682033206f7574736964652072657461696e65642077696e646f77205b372c20395d",
    ];

    fn encoded(f: &Frame) -> Vec<u8> {
        let mut buf = Vec::new();
        encode(f, &mut buf);
        buf
    }

    #[test]
    fn every_frame_kind_round_trips() {
        for f in samples() {
            let buf = encoded(&f);
            let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
            assert_eq!(len, buf.len() - 4, "length prefix covers the body");
            assert_eq!(decode(&buf[4..]).expect("decode"), f);
            // And through the stream decoder too.
            let mut fb = FrameBuf::new();
            feed(&mut fb, &buf);
            let via_stream = fb.next_frame().expect("read").expect("some");
            assert_eq!(via_stream, f);
        }
    }

    #[test]
    fn encoded_bytes_match_the_golden_wire_image() {
        let samples = samples();
        assert_eq!(samples.len(), GOLDEN.len());
        for (f, want) in samples.iter().zip(GOLDEN) {
            let hex: String = encoded(f).iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(&hex, want, "wire bytes of {f:?} changed");
        }
    }

    #[test]
    fn samples_cover_every_opcode() {
        let mut seen: Vec<u8> = samples().iter().map(|f| encoded(f)[5]).collect();
        seen.sort_unstable();
        seen.dedup();
        let mut declared = OPCODES.to_vec();
        declared.sort_unstable();
        assert_eq!(seen, declared, "a frames! row has no entry in samples()");
    }

    /// `body` behind its length prefix.
    fn framed(body: &[u8]) -> Vec<u8> {
        let mut out = (body.len() as u32).to_le_bytes().to_vec();
        out.extend_from_slice(body);
        out
    }

    /// Reads all of `bytes` into `fb`, however many reads that takes.
    fn feed(fb: &mut FrameBuf, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            fb.read_from(&mut bytes).expect("a slice reads");
        }
    }

    /// The one frame in `wire`, arriving in reads of at most `step`
    /// bytes, taken through [`FrameBuf::next_incoming`] — an `UPDATE`'s
    /// lent-out records collected back into a [`Frame`].
    fn take_in_place(wire: &[u8], step: usize) -> Result<Frame, WireError> {
        let mut fb = FrameBuf::new();
        for chunk in wire.chunks(step) {
            feed(&mut fb, chunk);
            match fb.next_incoming()? {
                None => {}
                Some(Incoming::Update(records)) => {
                    return Ok(Frame::Update(records.into_iter().collect()))
                }
                Some(Incoming::Frame(frame)) => {
                    assert!(
                        !matches!(*frame, Frame::Update(_)),
                        "a current-revision UPDATE was decoded, not lent out"
                    );
                    return Ok(*frame);
                }
            }
        }
        panic!("the frame never completed");
    }

    #[test]
    fn truncated_and_overlong_payloads_are_rejected_for_every_kind() {
        for f in samples() {
            let wire = encoded(&f);
            let body = wire[4..].to_vec();
            // Chop the body at every possible point: each must error
            // cleanly, and the in-place path with exactly `decode`'s
            // error (an empty body cannot be framed at all).
            for cut in 0..body.len() {
                let r = decode(&body[..cut]);
                assert!(r.is_err(), "{f:?} cut at {cut} decoded: {r:?}");
                if cut > 0 {
                    let framed = framed(&body[..cut]);
                    assert_eq!(take_in_place(&framed, usize::MAX), r, "{f:?} cut at {cut}");
                }
            }
            // Trailing garbage after a well-formed payload.
            let mut long = body;
            long.push(0xAA);
            assert!(
                matches!(decode(&long), Err(WireError::Malformed(_))),
                "{f:?} with a trailing byte decoded"
            );
            assert_eq!(take_in_place(&framed(&long), usize::MAX), decode(&long));
            // Whole, the in-place path yields `decode`'s frame (an
            // UPDATE's records iterate to its tuples), however the frame
            // is split across reads.
            for step in [1, 5, 13, wire.len()] {
                assert_eq!(
                    take_in_place(&wire, step).as_ref(),
                    Ok(&f),
                    "{f:?} in {step}-byte reads"
                );
            }
        }
        // The UPDATE refusals decided before any record is read: a count
        // over the ceiling, and a body of another protocol revision.
        let mut huge = vec![PROTOCOL_VERSION, op::UPDATE];
        huge.extend_from_slice(&(MAX_UPDATE_TUPLES + 1).to_le_bytes());
        let mut other_version = encoded(&samples()[0])[4..].to_vec();
        other_version[0] = PROTOCOL_VERSION + 1;
        for body in [huge, other_version] {
            let want = decode(&body);
            assert!(want.is_err(), "{body:?} decoded");
            assert_eq!(take_in_place(&framed(&body), usize::MAX), want);
        }
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        buf.push(op::SEAL);
        let mut fb = FrameBuf::new();
        feed(&mut fb, &buf);
        match fb.next_frame() {
            Err(WireError::Oversized { len, max }) => {
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
        // Unknown opcodes, the retired `BUSY` among them.
        for op in [0x7F, 0x82] {
            assert_eq!(
                decode(&[PROTOCOL_VERSION, op]),
                Err(WireError::UnknownOpcode(op))
            );
        }
        // Empty body via the stream path.
        let mut zero = FrameBuf::new();
        feed(&mut zero, &0u32.to_le_bytes());
        assert!(matches!(zero.next_frame(), Err(WireError::Malformed(_))));
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
        let mut fb = FrameBuf::new();
        feed(&mut fb, &framed);
        assert!(matches!(
            fb.next_frame(),
            Err(WireError::VersionMismatch { .. })
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
            feed(&mut fb, std::slice::from_ref(b));
            while let Some(f) = fb.next_frame().expect("dribble decode") {
                got.push(f);
            }
        }
        assert_eq!(got, frames);
        assert!(!fb.has_partial(), "all bytes consumed");

        let mut batch = FrameBuf::new();
        feed(&mut batch, &wire);
        let mut got_batch = Vec::new();
        while let Some(f) = batch.next_frame().expect("batch decode") {
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
        feed(&mut fb, &wire);
        assert!(matches!(fb.next_frame(), Ok(Some(Frame::Seal))));
        // Only a partial frame remains: that is what the idle budget keys on.
        assert!(matches!(fb.next_frame(), Ok(None)));
        assert!(fb.has_partial());
        assert_eq!(fb.pending(), 3);
        // The rest of the frame completes it, wherever the split fell.
        feed(&mut fb, &trailer[3..]);
        assert!(matches!(fb.next_frame(), Ok(Some(Frame::Query { key: 1 }))));
        assert!(!fb.has_partial());
    }

    #[test]
    fn truncated_stream_is_distinguished_from_clean_eof() {
        // At end of stream (`read_from` gives `Ok(0)`) a reader tells a
        // clean hang-up from a cut frame by `has_partial`.
        let eof = |bytes: Vec<u8>| {
            let mut fb = FrameBuf::new();
            let mut r = io::Cursor::new(bytes);
            while fb.read_from(&mut r).expect("read") > 0 {}
            assert!(matches!(fb.next_frame(), Ok(None)));
            fb.has_partial()
        };
        // Clean EOF before any byte.
        assert!(!eof(Vec::new()));
        // EOF mid-length-prefix.
        assert!(eof(vec![5u8, 0]));
        // EOF mid-body.
        let mut buf = Vec::new();
        encode(&Frame::Sealed { epoch: 1 }, &mut buf);
        buf.truncate(buf.len() - 3);
        assert!(eof(buf));
    }

    #[test]
    fn framebuf_rejects_oversized_and_empty_frames() {
        let mut fb = FrameBuf::new();
        feed(&mut fb, &(u32::MAX).to_le_bytes());
        assert!(matches!(fb.next_frame(), Err(WireError::Oversized { .. })));
        let mut fb = FrameBuf::new();
        feed(&mut fb, &0u32.to_le_bytes());
        assert!(matches!(fb.next_frame(), Err(WireError::Malformed(_))));
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
