//! cobra-wal: durable write-ahead log, epoch checkpoints, and crash
//! recovery for the COBRA streaming stack.
//!
//! The paper's Binning phase works because irregular updates are cheap to
//! *log sequentially* and expensive to apply in place; a WAL is the
//! durability-flavored twin of a bin — an append-only stream of
//! `(key, value)` updates replayed later with good locality. This crate
//! provides the three pieces the streaming pipeline needs:
//!
//! * [`record`] — length-prefixed, CRC32-protected records (`Update`,
//!   `Seal`, `EpochCommit`) with a *total* decoder: torn tails and
//!   bit-flips are truncation points, never panics.
//! * [`log`] — segmented append-only log directories with group-commit
//!   buffering, configurable [`SyncPolicy`], segment rotation, and a
//!   visitor-style [`scan`] that doubles as the recovery reader.
//! * [`checkpoint`] — atomic (temp file + rename) serialization of the
//!   accumulator's `Arc`'d copy-on-write segments plus the manifest
//!   (`epoch`, key geometry, per-shard WAL resume offsets).
//!
//! Everything is std-only: the workspace is dependency-free by policy,
//! including the [`crc32`](mod@crc32) implementation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod crc32;
pub mod log;
pub mod record;
pub mod ship;

pub use checkpoint::{
    gc_checkpoints, latest_checkpoint, read_checkpoint, write_checkpoint, Checkpoint,
    CheckpointMeta, WalValue,
};
pub use crc32::crc32;
pub use log::{scan, LogPosition, ScanOutcome, SyncPolicy, WalConfig, WalStats, WalWriter};
pub use record::{decode_all, decode_at, DecodeStep, Record};
pub use ship::{checkpoint_files, read_chunk, segment_files, ShipFile};
