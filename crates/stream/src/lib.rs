//! Long-lived, sharded streaming ingestion of irregular updates.
//!
//! `cobra-pb` implements *batch* Propagation Blocking: all tuples exist up
//! front, get binned by key range, then accumulate with a cache-resident
//! working set. This crate turns that into a continuously running service —
//! the software analogue of the paper's full COBRA datapath (Section V):
//!
//! ```text
//!   IngestHandle ──frame──▶ bounded FIFO ──▶ ShardWorker (Binner + the
//!        │      (16 KiB)    (eviction          │  shard's own segments)
//!        │                   buffer)           │ seal: take_bins → apply_bins
//!        │                                     ▼        → segment handles
//!        └── more producers, more shards ──▶ Accumulator ──▶ EpochSnapshot
//!                                            (align, assemble, publish)
//! ```
//!
//! The pipeline pays per frame, per bin and per owner, never per tuple:
//!
//! * [`IngestHandle`]s stage `(key, value)` tuples into per-shard *frames*
//!   (the C-Buffer-line analogue; [`StreamConfig::batch_tuples`] = 1024
//!   tuples, 16 KiB of `(u32, u64)`, allocated once and shipped whole) and
//!   ship them into bounded FIFO channels; a full FIFO blocks the
//!   producer, and that backpressure is measured exactly like
//!   `cobra-core`'s simulated eviction-buffer stalls. Staging and shipping
//!   are [`cobra_pb::route`], the same routing body the shard's
//!   [`cobra_pb::Binner`] runs one level down, with the shard FIFOs as its
//!   destinations: `send` and `send_all` both block on a full FIFO.
//! * Each shard worker owns a [`cobra_pb::Binner`] over a disjoint key
//!   sub-range and bins continuously. It also owns that range's per-key
//!   state: the copy-on-write handles of its snapshot segments. The
//!   segment size is derived, not configured — 1024 keys, or the shard bin
//!   width when that is smaller; a ragged last shard keeps that bin width —
//!   so every segment lies inside one bin of one shard.
//! * Sealing an *epoch* double-buffers each shard's bins out
//!   ([`cobra_pb::Binner::take_bins`]) and the worker replays them into
//!   its own segments — the paper's per-bin parallel Accumulate over
//!   disjoint key ranges — resolving the segments once per bin, while its
//!   FIFO keeps filling with epoch `e+1`.
//! * The accumulator applies nothing. It aligns the shards' sealed epochs
//!   into waves, assembles each wave's segment handles into an immutable
//!   [`EpochSnapshot`], and runs commit → hook → publish; snapshots are
//!   queryable at any time.
//! * [`Reducer`]s define the update semantics. Every sealed epoch replays
//!   tuple-by-tuple in per-shard arrival order (the paper's correctness
//!   condition for kernels like Neighbor-Populate); a commutative reducer
//!   may additionally declare its values fusable, and same-key updates
//!   then coalesce in the C-Buffer frame before they reach bin memory (the
//!   COBRA-COMM analogue) — the pipeline's only coalescer.
//!
//! # Quickstart
//!
//! ```
//! use cobra_stream::{Count, IngestPipeline, StreamConfig};
//!
//! let pipeline = IngestPipeline::new(1 << 16, Count, StreamConfig::new().shards(4));
//! let mut handle = pipeline.handle();
//! for edge in 0..100_000u64 {
//!     let dst = (edge.wrapping_mul(2654435761) % (1 << 16)) as u32;
//!     handle.send(dst, ()).unwrap();
//! }
//! handle.seal_epoch().unwrap();
//! drop(handle);
//! let (snapshot, stats) = pipeline.shutdown();
//! assert_eq!(snapshot.iter().map(|&c| c as u64).sum::<u64>(), 100_000);
//! assert!(stats.tuples_per_sec() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
mod durable;
mod epoch;
mod pipeline;
mod reducer;
mod shard;
mod stats;

pub use channel::{ChannelStats, Disconnected};
pub use durable::{commit_files, data_files, is_data_file, DurableConfig, RecoveryReport};
pub use epoch::{EpochSnapshot, Publish, PublishHook};
pub use pipeline::{
    shard_plan, IngestError, IngestHandle, IngestPipeline, PipelineClosed, StreamConfig,
};
pub use reducer::{Append, Count, Latest, Reducer, Sum};
pub use stats::{ShardStats, StreamStats};
// The shared routing body, re-exported so the cluster router routes
// through it with no direct cobra-pb dependency.
pub use cobra_pb::route;
// Durable-mode vocabulary re-exported so downstream crates (the serve
// layer, benches) need no direct cobra-wal dependency.
pub use cobra_wal::{SyncPolicy, WalValue};
