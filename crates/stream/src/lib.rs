//! Long-lived, sharded streaming ingestion of irregular updates.
//!
//! `cobra-pb` implements *batch* Propagation Blocking: all tuples exist up
//! front, get binned by key range, then accumulate with a cache-resident
//! working set. This crate turns that into a continuously running service —
//! the software analogue of the paper's full COBRA datapath (Section V):
//!
//! ```text
//!   IngestHandle ──batch──▶ bounded FIFO ──▶ ShardWorker (Binner)
//!        │                  (eviction          │ seal: take_bins
//!        │                   buffer)           ▼
//!        └── more producers, more shards ──▶ Accumulator ──▶ EpochSnapshot
//! ```
//!
//! * [`IngestHandle`]s coalesce `(key, value)` tuples into per-shard
//!   batches (the C-Buffer-line analogue) and ship them into bounded FIFO
//!   channels; a full FIFO blocks the producer, and that backpressure is
//!   measured exactly like `cobra-core`'s simulated eviction-buffer stalls.
//! * Each shard worker owns a [`cobra_pb::Binner`] over a disjoint key
//!   sub-range and bins continuously.
//! * Sealing an *epoch* double-buffers each shard's bins out
//!   ([`cobra_pb::Binner::take_bins`]) so the accumulator replays epoch `e`
//!   while the shards bin epoch `e+1`.
//! * The accumulator applies epoch-aligned waves of per-shard bins and
//!   publishes immutable [`EpochSnapshot`]s, queryable at any time.
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

pub use channel::{ChannelStats, Disconnected, TrySendError};
pub use durable::{commit_dir, shard_dir, DurableConfig, RecoveryReport};
pub use epoch::{EpochSnapshot, PublishHook};
pub use pipeline::{
    shard_plan, IngestHandle, IngestPipeline, PipelineClosed, StreamConfig, TryIngestError,
};
pub use reducer::{Append, Count, Latest, Reducer, Sum};
pub use stats::{ShardStats, StreamStats};
// Durable-mode vocabulary re-exported so downstream crates (the serve
// layer, benches) need no direct cobra-wal dependency.
pub use cobra_wal::{SyncPolicy, WalValue};
