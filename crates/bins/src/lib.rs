//! # cobra-bins — the one bin representation
//!
//! Every Propagation Blocking layer in this workspace — software PB
//! (`cobra-pb`), the simulated backends (`cobra-core`), streaming shards
//! (`cobra-stream`) and the network read path (`cobra-serve`) — buffers
//! `(key, value)` update tuples in per-key-range bins. This crate is the
//! single storage layer they all share:
//!
//! * [`BinStore`] — structure-of-arrays bins: each bin is a pair of
//!   contiguous `keys`/`values` columns whose capacity is acquired in
//!   cacheline-granular slab segments, so the Accumulate phase streams
//!   two dense arrays instead of pointer-chasing tuple `Vec`s.
//! * [`CBufFrame`] — a cacheline-aligned C-Buffer frame (the paper's
//!   coalescing buffer): tuples are staged here column by column and
//!   transferred to the store whole lines at a time. A `Binner` frame
//!   holds [`FRAME_KEYS`] tuples for every payload type — its capacity
//!   counts tuples per column, not bytes per padded tuple.
//! * Freeze-to-`Arc` publishing ([`BinStore::freeze`]): an immutable
//!   store is shared by reference count in O(1) — `take_bins`, epoch
//!   snapshots and caches never deep-copy bin data.
//! * [`identity`] — pointer-identity accounting over the shared
//!   segments: unique-byte tallies for multi-epoch retention windows
//!   ([`SegmentSet`]) and the changed-segment candidate set for
//!   diff-by-identity queries ([`divergent_segments`]).
//! * [`FuseTable`] — a direct-mapped coalescing table in front of a
//!   frame (Coup-style commutative reducer fusion): folds a commutative
//!   update into an already-staged tuple for the same key, so fewer
//!   tuples cross into bin memory on skewed key distributions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frame;
pub mod fusion;
pub mod identity;
pub mod store;

pub use frame::{cbuf_capacity, CBufFrame, FrameFlushStats, FRAME_KEYS, LINE_BYTES};
pub use fusion::{FuseStats, FuseTable};
pub use identity::{divergent_segments, segment_refs, SegmentSet};
pub use store::{bin_geometry, BinMemory, BinStore, FrozenBins};
