//! # cobra-cluster — the multi-node tier of the COBRA service
//!
//! Propagation Blocking is a locality transform: bin irregular updates
//! by destination range, then apply each bin with a cache-resident
//! working set. This crate applies the same transform one tier up, where
//! "destination" is a machine and "cache line" is a wire frame:
//!
//! ```text
//!   clients ──▶ ClusterRouter ──UPDATE frames──▶ cobra-served node 0  ──WAL──▶ follower
//!                  │  (bin by key range,          cobra-served node 1          (ship bytes,
//!                  │   flush full frames)         …                             promote on
//!                  └─ SEAL + WAIT_EPOCH barrier ── every node ──────┘           failure)
//! ```
//!
//! * [`RangeMap`] — the key partition: the same power-of-two geometry
//!   that routes keys to shard workers inside one pipeline
//!   ([`cobra_stream::shard_plan`]) routes keys to nodes across the
//!   cluster.
//! * [`ClusterRouter`] — client-side binning: per-node buffers flushed
//!   as dense `UPDATE` frames by the workspace's one routing body
//!   ([`cobra_stream::route`], the body `Binner` and `IngestHandle` run),
//!   with the node connections as its destinations; plus the
//!   coordinator-free epoch barrier
//!   ([`seal_and_commit`]): seal every node, verify the epoch numbers
//!   agree, then `WAIT_EPOCH` on every node so the cluster snapshot for
//!   epoch `E` can only be assembled after every node has durably
//!   committed `E`. No coordinator process exists — the invariant is
//!   carried by the protocol (single sealer + barrier), not by a broker.
//! * [`ReplicaSync`] — WAL-shipping replication: a follower keeps a
//!   byte-for-byte copy of the primary's data directory and promotion is
//!   nothing but crash recovery on the copy.
//!
//! The `cobra-clusterd` binary runs either role (`--node`, `--follow`)
//! as a standalone process.
//!
//! [`seal_and_commit`]: ClusterRouter::seal_and_commit

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod range;
pub mod replica;
pub mod router;

pub use range::RangeMap;
pub use replica::{ReplicaError, ReplicaRound, ReplicaSync};
pub use router::{ClusterConfig, ClusterError, ClusterRouter};
