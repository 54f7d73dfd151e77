//! # cobra-pb — software Propagation Blocking
//!
//! A standalone implementation of Propagation Blocking (PB), the
//! cache-locality optimization for irregular memory updates (Beamer et al.,
//! IPDPS'17), as generalized by *Improving Locality of Irregular Updates
//! with Hardware Assisted Propagation Blocking* (HPCA 2022) to any kernel
//! with unordered parallelism — commutative or not.
//!
//! PB splits an irregular-update kernel into two phases:
//!
//! 1. **Binning** — stream the input and append each update tuple
//!    `(key, value)` to a bin responsible for a contiguous range of keys,
//!    staging tuples in coalescing buffers ("C-Buffers") of
//!    `cobra_bins::FRAME_KEYS` (128) tuples — eight cache lines of keys
//!    and sixteen of `u64` values — so bins are written several full
//!    lines at a time;
//! 2. **Accumulate** — replay each bin's tuples in order; because a bin's
//!    keys span a small range, the randomly-accessed data stays cache
//!    resident.
//!
//! Order within a bin is preserved (per producing thread), which is what
//! makes PB correct for *non-commutative* kernels such as
//! Neighbor-Populate: a vertex's neighbors may be written in any order, but
//! each update must be applied exactly once, unduplicated and uncoalesced.
//!
//! ## Quick start: binning irregular updates
//!
//! ```
//! use cobra_pb::Binner;
//!
//! let keys = [5u32, 1, 7, 1, 3, 7, 200, 5];
//! let mut binner = Binner::<u32>::new(256, 4);
//! // One run: remember where each key came from.
//! binner.extend(keys.iter().enumerate().map(|(i, &k)| (k, i as u32)));
//! binner.insert(9, 8); // a run of one tuple
//! let bins = binner.finish();
//! // Bin 0 covers keys [0, 64): all the small keys, in arrival order,
//! // stored as two contiguous columns.
//! assert_eq!(bins.keys(0), &[5, 1, 7, 1, 3, 7, 5, 9]);
//! assert_eq!(bins.keys(3), &[200]);
//! ```
//!
//! ## One routing body for every level
//!
//! COBRA bins at every level of a hierarchy with power-of-two ranges.
//! [`route::route`] is that mechanism, written once: per tuple of a run
//! it checks the key against the domain, shifts it to name a
//! destination, stages it in that destination's frame (or lets the
//! level merge it into a staged one) and hands a full frame off; a
//! refused hand-off takes the tuple back out and stops the run. Three
//! software levels run it, each with its own [`route::Destinations`]
//! (and so do `cobra-core`'s simulated ones: `SwPb`'s C-Buffers and
//! COBRA's L1 → L2 → LLC chain):
//!
//! * [`Binner`]: C-Buffer frames flushed into bin memory, with
//!   Coup-style fusion as the merge step. [`Binner::extend`] and
//!   [`Binner::extend_fused`] pass a whole run, [`Binner::insert`] and
//!   [`Binner::insert_fused`] a run of one; the bins and every counter
//!   come out as they would one tuple at a time.
//! * `cobra-stream`'s `IngestHandle`: frames moved into shard FIFOs,
//!   which block `send` and `send_all` when full.
//! * `cobra-cluster`'s `ClusterRouter`: frames sent to a node as one
//!   `UPDATE` batch.
//!
//! ## Parallel use
//!
//! [`bin_parallel`] creates per-thread
//! [`Binner`]s (no synchronization during Binning, exactly as in the
//! paper's Algorithm 2), sizes their bins before the first insert (the
//! paper's Init phase, from the item count instead of a counting pass)
//! and routes each thread's item range as one run.
//!
//! Accumulate is written once: [`accumulate`] walks per-thread [`Bins`]
//! in Algorithm 2's order (its doc states it) and hands each non-empty
//! [`Bin`] to a body, on the caller's thread or on workers that each
//! take a contiguous run of bins. [`Bins::accumulate`] and
//! [`ThreadBins::accumulate_serial`](parallel::ThreadBins::accumulate_serial)
//! are its one-worker uses,
//! [`ThreadBins::accumulate_into`](parallel::ThreadBins::accumulate_into)
//! its many-worker use, replaying each run of bins into its own slice of
//! the output.
//!
//! That no two workers write one key is the compiler's proof, not a
//! run-time check: the output is split with `chunks_mut` and this crate
//! forbids `unsafe_code`. Routing (`key >> bin_shift` names the bin) and
//! ownership (a bin's keys lie inside its chunk) are values, so they are
//! tests, in [`parallel`]. The crate has no cargo feature: the build the
//! tests run is the build that ships.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
mod accumulate;
pub mod binner;
pub mod config;
pub mod parallel;
pub mod route;

pub use accumulate::{accumulate, Bin};
pub use binner::{Binner, Bins, Tuple};
pub use config::{ideal_accumulate_bins, ideal_binning_bins, sweet_spot_bins};
pub use parallel::{bin_parallel, ThreadBins};
