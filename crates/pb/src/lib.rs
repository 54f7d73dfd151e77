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
//!    `cobra_bins::FRAME_KEYS` tuples — whole cache lines of keys and of
//!    values — so bins are written several full lines at a time;
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
//! for (i, &k) in keys.iter().enumerate() {
//!     binner.insert(k, i as u32); // remember where each key came from
//! }
//! let bins = binner.finish();
//! // Bin 0 covers keys [0, 64): all the small keys, in arrival order,
//! // stored as two contiguous columns.
//! assert_eq!(bins.keys(0), &[5, 1, 7, 1, 3, 7, 5]);
//! assert_eq!(bins.keys(3), &[200]);
//! ```
//!
//! ## Parallel use
//!
//! [`bin_parallel`] creates per-thread
//! [`Binner`]s (no synchronization during Binning, exactly as in the
//! paper's Algorithm 2), sizes their bins before the first insert (the
//! paper's Init phase, from the item count instead of a counting pass) and
//! [`ThreadBins::accumulate_into`](parallel::ThreadBins::accumulate_into)
//! replays bins over disjoint slices of the output in parallel.
//!
//! That no two workers write one key is the compiler's proof, not a
//! run-time check: the output is split with `chunks_mut` and this crate
//! forbids `unsafe_code`. Routing (`key >> bin_shift` names the bin) and
//! ownership (a bin's keys lie inside its chunk) are values, so they are
//! tests, in [`parallel`]. The crate has no cargo feature: the build the
//! tests run is the build that ships.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub mod binner;
pub mod config;
pub mod parallel;

pub use binner::{Binner, Bins, Tuple};
pub use config::{ideal_accumulate_bins, ideal_binning_bins, sweet_spot_bins};
pub use parallel::{bin_parallel, ThreadBins};
