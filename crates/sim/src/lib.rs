//! # cobra-sim — a trace-driven memory-hierarchy and timing simulator
//!
//! This crate is the architectural substrate used by the COBRA reproduction
//! (HPCA 2022, Balaji & Lucia). It models, from scratch:
//!
//! * a synthetic [`AddressSpace`] for laying out the data
//!   structures of instrumented kernels,
//! * set-associative [`Cache`](cache::Cache)s with Bit-PLRU, LRU and DRRIP
//!   replacement and Intel-CAT-style way reservation,
//! * a three-level write-back [`Hierarchy`](hierarchy::Hierarchy) with DRAM
//!   traffic accounting, non-temporal stores, and an L2 stream
//!   [prefetcher](prefetch),
//! * a gshare [branch predictor](branch),
//! * a simplified limited-window out-of-order [timing model](timing) (issue
//!   width, ROB-bounded memory-level parallelism, branch-flush penalty),
//! * the [`Engine`] trait through which kernels emit their
//!   dynamic instruction/memory trace exactly once, whether they run natively
//!   ([`NullEngine`]) or under simulation
//!   ([`SimEngine`]).
//!
//! The machine configuration reproducing the paper's Table II is
//! [`MachineConfig::hpca22`](config::MachineConfig::hpca22).
//!
//! ## Example
//!
//! ```
//! use cobra_sim::config::MachineConfig;
//! use cobra_sim::engine::{Engine, SimEngine};
//!
//! let mut m = SimEngine::new(MachineConfig::hpca22());
//! let a = m.address_space_mut().alloc("data", 1 << 20);
//! for i in 0..1024u64 {
//!     m.load(a.addr(8, i), 8); // sequential loads: mostly L1 hits
//!     m.alu(1);
//! }
//! let r = m.finish();
//! assert!(r.mem.l1d.hit_rate() > 0.8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub mod addr;
pub mod branch;
pub mod cache;
pub mod config;
pub mod engine;
pub mod hierarchy;
pub mod prefetch;
pub mod stats;
pub mod timing;

pub use addr::{AddressSpace, ArrayAddr};
pub use config::{CacheConfig, MachineConfig};
pub use engine::{Engine, NullEngine, SimEngine, SimResult};
pub use stats::{Level, MemStats, PhaseStats};

/// Cache-line size used throughout the simulator, in bytes (Table II).
pub const LINE_BYTES: u64 = 64;
