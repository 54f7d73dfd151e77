//! # cobra-core — the COBRA architecture model
//!
//! Reproduction of the core contribution of *Improving Locality of Irregular
//! Updates with Hardware Assisted Propagation Blocking* (HPCA 2022):
//! COBRA, a set of ISA and cache-hierarchy extensions that offload
//! Propagation Blocking's Binning phase to fixed-function hardware.
//!
//! * [`isa`] — `bininit` semantics: per-level C-Buffer geometry and
//!   power-of-two bin ranges ([`isa::BinHierarchy`]).
//! * [`evict`] — eviction buffers + binning engines as a discrete-event
//!   simulation, including the Figure 13a fixed-rate driver.
//! * [`backend`] — the [`backend::PbBackend`] abstraction and the
//!   instrumented software-PB backend ([`backend::SwPb`]).
//! * [`cobra`] — [`cobra::CobraMachine`], the simulated machine with
//!   `binupdate`/`binflush` and the context-switch model.
//! * [`comm`] — commutative specializations: COBRA-COMM (LLC coalescing)
//!   and an idealized PHI re-implementation (Section VII-C).
//! * [`exec`] — execution modes and [`exec::RunMetrics`] shared by the
//!   benchmark harnesses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub mod backend;
pub mod cobra;
pub mod comm;
pub mod evict;
pub mod exec;
pub mod isa;

pub use backend::{BinStorage, PbBackend, SwPb};
pub use cobra::CobraMachine;
pub use evict::{DesConfig, EvictStats, EvictionDes};
pub use exec::{Mode, RunMetrics};
pub use isa::{BinHierarchy, LevelBins, ReservedWays};
