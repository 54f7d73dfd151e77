//! # cobra-bench — harnesses regenerating every table and figure
//!
//! One binary, `repro`, with one row per experiment (see DESIGN.md §4 for
//! the index):
//!
//! | row | paper artifact |
//! |---|---|
//! | `tab2_machine` | Table II (simulated machine parameters) |
//! | `tab3_inputs` | Table III (input suite, scaled) |
//! | `fig02_llc_missrate` | Figure 2 |
//! | `tab1_phase_breakdown` | Table I |
//! | `fig04_bin_sensitivity` | Figure 4a/4b |
//! | `fig05_ideal_headroom` | Figure 5 |
//! | `fig10_speedups` | Figure 10 |
//! | `fig11_phase_speedups` | Figure 11 |
//! | `fig12_instr_branch` | Figure 12 |
//! | `fig13a_evict_buffers` | Figure 13a |
//! | `fig13b_way_sensitivity` | Figure 13b |
//! | `fig13c_ctx_switch` | Figure 13c |
//! | `fig14_comm_compare` | Figure 14a/14b |
//! | `fig15_tiling_vs_pb` | Figure 15 |
//! | `ablation_partitioning` | Section V-E |
//!
//! `repro [--quick|--full] [name…]` runs the named rows (all of them when
//! none is named) on CI-sized inputs, the standard scale, or paper-regime
//! inputs (slow), and writes a CSV next to each stdout table under
//! `results/`. Every row reads its kernel runs from the process's one
//! [`Cells`] table, so a run several figures share is simulated once and
//! its output digest is checked against the other modes in one place.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub mod harness;
pub mod inputs;
pub mod report;
pub mod timing;

pub use harness::{Cells, PbModes};
pub use inputs::{NamedInput, Scale};
pub use report::Table;
