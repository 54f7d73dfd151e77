//! Execution modes and run metrics shared by the evaluation harnesses.

use cobra_sim::engine::SimResult;
use cobra_sim::stats::PhaseStats;
use std::fmt;

/// The execution schemes compared throughout the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Unoptimized irregular updates.
    Baseline,
    /// Software Propagation Blocking with the compromise bin count.
    PbSw,
    /// Idealized PB: Binning at its best bin count spliced with Accumulate
    /// at its best bin count (unrealizable; Figure 5's headroom).
    PbSwIdeal,
    /// Hardware-assisted PB (this paper).
    Cobra,
    /// COBRA specialized for commutative updates (LLC coalescing).
    CobraComm,
    /// Idealized PHI \[43\]: hierarchical coalescing at every level.
    Phi,
    /// CSR-Segmenting 1-D tiling \[63\] (Figure 15 comparator).
    Tiling,
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Mode::Baseline => "Baseline",
            Mode::PbSw => "PB-SW",
            Mode::PbSwIdeal => "PB-SW-IDEAL",
            Mode::Cobra => "COBRA",
            Mode::CobraComm => "COBRA-COMM",
            Mode::Phi => "PHI",
            Mode::Tiling => "Tiling",
        };
        f.write_str(s)
    }
}

/// Canonical phase names emitted by the instrumented kernels.
pub mod phases {
    /// Pre-computation: per-bin counts / BinOffset array / allocation.
    pub const INIT: &str = "init";
    /// The Binning phase.
    pub const BINNING: &str = "binning";
    /// The Accumulate phase.
    pub const ACCUMULATE: &str = "accumulate";
    /// Whole-kernel phase used by baseline (non-PB) executions.
    pub const MAIN: &str = "main";
}

/// The metrics of one simulated kernel execution.
#[derive(Debug, Clone)]
pub struct RunMetrics {
    /// Which scheme produced this run.
    pub mode: Mode,
    /// The underlying simulation result.
    pub result: SimResult,
}

impl RunMetrics {
    /// Wraps a simulation result.
    pub fn new(mode: Mode, result: SimResult) -> Self {
        RunMetrics { mode, result }
    }

    /// Total cycles.
    pub fn cycles(&self) -> u64 {
        self.result.core.cycles
    }

    /// Total instructions.
    pub fn instructions(&self) -> u64 {
        self.result.core.instructions
    }

    /// Cycles of the named phase (0 if absent).
    pub fn phase_cycles(&self, name: &str) -> u64 {
        self.result.phase(name).map_or(0, PhaseStats::cycles)
    }

    /// `other` cycles / `self` cycles — how much faster `self` is.
    pub fn speedup_over(&self, other: &RunMetrics) -> f64 {
        if self.cycles() == 0 {
            0.0
        } else {
            other.cycles() as f64 / self.cycles() as f64
        }
    }

    /// Splices PB-SW-IDEAL from two real PB-SW runs: Binning (and Init)
    /// phases from `binning_run` (few bins), Accumulate and everything else
    /// from `accumulate_run` (many bins). This mirrors the paper's
    /// construction of the unrealizable ideal (Figure 5).
    pub fn splice_ideal(binning_run: &RunMetrics, accumulate_run: &RunMetrics) -> RunMetrics {
        let mut result = accumulate_run.result.clone();
        let mut total: u64 = 0;
        let mut instr: u64 = 0;
        for p in result.phases.iter_mut() {
            if p.name == phases::BINNING {
                if let Some(src) = binning_run.result.phase(phases::BINNING) {
                    *p = src.clone();
                }
            }
            total += p.core.cycles;
            instr += p.core.instructions;
        }
        result.core.cycles = total;
        result.core.instructions = instr;
        RunMetrics {
            mode: Mode::PbSwIdeal,
            result,
        }
    }
}

/// Geometric mean of an iterator of positive ratios (the paper reports mean
/// speedups as geomeans).
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values {
        assert!(v > 0.0, "geomean needs positive values");
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        return 0.0;
    }
    (log_sum / n as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_sim::stats::{CoreStats, MemStats};

    fn fake(mode: Mode, phase_cycles: &[(&'static str, u64)]) -> RunMetrics {
        let phases: Vec<PhaseStats> = phase_cycles
            .iter()
            .map(|&(name, cycles)| PhaseStats {
                name: name.to_owned(),
                mem: MemStats::default(),
                core: CoreStats {
                    cycles,
                    instructions: cycles,
                    ..Default::default()
                },
            })
            .collect();
        let total: u64 = phase_cycles.iter().map(|&(_, c)| c).sum();
        RunMetrics::new(
            mode,
            SimResult {
                mem: MemStats::default(),
                core: CoreStats {
                    cycles: total,
                    instructions: total,
                    ..Default::default()
                },
                phases,
            },
        )
    }

    #[test]
    fn speedup_is_ratio() {
        let a = fake(Mode::Baseline, &[("main", 1000)]);
        let b = fake(Mode::Cobra, &[("main", 250)]);
        assert!((b.speedup_over(&a) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn splice_takes_binning_from_first_and_rest_from_second() {
        let few = fake(
            Mode::PbSw,
            &[("init", 10), ("binning", 100), ("accumulate", 900)],
        );
        let many = fake(
            Mode::PbSw,
            &[("init", 12), ("binning", 700), ("accumulate", 200)],
        );
        let ideal = RunMetrics::splice_ideal(&few, &many);
        assert_eq!(ideal.mode, Mode::PbSwIdeal);
        assert_eq!(ideal.phase_cycles("binning"), 100);
        assert_eq!(ideal.phase_cycles("accumulate"), 200);
        assert_eq!(ideal.cycles(), 12 + 100 + 200);
    }

    #[test]
    fn phase_cycles_absent_is_zero() {
        let r = fake(Mode::Baseline, &[("main", 5)]);
        assert_eq!(r.phase_cycles("binning"), 0);
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean([1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(std::iter::empty::<f64>()), 0.0);
        assert!((geomean([2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn mode_display() {
        assert_eq!(Mode::PbSwIdeal.to_string(), "PB-SW-IDEAL");
        assert_eq!(Mode::CobraComm.to_string(), "COBRA-COMM");
    }
}
