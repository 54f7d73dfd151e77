//! Shared execution harness: runs a kernel × input under every mode of
//! Figure 10 and constructs the PB-SW / PB-SW-IDEAL operating points the
//! way the paper does.

use cobra_core::exec::{phases, RunMetrics};
use cobra_kernels::{bin_choices, run, Input, KernelId, ModeSpec, RunOutcome};
use cobra_sim::MachineConfig;

/// Baseline, PB-SW and PB-SW-IDEAL for one kernel × input: every mode of
/// Figure 10 but COBRA.
#[derive(Debug, Clone)]
pub struct PbModes {
    /// Unoptimized execution; every other mode's digest must equal its.
    pub baseline: RunOutcome,
    /// Software PB at its best measured bin count ("we simulated multiple
    /// bin ranges for PB, selecting the best bin range for each workload
    /// and input pair" — Section VI).
    pub pb_sw: RunMetrics,
    /// Bin count the chosen PB-SW run used.
    pub pb_sw_bins: usize,
    /// The unrealizable ideal spliced from the best Binning and the best
    /// Accumulate (Figure 5).
    pub pb_ideal: RunMetrics,
}

impl PbModes {
    /// Speedup of `m` over the baseline.
    pub fn speedup(&self, m: &RunMetrics) -> f64 {
        m.speedup_over(&self.baseline.metrics)
    }
}

/// Runs Baseline and PB-SW at the three bin-count operating points of
/// `bin_choices`, keeping the best total as PB-SW and splicing the best
/// Binning with the best Accumulate into PB-SW-IDEAL; verifies every PB
/// digest against the baseline's.
pub fn run_pb_modes(kernel: KernelId, input: &Input, machine: &MachineConfig) -> PbModes {
    let choices = bin_choices(kernel, input, machine);
    let baseline = run(kernel, input, &ModeSpec::Baseline, machine);

    // PB at the three operating points (deduplicated).
    let mut candidates = vec![
        choices.binning_ideal,
        choices.sweet_spot,
        choices.accumulate_ideal,
    ];
    candidates.dedup();
    let mut pb_runs: Vec<(usize, RunOutcome)> = candidates
        .iter()
        .map(|&bins| {
            (
                bins,
                run(kernel, input, &ModeSpec::PbSw { min_bins: bins }, machine),
            )
        })
        .collect();
    for (_, r) in &pb_runs {
        assert_eq!(
            r.digest,
            baseline.digest,
            "{}: PB output mismatch",
            kernel.name()
        );
    }

    // PB-SW = best total; ideal = best binning phase + best accumulate run.
    let best_idx = (0..pb_runs.len())
        .min_by_key(|&i| pb_runs[i].1.metrics.cycles())
        .expect("at least one PB run");
    let best_binning_idx = (0..pb_runs.len())
        .min_by_key(|&i| pb_runs[i].1.metrics.phase_cycles(phases::BINNING))
        .expect("at least one PB run");
    let best_accum_idx = (0..pb_runs.len())
        .min_by_key(|&i| pb_runs[i].1.metrics.phase_cycles(phases::ACCUMULATE))
        .expect("at least one PB run");
    let pb_ideal = RunMetrics::splice_ideal(
        &pb_runs[best_binning_idx].1.metrics,
        &pb_runs[best_accum_idx].1.metrics,
    );
    let pb_sw_bins = pb_runs[best_idx].0;
    let pb_sw = pb_runs.swap_remove(best_idx).1.metrics;

    PbModes {
        baseline,
        pb_sw,
        pb_sw_bins,
        pb_ideal,
    }
}

/// Runs Baseline, PB-SW, PB-SW-IDEAL ([`run_pb_modes`]) and COBRA with
/// paper defaults, verifying output digests agree.
pub fn run_all_modes(
    kernel: KernelId,
    input: &Input,
    machine: &MachineConfig,
) -> (PbModes, RunMetrics) {
    let pb = run_pb_modes(kernel, input, machine);
    let cobra = run(kernel, input, &ModeSpec::cobra_default(), machine);
    assert_eq!(
        cobra.digest,
        pb.baseline.digest,
        "{}: COBRA output mismatch",
        kernel.name()
    );
    (pb, cobra.metrics)
}

/// Runs only PB-SW (at the sweet-spot bin count) and COBRA — the cheap pair
/// for per-phase and instruction-count comparisons (Figures 11 and 12).
pub fn run_pb_cobra(
    kernel: KernelId,
    input: &Input,
    machine: &MachineConfig,
) -> (RunMetrics, RunMetrics) {
    let choices = bin_choices(kernel, input, machine);
    let pb = run(
        kernel,
        input,
        &ModeSpec::PbSw {
            min_bins: choices.sweet_spot,
        },
        machine,
    );
    let cobra = run(kernel, input, &ModeSpec::cobra_default(), machine);
    assert_eq!(
        pb.digest,
        cobra.digest,
        "{}: output mismatch",
        kernel.name()
    );
    (pb.metrics, cobra.metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{representative_input, Scale};

    #[test]
    fn mode_runs_produce_consistent_shapes() {
        let machine = MachineConfig::hpca22();
        let ni = representative_input(KernelId::DegreeCount, Scale::Quick);
        let (pb, cobra) = run_all_modes(KernelId::DegreeCount, &ni.input, &machine);
        assert!(pb.baseline.metrics.cycles() > 0);
        assert!(pb.pb_sw.cycles() > 0);
        assert!(cobra.cycles() > 0);
        // The spliced ideal's binning phase can be no slower than PB-SW's.
        assert!(
            pb.pb_ideal.phase_cycles("binning") <= pb.pb_sw.phase_cycles("binning"),
            "ideal binning {} vs pb {}",
            pb.pb_ideal.phase_cycles("binning"),
            pb.pb_sw.phase_cycles("binning")
        );
        assert!(pb.pb_sw_bins >= 1);
    }
}
