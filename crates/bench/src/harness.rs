//! Shared execution harness: the table of simulated kernel runs every
//! `repro` row reads, and the PB-SW / PB-SW-IDEAL operating points of
//! Figure 10 built from it the way the paper does.

use crate::inputs::NamedInput;
use cobra_core::exec::{phases, RunMetrics};
use cobra_kernels::{bin_choices, run, KernelId, ModeSpec, RunOutcome};
use cobra_sim::MachineConfig;

/// Baseline, PB-SW and PB-SW-IDEAL for one kernel × input: every mode of
/// Figure 10 but COBRA.
#[derive(Debug, Clone)]
pub struct PbModes {
    /// Unoptimized execution.
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

/// One simulated run: a kernel on a named input under one mode.
#[derive(Debug)]
struct Cell {
    kernel: KernelId,
    input: String,
    spec: ModeSpec,
    outcome: RunOutcome,
}

/// Every kernel run of a process on one machine, one cell per (kernel,
/// input name, mode).
///
/// The paper's figures are views over the same runs ("we simulated
/// multiple bin ranges for PB, selecting the best bin range for each
/// workload and input pair" — Section VI), so a cell is simulated the
/// first time any row asks for it and read back after that. Storing a
/// cell checks its output digest against the other cells of its kernel
/// and input: every mode must compute the same result, and this is the
/// one place that says so. A cell is keyed by the input's name, so one
/// table serves one input [`Scale`](crate::Scale).
#[derive(Debug)]
pub struct Cells {
    machine: MachineConfig,
    cells: Vec<Cell>,
    reused: usize,
}

impl Cells {
    /// An empty table simulating on `machine`.
    pub fn new(machine: MachineConfig) -> Self {
        Cells {
            machine,
            cells: Vec::new(),
            reused: 0,
        }
    }

    /// The simulated machine.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// Cells simulated so far.
    pub fn simulated(&self) -> usize {
        self.cells.len()
    }

    /// Requests answered from an already simulated cell.
    pub fn reused(&self) -> usize {
        self.reused
    }

    /// The run of `kernel` on `ni` under `spec`, simulated on first use.
    ///
    /// # Panics
    ///
    /// Panics if a newly simulated cell's output digest differs from
    /// that of another cell of the same kernel and input.
    pub fn get(&mut self, kernel: KernelId, ni: &NamedInput, spec: ModeSpec) -> RunOutcome {
        let same_input = |c: &&Cell| c.kernel == kernel && c.input == ni.name;
        if let Some(c) = self.cells.iter().find(|c| same_input(c) && c.spec == spec) {
            self.reused += 1;
            return c.outcome.clone();
        }
        let outcome = run(kernel, &ni.input, &spec, &self.machine);
        if let Some(c) = self.cells.iter().find(same_input) {
            assert_eq!(
                outcome.digest,
                c.outcome.digest,
                "{} on {}: {spec:?} output differs from {:?}",
                kernel.name(),
                ni.name,
                c.spec
            );
        }
        self.cells.push(Cell {
            kernel,
            input: ni.name.clone(),
            spec,
            outcome: outcome.clone(),
        });
        outcome
    }

    /// Baseline and PB-SW at the three bin-count operating points of
    /// `bin_choices`, keeping the best total as PB-SW and splicing the
    /// best Binning with the best Accumulate into PB-SW-IDEAL.
    pub fn pb_modes(&mut self, kernel: KernelId, ni: &NamedInput) -> PbModes {
        let choices = bin_choices(kernel, &ni.input, &self.machine);
        let baseline = self.get(kernel, ni, ModeSpec::Baseline);
        let mut candidates = vec![
            choices.binning_ideal,
            choices.sweet_spot,
            choices.accumulate_ideal,
        ];
        candidates.dedup();
        let pb_runs: Vec<(usize, RunMetrics)> = candidates
            .into_iter()
            .map(|bins| {
                let spec = ModeSpec::PbSw { min_bins: bins };
                (bins, self.get(kernel, ni, spec).metrics)
            })
            .collect();
        let (pb_sw_bins, pb_sw) = fastest(&pb_runs, RunMetrics::cycles).clone();
        let pb_ideal = RunMetrics::splice_ideal(
            &fastest(&pb_runs, |m| m.phase_cycles(phases::BINNING)).1,
            &fastest(&pb_runs, |m| m.phase_cycles(phases::ACCUMULATE)).1,
        );
        PbModes {
            baseline,
            pb_sw,
            pb_sw_bins,
            pb_ideal,
        }
    }
}

/// The PB-SW run with the fewest `cycles` (the first of equals).
fn fastest(
    runs: &[(usize, RunMetrics)],
    cycles: impl Fn(&RunMetrics) -> u64,
) -> &(usize, RunMetrics) {
    runs.iter()
        .min_by_key(|(_, m)| cycles(m))
        .expect("at least one PB run")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{representative_input, Scale};

    #[test]
    fn mode_runs_produce_consistent_shapes() {
        let mut cells = Cells::new(MachineConfig::hpca22());
        let ni = representative_input(KernelId::DegreeCount, Scale::Quick);
        let pb = cells.pb_modes(KernelId::DegreeCount, &ni);
        let cobra = cells.get(KernelId::DegreeCount, &ni, ModeSpec::cobra_default());
        assert!(pb.baseline.metrics.cycles() > 0);
        assert!(pb.pb_sw.cycles() > 0);
        assert!(cobra.metrics.cycles() > 0);
        // The spliced ideal's binning phase can be no slower than PB-SW's.
        assert!(
            pb.pb_ideal.phase_cycles("binning") <= pb.pb_sw.phase_cycles("binning"),
            "ideal binning {} vs pb {}",
            pb.pb_ideal.phase_cycles("binning"),
            pb.pb_sw.phase_cycles("binning")
        );
        assert!(pb.pb_sw_bins >= 1);
    }

    #[test]
    fn a_cell_is_simulated_once_per_process() {
        let kernel = KernelId::DegreeCount;
        let mut cells = Cells::new(MachineConfig::hpca22());
        let ni = representative_input(kernel, Scale::Quick);

        // Asking a cell twice simulates it once.
        let first = cells.get(kernel, &ni, ModeSpec::Baseline);
        let again = cells.get(kernel, &ni, ModeSpec::Baseline);
        assert_eq!((cells.simulated(), cells.reused()), (1, 1));
        assert_eq!(again.digest, first.digest);
        assert_eq!(again.metrics.cycles(), first.metrics.cycles());

        // Building PbModes reuses the baseline; after it, the sweet-spot
        // PB-SW cell is read back and only COBRA is simulated anew.
        let pb = cells.pb_modes(kernel, &ni);
        assert_eq!(cells.reused(), 2, "the baseline is not simulated again");
        let (simulated, reused) = (cells.simulated(), cells.reused());
        let sweet = bin_choices(kernel, &ni.input, cells.machine()).sweet_spot;
        let pb_sw = cells.get(kernel, &ni, ModeSpec::PbSw { min_bins: sweet });
        let cobra = cells.get(kernel, &ni, ModeSpec::cobra_default());
        assert_eq!(cells.simulated(), simulated + 1, "only COBRA is new");
        assert_eq!(cells.reused(), reused + 1, "sweet-spot PB-SW is reused");
        assert_eq!(pb_sw.digest, pb.baseline.digest);
        assert_eq!(cobra.digest, pb.baseline.digest);
    }
}
