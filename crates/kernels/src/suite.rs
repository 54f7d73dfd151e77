//! Uniform dispatch over the ten evaluated kernels: one entry point that
//! runs any kernel under any execution mode on the simulated machine and
//! returns its [`RunMetrics`] plus an output digest for cross-mode
//! correctness checking.

use crate::common::{digest_u32, fnv1a};
use cobra_core::exec::{Mode, RunMetrics};
use cobra_core::{CobraMachine, DesConfig, ReservedWays, SwPb};
use cobra_graph::{Csr, EdgeList, SparseMatrix};
use cobra_pb::{ideal_accumulate_bins, ideal_binning_bins, sweet_spot_bins};
use cobra_sim::engine::SimEngine;
use cobra_sim::MachineConfig;

/// BFS rounds simulated for Radii (the paper samples iterations; scaled
/// inputs converge fast).
pub const RADII_ROUNDS: u32 = 3;

/// The nine kernels of the evaluation (Section VI) plus the SpGEMM
/// extension ([`crate::spgemm`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelId {
    /// Edgelist→CSR degree counting (commutative).
    DegreeCount,
    /// Edgelist→CSR neighbor population (non-commutative).
    NeighborPopulate,
    /// One push iteration of Pagerank (commutative).
    Pagerank,
    /// 64-source BFS radii estimation (commutative OR).
    Radii,
    /// Counting sort of random keys (non-commutative).
    IntSort,
    /// Scatter-form SpMV (commutative).
    Spmv,
    /// Sparse transpose (non-commutative).
    Transpose,
    /// Permutation inverse (non-commutative).
    Pinv,
    /// Symmetric permutation of the upper triangle (non-commutative).
    SymPerm,
    /// Propagation-blocked sparse matrix-matrix product `A·A` (commutative).
    SpGemm,
}

/// All kernels, in the paper's presentation order (plus the SpGEMM
/// extension).
pub const ALL_KERNELS: [KernelId; 10] = [
    KernelId::DegreeCount,
    KernelId::NeighborPopulate,
    KernelId::Pagerank,
    KernelId::Radii,
    KernelId::IntSort,
    KernelId::Spmv,
    KernelId::Transpose,
    KernelId::Pinv,
    KernelId::SymPerm,
    KernelId::SpGemm,
];

impl KernelId {
    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            KernelId::DegreeCount => "Degree-Count",
            KernelId::NeighborPopulate => "Neighbor-Populate",
            KernelId::Pagerank => "Pagerank",
            KernelId::Radii => "Radii",
            KernelId::IntSort => "Int-Sort",
            KernelId::Spmv => "SpMV",
            KernelId::Transpose => "Transpose",
            KernelId::Pinv => "PINV",
            KernelId::SymPerm => "SymPerm",
            KernelId::SpGemm => "SpGEMM",
        }
    }

    /// Buffered tuple size in bytes (Section VI: 4 B, 8 B or 16 B): the
    /// kernel module's `TUPLE_BYTES`.
    pub fn tuple_bytes(&self) -> u32 {
        match self {
            KernelId::DegreeCount => crate::degree_count::TUPLE_BYTES,
            KernelId::NeighborPopulate => crate::neighbor_populate::TUPLE_BYTES,
            KernelId::Pagerank => crate::pagerank::TUPLE_BYTES,
            KernelId::Radii => crate::radii::TUPLE_BYTES,
            KernelId::IntSort => crate::int_sort::TUPLE_BYTES,
            KernelId::Spmv => crate::spmv::TUPLE_BYTES,
            KernelId::Transpose => crate::transpose::TUPLE_BYTES,
            KernelId::Pinv => crate::pinv::TUPLE_BYTES,
            KernelId::SymPerm => crate::symperm::TUPLE_BYTES,
            KernelId::SpGemm => crate::spgemm::TUPLE_BYTES,
        }
    }

    /// Whether the kernel's irregular updates commute (Section III-B).
    pub fn is_commutative(&self) -> bool {
        matches!(
            self,
            KernelId::DegreeCount
                | KernelId::Pagerank
                | KernelId::Radii
                | KernelId::Spmv
                | KernelId::SpGemm
        )
    }

    /// Bytes per irregularly-updated element (for bin-count heuristics).
    pub fn elem_bytes(&self) -> u32 {
        match self {
            KernelId::Radii | KernelId::Spmv | KernelId::SpGemm => 8,
            _ => 4,
        }
    }
}

/// A kernel input: graphs for the graph kernels, keys for sorting,
/// matrices (+ permutation) for the linear-algebra kernels.
#[derive(Debug, Clone)]
pub enum Input {
    /// An edge list plus its prebuilt CSR (graph kernels).
    Graph {
        /// The raw edge list (Degree-Count / Neighbor-Populate stream this).
        el: EdgeList,
        /// The CSR built from it (Pagerank / Radii traverse this).
        csr: Csr,
    },
    /// Keys to sort and their exclusive maximum.
    Keys {
        /// The unsorted keys.
        keys: Vec<u32>,
        /// Exclusive upper bound of the key domain.
        max_key: u32,
    },
    /// A sparse matrix plus a row/column permutation (SpMV / Transpose /
    /// PINV / SymPerm).
    Matrix {
        /// The matrix.
        m: SparseMatrix,
        /// A permutation of its rows/columns.
        p: Vec<u32>,
        /// A dense input vector for SpMV.
        x: Vec<f64>,
    },
}

impl Input {
    /// Builds a graph input from an edge list.
    pub fn graph(el: EdgeList) -> Self {
        let csr = Csr::from_edgelist(&el);
        Input::Graph { el, csr }
    }

    /// Builds a sort input.
    pub fn keys(keys: Vec<u32>, max_key: u32) -> Self {
        Input::Keys { keys, max_key }
    }

    /// Builds a matrix input (permutation and vector derived
    /// deterministically).
    pub fn matrix(m: SparseMatrix) -> Self {
        let p = cobra_graph::gen::random_permutation(m.rows(), 0xC0B7A);
        let x = (0..m.rows())
            .map(|i| ((i % 97) as f64) * 0.125 - 4.0)
            .collect();
        Input::Matrix { m, p, x }
    }

    /// The update-key domain size for `kernel` on this input.
    pub fn num_keys(&self, kernel: KernelId) -> u32 {
        match (self, kernel) {
            (Input::Graph { el, .. }, _) => el.num_vertices(),
            (Input::Keys { max_key, .. }, _) => *max_key,
            (Input::Matrix { m, .. }, _) => m.rows().max(m.cols()),
        }
    }

    /// Number of update tuples `kernel` produces on this input.
    pub fn num_updates(&self, kernel: KernelId) -> u64 {
        match (self, kernel) {
            (Input::Graph { el, .. }, _) => el.num_edges() as u64,
            (Input::Keys { keys, .. }, _) => keys.len() as u64,
            (Input::Matrix { m, .. }, KernelId::Pinv) => m.rows() as u64,
            // SpGEMM runs A·A: one tuple per (A entry, matching A row
            // entry) pairing — the expansion count, not nnz.
            (Input::Matrix { m, .. }, KernelId::SpGemm) => crate::spgemm::expansion_tuples(m, m),
            (Input::Matrix { m, .. }, _) => m.nnz() as u64,
        }
    }
}

/// How to execute a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModeSpec {
    /// Direct irregular updates.
    Baseline,
    /// Software PB with at least this many bins.
    PbSw {
        /// Minimum bin count (power-of-two range rounding applies).
        min_bins: usize,
    },
    /// COBRA with explicit way reservation and eviction-buffer sizes.
    Cobra {
        /// Ways reserved per level (`None` = paper default).
        reserved: Option<ReservedWays>,
        /// Eviction buffer sizes.
        des: DesConfig,
        /// Context-switch quantum in cycles, if modeled.
        ctx_quantum: Option<u64>,
    },
}

impl ModeSpec {
    /// COBRA with all defaults.
    pub fn cobra_default() -> Self {
        ModeSpec::Cobra {
            reserved: None,
            des: DesConfig::paper_default(),
            ctx_quantum: None,
        }
    }

    fn mode(&self) -> Mode {
        match self {
            ModeSpec::Baseline => Mode::Baseline,
            ModeSpec::PbSw { .. } => Mode::PbSw,
            ModeSpec::Cobra { .. } => Mode::Cobra,
        }
    }
}

/// The three operating points of Figure 4/5 for a kernel × input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BinChoices {
    /// Few bins: all C-Buffers L1/L2-resident (Binning's ideal).
    pub binning_ideal: usize,
    /// Many bins: one bin's data L1-resident (Accumulate's ideal).
    pub accumulate_ideal: usize,
    /// The compromise software PB must pick.
    pub sweet_spot: usize,
}

/// Computes the bin-count operating points for a kernel × input on a
/// machine.
pub fn bin_choices(kernel: KernelId, input: &Input, machine: &MachineConfig) -> BinChoices {
    let keys = input.num_keys(kernel);
    BinChoices {
        binning_ideal: ideal_binning_bins(keys, machine.l1.size_bytes),
        accumulate_ideal: ideal_accumulate_bins(keys, kernel.elem_bytes(), machine.l1.size_bytes),
        sweet_spot: sweet_spot_bins(keys, kernel.elem_bytes(), machine.l1.size_bytes),
    }
}

/// The result of one suite execution.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Timing/locality metrics.
    pub metrics: RunMetrics,
    /// Digest of the functional output (floats quantized to 1e-4) —
    /// identical across modes of the same kernel × input.
    pub digest: u64,
}

fn digest_f32(vals: &[f32]) -> u64 {
    let q: Vec<u32> = vals
        .iter()
        .map(|&v| (v as f64 * 1e4).round() as i64 as u32)
        .collect();
    digest_u32(&q)
}

fn digest_f64(vals: &[f64]) -> u64 {
    let q: Vec<u32> = vals
        .iter()
        .map(|&v| (v * 1e4).round() as i64 as u32)
        .collect();
    digest_u32(&q)
}

fn digest_csr(g: &Csr) -> u64 {
    digest_u32(g.offsets())
        .wrapping_mul(31)
        .wrapping_add(digest_u32(g.neighbors_array()))
}

fn digest_matrix(m: &SparseMatrix) -> u64 {
    let mut h = digest_u32(m.row_offsets()).wrapping_mul(31);
    h = h.wrapping_add(digest_u32(m.col_indices()));
    let vb: Vec<u8> = m.values().iter().flat_map(|v| v.to_le_bytes()).collect();
    h.wrapping_mul(31).wrapping_add(fnv1a(&vb))
}

macro_rules! dispatch_pb {
    ($kernel:expr, $input:expr, $machine:expr, $spec:expr, $vty:ty, $body:expr) => {{
        let keys = $input.num_keys($kernel);
        let tuples = $input.num_updates($kernel);
        match $spec {
            ModeSpec::PbSw { min_bins } => {
                let mut b = SwPb::<_, $vty>::new(
                    SimEngine::new(*$machine),
                    keys,
                    *min_bins,
                    $kernel.tuple_bytes(),
                    tuples,
                );
                let digest = ($body)(&mut b);
                (digest, b.into_engine().finish())
            }
            ModeSpec::Cobra {
                reserved,
                des,
                ctx_quantum,
            } => {
                let r = reserved.unwrap_or_else(|| ReservedWays::paper_default($machine));
                let mut m = CobraMachine::<$vty>::new(
                    *$machine,
                    r,
                    *des,
                    keys,
                    $kernel.tuple_bytes(),
                    tuples,
                );
                if let Some(q) = ctx_quantum {
                    m.set_context_switch_quantum(*q);
                }
                let digest = ($body)(&mut m);
                (digest, m.finish())
            }
            ModeSpec::Baseline => unreachable!("baseline handled separately"),
        }
    }};
}

/// Runs `kernel` on `input` under `spec` on `machine`.
///
/// # Panics
///
/// Panics if the kernel/input kinds are mismatched (e.g. `IntSort` on a
/// graph input).
pub fn run(
    kernel: KernelId,
    input: &Input,
    spec: &ModeSpec,
    machine: &MachineConfig,
) -> RunOutcome {
    let (digest, result) = if matches!(spec, ModeSpec::Baseline) {
        let mut e = SimEngine::new(*machine);
        let digest = run_baseline(kernel, input, &mut e);
        (digest, e.finish())
    } else {
        run_pb(kernel, input, spec, machine)
    };
    RunOutcome {
        metrics: RunMetrics::new(spec.mode(), result),
        digest,
    }
}

fn run_baseline(kernel: KernelId, input: &Input, e: &mut SimEngine) -> u64 {
    match (kernel, input) {
        (KernelId::DegreeCount, Input::Graph { el, .. }) => {
            digest_u32(&crate::degree_count::baseline(e, el))
        }
        (KernelId::NeighborPopulate, Input::Graph { el, .. }) => {
            digest_csr(&crate::neighbor_populate::baseline(e, el))
        }
        (KernelId::Pagerank, Input::Graph { csr, .. }) => {
            digest_f32(&crate::pagerank::baseline(e, csr))
        }
        (KernelId::Radii, Input::Graph { csr, .. }) => {
            digest_u32(&crate::radii::baseline(e, csr, RADII_ROUNDS).radii)
        }
        (KernelId::IntSort, Input::Keys { keys, max_key }) => {
            digest_u32(&crate::int_sort::baseline(e, keys, *max_key))
        }
        (KernelId::Spmv, Input::Matrix { m, x, .. }) => digest_f64(&crate::spmv::baseline(e, m, x)),
        (KernelId::Transpose, Input::Matrix { m, .. }) => {
            digest_matrix(&crate::transpose::baseline(e, m))
        }
        (KernelId::Pinv, Input::Matrix { p, .. }) => digest_u32(&crate::pinv::baseline(e, p)),
        (KernelId::SymPerm, Input::Matrix { m, p, .. }) => {
            digest_matrix(&crate::symperm::baseline(e, m, p))
        }
        (KernelId::SpGemm, Input::Matrix { m, .. }) => {
            digest_matrix(&crate::spgemm::baseline(e, m, m))
        }
        (k, _) => panic!("kernel {k:?} incompatible with input kind"),
    }
}

fn run_pb(
    kernel: KernelId,
    input: &Input,
    spec: &ModeSpec,
    machine: &MachineConfig,
) -> (u64, cobra_sim::engine::SimResult) {
    match (kernel, input) {
        (KernelId::DegreeCount, Input::Graph { el, .. }) => {
            dispatch_pb!(kernel, input, machine, spec, (), |b: &mut _| digest_u32(
                &crate::degree_count::pb(b, el)
            ))
        }
        (KernelId::NeighborPopulate, Input::Graph { el, .. }) => {
            dispatch_pb!(kernel, input, machine, spec, u32, |b: &mut _| digest_csr(
                &crate::neighbor_populate::pb(b, el)
            ))
        }
        (KernelId::Pagerank, Input::Graph { csr, .. }) => {
            dispatch_pb!(kernel, input, machine, spec, f32, |b: &mut _| digest_f32(
                &crate::pagerank::pb(b, csr)
            ))
        }
        (KernelId::Radii, Input::Graph { csr, .. }) => {
            dispatch_pb!(kernel, input, machine, spec, u64, |b: &mut _| digest_u32(
                &crate::radii::pb(b, csr, RADII_ROUNDS).radii
            ))
        }
        (KernelId::IntSort, Input::Keys { keys, max_key }) => {
            dispatch_pb!(kernel, input, machine, spec, (), |b: &mut _| digest_u32(
                &crate::int_sort::pb(b, keys, *max_key)
            ))
        }
        (KernelId::Spmv, Input::Matrix { m, x, .. }) => {
            dispatch_pb!(kernel, input, machine, spec, f64, |b: &mut _| digest_f64(
                &crate::spmv::pb(b, m, x)
            ))
        }
        (KernelId::Transpose, Input::Matrix { m, .. }) => {
            dispatch_pb!(kernel, input, machine, spec, (u32, f64), |b: &mut _| {
                digest_matrix(&crate::transpose::pb(b, m))
            })
        }
        (KernelId::Pinv, Input::Matrix { p, .. }) => {
            dispatch_pb!(kernel, input, machine, spec, u32, |b: &mut _| digest_u32(
                &crate::pinv::pb(b, p)
            ))
        }
        (KernelId::SymPerm, Input::Matrix { m, p, .. }) => {
            dispatch_pb!(kernel, input, machine, spec, (u32, f64), |b: &mut _| {
                digest_matrix(&crate::symperm::pb(b, m, p))
            })
        }
        (KernelId::SpGemm, Input::Matrix { m, .. }) => {
            dispatch_pb!(kernel, input, machine, spec, (u32, f64), |b: &mut _| {
                digest_matrix(&crate::spgemm::pb(b, m, m))
            })
        }
        (k, _) => panic!("kernel {k:?} incompatible with input kind"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_graph::{gen, matrix};

    fn graph_input() -> Input {
        Input::graph(gen::rmat(9, 6, 3))
    }

    fn matrix_input() -> Input {
        Input::matrix(matrix::random_uniform(800, 6, 9))
    }

    #[test]
    fn every_kernel_runs_in_every_mode_with_matching_digests() {
        let machine = MachineConfig::hpca22();
        let sort_input = Input::keys(gen::random_keys(5000, 1 << 13, 7), 1 << 13);
        for &k in &ALL_KERNELS {
            let input = match k {
                KernelId::DegreeCount
                | KernelId::NeighborPopulate
                | KernelId::Pagerank
                | KernelId::Radii => graph_input(),
                KernelId::IntSort => sort_input.clone(),
                _ => matrix_input(),
            };
            let base = run(k, &input, &ModeSpec::Baseline, &machine);
            let pbsw = run(k, &input, &ModeSpec::PbSw { min_bins: 64 }, &machine);
            let cobra = run(k, &input, &ModeSpec::cobra_default(), &machine);
            assert_eq!(base.digest, pbsw.digest, "{}: baseline vs PB-SW", k.name());
            assert_eq!(base.digest, cobra.digest, "{}: baseline vs COBRA", k.name());
            assert!(base.metrics.cycles() > 0);
            assert!(pbsw.metrics.phase_cycles("binning") > 0, "{}", k.name());
            assert!(cobra.metrics.phase_cycles("accumulate") > 0, "{}", k.name());
        }
    }

    #[test]
    fn bin_choices_ordering_on_large_domain() {
        // The Figure 4 tension needs a key domain several times L1-sized;
        // the paper's graphs have 8-108 M vertices.
        let machine = MachineConfig::hpca22();
        let input = Input::keys(vec![1, 2, 3], 1 << 22);
        let c = bin_choices(KernelId::IntSort, &input, &machine);
        assert!(c.binning_ideal < c.accumulate_ideal, "{c:?}");
        assert!(
            c.binning_ideal <= c.sweet_spot && c.sweet_spot <= c.accumulate_ideal,
            "{c:?}"
        );
    }

    #[test]
    fn kernel_metadata() {
        assert_eq!(KernelId::Radii.tuple_bytes(), 16);
        assert!(!KernelId::NeighborPopulate.is_commutative());
        assert!(KernelId::Pagerank.is_commutative());
        assert_eq!(ALL_KERNELS.len(), 10);
        assert_eq!(KernelId::SpGemm.tuple_bytes(), 16);
        assert!(KernelId::SpGemm.is_commutative());
    }

    #[test]
    #[should_panic]
    fn mismatched_input_panics() {
        let machine = MachineConfig::hpca22();
        run(
            KernelId::IntSort,
            &graph_input(),
            &ModeSpec::Baseline,
            &machine,
        );
    }
}
