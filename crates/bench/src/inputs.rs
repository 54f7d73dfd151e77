//! The scaled input suite standing in for the paper's Table III.
//!
//! Each generator matches a degree-distribution *class* of the original
//! inputs (see DESIGN.md §2): power-law web/social graphs (DBP, TWIT,
//! UK2005), Graph500 Kronecker (KRON), uniform random (URND), bounded-degree
//! road networks (EURO), an extra-skew class (HBUBL), HPCG-like stencils and
//! SuiteSparse-style simulation/optimization matrices.

use crate::harness::Cells;
use cobra_graph::{gen, matrix};
use cobra_kernels::Input;
use std::rc::Rc;

/// Input sizing: `Quick` for CI, `Standard` for the default evaluation,
/// `Full` for paper-regime runs (slow).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny inputs (seconds for the whole suite).
    Quick,
    /// Default: large enough to exhibit the bin-count tension of Figure 4.
    Standard,
    /// 4 M-vertex graphs / 16 M-entry matrices (tens of minutes).
    Full,
}

impl Scale {
    /// log2 of the graph vertex count.
    pub fn graph_scale(&self) -> u32 {
        match self {
            Scale::Quick => 15,
            Scale::Standard => 21,
            Scale::Full => 22,
        }
    }

    /// Edges per vertex for generated graphs.
    pub fn degree(&self) -> usize {
        match self {
            Scale::Quick => 4,
            Scale::Standard => 4,
            Scale::Full => 8,
        }
    }

    /// Matrix dimension.
    pub fn matrix_rows(&self) -> u32 {
        match self {
            Scale::Quick => 1 << 14,
            Scale::Standard => 1 << 21,
            Scale::Full => 1 << 22,
        }
    }

    /// Number of keys for Integer Sort.
    pub fn sort_keys(&self) -> usize {
        match self {
            Scale::Quick => 1 << 16,
            Scale::Standard => 1 << 23,
            Scale::Full => 1 << 24,
        }
    }

    /// Key domain for Integer Sort.
    pub fn sort_max_key(&self) -> u32 {
        match self {
            Scale::Quick => 1 << 15,
            Scale::Standard => 1 << 22,
            Scale::Full => 1 << 23,
        }
    }

    /// SpGEMM matrix dimension. Deliberately smaller than
    /// [`matrix_rows`](Self::matrix_rows): the expansion phase emits
    /// `nnz(A) × avg-row(B)` partial products, so cost grows with the
    /// *square* of the per-row density.
    pub fn spgemm_rows(&self) -> u32 {
        match self {
            Scale::Quick => 1 << 10,
            Scale::Standard => 1 << 13,
            Scale::Full => 1 << 14,
        }
    }
}

/// An input with its Table III-style name.
#[derive(Debug, Clone)]
pub struct NamedInput {
    /// Suite name (primed to mark the scaled stand-in, e.g. `DBP'`).
    pub name: String,
    /// The class of input it stands in for (Table III's "class" column).
    pub class: &'static str,
    /// The input itself.
    pub input: Input,
}

/// `entry`'s input at `scale`, generated once per [`Cells`] table.
fn named(cells: &mut Cells, &(name, class, build): &Entry, scale: Scale) -> Rc<NamedInput> {
    cells.input(name, scale, || NamedInput {
        name: name.to_owned(),
        class,
        input: build(scale),
    })
}

/// A suite input: its name, its class and its generator.
type Entry = (&'static str, &'static str, fn(Scale) -> Input);

/// The graphs, in suite order.
const GRAPHS: [Entry; 5] = [
    ("DBP'", "power-law (RMAT)", |s| {
        Input::graph(gen::rmat(s.graph_scale(), s.degree(), 0xDB9))
    }),
    ("KRON'", "Graph500 Kronecker", |s| {
        Input::graph(gen::kronecker(s.graph_scale(), s.degree(), 0x7201))
    }),
    ("URND'", "uniform random", |s| {
        let n = 1u32 << s.graph_scale();
        Input::graph(gen::uniform_random(n, n as usize * s.degree(), 0x0123))
    }),
    ("EURO'", "road mesh (bounded degree)", |s| {
        let side = ((1u32 << s.graph_scale()) as f64).sqrt() as u32;
        Input::graph(gen::road_mesh(side, 0xE0E0))
    }),
    ("HBUBL'", "extreme skew (Zipf)", |s| {
        let n = 1u32 << s.graph_scale();
        Input::graph(gen::zipf(n, n as usize * s.degree(), 1.05, 0x4B))
    }),
];

/// The matrices, in suite order.
const MATRICES: [Entry; 4] = [
    ("HPCG'", "27-pt stencil (HPCG)", |s| {
        // Stencil grid sized to roughly `matrix_rows` rows.
        let side = (s.matrix_rows() as f64).cbrt() as u32;
        Input::matrix(matrix::stencil27(side, side, side.max(2)))
    }),
    ("RAND'", "uniform sparse", |s| {
        Input::matrix(matrix::random_uniform(s.matrix_rows(), 4, 0x11AC))
    }),
    ("BAND'", "banded (simulation)", |s| {
        Input::matrix(matrix::banded(s.matrix_rows(), 2, 0xBA9D))
    }),
    ("PLAW'", "power-law columns", |s| {
        Input::matrix(matrix::powerlaw_rows(s.matrix_rows(), 4, 1.1, 0x91AF))
    }),
];

/// The SpGEMM suite: dyadic-valued operands (bitwise-comparable products)
/// in a uniform-column and a Zipf-hot-column class — the latter is where
/// frame fusion pays.
const SPGEMM: [Entry; 2] = [
    ("GEMM-U'", "dyadic, uniform columns", |s| {
        let n = s.spgemm_rows();
        Input::matrix(cobra_spgemm::dyadic_matrix(n, n, 8, 0x96E1))
    }),
    ("GEMM-Z'", "dyadic, Zipf-hot columns", |s| {
        let n = s.spgemm_rows();
        Input::matrix(cobra_spgemm::dyadic_skewed_matrix(n, n, 8, 1.2, 0x96E2))
    }),
];

/// The one sort input.
const SORT: [Entry; 1] = [("RKEYS'", "uniform random keys", |s| {
    let keys = gen::random_keys(s.sort_keys(), s.sort_max_key(), 0x5027);
    Input::keys(keys, s.sort_max_key())
})];

/// The graph suite (power-law, Kronecker, uniform, road, extra-skew).
pub fn graph_suite(cells: &mut Cells, scale: Scale) -> Vec<Rc<NamedInput>> {
    GRAPHS.iter().map(|e| named(cells, e, scale)).collect()
}

/// A reduced graph suite for the more expensive sweeps.
pub fn graph_suite_small(cells: &mut Cells, scale: Scale) -> Vec<Rc<NamedInput>> {
    GRAPHS[..3].iter().map(|e| named(cells, e, scale)).collect()
}

/// The matrix suite (stencil / banded / random / power-law classes).
pub fn matrix_suite(cells: &mut Cells, scale: Scale) -> Vec<Rc<NamedInput>> {
    MATRICES.iter().map(|e| named(cells, e, scale)).collect()
}

/// The sort input (random keys, as in the NAS IS setup).
pub fn sort_input(cells: &mut Cells, scale: Scale) -> Rc<NamedInput> {
    named(cells, &SORT[0], scale)
}

/// The suite a kernel is evaluated on, mirroring Section VI's pairing of
/// kernels to input kinds, and the index of its representative input.
fn suite_of(kernel: cobra_kernels::KernelId) -> (&'static [Entry], usize) {
    use cobra_kernels::KernelId::*;
    match kernel {
        DegreeCount | NeighborPopulate | Pagerank | Radii => (&GRAPHS, 0),
        IntSort => (&SORT, 0),
        Spmv | Transpose | Pinv | SymPerm => (&MATRICES, 1),
        // The skewed class: the one whose fusion behaviour is interesting.
        SpGemm => (&SPGEMM, 1),
    }
}

/// The first `keep` of the default inputs a kernel is evaluated on, in
/// suite order; only those are generated.
pub fn kernel_inputs(
    cells: &mut Cells,
    kernel: cobra_kernels::KernelId,
    scale: Scale,
    keep: usize,
) -> Vec<Rc<NamedInput>> {
    let suite = suite_of(kernel).0.iter().take(keep);
    suite.map(|e| named(cells, e, scale)).collect()
}

/// One representative input per kernel (for the single-input sweeps);
/// only that input is generated.
pub fn representative_input(
    cells: &mut Cells,
    kernel: cobra_kernels::KernelId,
    scale: Scale,
) -> Rc<NamedInput> {
    let (suite, i) = suite_of(kernel);
    named(cells, &suite[i], scale)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_sim::MachineConfig;

    #[test]
    fn quick_suite_generates() {
        let mut cells = Cells::new(MachineConfig::hpca22());
        let gs = graph_suite(&mut cells, Scale::Quick);
        assert_eq!(gs.len(), 5);
        for g in &gs {
            assert!(
                g.input.num_updates(cobra_kernels::KernelId::DegreeCount) > 0,
                "{}",
                g.name
            );
        }
        let ms = matrix_suite(&mut cells, Scale::Quick);
        assert_eq!(ms.len(), 4);
        let s = sort_input(&mut cells, Scale::Quick);
        assert!(s.input.num_updates(cobra_kernels::KernelId::IntSort) > 0);
    }

    #[test]
    fn spgemm_suite_generates() {
        let mut cells = Cells::new(MachineConfig::hpca22());
        let spgemm = cobra_kernels::KernelId::SpGemm;
        let suite = kernel_inputs(&mut cells, spgemm, Scale::Quick, usize::MAX);
        assert_eq!(suite.len(), 2);
        for s in &suite {
            assert!(s.input.num_updates(cobra_kernels::KernelId::SpGemm) > 0);
        }
    }

    #[test]
    fn every_kernel_has_inputs() {
        let mut cells = Cells::new(MachineConfig::hpca22());
        for &k in &cobra_kernels::ALL_KERNELS {
            assert!(!kernel_inputs(&mut cells, k, Scale::Quick, 1).is_empty());
            let _ = representative_input(&mut cells, k, Scale::Quick);
        }
    }
}
