//! The scaled input suite standing in for the paper's Table III.
//!
//! Each generator matches a degree-distribution *class* of the original
//! inputs (see DESIGN.md §2): power-law web/social graphs (DBP, TWIT,
//! UK2005), Graph500 Kronecker (KRON), uniform random (URND), bounded-degree
//! road networks (EURO), an extra-skew class (HBUBL), HPCG-like stencils and
//! SuiteSparse-style simulation/optimization matrices.

use cobra_graph::{gen, matrix};
use cobra_kernels::Input;

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
    /// The input itself.
    pub input: Input,
}

fn named(name: &str, input: Input) -> NamedInput {
    NamedInput {
        name: name.to_owned(),
        input,
    }
}

/// The graph suite (power-law, Kronecker, uniform, road, extra-skew).
pub fn graph_suite(scale: Scale) -> Vec<NamedInput> {
    let s = scale.graph_scale();
    let d = scale.degree();
    let n = 1u32 << s;
    let side = (n as f64).sqrt() as u32;
    vec![
        named("DBP'", Input::graph(gen::rmat(s, d, 0xDB9))),
        named("KRON'", Input::graph(gen::kronecker(s, d, 0x7201))),
        named(
            "URND'",
            Input::graph(gen::uniform_random(n, n as usize * d, 0x0123)),
        ),
        named("EURO'", Input::graph(gen::road_mesh(side, 0xE0E0))),
        named(
            "HBUBL'",
            Input::graph(gen::zipf(n, n as usize * d, 1.05, 0x4B)),
        ),
    ]
}

/// A reduced graph suite for the more expensive sweeps.
pub fn graph_suite_small(scale: Scale) -> Vec<NamedInput> {
    graph_suite(scale).into_iter().take(3).collect()
}

/// The matrix suite (stencil / banded / random / power-law classes).
pub fn matrix_suite(scale: Scale) -> Vec<NamedInput> {
    let n = scale.matrix_rows();
    // Stencil grid sized to roughly n rows.
    let side = (n as f64).cbrt() as u32;
    vec![
        named(
            "HPCG'",
            Input::matrix(matrix::stencil27(side, side, side.max(2))),
        ),
        named("RAND'", Input::matrix(matrix::random_uniform(n, 4, 0x11AC))),
        named("BAND'", Input::matrix(matrix::banded(n, 2, 0xBA9D))),
        named(
            "PLAW'",
            Input::matrix(matrix::powerlaw_rows(n, 4, 1.1, 0x91AF)),
        ),
    ]
}

/// The SpGEMM suite: dyadic-valued operands (bitwise-comparable products)
/// in a uniform-column and a Zipf-hot-column class — the latter is where
/// frame fusion pays.
pub fn spgemm_suite(scale: Scale) -> Vec<NamedInput> {
    let n = scale.spgemm_rows();
    vec![
        named(
            "GEMM-U'",
            Input::matrix(cobra_spgemm::dyadic_matrix(n, n, 8, 0x96E1)),
        ),
        named(
            "GEMM-Z'",
            Input::matrix(cobra_spgemm::dyadic_skewed_matrix(n, n, 8, 1.2, 0x96E2)),
        ),
    ]
}

/// The sort input (random keys, as in the NAS IS setup).
pub fn sort_input(scale: Scale) -> NamedInput {
    named(
        "RKEYS'",
        Input::keys(
            gen::random_keys(scale.sort_keys(), scale.sort_max_key(), 0x5027),
            scale.sort_max_key(),
        ),
    )
}

/// The default inputs each kernel is evaluated on, mirroring Section VI's
/// pairing of kernels to input kinds.
pub fn kernel_inputs(kernel: cobra_kernels::KernelId, scale: Scale) -> Vec<NamedInput> {
    use cobra_kernels::KernelId::*;
    match kernel {
        DegreeCount | NeighborPopulate | Pagerank | Radii => graph_suite(scale),
        IntSort => vec![sort_input(scale)],
        Spmv | Transpose | Pinv | SymPerm => matrix_suite(scale),
        SpGemm => spgemm_suite(scale),
    }
}

/// One representative input per kernel (for the single-input sweeps).
pub fn representative_input(kernel: cobra_kernels::KernelId, scale: Scale) -> NamedInput {
    use cobra_kernels::KernelId::*;
    match kernel {
        DegreeCount | NeighborPopulate | Pagerank | Radii => graph_suite(scale)
            .into_iter()
            .next()
            .expect("nonempty suite"),
        IntSort => sort_input(scale),
        Spmv | Transpose | Pinv | SymPerm => matrix_suite(scale)
            .into_iter()
            .nth(1)
            .expect("nonempty suite"),
        // The skewed class: the one whose fusion behaviour is interesting.
        SpGemm => spgemm_suite(scale)
            .into_iter()
            .nth(1)
            .expect("nonempty suite"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_suite_generates() {
        let gs = graph_suite(Scale::Quick);
        assert_eq!(gs.len(), 5);
        for g in &gs {
            assert!(
                g.input.num_updates(cobra_kernels::KernelId::DegreeCount) > 0,
                "{}",
                g.name
            );
        }
        let ms = matrix_suite(Scale::Quick);
        assert_eq!(ms.len(), 4);
        let s = sort_input(Scale::Quick);
        assert!(s.input.num_updates(cobra_kernels::KernelId::IntSort) > 0);
    }

    #[test]
    fn spgemm_suite_generates() {
        let suite = spgemm_suite(Scale::Quick);
        assert_eq!(suite.len(), 2);
        for s in &suite {
            assert!(s.input.num_updates(cobra_kernels::KernelId::SpGemm) > 0);
        }
    }

    #[test]
    fn every_kernel_has_inputs() {
        for &k in &cobra_kernels::ALL_KERNELS {
            assert!(!kernel_inputs(k, Scale::Quick).is_empty());
            let _ = representative_input(k, Scale::Quick);
        }
    }
}
