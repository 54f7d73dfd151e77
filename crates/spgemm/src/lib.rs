//! # cobra-spgemm — propagation-blocked sparse matrix-matrix multiplication
//!
//! SpGEMM (`C = A · B`) is the irregular-update workload the paper's
//! framework was built for, taken one step further than SpMV: the
//! expansion phase emits one *partial product* `(i, j, a_ik · b_kj)` per
//! pairing of an `A` entry with a matching `B` row, and the scatter target
//! is the two-dimensional key `(i, j)` — a domain far too large for any
//! cache. The crate phrases the multiply as Propagation Blocking
//! (Section III of the paper):
//!
//! 1. **Expand + Bin** — Gustavson-order expansion (output row major)
//!    routes every partial product through a [`cobra_pb::Binner`]
//!    partitioned by output *row range*. Because the update is a
//!    commutative `+=`, the binner's Coup-style frame fusion
//!    ([`Binner::insert_fused`](cobra_pb::Binner::insert_fused)) merges
//!    same-`(row, col)` products that meet inside a C-Buffer frame, so
//!    they cross into bin memory as one tuple.
//! 2. **Accumulate** — each bin covers a narrow output-row range, so a
//!    cache-resident accumulator ([`HashAccum`], or [`DenseAccum`] when
//!    `rows × cols` of the bin fits a configured budget) folds the bin
//!    and emits canonical CSR rows in order.
//!
//! [`stream::spgemm_stream`] runs the same multiply as continuous
//! ingestion over `cobra-stream`: row tiles of `A` become epochs, each
//! epoch's seal publishes a partial-result snapshot, and the
//! [`ColSum`] reducer's declared fusability routes shard
//! binning through the same frame-fusion pass.
//!
//! Per-`(i, j)` products always fold in expansion (k-then-duplicate)
//! order, in every path — batch, streaming, hash or dense accumulator —
//! so unfused results are bit-identical across paths; fusion reassociates
//! the per-key sum and is bit-exact on dyadic inputs (see
//! [`dyadic_matrix`]), which is how the `cobra-check` oracle verifies it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accum;
pub mod batch;
pub mod stream;

pub use accum::{DenseAccum, HashAccum};
pub use batch::{
    expand, expand_rows, merge_same_col, spgemm, spgemm_with_merge, SpGemmConfig, SpGemmReport,
    TUPLE_BYTES,
};
pub use stream::{spgemm_stream, ColSum};

use cobra_graph::{SparseMatrix, SplitMix64};

/// A random sparse matrix whose values are dyadic rationals (multiples of
/// 0.25 in `[0.25, 4.0]`): every partial product is a multiple of 2⁻⁴ and
/// every accumulator sum stays exactly representable, so fused, unfused,
/// batch and streaming results can be compared *bitwise*, not by
/// tolerance. Columns are uniform.
pub fn dyadic_matrix(rows: u32, cols: u32, nnz_per_row: u32, seed: u64) -> SparseMatrix {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut triplets = Vec::with_capacity((rows * nnz_per_row) as usize);
    for r in 0..rows {
        for _ in 0..nnz_per_row {
            let v = (rng.u32_below(16) + 1) as f64 * 0.25;
            triplets.push((r, rng.u32_below(cols.max(1)), v));
        }
    }
    SparseMatrix::from_coo(rows, cols, &triplets)
}

/// A dyadic matrix with Zipf-distributed (hot) columns, duplicates kept:
/// hot columns recur — often back to back within a row — which is exactly
/// the temporal locality the frame-fusion pass converts into merged
/// tuples. The skewed half of every fusion benchmark and oracle probe.
pub fn dyadic_skewed_matrix(
    rows: u32,
    cols: u32,
    nnz_per_row: u32,
    alpha: f64,
    seed: u64,
) -> SparseMatrix {
    assert!(alpha > 0.0, "alpha must be positive");
    let cols = cols.max(1);
    let mut rng = SplitMix64::seed_from_u64(seed);
    // Inverse-CDF table over column ranks (same scheme as
    // `cobra_graph::gen::zipf`, reproduced here over column draws).
    let mut cdf = Vec::with_capacity(cols as usize);
    let mut acc = 0.0f64;
    for c in 0..cols {
        acc += 1.0 / (c as f64 + 1.0).powf(alpha);
        cdf.push(acc);
    }
    let total = acc;
    let mut triplets = Vec::with_capacity((rows * nnz_per_row) as usize);
    for r in 0..rows {
        for _ in 0..nnz_per_row {
            let x = rng.f64_range(0.0, total);
            let c = cdf.partition_point(|&p| p < x) as u32;
            let v = (rng.u32_below(16) + 1) as f64 * 0.25;
            triplets.push((r, c.min(cols - 1), v));
        }
    }
    SparseMatrix::from_coo(rows, cols, &triplets)
}

/// Sorted `(row, col, value-bits)` triplets of a matrix — the canonical
/// form the tests and oracles compare matrices in.
pub fn triplets(m: &SparseMatrix) -> Vec<(u32, u32, u64)> {
    let mut v: Vec<(u32, u32, u64)> = (0..m.rows())
        .flat_map(|r| m.row(r).map(move |(c, x)| (r, c, x.to_bits())))
        .collect();
    v.sort_unstable();
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dyadic_values_are_quarters() {
        let m = dyadic_matrix(64, 64, 4, 7);
        assert_eq!(m.nnz(), 256);
        for &v in m.values() {
            assert_eq!(v * 4.0, (v * 4.0).round(), "{v} is not a quarter");
            assert!((0.25..=4.0).contains(&v));
        }
    }

    #[test]
    fn skewed_matrix_has_hot_columns() {
        let m = dyadic_skewed_matrix(512, 512, 8, 1.2, 9);
        let mut counts = vec![0u32; 512];
        for &c in m.col_indices() {
            counts[c as usize] += 1;
        }
        let max = *counts.iter().max().expect("nonempty");
        let avg = (m.nnz() / 512) as u32;
        assert!(max > 5 * avg.max(1), "max {max} avg {avg}");
    }
}
