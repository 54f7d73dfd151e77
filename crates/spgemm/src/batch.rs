//! Batch SpGEMM: expand → bin (with optional frame fusion) → accumulate.

use crate::accum::{DenseAccum, HashAccum};
use cobra_bins::FuseStats;
use cobra_graph::prefix::exclusive_sum;
use cobra_graph::SparseMatrix;
use cobra_pb::{accumulate, Bin, Binner};
use std::ops::Range;

/// Bytes one binned partial product occupies in bin memory: a 4 B output
/// row key plus the `(col, value)` payload (4 + 8 B). Used for the
/// bin-traffic accounting the fusion pass is judged by.
pub const TUPLE_BYTES: u64 = 16;

/// Tuning knobs for the batch multiply.
#[derive(Debug, Clone, Copy)]
pub struct SpGemmConfig {
    /// Minimum number of output-row bins (power-of-two range rounding
    /// applies, as in every `cobra-pb` binner).
    pub min_bins: usize,
    /// A bin accumulates densely when its `row_range × cols` rectangle has
    /// at most this many cells; otherwise it goes through [`HashAccum`].
    pub dense_limit: u64,
    /// Route partial products through the Coup-style frame-fusion pass
    /// (legal: the per-cell update is a commutative `+=`).
    pub fusion: bool,
}

impl Default for SpGemmConfig {
    fn default() -> Self {
        SpGemmConfig {
            min_bins: 64,
            dense_limit: 1 << 18,
            fusion: true,
        }
    }
}

/// What one batch multiply did, for benches and CI gates.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpGemmReport {
    /// Partial products emitted by the expansion phase.
    pub expand_tuples: u64,
    /// Tuples that actually crossed into bin memory (after fusion).
    pub binned_tuples: u64,
    /// `binned_tuples × TUPLE_BYTES` — the Binning phase's write traffic.
    pub bin_traffic_bytes: u64,
    /// Frame-fusion counters (all zero when fusion was off).
    pub fuse: FuseStats,
    /// Bins accumulated through the dense rectangle.
    pub dense_bins: usize,
    /// Bins accumulated through the hash table.
    pub hash_bins: usize,
    /// Nonzeros in the output matrix.
    pub nnz_out: u64,
    /// Floating-point operations (one multiply + one add per product).
    pub flops: u64,
}

/// Gustavson-order expansion of `A · B`: for each output row `i`, each
/// entry `a_ik` of `A.row(i)` pairs with every entry `b_kj` of `B.row(k)`,
/// emitting the partial product `(i, (j, a_ik · b_kj))`. This is
/// [`expand_rows`] over every row of `A`.
///
/// This is THE canonical product order. The batch path, the streaming
/// path (one [`expand_rows`] call per row tile) and the oracle replay all
/// emit through [`expand_rows`], so per-`(i, j)` partials fold
/// identically everywhere. The instrumented kernel
/// (`cobra-kernels`' `spgemm`) cannot call it, since it charges every
/// load as it walks; its `expand_trace` mirrors this order, and the
/// kernel trace digests pin it. It is also the order that gives frame
/// fusion something to merge — all of an output row's products arrive
/// back to back, so repeated `(i, j)` cells (hot columns of `B`,
/// duplicate entries) meet inside one C-Buffer frame.
///
/// # Panics
///
/// Panics if the inner dimensions disagree.
pub fn expand<F: FnMut(u32, (u32, f64))>(a: &SparseMatrix, b: &SparseMatrix, emit: F) {
    expand_rows(a, b, 0..a.rows(), emit);
}

/// [`expand`] restricted to the output rows `rows`, in the same order.
///
/// # Panics
///
/// Panics if the inner dimensions disagree or `rows` reaches past `A`.
pub fn expand_rows<F: FnMut(u32, (u32, f64))>(
    a: &SparseMatrix,
    b: &SparseMatrix,
    rows: Range<u32>,
    mut emit: F,
) {
    assert_eq!(
        a.cols(),
        b.rows(),
        "inner dimensions must agree: A is {}x{}, B is {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    for i in rows {
        for (k, av) in a.row(i) {
            for (j, bv) in b.row(k) {
                emit(i, (j, av * bv));
            }
        }
    }
}

/// The legal fusion merge: two staged partial products for the same output
/// row combine only when they hit the same output *column* — then the
/// commutative `+=` folds them into one tuple. Different columns refuse
/// (refusal is always safe: the tuple stages normally).
pub fn merge_same_col(a: &mut (u32, f64), b: &(u32, f64)) -> bool {
    if a.0 == b.0 {
        a.1 += b.1;
        true
    } else {
        false
    }
}

/// `C = A · B` by propagation blocking. Returns the product in canonical
/// CSR (rows ascending, columns sorted within each row) plus the traffic
/// report.
///
/// # Panics
///
/// Panics if the inner dimensions disagree.
pub fn spgemm(
    a: &SparseMatrix,
    b: &SparseMatrix,
    cfg: &SpGemmConfig,
) -> (SparseMatrix, SpGemmReport) {
    spgemm_with_merge(a, b, cfg, merge_same_col)
}

/// [`spgemm`] with a caller-supplied fusion merge — the hook the
/// `cobra-check` self-test uses to plant a *broken* merge (one that fuses
/// across columns) and prove the fusion oracle catches it. Production code
/// wants [`spgemm`], which uses [`merge_same_col`].
pub fn spgemm_with_merge<M: FnMut(&mut (u32, f64), &(u32, f64)) -> bool>(
    a: &SparseMatrix,
    b: &SparseMatrix,
    cfg: &SpGemmConfig,
    mut merge: M,
) -> (SparseMatrix, SpGemmReport) {
    let mut report = SpGemmReport::default();
    let mut binner = Binner::<(u32, f64)>::new(a.rows().max(1), cfg.min_bins.max(1));
    expand(a, b, |i, prod| {
        report.expand_tuples += 1;
        if cfg.fusion {
            binner.insert_fused(i, prod, &mut merge);
        } else {
            binner.insert(i, prod);
        }
    });
    report.fuse = binner.fuse_stats();
    report.flops = 2 * report.expand_tuples;
    let bins = binner.finish();
    report.binned_tuples = bins.len() as u64;
    report.bin_traffic_bytes = report.binned_tuples * TUPLE_BYTES;

    // Accumulate bin by bin (bins ascend the row domain, so output rows
    // emit in order).
    let mut row_counts = vec![0u32; a.rows() as usize];
    let mut col_idx: Vec<u32> = Vec::new();
    let mut values: Vec<f64> = Vec::new();
    let mut dense = DenseAccum::new();
    let mut hash = HashAccum::new();
    let body = |bin: Bin<'_, (u32, f64)>| {
        let cells = (bin.keys.end - bin.keys.start) as u64 * b.cols().max(1) as u64;
        let mut emit = |r: u32, c: u32, v: f64| {
            row_counts[r as usize] += 1;
            col_idx.push(c);
            values.push(v);
        };
        if cells <= cfg.dense_limit {
            report.dense_bins += 1;
            dense.reset(bin.keys.clone(), b.cols());
            bin.for_each(|r, &(c, v)| dense.add(r, c, v));
            dense.drain_sorted(&mut emit);
        } else {
            report.hash_bins += 1;
            hash.reset();
            bin.for_each(|r, &(c, v)| hash.add(r, c, v));
            hash.drain_sorted(&mut emit);
        }
    };
    accumulate(std::slice::from_ref(&bins), 1, |_| vec![body]);
    report.nnz_out = col_idx.len() as u64;
    let row_offsets = exclusive_sum(&row_counts);
    (
        SparseMatrix::from_raw(a.rows(), b.cols(), row_offsets, col_idx, values),
        report,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dyadic_matrix, dyadic_skewed_matrix, triplets};

    /// Scalar reference: the same expansion order folded into a per-cell
    /// map — no binning, no fusion.
    fn reference(a: &SparseMatrix, b: &SparseMatrix) -> SparseMatrix {
        let mut cells: std::collections::BTreeMap<(u32, u32), f64> = Default::default();
        expand(a, b, |i, (j, v)| {
            *cells.entry((i, j)).or_insert(0.0) += v;
        });
        let trip: Vec<(u32, u32, f64)> = cells.into_iter().map(|((r, c), v)| (r, c, v)).collect();
        SparseMatrix::from_coo(a.rows(), b.cols(), &trip)
    }

    #[test]
    fn known_product() {
        // [[1, 2], [0, 3]] · [[4, 0], [1, 5]] = [[6, 10], [3, 15]]
        let a = SparseMatrix::from_coo(2, 2, &[(0, 0, 1.0), (0, 1, 2.0), (1, 1, 3.0)]);
        let b = SparseMatrix::from_coo(2, 2, &[(0, 0, 4.0), (1, 0, 1.0), (1, 1, 5.0)]);
        let (c, rep) = spgemm(&a, &b, &SpGemmConfig::default());
        assert_eq!(
            triplets(&c),
            vec![
                (0, 0, 6.0f64.to_bits()),
                (0, 1, 10.0f64.to_bits()),
                (1, 0, 3.0f64.to_bits()),
                (1, 1, 15.0f64.to_bits()),
            ]
        );
        assert_eq!(rep.expand_tuples, 5);
        assert_eq!(rep.flops, 10);
        assert_eq!(rep.nnz_out, 4);
    }

    #[test]
    fn matches_reference_on_uniform_input() {
        let a = dyadic_matrix(300, 200, 5, 1);
        let b = dyadic_matrix(200, 250, 4, 2);
        let (c, _) = spgemm(&a, &b, &SpGemmConfig::default());
        assert_eq!(triplets(&c), triplets(&reference(&a, &b)));
    }

    #[test]
    fn fused_equals_unfused_bitwise_on_skewed_input() {
        let a = dyadic_matrix(600, 400, 6, 3);
        let b = dyadic_skewed_matrix(400, 300, 6, 1.3, 4);
        let unfused = SpGemmConfig {
            fusion: false,
            ..Default::default()
        };
        let (c0, r0) = spgemm(&a, &b, &unfused);
        let (c1, r1) = spgemm(&a, &b, &SpGemmConfig::default());
        assert_eq!(triplets(&c0), triplets(&c1));
        assert!(r1.fuse.hits > 0, "skewed columns must produce fusion hits");
        assert!(
            r1.binned_tuples < r0.binned_tuples,
            "fusion must shrink bin traffic: {} vs {}",
            r1.binned_tuples,
            r0.binned_tuples
        );
        assert_eq!(r0.binned_tuples, r0.expand_tuples);
        assert_eq!(r1.binned_tuples + r1.fuse.hits, r1.expand_tuples);
    }

    #[test]
    fn dense_and_hash_paths_are_bit_identical() {
        let a = dyadic_matrix(500, 300, 4, 5);
        let b = dyadic_matrix(300, 400, 4, 6);
        let all_dense = SpGemmConfig {
            dense_limit: u64::MAX,
            ..Default::default()
        };
        let all_hash = SpGemmConfig {
            dense_limit: 0,
            ..Default::default()
        };
        let (cd, rd) = spgemm(&a, &b, &all_dense);
        let (ch, rh) = spgemm(&a, &b, &all_hash);
        assert!(rd.hash_bins == 0 && rd.dense_bins > 0);
        assert!(rh.dense_bins == 0 && rh.hash_bins > 0);
        assert_eq!(triplets(&cd), triplets(&ch));
    }

    #[test]
    fn broken_merge_is_visible_in_the_output() {
        // Fusing across columns corrupts the product — the property the
        // check self-test plants and must catch.
        let a = dyadic_matrix(200, 150, 5, 7);
        let b = dyadic_skewed_matrix(150, 100, 5, 1.3, 8);
        let (good, _) = spgemm(
            &a,
            &b,
            &SpGemmConfig {
                fusion: false,
                ..Default::default()
            },
        );
        let (bad, rep) = spgemm_with_merge(&a, &b, &SpGemmConfig::default(), |x, y| {
            x.1 += y.1;
            true
        });
        assert!(rep.fuse.hits > 0);
        assert_ne!(triplets(&good), triplets(&bad));
    }

    #[test]
    fn empty_and_degenerate_matrices() {
        let empty = SparseMatrix::from_coo(4, 3, &[]);
        let b = dyadic_matrix(3, 5, 2, 9);
        let (c, rep) = spgemm(&empty, &b, &SpGemmConfig::default());
        assert_eq!(c.nnz(), 0);
        assert_eq!((c.rows(), c.cols()), (4, 5));
        assert_eq!(rep.expand_tuples, 0);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn dimension_mismatch_panics() {
        let a = dyadic_matrix(4, 5, 2, 1);
        let b = dyadic_matrix(6, 4, 2, 2);
        let _ = spgemm(&a, &b, &SpGemmConfig::default());
    }
}
