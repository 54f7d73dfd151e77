//! SpMV (HPCG): sparse matrix–transpose–vector product `y = Aᵀx` in
//! push/scatter form — each stored entry `(r, c, v)` contributes
//! `v * x[r]` to `y[c]`, an irregular commutative `+=` over the column
//! domain. (The paper's PB versions of SpMV process the transpose
//! representation; the scatter form is that same computation on the
//! untransposed CSR.)

use crate::common::{accumulate, pc, traverse_matrix, MatrixAddrs};
use cobra_core::PbBackend;
use cobra_graph::SparseMatrix;
use cobra_sim::engine::Engine;

/// Tuple size: 16 B (`col` key + `f64` product, padded).
pub const TUPLE_BYTES: u32 = 16;

/// Native reference.
pub fn reference(m: &SparseMatrix, x: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; m.cols() as usize];
    for r in 0..m.rows() {
        for (c, v) in m.row(r) {
            y[c as usize] += v * x[r as usize];
        }
    }
    y
}

/// Baseline: direct scatter.
pub fn baseline<E: Engine>(e: &mut E, m: &SparseMatrix, x: &[f64]) -> Vec<f64> {
    let addrs = MatrixAddrs::alloc(e, m);
    let x_addr = e.alloc("spmv_x", m.rows().max(1) as u64 * 8);
    let y_addr = e.alloc("spmv_y", m.cols().max(1) as u64 * 8);
    let mut y = vec![0.0; m.cols() as usize];
    e.phase(cobra_core::exec::phases::MAIN);
    traverse_matrix(
        e,
        m,
        addrs,
        |e, r| e.load(x_addr.addr(8, r as u64), 8),
        |e, r, c, v| {
            e.alu(1); // multiply
            e.load(y_addr.addr(8, c as u64), 8);
            e.alu(1); // add
            e.store(y_addr.addr(8, c as u64), 8);
            y[c as usize] += v * x[r as usize];
        },
    );
    y
}

/// PB execution: Binning scatters `(c, v * x[r])` products; Accumulate sums
/// per column range.
pub fn pb<B: PbBackend<f64>>(b: &mut B, m: &SparseMatrix, x: &[f64]) -> Vec<f64> {
    let addrs = MatrixAddrs::alloc(b, m);
    let x_addr = b.alloc("spmv_x", m.rows().max(1) as u64 * 8);
    let y_addr = b.alloc("spmv_y", m.cols().max(1) as u64 * 8);
    let mut y = vec![0.0; m.cols() as usize];

    let cols = m.col_indices();
    b.init_bins(cols.len(), |b, i| {
        b.load(addrs.col_idx.addr(4, i as u64), 4);
        cols[i]
    });

    b.phase(cobra_core::exec::phases::BINNING);
    // Not `traverse_matrix`: `x[r]` loads before the row's ALU op, and each
    // entry costs a multiply on top of the loop increment.
    let rows = m.rows();
    for r in 0..rows {
        b.load(addrs.row_offsets.addr(4, r as u64), 4);
        b.load(addrs.row_offsets.addr(4, r as u64 + 1), 4);
        b.load(x_addr.addr(8, r as u64), 8);
        b.alu(1);
        b.branch(pc::VERTEX_LOOP, r + 1 < rows);
        let lo = m.row_offsets()[r as usize] as u64;
        let cnt = m.row_offsets()[r as usize + 1] as u64 - lo;
        for (j, (c, v)) in m.row(r).enumerate() {
            b.load(addrs.col_idx.addr(4, lo + j as u64), 4);
            b.load(addrs.values.addr(8, lo + j as u64), 8);
            b.alu(2); // multiply + loop
            b.branch(pc::NEIGHBOR_LOOP, (j as u64) + 1 < cnt);
            b.insert(c, v * x[r as usize]);
        }
    }
    let storage = b.flush_and_take();

    b.phase(cobra_core::exec::phases::ACCUMULATE);
    accumulate(b, &storage, |e, c, &prod| {
        e.load(y_addr.addr(8, c as u64), 8);
        e.alu(1);
        e.store(y_addr.addr(8, c as u64), 8);
        y[c as usize] += prod;
    });
    y
}

/// Maximum absolute difference (summation order varies across modes).
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_core::{CobraMachine, SwPb};
    use cobra_graph::matrix;
    use cobra_sim::engine::NullEngine;
    use cobra_sim::MachineConfig;

    fn input() -> (SparseMatrix, Vec<f64>) {
        let m = matrix::random_uniform(2000, 8, 13);
        let x: Vec<f64> = (0..2000).map(|i| (i as f64 * 0.37).sin()).collect();
        (m, x)
    }

    #[test]
    fn baseline_matches_reference() {
        let (m, x) = input();
        let mut e = NullEngine::new();
        assert_eq!(baseline(&mut e, &m, &x), reference(&m, &x));
    }

    #[test]
    fn pb_matches_reference_within_fp_tolerance() {
        let (m, x) = input();
        let mut b =
            SwPb::<_, f64>::new(NullEngine::new(), m.cols(), 64, TUPLE_BYTES, m.nnz() as u64);
        let got = pb(&mut b, &m, &x);
        assert!(max_abs_diff(&got, &reference(&m, &x)) < 1e-9);
    }

    #[test]
    fn cobra_matches_reference_within_fp_tolerance() {
        let (m, x) = input();
        let mut mach = CobraMachine::<f64>::with_defaults(
            MachineConfig::hpca22(),
            m.cols(),
            TUPLE_BYTES,
            m.nnz() as u64,
        );
        let got = pb(&mut mach, &m, &x);
        assert!(max_abs_diff(&got, &reference(&m, &x)) < 1e-9);
    }

    #[test]
    fn stencil_matrix_agrees_with_dense_transpose_product() {
        let m = matrix::stencil27(8, 8, 8);
        let x: Vec<f64> = (0..m.rows()).map(|i| 1.0 + (i % 7) as f64).collect();
        let via_scatter = reference(&m, &x);
        let via_transpose = m.transpose_reference().spmv_reference(&x);
        assert!(max_abs_diff(&via_scatter, &via_transpose) < 1e-9);
    }
}
