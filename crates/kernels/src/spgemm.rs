//! SpGEMM (`C = A · B`, Gustavson order): the expansion emits one partial
//! product per pairing of an `A` entry with a `B` row entry, and the
//! irregular update is a commutative `+=` into the `(row, col)` cell of
//! the output — a scatter domain of `rows × cols` cells, far beyond any
//! cache. The functional product is delegated to `cobra-spgemm` (unfused
//! batch path), which this kernel's arrival-order accumulator matches
//! bitwise; what the kernel adds is the dynamic memory trace of each
//! execution mode.

use crate::common::{accumulate, pc, MatrixAddrs};
use cobra_core::PbBackend;
use cobra_graph::prefix::exclusive_sum;
use cobra_graph::SparseMatrix;
use cobra_sim::engine::Engine;
use std::collections::BTreeMap;

/// Tuple size: 16 B (output-row key + (`col`, `value`) payload).
pub const TUPLE_BYTES: u32 = 16;

/// Number of partial products the expansion of `a · b` emits.
pub fn expansion_tuples(a: &SparseMatrix, b: &SparseMatrix) -> u64 {
    let ro = b.row_offsets();
    a.col_indices()
        .iter()
        .map(|&k| (ro[k as usize + 1] - ro[k as usize]) as u64)
        .sum()
}

/// Native reference: the unfused `cobra-spgemm` batch path.
pub fn reference(a: &SparseMatrix, b: &SparseMatrix) -> SparseMatrix {
    let cfg = cobra_spgemm::SpGemmConfig {
        fusion: false,
        ..Default::default()
    };
    cobra_spgemm::spgemm(a, b, &cfg).0
}

/// Folds `(row, col) += v` cells in arrival order and emits canonical CSR
/// — the shared functional tail of the baseline and PB variants.
fn emit_csr(rows: u32, cols: u32, cells: BTreeMap<(u32, u32), f64>) -> SparseMatrix {
    let mut row_counts = vec![0u32; rows as usize];
    let mut col_idx = Vec::with_capacity(cells.len());
    let mut values = Vec::with_capacity(cells.len());
    for ((r, c), v) in cells {
        row_counts[r as usize] += 1;
        col_idx.push(c);
        values.push(v);
    }
    let row_offsets = exclusive_sum(&row_counts);
    SparseMatrix::from_raw(rows, cols, row_offsets, col_idx, values)
}

/// Streams the Gustavson expansion of `a · b`, charging the loads of both
/// operands, and hands each partial product to `f` — in
/// [`cobra_spgemm::expand`]'s order, which the kernel trace digests pin.
fn expand_trace<E: Engine, F>(
    e: &mut E,
    a: &SparseMatrix,
    b: &SparseMatrix,
    a_addrs: MatrixAddrs,
    b_addrs: MatrixAddrs,
    mut f: F,
) where
    F: FnMut(&mut E, u32, u32, f64),
{
    assert_eq!(
        a.cols(),
        b.rows(),
        "inner dimensions must agree: A is {}x{}, B is {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let rows = a.rows();
    for i in 0..rows {
        e.load(a_addrs.row_offsets.addr(4, i as u64), 4);
        e.load(a_addrs.row_offsets.addr(4, i as u64 + 1), 4);
        e.alu(1);
        e.branch(pc::VERTEX_LOOP, i + 1 < rows);
        let lo = a.row_offsets()[i as usize] as u64;
        let cnt = a.row_offsets()[i as usize + 1] as u64 - lo;
        for (ai, (k, av)) in a.row(i).enumerate() {
            e.load(a_addrs.col_idx.addr(4, lo + ai as u64), 4);
            e.load(a_addrs.values.addr(8, lo + ai as u64), 8);
            e.branch(pc::NEIGHBOR_LOOP, (ai as u64) + 1 < cnt);
            // B's row bounds: irregular in k (A's column order).
            e.load(b_addrs.row_offsets.addr(4, k as u64), 4);
            e.load(b_addrs.row_offsets.addr(4, k as u64 + 1), 4);
            let blo = b.row_offsets()[k as usize] as u64;
            let bcnt = b.row_offsets()[k as usize + 1] as u64 - blo;
            for (bi, (j, bv)) in b.row(k).enumerate() {
                e.load(b_addrs.col_idx.addr(4, blo + bi as u64), 4);
                e.load(b_addrs.values.addr(8, blo + bi as u64), 8);
                e.alu(1); // the multiply
                e.branch(pc::NEIGHBOR_LOOP, (bi as u64) + 1 < bcnt);
                f(e, i, j, av * bv);
            }
        }
    }
}

/// Baseline: every partial product performs an irregular read-modify-write
/// of its `(row, col)` output cell — the worst-case scatter the paper's
/// Figure 2 kernels approximate, squared.
pub fn baseline<E: Engine>(e: &mut E, a: &SparseMatrix, b: &SparseMatrix) -> SparseMatrix {
    let a_addrs = MatrixAddrs::alloc(e, a);
    let b_addrs = MatrixAddrs::alloc(e, b);
    let cols = b.cols().max(1) as u64;
    let out_addr = e.alloc("spgemm_cells", a.rows().max(1) as u64 * cols * 8);

    e.phase(cobra_core::exec::phases::MAIN);
    let mut cells = BTreeMap::new();
    expand_trace(e, a, b, a_addrs, b_addrs, |e, i, j, v| {
        let cell = i as u64 * cols + j as u64;
        e.load(out_addr.addr(8, cell), 8);
        e.alu(1); // the add
        e.store(out_addr.addr(8, cell), 8);
        *cells.entry((i, j)).or_insert(0.0) += v;
    });
    emit_csr(a.rows(), b.cols(), cells)
}

/// PB execution: Binning scatters `(i, (j, a_ik·b_kj))` partial products
/// by output row; Accumulate replays each bin — whose rows span one
/// cache-resident range — folding cells in arrival order.
pub fn pb<B: PbBackend<(u32, f64)>>(
    pbb: &mut B,
    a: &SparseMatrix,
    b: &SparseMatrix,
) -> SparseMatrix {
    let a_addrs = MatrixAddrs::alloc(pbb, a);
    let b_addrs = MatrixAddrs::alloc(pbb, b);
    let cols = b.cols().max(1) as u64;
    let out_addr = pbb.alloc("spgemm_cells", a.rows().max(1) as u64 * cols * 8);

    pbb.phase(cobra_core::exec::phases::INIT);
    // Not `init_bins`: the counts are *weighted* — each A entry (i, k)
    // contributes nnz(B.row(k)) tuples to row i's bin.
    let shift = pbb.bin_shift();
    let mut counts = vec![0u64; pbb.num_bins()];
    let ro = b.row_offsets();
    let nnz = a.nnz();
    let mut idx = 0u64;
    for i in 0..a.rows() {
        for (k, _) in a.row(i) {
            pbb.load(a_addrs.col_idx.addr(4, idx), 4);
            pbb.load(b_addrs.row_offsets.addr(4, k as u64), 4);
            pbb.load(b_addrs.row_offsets.addr(4, k as u64 + 1), 4);
            pbb.alu(2);
            pbb.branch(pc::STREAM_LOOP, (idx as usize) + 1 < nnz);
            counts[(i >> shift) as usize] += (ro[k as usize + 1] - ro[k as usize]) as u64;
            idx += 1;
        }
    }
    pbb.presize(&counts);

    pbb.phase(cobra_core::exec::phases::BINNING);
    expand_trace(pbb, a, b, a_addrs, b_addrs, |pbb, i, j, v| {
        pbb.insert(i, (j, v))
    });
    let storage = pbb.flush_and_take();

    pbb.phase(cobra_core::exec::phases::ACCUMULATE);
    let mut cells = BTreeMap::new();
    accumulate(pbb, &storage, |e, i, &(j, v)| {
        let cell = i as u64 * cols + j as u64;
        e.load(out_addr.addr(8, cell), 8);
        e.alu(1);
        e.store(out_addr.addr(8, cell), 8);
        *cells.entry((i, j)).or_insert(0.0) += v;
    });
    emit_csr(a.rows(), b.cols(), cells)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_core::{CobraMachine, SwPb};
    use cobra_sim::engine::NullEngine;
    use cobra_sim::MachineConfig;
    use cobra_spgemm::{dyadic_matrix, dyadic_skewed_matrix};

    fn inputs() -> (SparseMatrix, SparseMatrix) {
        (
            dyadic_matrix(700, 500, 5, 31),
            dyadic_skewed_matrix(500, 400, 5, 1.2, 32),
        )
    }

    #[test]
    fn baseline_matches_reference_exactly() {
        let (a, b) = inputs();
        let mut e = NullEngine::new();
        assert_eq!(baseline(&mut e, &a, &b), reference(&a, &b));
    }

    #[test]
    fn pb_matches_reference_exactly() {
        let (a, b) = inputs();
        let mut pbb = SwPb::<_, (u32, f64)>::new(
            NullEngine::new(),
            a.rows(),
            32,
            TUPLE_BYTES,
            expansion_tuples(&a, &b),
        );
        assert_eq!(pb(&mut pbb, &a, &b), reference(&a, &b));
    }

    #[test]
    fn cobra_matches_reference_exactly() {
        let (a, b) = inputs();
        let mut mach = CobraMachine::<(u32, f64)>::with_defaults(
            MachineConfig::hpca22(),
            a.rows(),
            TUPLE_BYTES,
            expansion_tuples(&a, &b),
        );
        assert_eq!(pb(&mut mach, &a, &b), reference(&a, &b));
    }

    #[test]
    fn expansion_count_matches_trace() {
        let (a, b) = inputs();
        let mut n = 0u64;
        cobra_spgemm::expand(&a, &b, |_, _| n += 1);
        assert_eq!(expansion_tuples(&a, &b), n);
    }
}
