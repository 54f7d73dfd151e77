//! Transpose (SuiteSparse `cs_transpose`): build the CSR of a matrix's
//! transpose. The scatter pass writes each entry to the next free slot of
//! its column's output row — cursor updates make it *non-commutative*.

use crate::common::{accumulate, pc, traverse_matrix, MatrixAddrs};
use cobra_core::PbBackend;
use cobra_graph::prefix::exclusive_sum;
use cobra_graph::SparseMatrix;
use cobra_sim::engine::Engine;

/// Tuple size: 16 B (`col` key + (`row`, `value`) payload).
pub const TUPLE_BYTES: u32 = 16;

/// Native reference (the canonical stable transpose).
pub fn reference(m: &SparseMatrix) -> SparseMatrix {
    m.transpose_reference()
}

fn count_cols(m: &SparseMatrix) -> Vec<u32> {
    let mut counts = vec![0u32; m.cols() as usize];
    for &c in m.col_indices() {
        counts[c as usize] += 1;
    }
    counts
}

/// Baseline: count columns (irregular histogram), prefix-sum, then scatter
/// entries through per-column cursors (two irregular accesses + two
/// irregular stores per entry).
pub fn baseline<E: Engine>(e: &mut E, m: &SparseMatrix) -> SparseMatrix {
    let addrs = MatrixAddrs::alloc(e, m);
    let nnz = m.nnz();
    let cursor_addr = e.alloc("tr_cursor", m.cols().max(1) as u64 * 4);
    let tcol_addr = e.alloc("tr_col", nnz.max(1) as u64 * 4);
    let tval_addr = e.alloc("tr_val", nnz.max(1) as u64 * 8);

    e.phase(cobra_core::exec::phases::MAIN);
    // Histogram over columns.
    for (i, &c) in m.col_indices().iter().enumerate() {
        e.load(addrs.col_idx.addr(4, i as u64), 4);
        e.load(cursor_addr.addr(4, c as u64), 4);
        e.alu(2);
        e.store(cursor_addr.addr(4, c as u64), 4);
        e.branch(pc::STREAM_LOOP, i + 1 < nnz);
    }
    let row_offsets = exclusive_sum(&count_cols(m));
    // Prefix (streaming).
    for c in 0..m.cols() as u64 {
        e.load(cursor_addr.addr(4, c), 4);
        e.alu(1);
        e.store(cursor_addr.addr(4, c), 4);
    }
    // Scatter.
    let mut cursor = row_offsets.clone();
    let mut col_idx = vec![0u32; nnz];
    let mut values = vec![0f64; nnz];
    let rows = m.rows();
    for r in 0..rows {
        e.load(addrs.row_offsets.addr(4, r as u64), 4);
        e.load(addrs.row_offsets.addr(4, r as u64 + 1), 4);
        e.branch(pc::VERTEX_LOOP, r + 1 < rows);
        let lo = m.row_offsets()[r as usize] as u64;
        let cnt = m.row_offsets()[r as usize + 1] as u64 - lo;
        for (j, (c, v)) in m.row(r).enumerate() {
            e.load(addrs.col_idx.addr(4, lo + j as u64), 4);
            e.load(addrs.values.addr(8, lo + j as u64), 8);
            e.branch(pc::NEIGHBOR_LOOP, (j as u64) + 1 < cnt);
            // slot = cursor[c]++ ; t_col[slot] = r ; t_val[slot] = v
            e.load(cursor_addr.addr(4, c as u64), 4);
            let slot = cursor[c as usize] as u64;
            e.store(tcol_addr.addr(4, slot), 4);
            e.store(tval_addr.addr(8, slot), 8);
            e.alu(1);
            e.store(cursor_addr.addr(4, c as u64), 4);
            col_idx[slot as usize] = r;
            values[slot as usize] = v;
            cursor[c as usize] += 1;
        }
    }
    SparseMatrix::from_raw(m.cols(), m.rows(), row_offsets, col_idx, values)
}

/// PB execution: Binning scatters `(c, (r, v))` tuples; the Accumulate phase
/// performs the cursor scatter with bin-local cursors and contiguous output
/// segments.
pub fn pb<B: PbBackend<(u32, f64)>>(b: &mut B, m: &SparseMatrix) -> SparseMatrix {
    let addrs = MatrixAddrs::alloc(b, m);
    let nnz = m.nnz();
    let cursor_addr = b.alloc("tr_cursor", m.cols().max(1) as u64 * 4);
    let tcol_addr = b.alloc("tr_col", nnz.max(1) as u64 * 4);
    let tval_addr = b.alloc("tr_val", nnz.max(1) as u64 * 8);

    let cols = m.col_indices();
    b.init_bins(cols.len(), |b, i| {
        b.load(addrs.col_idx.addr(4, i as u64), 4);
        cols[i]
    });
    let row_offsets = exclusive_sum(&count_cols(m));

    b.phase(cobra_core::exec::phases::BINNING);
    traverse_matrix(b, m, addrs, |_, _| {}, |b, r, c, v| b.insert(c, (r, v)));
    let storage = b.flush_and_take();

    b.phase(cobra_core::exec::phases::ACCUMULATE);
    let mut cursor = row_offsets.clone();
    let mut col_idx = vec![0u32; nnz];
    let mut values = vec![0f64; nnz];
    accumulate(b, &storage, |e, c, &(r, v)| {
        e.load(cursor_addr.addr(4, c as u64), 4);
        let slot = cursor[c as usize] as u64;
        e.store(tcol_addr.addr(4, slot), 4);
        e.store(tval_addr.addr(8, slot), 8);
        e.alu(1);
        e.store(cursor_addr.addr(4, c as u64), 4);
        col_idx[slot as usize] = r;
        values[slot as usize] = v;
        cursor[c as usize] += 1;
    });
    SparseMatrix::from_raw(m.cols(), m.rows(), row_offsets, col_idx, values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_core::{CobraMachine, SwPb};
    use cobra_graph::matrix;
    use cobra_sim::engine::NullEngine;
    use cobra_sim::MachineConfig;

    fn input() -> SparseMatrix {
        matrix::powerlaw_rows(1500, 8, 1.1, 21)
    }

    #[test]
    fn baseline_matches_reference_exactly() {
        let m = input();
        let mut e = NullEngine::new();
        assert_eq!(baseline(&mut e, &m), reference(&m));
    }

    #[test]
    fn pb_matches_reference_exactly() {
        // Bitwise-identical transpose: per-column slot order is preserved
        // through binning (the non-commutative correctness property).
        let m = input();
        let mut b = SwPb::<_, (u32, f64)>::new(
            NullEngine::new(),
            m.cols(),
            32,
            TUPLE_BYTES,
            m.nnz() as u64,
        );
        assert_eq!(pb(&mut b, &m), reference(&m));
    }

    #[test]
    fn cobra_matches_reference_exactly() {
        let m = input();
        let mut mach = CobraMachine::<(u32, f64)>::with_defaults(
            MachineConfig::hpca22(),
            m.cols(),
            TUPLE_BYTES,
            m.nnz() as u64,
        );
        assert_eq!(pb(&mut mach, &m), reference(&m));
    }

    #[test]
    fn double_transpose_is_identity_on_entries() {
        let m = input();
        let mut e = NullEngine::new();
        let t = baseline(&mut e, &m);
        let tt = baseline(&mut e, &t);
        // Compare as sorted triplets.
        let trip = |m: &SparseMatrix| {
            let mut v: Vec<(u32, u32, u64)> = (0..m.rows())
                .flat_map(|r| m.row(r).map(move |(c, x)| (r, c, x.to_bits())))
                .collect();
            v.sort();
            v
        };
        assert_eq!(trip(&m), trip(&tt));
    }
}
