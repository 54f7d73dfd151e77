//! SymPerm (SuiteSparse `cs_symperm`): symmetric permutation of the upper
//! triangular part of a matrix — `C = P A Pᵀ`, keeping only `C`'s upper
//! triangle. A subroutine of Cholesky factorization. Non-commutative
//! (cursor scatter), and it touches only the upper-triangular entries,
//! which limits the locality-optimization headroom (Section VII-A).

use crate::common::{accumulate, pc, MatrixAddrs};
use cobra_core::PbBackend;
use cobra_graph::prefix::exclusive_sum;
use cobra_graph::SparseMatrix;
use cobra_sim::engine::Engine;

/// Tuple size: 16 B (target-row key + (target-col, value) payload).
pub const TUPLE_BYTES: u32 = 16;

/// Target coordinates of upper-triangular entry `(r, c)` under permutation
/// `p` (row/col of the permuted entry, normalized to the upper triangle).
fn target(p: &[u32], r: u32, c: u32) -> (u32, u32) {
    let (r2, c2) = (p[r as usize], p[c as usize]);
    (r2.min(c2), r2.max(c2))
}

/// Upper-triangular entries of `m` (including the diagonal), row-major.
fn upper_entries(m: &SparseMatrix) -> impl Iterator<Item = (u32, u32, f64)> + '_ {
    (0..m.rows()).flat_map(move |r| {
        m.row(r)
            .filter_map(move |(c, v)| (c >= r).then_some((r, c, v)))
    })
}

/// Native reference.
pub fn reference(m: &SparseMatrix, p: &[u32]) -> SparseMatrix {
    let n = m.rows();
    let mut counts = vec![0u32; n as usize];
    for (r, c, _) in upper_entries(m) {
        counts[target(p, r, c).0 as usize] += 1;
    }
    let row_offsets = exclusive_sum(&counts);
    let mut cursor = row_offsets.clone();
    let nnz = *row_offsets.last().expect("nonempty") as usize;
    let mut col_idx = vec![0u32; nnz];
    let mut values = vec![0f64; nnz];
    for (r, c, v) in upper_entries(m) {
        let (tr, tc) = target(p, r, c);
        let slot = cursor[tr as usize] as usize;
        col_idx[slot] = tc;
        values[slot] = v;
        cursor[tr as usize] += 1;
    }
    SparseMatrix::from_raw(n, n, row_offsets, col_idx, values)
}

/// Baseline: count pass + scatter pass, both irregular over the permuted
/// row domain. The "is upper triangular?" filter branch is data-dependent
/// (the paper's footnote on SymPerm's branch misses).
pub fn baseline<E: Engine>(e: &mut E, m: &SparseMatrix, p: &[u32]) -> SparseMatrix {
    let n = m.rows();
    let addrs = MatrixAddrs::alloc(e, m);
    let p_addr = e.alloc("sp_perm", n.max(1) as u64 * 4);
    let cursor_addr = e.alloc("sp_cursor", n.max(1) as u64 * 4);
    let ocol_addr = e.alloc("sp_out_col", m.nnz().max(1) as u64 * 4);
    let oval_addr = e.alloc("sp_out_val", m.nnz().max(1) as u64 * 8);

    e.phase(cobra_core::exec::phases::MAIN);
    // Count pass.
    let mut counts = vec![0u32; n as usize];
    for r in 0..n {
        e.load(addrs.row_offsets.addr(4, r as u64), 4);
        e.load(addrs.row_offsets.addr(4, r as u64 + 1), 4);
        e.load(p_addr.addr(4, r as u64), 4);
        e.branch(pc::VERTEX_LOOP, r + 1 < n);
        let lo = m.row_offsets()[r as usize] as u64;
        for (j, (c, _)) in m.row(r).enumerate() {
            e.load(addrs.col_idx.addr(4, lo + j as u64), 4);
            let upper = c >= r;
            e.branch(pc::FILTER, upper);
            if !upper {
                continue;
            }
            e.load(p_addr.addr(4, c as u64), 4);
            e.alu(2); // min/max
            let (tr, _) = target(p, r, c);
            e.load(cursor_addr.addr(4, tr as u64), 4);
            e.alu(1);
            e.store(cursor_addr.addr(4, tr as u64), 4);
            counts[tr as usize] += 1;
        }
    }
    let row_offsets = exclusive_sum(&counts);
    // Scatter pass.
    let mut cursor = row_offsets.clone();
    let nnz_u = *row_offsets.last().expect("nonempty") as usize;
    let mut col_idx = vec![0u32; nnz_u];
    let mut values = vec![0f64; nnz_u];
    for r in 0..n {
        e.load(addrs.row_offsets.addr(4, r as u64), 4);
        e.load(addrs.row_offsets.addr(4, r as u64 + 1), 4);
        e.load(p_addr.addr(4, r as u64), 4);
        e.branch(pc::VERTEX_LOOP, r + 1 < n);
        let lo = m.row_offsets()[r as usize] as u64;
        for (j, (c, v)) in m.row(r).enumerate() {
            e.load(addrs.col_idx.addr(4, lo + j as u64), 4);
            e.load(addrs.values.addr(8, lo + j as u64), 8);
            let upper = c >= r;
            e.branch(pc::FILTER, upper);
            if !upper {
                continue;
            }
            e.load(p_addr.addr(4, c as u64), 4);
            e.alu(2);
            let (tr, tc) = target(p, r, c);
            e.load(cursor_addr.addr(4, tr as u64), 4);
            let slot = cursor[tr as usize] as u64;
            e.store(ocol_addr.addr(4, slot), 4);
            e.store(oval_addr.addr(8, slot), 8);
            e.alu(1);
            e.store(cursor_addr.addr(4, tr as u64), 4);
            col_idx[slot as usize] = tc;
            values[slot as usize] = v;
            cursor[tr as usize] += 1;
        }
    }
    SparseMatrix::from_raw(n, n, row_offsets, col_idx, values)
}

/// PB execution: Binning scatters `(target_row, (target_col, v))` tuples;
/// Accumulate performs the cursor scatter bin-locally.
pub fn pb<B: PbBackend<(u32, f64)>>(b: &mut B, m: &SparseMatrix, p: &[u32]) -> SparseMatrix {
    let n = m.rows();
    let addrs = MatrixAddrs::alloc(b, m);
    let p_addr = b.alloc("sp_perm", n.max(1) as u64 * 4);
    let cursor_addr = b.alloc("sp_cursor", n.max(1) as u64 * 4);
    let ocol_addr = b.alloc("sp_out_col", m.nnz().max(1) as u64 * 4);
    let oval_addr = b.alloc("sp_out_val", m.nnz().max(1) as u64 * 8);

    let uppers: Vec<(u32, u32, f64)> = upper_entries(m).collect();
    b.init_bins(uppers.len(), |b, i| {
        let (r, c, _) = uppers[i];
        b.load(addrs.col_idx.addr(4, i as u64), 4);
        b.load(p_addr.addr(4, r as u64), 4);
        b.load(p_addr.addr(4, c as u64), 4);
        b.alu(2);
        target(p, r, c).0
    });
    let mut row_counts = vec![0u32; n as usize];
    for &(r, c, _) in &uppers {
        row_counts[target(p, r, c).0 as usize] += 1;
    }
    let row_offsets = exclusive_sum(&row_counts);

    b.phase(cobra_core::exec::phases::BINNING);
    // Not `traverse_matrix`: `p[r]` loads with the row bounds, and each
    // entry passes the upper-triangle filter before its `p[c]` load.
    for r in 0..n {
        b.load(addrs.row_offsets.addr(4, r as u64), 4);
        b.load(addrs.row_offsets.addr(4, r as u64 + 1), 4);
        b.load(p_addr.addr(4, r as u64), 4);
        b.branch(pc::VERTEX_LOOP, r + 1 < n);
        let lo = m.row_offsets()[r as usize] as u64;
        for (j, (c, v)) in m.row(r).enumerate() {
            b.load(addrs.col_idx.addr(4, lo + j as u64), 4);
            b.load(addrs.values.addr(8, lo + j as u64), 8);
            let upper = c >= r;
            b.branch(pc::FILTER, upper);
            if !upper {
                continue;
            }
            b.load(p_addr.addr(4, c as u64), 4);
            b.alu(2);
            let (tr, tc) = target(p, r, c);
            b.insert(tr, (tc, v));
        }
    }
    let storage = b.flush_and_take();

    b.phase(cobra_core::exec::phases::ACCUMULATE);
    let mut cursor = row_offsets.clone();
    let nnz_u = *row_offsets.last().expect("nonempty") as usize;
    let mut col_idx = vec![0u32; nnz_u];
    let mut values = vec![0f64; nnz_u];
    accumulate(b, &storage, |e, tr, &(tc, v)| {
        e.load(cursor_addr.addr(4, tr as u64), 4);
        let slot = cursor[tr as usize] as u64;
        e.store(ocol_addr.addr(4, slot), 4);
        e.store(oval_addr.addr(8, slot), 8);
        e.alu(1);
        e.store(cursor_addr.addr(4, tr as u64), 4);
        col_idx[slot as usize] = tc;
        values[slot as usize] = v;
        cursor[tr as usize] += 1;
    });
    SparseMatrix::from_raw(n, n, row_offsets, col_idx, values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_core::{CobraMachine, SwPb};
    use cobra_graph::{gen, matrix};
    use cobra_sim::engine::NullEngine;
    use cobra_sim::MachineConfig;

    fn input() -> (SparseMatrix, Vec<u32>) {
        // Structurally symmetric matrix, as symperm expects.
        let m = matrix::stencil27(10, 10, 10);
        let p = gen::random_permutation(m.rows(), 7);
        (m, p)
    }

    #[test]
    fn baseline_matches_reference_exactly() {
        let (m, p) = input();
        let mut e = NullEngine::new();
        assert_eq!(baseline(&mut e, &m, &p), reference(&m, &p));
    }

    #[test]
    fn pb_matches_reference_exactly() {
        let (m, p) = input();
        let mut b = SwPb::<_, (u32, f64)>::new(
            NullEngine::new(),
            m.rows(),
            32,
            TUPLE_BYTES,
            m.nnz() as u64,
        );
        assert_eq!(pb(&mut b, &m, &p), reference(&m, &p));
    }

    #[test]
    fn cobra_matches_reference_exactly() {
        let (m, p) = input();
        let mut mach = CobraMachine::<(u32, f64)>::with_defaults(
            MachineConfig::hpca22(),
            m.rows(),
            TUPLE_BYTES,
            m.nnz() as u64,
        );
        assert_eq!(pb(&mut mach, &m, &p), reference(&m, &p));
    }

    #[test]
    fn identity_permutation_keeps_upper_triangle() {
        let (m, _) = input();
        let id: Vec<u32> = (0..m.rows()).collect();
        let c = reference(&m, &id);
        // Every output entry is upper-triangular and matches the input.
        for r in 0..c.rows() {
            for (col, v) in c.row(r) {
                assert!(col >= r);
                let orig: Vec<(u32, f64)> = m.row(r).collect();
                assert!(orig.contains(&(col, v)));
            }
        }
    }

    #[test]
    fn output_is_upper_triangular() {
        let (m, p) = input();
        let c = reference(&m, &p);
        for r in 0..c.rows() {
            for (col, _) in c.row(r) {
                assert!(col >= r, "entry ({r},{col}) below diagonal");
            }
        }
        // Entry count equals the input's upper-triangle count.
        let uppers = upper_entries(&m).count();
        assert_eq!(c.nnz(), uppers);
    }
}
