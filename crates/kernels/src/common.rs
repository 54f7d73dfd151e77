//! Shared instrumentation helpers for the workload kernels.
//!
//! Every kernel is written once, generic over [`Engine`], and reports its
//! dynamic trace through these helpers so that loop overheads (index
//! arithmetic + loop branch) are modeled uniformly across kernels and
//! execution modes.
//!
//! A [`PbBackend`] is an [`Engine`], so the same traversals drive a PB
//! kernel's Binning phase (the per-element body calls
//! [`PbBackend::insert`]), and [`accumulate`] is the one Accumulate walk.
//! With [`PbBackend::init_bins`] for Init, that is the whole three-phase
//! skeleton of Algorithm 2.
//!
//! [`PbBackend`]: cobra_core::PbBackend
//! [`PbBackend::insert`]: cobra_core::PbBackend::insert
//! [`PbBackend::init_bins`]: cobra_core::PbBackend::init_bins

use cobra_core::BinStorage;
use cobra_graph::{Csr, EdgeList};
use cobra_sim::addr::ArrayAddr;
use cobra_sim::engine::Engine;

/// Synthetic PCs for the common branch sites (one predictor entry each).
pub mod pc {
    /// Flat streaming loop over an array.
    pub const STREAM_LOOP: u64 = 0x10;
    /// Outer vertex loop of a CSR traversal.
    pub const VERTEX_LOOP: u64 = 0x20;
    /// Inner neighbor loop of a CSR traversal (unpredictable on power-law
    /// inputs — the paper's footnote 3).
    pub const NEIGHBOR_LOOP: u64 = 0x24;
    /// Data-dependent filter branch (e.g. "visitor changed?", "upper
    /// triangular?").
    pub const FILTER: u64 = 0x30;
}

/// Streams a flat array of `n` elements of `elem_bytes`, charging the load,
/// the index increment, and the loop branch, then invoking `f` per element.
pub fn stream_array<E: Engine, F>(e: &mut E, base: ArrayAddr, n: usize, elem_bytes: u32, mut f: F)
where
    F: FnMut(&mut E, usize),
{
    for i in 0..n {
        e.load(base.addr(elem_bytes as u64, i as u64), elem_bytes);
        e.alu(1);
        e.branch(pc::STREAM_LOOP, i + 1 < n);
        f(e, i);
    }
}

/// Addresses of an edge list in the engine's address space.
#[derive(Debug, Clone, Copy)]
pub struct EdgeListAddrs {
    /// The packed `(src, dst)` edge array (8 B per edge).
    pub edges: ArrayAddr,
}

impl EdgeListAddrs {
    /// Allocates the edge array.
    pub fn alloc<E: Engine>(e: &mut E, el: &EdgeList) -> Self {
        EdgeListAddrs {
            edges: e.alloc("edgelist", el.num_edges().max(1) as u64 * 8),
        }
    }
}

/// Streams the edges of an edge list (one 8 B load + loop overhead each).
pub fn stream_edges<E: Engine, F>(e: &mut E, el: &EdgeList, addrs: EdgeListAddrs, mut f: F)
where
    F: FnMut(&mut E, cobra_graph::Edge),
{
    let n = el.num_edges();
    for (i, &edge) in el.edges().iter().enumerate() {
        e.load(addrs.edges.addr(8, i as u64), 8);
        e.alu(1);
        e.branch(pc::STREAM_LOOP, i + 1 < n);
        f(e, edge);
    }
}

/// Addresses of a CSR graph.
#[derive(Debug, Clone, Copy)]
pub struct CsrAddrs {
    /// Offsets Array (4 B entries).
    pub offsets: ArrayAddr,
    /// Neighbors Array (4 B entries).
    pub neighbors: ArrayAddr,
}

impl CsrAddrs {
    /// Allocates both CSR arrays.
    pub fn alloc<E: Engine>(e: &mut E, g: &Csr) -> Self {
        CsrAddrs {
            offsets: e.alloc("csr_offsets", (g.num_vertices() as u64 + 1) * 4),
            neighbors: e.alloc("csr_neighbors", g.num_edges().max(1) as u64 * 4),
        }
    }
}

/// Traverses a CSR graph: per vertex, loads the offset pair and walks the
/// neighbor array (sequential loads); the inner loop branch is
/// data-dependent on the degree distribution. `per_vertex` runs before the
/// neighbors of each vertex; `per_edge` runs for each `(src, dst)`.
pub fn traverse_csr<E: Engine, PV, PE>(
    e: &mut E,
    g: &Csr,
    addrs: CsrAddrs,
    mut per_vertex: PV,
    mut per_edge: PE,
) where
    PV: FnMut(&mut E, u32),
    PE: FnMut(&mut E, u32, u32),
{
    let nv = g.num_vertices() as u32;
    for v in 0..nv {
        e.load(addrs.offsets.addr(4, v as u64), 4);
        e.load(addrs.offsets.addr(4, v as u64 + 1), 4);
        e.alu(1);
        e.branch(pc::VERTEX_LOOP, v + 1 < nv);
        per_vertex(e, v);
        let lo = g.offsets()[v as usize];
        let deg = g.degree(v);
        for (j, &dst) in g.neighbors(v).iter().enumerate() {
            e.load(addrs.neighbors.addr(4, lo as u64 + j as u64), 4);
            e.alu(1);
            e.branch(pc::NEIGHBOR_LOOP, (j as u32) + 1 < deg);
            per_edge(e, v, dst);
        }
    }
}

/// Addresses of a CSR sparse matrix.
#[derive(Debug, Clone, Copy)]
pub struct MatrixAddrs {
    /// Row offsets (4 B).
    pub row_offsets: ArrayAddr,
    /// Column indices (4 B).
    pub col_idx: ArrayAddr,
    /// Values (8 B).
    pub values: ArrayAddr,
}

impl MatrixAddrs {
    /// Allocates the three CSR arrays of a matrix.
    pub fn alloc<E: Engine>(e: &mut E, m: &cobra_graph::SparseMatrix) -> Self {
        MatrixAddrs {
            row_offsets: e.alloc("mat_row_offsets", (m.rows() as u64 + 1) * 4),
            col_idx: e.alloc("mat_col_idx", m.nnz().max(1) as u64 * 4),
            values: e.alloc("mat_values", m.nnz().max(1) as u64 * 8),
        }
    }
}

/// Traverses a sparse matrix row-major, loading row offsets, column indices
/// and values (all streaming).
pub fn traverse_matrix<E: Engine, PR, PE>(
    e: &mut E,
    m: &cobra_graph::SparseMatrix,
    addrs: MatrixAddrs,
    mut per_row: PR,
    mut per_entry: PE,
) where
    PR: FnMut(&mut E, u32),
    PE: FnMut(&mut E, u32, u32, f64),
{
    let rows = m.rows();
    for r in 0..rows {
        e.load(addrs.row_offsets.addr(4, r as u64), 4);
        e.load(addrs.row_offsets.addr(4, r as u64 + 1), 4);
        e.alu(1);
        e.branch(pc::VERTEX_LOOP, r + 1 < rows);
        per_row(e, r);
        let lo = m.row_offsets()[r as usize] as u64;
        let cnt = m.row_offsets()[r as usize + 1] as u64 - lo;
        for (j, (c, v)) in m.row(r).enumerate() {
            e.load(addrs.col_idx.addr(4, lo + j as u64), 4);
            e.load(addrs.values.addr(8, lo + j as u64), 8);
            e.alu(1);
            e.branch(pc::NEIGHBOR_LOOP, (j as u64) + 1 < cnt);
            per_entry(e, r, c, v);
        }
    }
}

/// The Accumulate phase: replays the bins in order (bins ascending,
/// insertion order within a bin). Per tuple: the streaming load of the
/// tuple from its bin, then `f`'s own accesses and update, then the loop
/// branch.
pub fn accumulate<E: Engine, V, F>(e: &mut E, storage: &BinStorage<V>, mut f: F)
where
    F: FnMut(&mut E, u32, &V),
{
    let n = storage.len();
    let tuple_bytes = storage.tuple_bytes();
    for (i, (addr, key, value)) in storage.iter().enumerate() {
        e.load(addr, tuple_bytes);
        f(e, key, value);
        e.branch(pc::STREAM_LOOP, i + 1 < n);
    }
}

/// FNV-1a over bytes: a stable digest for comparing kernel outputs across
/// execution modes.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Digest of a `u32` slice.
pub fn digest_u32(vals: &[u32]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &v in vals {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_graph::{gen, Csr};
    use cobra_sim::engine::NullEngine;

    #[test]
    fn traverse_csr_visits_every_edge() {
        let el = gen::uniform_random(100, 600, 3);
        let g = Csr::from_edgelist(&el);
        let mut e = NullEngine::new();
        let addrs = CsrAddrs::alloc(&mut e, &g);
        let mut edges = 0usize;
        let mut vertices = 0usize;
        traverse_csr(
            &mut e,
            &g,
            addrs,
            |_, _| vertices += 1,
            |_, _, _| edges += 1,
        );
        assert_eq!(edges, 600);
        assert_eq!(vertices, 100);
    }

    #[test]
    fn stream_edges_counts() {
        let el = gen::uniform_random(10, 55, 1);
        let mut e = NullEngine::new();
        let addrs = EdgeListAddrs::alloc(&mut e, &el);
        let mut n = 0;
        stream_edges(&mut e, &el, addrs, |_, _| n += 1);
        assert_eq!(n, 55);
    }

    #[test]
    fn traverse_matrix_visits_every_entry() {
        let m = cobra_graph::matrix::random_uniform(30, 4, 7);
        let mut e = NullEngine::new();
        let addrs = MatrixAddrs::alloc(&mut e, &m);
        let mut entries = 0;
        traverse_matrix(&mut e, &m, addrs, |_, _| {}, |_, _, _, _| entries += 1);
        assert_eq!(entries, m.nnz());
    }

    #[test]
    fn digest_is_order_sensitive() {
        assert_ne!(digest_u32(&[1, 2, 3]), digest_u32(&[3, 2, 1]));
        assert_eq!(digest_u32(&[1, 2, 3]), digest_u32(&[1, 2, 3]));
        assert_ne!(fnv1a(b"abc"), fnv1a(b"abd"));
    }
}
