//! CSR-Segmenting (1-D graph tiling) — the Figure 15 comparator.
//!
//! Tiling splits the destination-vertex range into segments small enough to
//! stay cache-resident and pre-builds a per-segment edge structure (edges
//! grouped by destination segment, source-sorted within a segment). Each
//! Pagerank iteration then processes one segment at a time: contribution
//! reads stream in source order while the irregular `+=` lands in the
//! segment's cache-resident range. The price is a one-time construction
//! cost much larger than PB's bin allocation (the shaded init bars of
//! Figure 15) and re-streaming the contribution array once per segment.

use crate::common::{accumulate, pc};
use crate::pagerank::DAMPING;
use cobra_core::PbBackend;
use cobra_graph::Csr;
use cobra_sim::engine::Engine;

/// Multi-iteration baseline Pagerank (push scatter each iteration).
pub fn pagerank_baseline_iters<E: Engine>(e: &mut E, g: &Csr, iters: u32) -> Vec<f32> {
    let nv = g.num_vertices();
    let addrs = crate::common::CsrAddrs::alloc(e, g);
    let contrib_addr = e.alloc("prt_contrib", nv.max(1) as u64 * 4);
    let sums_addr = e.alloc("prt_sums", nv.max(1) as u64 * 4);

    let mut rank = vec![1.0f32 / nv as f32; nv];
    e.phase(cobra_core::exec::phases::MAIN);
    for _ in 0..iters {
        let contrib: Vec<f32> = (0..nv)
            .map(|v| {
                let d = g.degree(v as u32);
                if d == 0 {
                    0.0
                } else {
                    rank[v] / d as f32
                }
            })
            .collect();
        let mut sums = vec![0.0f32; nv];
        let nv32 = nv as u32;
        for u in 0..nv32 {
            e.load(addrs.offsets.addr(4, u as u64), 4);
            e.load(addrs.offsets.addr(4, u as u64 + 1), 4);
            e.load(contrib_addr.addr(4, u as u64), 4);
            e.branch(pc::VERTEX_LOOP, u + 1 < nv32);
            let lo = g.offsets()[u as usize] as u64;
            let deg = g.degree(u);
            for (j, &v) in g.neighbors(u).iter().enumerate() {
                e.load(addrs.neighbors.addr(4, lo + j as u64), 4);
                e.branch(pc::NEIGHBOR_LOOP, (j as u32) + 1 < deg);
                e.load(sums_addr.addr(4, v as u64), 4);
                e.alu(1);
                e.store(sums_addr.addr(4, v as u64), 4);
                sums[v as usize] += contrib[u as usize];
            }
        }
        let base = (1.0 - DAMPING) / nv as f32;
        for v in 0..nv {
            e.load(sums_addr.addr(4, v as u64), 4);
            e.alu(2);
            e.store(contrib_addr.addr(4, v as u64), 4);
            rank[v] = base + DAMPING * sums[v];
        }
    }
    rank
}

/// Multi-iteration PB Pagerank: bins are rebuilt every iteration (Binning +
/// Accumulate per iteration); the Init pass (bin sizing) runs once because
/// the tuple-count-per-bin is iteration-invariant.
pub fn pagerank_pb_iters<B: PbBackend<f32>>(b: &mut B, g: &Csr, iters: u32) -> Vec<f32> {
    let nv = g.num_vertices();
    let addrs = crate::common::CsrAddrs::alloc(b, g);
    let contrib_addr = b.alloc("prt_contrib", nv.max(1) as u64 * 4);
    let sums_addr = b.alloc("prt_sums", nv.max(1) as u64 * 4);

    let mut rank = vec![1.0f32 / nv as f32; nv];

    let na = g.neighbors_array();
    b.init_bins(na.len(), |b, i| {
        b.load(addrs.neighbors.addr(4, i as u64), 4);
        na[i]
    });

    for _ in 0..iters {
        let contrib: Vec<f32> = (0..nv)
            .map(|v| {
                let d = g.degree(v as u32);
                if d == 0 {
                    0.0
                } else {
                    rank[v] / d as f32
                }
            })
            .collect();

        b.phase(cobra_core::exec::phases::BINNING);
        // Not `traverse_csr`: the vertex loop loads `contrib[u]` instead of
        // charging an ALU op, as `pagerank_baseline_iters` does.
        let nv32 = nv as u32;
        for u in 0..nv32 {
            b.load(addrs.offsets.addr(4, u as u64), 4);
            b.load(addrs.offsets.addr(4, u as u64 + 1), 4);
            b.load(contrib_addr.addr(4, u as u64), 4);
            b.branch(pc::VERTEX_LOOP, u + 1 < nv32);
            let lo = g.offsets()[u as usize] as u64;
            let deg = g.degree(u);
            for (j, &v) in g.neighbors(u).iter().enumerate() {
                b.load(addrs.neighbors.addr(4, lo + j as u64), 4);
                b.alu(1);
                b.branch(pc::NEIGHBOR_LOOP, (j as u32) + 1 < deg);
                b.insert(v, contrib[u as usize]);
            }
        }
        let storage = b.flush_and_take();

        b.phase(cobra_core::exec::phases::ACCUMULATE);
        let mut sums = vec![0.0f32; nv];
        accumulate(b, &storage, |e, key, &c| {
            e.load(sums_addr.addr(4, key as u64), 4);
            e.alu(1);
            e.store(sums_addr.addr(4, key as u64), 4);
            sums[key as usize] += c;
        });
        let base = (1.0 - DAMPING) / nv as f32;
        for v in 0..nv {
            b.load(sums_addr.addr(4, v as u64), 4);
            b.alu(2);
            b.store(contrib_addr.addr(4, v as u64), 4);
            rank[v] = base + DAMPING * sums[v];
        }
    }
    rank
}

/// Multi-iteration CSR-Segmenting Pagerank with `2^segment_shift` vertices
/// per segment.
///
/// # Panics
///
/// Panics if the graph is empty.
pub fn pagerank_tiled<E: Engine>(e: &mut E, g: &Csr, segment_shift: u32, iters: u32) -> Vec<f32> {
    let nv = g.num_vertices();
    assert!(nv > 0, "empty graph");
    let ne = g.num_edges();
    let addrs = crate::common::CsrAddrs::alloc(e, g);
    let contrib_addr = e.alloc("tile_contrib", nv as u64 * 4);
    let sums_addr = e.alloc("tile_sums", nv as u64 * 4);
    let tile_edges_addr = e.alloc("tile_edges", ne.max(1) as u64 * 8);

    let num_segments = (nv as u64).div_ceil(1 << segment_shift) as usize;

    // ---- Construction: build per-segment edge arrays (the expensive,
    // one-time initialization CSR-Segmenting pays; Figure 15's shaded bar).
    e.phase(cobra_core::exec::phases::INIT);
    let mut tiles: Vec<Vec<(u32, u32)>> = vec![Vec::new(); num_segments];
    {
        let nv32 = nv as u32;
        for u in 0..nv32 {
            e.load(addrs.offsets.addr(4, u as u64), 4);
            e.load(addrs.offsets.addr(4, u as u64 + 1), 4);
            e.branch(pc::VERTEX_LOOP, u + 1 < nv32);
            let lo = g.offsets()[u as usize] as u64;
            let deg = g.degree(u);
            for (j, &v) in g.neighbors(u).iter().enumerate() {
                e.load(addrs.neighbors.addr(4, lo + j as u64), 4);
                e.alu(3); // segment id + per-tile cursor arithmetic
                e.branch(pc::NEIGHBOR_LOOP, (j as u32) + 1 < deg);
                // Append (u, v) to v's segment: an irregular-ish store into
                // per-tile buffers (cheaper than per-vertex scatter but
                // still a write per edge), plus per-tile size bookkeeping.
                e.store(tile_edges_addr.addr(8, (lo + j as u64) % ne as u64), 8);
                tiles[(v >> segment_shift) as usize].push((u, v));
            }
        }
        // Second pass: compact tiles into contiguous storage (copy).
        let mut cursor = 0u64;
        for t in &tiles {
            for _ in t {
                e.load(tile_edges_addr.addr(8, cursor % ne.max(1) as u64), 8);
                e.store(tile_edges_addr.addr(8, cursor % ne.max(1) as u64), 8);
                cursor += 1;
            }
        }
    }

    // ---- Iterations.
    e.phase(cobra_core::exec::phases::MAIN);
    let mut rank = vec![1.0f32 / nv as f32; nv];
    for _ in 0..iters {
        let contrib: Vec<f32> = (0..nv)
            .map(|v| {
                let d = g.degree(v as u32);
                if d == 0 {
                    0.0
                } else {
                    rank[v] / d as f32
                }
            })
            .collect();
        let mut sums = vec![0.0f32; nv];
        let mut cursor = 0u64;
        for tile in &tiles {
            for (k, &(u, v)) in tile.iter().enumerate() {
                // Stream the tile's edge array; contrib reads ascend in u.
                e.load(tile_edges_addr.addr(8, cursor % ne.max(1) as u64), 8);
                cursor += 1;
                e.load(contrib_addr.addr(4, u as u64), 4);
                e.load(sums_addr.addr(4, v as u64), 4);
                e.alu(1);
                e.store(sums_addr.addr(4, v as u64), 4);
                e.branch(pc::STREAM_LOOP, k + 1 < tile.len());
                sums[v as usize] += contrib[u as usize];
            }
        }
        let base = (1.0 - DAMPING) / nv as f32;
        for v in 0..nv {
            e.load(sums_addr.addr(4, v as u64), 4);
            e.alu(2);
            e.store(contrib_addr.addr(4, v as u64), 4);
            rank[v] = base + DAMPING * sums[v];
        }
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagerank::max_abs_diff;
    use cobra_core::SwPb;
    use cobra_graph::gen;
    use cobra_sim::engine::{NullEngine, SimEngine};
    use cobra_sim::MachineConfig;

    fn input() -> Csr {
        Csr::from_edgelist(&gen::rmat(10, 8, 41))
    }

    #[test]
    fn tiled_matches_baseline_ranks() {
        let g = input();
        let mut e1 = NullEngine::new();
        let mut e2 = NullEngine::new();
        let base = pagerank_baseline_iters(&mut e1, &g, 5);
        let tiled = pagerank_tiled(&mut e2, &g, 7, 5);
        assert!(max_abs_diff(&base, &tiled) < 1e-5);
    }

    #[test]
    fn pb_iters_matches_baseline_ranks() {
        let g = input();
        let mut e1 = NullEngine::new();
        let base = pagerank_baseline_iters(&mut e1, &g, 5);
        let mut b = SwPb::<_, f32>::new(
            NullEngine::new(),
            g.num_vertices() as u32,
            64,
            crate::pagerank::TUPLE_BYTES,
            g.num_edges() as u64,
        );
        let pbv = pagerank_pb_iters(&mut b, &g, 5);
        assert!(max_abs_diff(&base, &pbv) < 1e-5);
    }

    #[test]
    fn one_iteration_matches_single_iter_kernel() {
        let g = input();
        let mut e1 = NullEngine::new();
        let mut e2 = NullEngine::new();
        let multi = pagerank_baseline_iters(&mut e1, &g, 1);
        let single = crate::pagerank::baseline(&mut e2, &g);
        assert!(max_abs_diff(&multi, &single) < 1e-6);
    }

    #[test]
    fn tiling_init_is_expensive_but_iterations_are_local() {
        let g = Csr::from_edgelist(&gen::uniform_random(1 << 15, 1 << 17, 3));
        let mut e = SimEngine::new(MachineConfig::hpca22());
        let _ = pagerank_tiled(&mut e, &g, 12, 2);
        let r = e.finish();
        let init = r.phase("init").expect("init").cycles();
        let main = r.phase("main").expect("main").cycles();
        assert!(init > 0 && main > 0);
        // Init is a nontrivial fraction of two iterations' work.
        assert!(init * 10 > main, "init {init} vs main {main}");
    }
}
