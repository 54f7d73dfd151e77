//! Radii (Ligra): graph-diameter estimation by 64-source concurrent BFS.
//!
//! Each vertex carries a 64-bit visitor mask (one bit per source). Per
//! round, every edge `u -> v` ORs `u`'s mask into `v`'s next mask; vertices
//! whose mask grew record the round as their eccentricity estimate. Only a
//! *subset* of vertices is active each round, making Radii representative
//! of frontier-driven kernels (vs Pagerank's all-vertices-every-round).
//! The OR update is commutative.

use crate::common::{accumulate, pc, CsrAddrs};
use cobra_core::PbBackend;
use cobra_graph::Csr;
use cobra_sim::engine::Engine;

/// Tuple size: 16 B (`dst` key + 8 B visitor word, padded).
pub const TUPLE_BYTES: u32 = 16;

/// Number of concurrent BFS sources (one per mask bit).
pub const SOURCES: usize = 64;

/// Result of a Radii run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RadiiResult {
    /// Per-vertex eccentricity estimate (round of last mask growth).
    pub radii: Vec<u32>,
    /// Rounds executed.
    pub rounds: u32,
}

impl RadiiResult {
    /// The estimated graph radius (max over vertices).
    pub fn estimate(&self) -> u32 {
        self.radii.iter().copied().max().unwrap_or(0)
    }
}

fn pick_sources(g: &Csr) -> Vec<u32> {
    (0..g.num_vertices() as u32)
        .filter(|&v| g.degree(v) > 0)
        .take(SOURCES)
        .collect()
}

/// Native reference.
pub fn reference(g: &Csr, max_rounds: u32) -> RadiiResult {
    let nv = g.num_vertices();
    let mut visitor = vec![0u64; nv];
    for (bit, v) in pick_sources(g).into_iter().enumerate() {
        visitor[v as usize] |= 1 << bit;
    }
    let mut radii = vec![0u32; nv];
    let mut round = 0;
    while round < max_rounds {
        round += 1;
        let mut next = visitor.clone();
        for u in 0..nv as u32 {
            let m = visitor[u as usize];
            if m == 0 {
                continue;
            }
            for &v in g.neighbors(u) {
                next[v as usize] |= m;
            }
        }
        let mut changed = false;
        for v in 0..nv {
            if next[v] != visitor[v] {
                radii[v] = round;
                changed = true;
            }
        }
        visitor = next;
        if !changed {
            break;
        }
    }
    RadiiResult {
        radii,
        rounds: round,
    }
}

/// Baseline: direct push of visitor masks (irregular `|=`).
pub fn baseline<E: Engine>(e: &mut E, g: &Csr, max_rounds: u32) -> RadiiResult {
    let nv = g.num_vertices();
    let addrs = CsrAddrs::alloc(e, g);
    let vis_addr = e.alloc("radii_visitor", nv.max(1) as u64 * 8);
    let next_addr = e.alloc("radii_next", nv.max(1) as u64 * 8);
    let radii_addr = e.alloc("radii_out", nv.max(1) as u64 * 4);

    let mut visitor = vec![0u64; nv];
    for (bit, v) in pick_sources(g).into_iter().enumerate() {
        visitor[v as usize] |= 1 << bit;
    }
    let mut radii = vec![0u32; nv];

    e.phase(cobra_core::exec::phases::MAIN);
    let mut round = 0;
    while round < max_rounds {
        round += 1;
        let mut next = visitor.clone();
        let nv32 = nv as u32;
        for u in 0..nv32 {
            e.load(addrs.offsets.addr(4, u as u64), 4);
            e.load(addrs.offsets.addr(4, u as u64 + 1), 4);
            e.load(vis_addr.addr(8, u as u64), 8);
            e.branch(pc::FILTER, visitor[u as usize] != 0);
            let m = visitor[u as usize];
            if m == 0 {
                continue;
            }
            let lo = g.offsets()[u as usize] as u64;
            let deg = g.degree(u);
            for (j, &v) in g.neighbors(u).iter().enumerate() {
                e.load(addrs.neighbors.addr(4, lo + j as u64), 4);
                e.alu(1);
                e.branch(pc::NEIGHBOR_LOOP, (j as u32) + 1 < deg);
                // next[v] |= m : irregular read-modify-write.
                e.load(next_addr.addr(8, v as u64), 8);
                e.alu(1);
                e.store(next_addr.addr(8, v as u64), 8);
                next[v as usize] |= m;
            }
        }
        // Streaming compare pass.
        let mut changed = false;
        for v in 0..nv {
            e.load(vis_addr.addr(8, v as u64), 8);
            e.load(next_addr.addr(8, v as u64), 8);
            let grew = next[v] != visitor[v];
            e.branch(pc::FILTER, grew);
            if grew {
                e.store(radii_addr.addr(4, v as u64), 4);
                radii[v] = round;
                changed = true;
            }
        }
        visitor = next;
        if !changed {
            break;
        }
    }
    RadiiResult {
        radii,
        rounds: round,
    }
}

/// PB execution: per round, Binning scatters `(dst, mask)` tuples for the
/// active frontier; Accumulate ORs them in.
pub fn pb<B: PbBackend<u64>>(b: &mut B, g: &Csr, max_rounds: u32) -> RadiiResult {
    let nv = g.num_vertices();
    let addrs = CsrAddrs::alloc(b, g);
    let vis_addr = b.alloc("radii_visitor", nv.max(1) as u64 * 8);
    let next_addr = b.alloc("radii_next", nv.max(1) as u64 * 8);
    let radii_addr = b.alloc("radii_out", nv.max(1) as u64 * 4);

    let mut visitor = vec![0u64; nv];
    for (bit, v) in pick_sources(g).into_iter().enumerate() {
        visitor[v as usize] |= 1 << bit;
    }
    let mut radii = vec![0u32; nv];
    let shift = b.bin_shift();
    let nbins = b.num_bins();
    let nv32 = nv as u32;

    let mut round = 0;
    while round < max_rounds {
        round += 1;

        b.phase(cobra_core::exec::phases::INIT);
        // Not `init_bins`: only this round's frontier emits tuples, so the
        // count skips inactive vertices.
        let mut counts = vec![0u64; nbins];
        for u in 0..nv32 {
            b.load(vis_addr.addr(8, u as u64), 8);
            b.branch(pc::FILTER, visitor[u as usize] != 0);
            if visitor[u as usize] == 0 {
                continue;
            }
            let lo = g.offsets()[u as usize] as u64;
            for (j, &v) in g.neighbors(u).iter().enumerate() {
                b.load(addrs.neighbors.addr(4, lo + j as u64), 4);
                b.alu(1);
                counts[(v >> shift) as usize] += 1;
            }
        }
        b.presize(&counts);

        b.phase(cobra_core::exec::phases::BINNING);
        // Not `traverse_csr`: the frontier filter branch replaces the
        // vertex loop's ALU op and skips inactive vertices.
        for u in 0..nv32 {
            b.load(addrs.offsets.addr(4, u as u64), 4);
            b.load(addrs.offsets.addr(4, u as u64 + 1), 4);
            b.load(vis_addr.addr(8, u as u64), 8);
            b.branch(pc::FILTER, visitor[u as usize] != 0);
            let m = visitor[u as usize];
            if m == 0 {
                continue;
            }
            let lo = g.offsets()[u as usize] as u64;
            let deg = g.degree(u);
            for (j, &v) in g.neighbors(u).iter().enumerate() {
                b.load(addrs.neighbors.addr(4, lo + j as u64), 4);
                b.alu(1);
                b.branch(pc::NEIGHBOR_LOOP, (j as u32) + 1 < deg);
                b.insert(v, m);
            }
        }
        let storage = b.flush_and_take();

        b.phase(cobra_core::exec::phases::ACCUMULATE);
        let mut next = visitor.clone();
        accumulate(b, &storage, |e, key, &m| {
            e.load(next_addr.addr(8, key as u64), 8);
            e.alu(1);
            e.store(next_addr.addr(8, key as u64), 8);
            next[key as usize] |= m;
        });
        let mut changed = false;
        for v in 0..nv {
            b.load(vis_addr.addr(8, v as u64), 8);
            b.load(next_addr.addr(8, v as u64), 8);
            let grew = next[v] != visitor[v];
            b.branch(pc::FILTER, grew);
            if grew {
                b.store(radii_addr.addr(4, v as u64), 4);
                radii[v] = round;
                changed = true;
            }
        }
        visitor = next;
        if !changed {
            break;
        }
    }
    RadiiResult {
        radii,
        rounds: round,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_core::{CobraMachine, SwPb};
    use cobra_graph::gen;
    use cobra_sim::engine::NullEngine;
    use cobra_sim::MachineConfig;

    fn input() -> Csr {
        Csr::from_edgelist(&gen::uniform_random(2000, 16_000, 11))
    }

    #[test]
    fn baseline_matches_reference() {
        let g = input();
        let mut e = NullEngine::new();
        assert_eq!(baseline(&mut e, &g, 10), reference(&g, 10));
    }

    #[test]
    fn pb_matches_reference() {
        let g = input();
        let mut b = SwPb::<_, u64>::new(
            NullEngine::new(),
            g.num_vertices() as u32,
            16,
            TUPLE_BYTES,
            g.num_edges() as u64 * 4,
        );
        assert_eq!(pb(&mut b, &g, 10), reference(&g, 10));
    }

    #[test]
    fn cobra_matches_reference() {
        let g = input();
        let mut m = CobraMachine::<u64>::with_defaults(
            MachineConfig::hpca22(),
            g.num_vertices() as u32,
            TUPLE_BYTES,
            g.num_edges() as u64 * 4,
        );
        assert_eq!(pb(&mut m, &g, 10), reference(&g, 10));
    }

    #[test]
    fn mesh_has_larger_radius_than_random_graph() {
        let mesh = Csr::from_edgelist(&gen::road_mesh(40, 3));
        let rnd = input();
        let rm = reference(&mesh, 100);
        let rr = reference(&rnd, 100);
        assert!(
            rm.estimate() > rr.estimate(),
            "mesh {} vs random {}",
            rm.estimate(),
            rr.estimate()
        );
    }

    #[test]
    fn isolated_graph_converges_immediately() {
        let g = Csr::from_edgelist(&cobra_graph::EdgeList::new(10, vec![]));
        let r = reference(&g, 5);
        assert_eq!(r.estimate(), 0);
    }
}
