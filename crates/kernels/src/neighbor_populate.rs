//! Neighbor-Populate: the second kernel of Edgelist→CSR conversion
//! (Algorithm 1 of the paper) — the paper's flagship *non-commutative*
//! irregular-update kernel.
//!
//! Given the Offsets Array (a prefix sum of degrees), each edge claims the
//! next free slot of its source's neighborhood: `neighs[offsets[src]++] =
//! dst`. The order of updates to `offsets[src]` decides where each neighbor
//! lands, so updates cannot be coalesced — but any per-source order is
//! valid (unordered parallelism), which is exactly why PB applies
//! (Algorithm 2).

use crate::common::{accumulate, stream_edges, EdgeListAddrs};
use cobra_core::PbBackend;
use cobra_graph::prefix::exclusive_sum;
use cobra_graph::{Csr, EdgeList};
use cobra_sim::engine::Engine;

/// Tuple size: 8 B (`src` key + `dst` payload).
pub const TUPLE_BYTES: u32 = 8;

/// Native reference (the canonical serial Edgelist→CSR).
pub fn reference(el: &EdgeList) -> Csr {
    Csr::from_edgelist(el)
}

/// Baseline execution: Algorithm 1. Streams edges; `offsets[src]` is read,
/// used to address the neighbor store, and incremented — two irregular
/// accesses per edge.
pub fn baseline<E: Engine>(e: &mut E, el: &EdgeList) -> Csr {
    let nv = el.num_vertices() as usize;
    let ne = el.num_edges();
    let addrs = EdgeListAddrs::alloc(e, el);
    let offsets_addr = e.alloc("offsets_work", (nv as u64 + 1) * 4);
    let neighs_addr = e.alloc("neighbors_out", ne.max(1) as u64 * 4);

    let offsets = exclusive_sum(&el.degrees());
    let mut cursor = offsets.clone();
    let mut neighbors = vec![0u32; ne];

    e.phase(cobra_core::exec::phases::MAIN);
    stream_edges(e, el, addrs, |e, edge| {
        // offsetVal <- offsets[src]; neighs[offsetVal] <- dst; offsets[src]++
        e.load(offsets_addr.addr(4, edge.src as u64), 4);
        let slot = cursor[edge.src as usize];
        e.store(neighs_addr.addr(4, slot as u64), 4);
        e.alu(1);
        e.store(offsets_addr.addr(4, edge.src as u64), 4);
        neighbors[slot as usize] = edge.dst;
        cursor[edge.src as usize] += 1;
    });
    Csr::from_raw(offsets, neighbors)
}

/// PB execution (Algorithm 2) over any binning backend. Tuples are
/// `(src, dst)`; the Accumulate phase replays each bin's tuples in order,
/// so per-source neighbor order equals arrival order — the non-commutative
/// correctness condition.
pub fn pb<B: PbBackend<u32>>(b: &mut B, el: &EdgeList) -> Csr {
    let nv = el.num_vertices() as usize;
    let ne = el.num_edges();
    let addrs = EdgeListAddrs::alloc(b, el);
    let offsets_addr = b.alloc("offsets_work", (nv as u64 + 1) * 4);
    let neighs_addr = b.alloc("neighbors_out", ne.max(1) as u64 * 4);
    let offsets = exclusive_sum(&el.degrees());
    let mut cursor = offsets.clone();
    let mut neighbors = vec![0u32; ne];

    let edges = el.edges();
    b.init_bins(ne, |b, i| {
        b.load(addrs.edges.addr(8, i as u64), 8);
        edges[i].src
    });

    b.phase(cobra_core::exec::phases::BINNING);
    stream_edges(b, el, addrs, |b, edge| b.insert(edge.src, edge.dst));
    let storage = b.flush_and_take();

    b.phase(cobra_core::exec::phases::ACCUMULATE);
    accumulate(b, &storage, |e, src, &dst| {
        e.load(offsets_addr.addr(4, src as u64), 4);
        let slot = cursor[src as usize];
        e.store(neighs_addr.addr(4, slot as u64), 4);
        e.alu(1);
        e.store(offsets_addr.addr(4, src as u64), 4);
        neighbors[slot as usize] = dst;
        cursor[src as usize] += 1;
    });
    Csr::from_raw(offsets, neighbors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_core::{CobraMachine, SwPb};
    use cobra_graph::gen;
    use cobra_sim::engine::{NullEngine, SimEngine};
    use cobra_sim::MachineConfig;

    fn input() -> EdgeList {
        gen::rmat(10, 8, 23)
    }

    #[test]
    fn baseline_matches_reference_exactly() {
        let el = input();
        let mut e = NullEngine::new();
        assert_eq!(baseline(&mut e, &el), reference(&el));
    }

    #[test]
    fn pb_software_matches_reference_exactly() {
        // Bit-identical CSR: the non-commutative order property.
        let el = input();
        let mut b = SwPb::<_, u32>::new(
            NullEngine::new(),
            el.num_vertices(),
            64,
            TUPLE_BYTES,
            el.num_edges() as u64,
        );
        assert_eq!(pb(&mut b, &el), reference(&el));
    }

    #[test]
    fn pb_cobra_matches_reference_exactly() {
        let el = input();
        let mut m = CobraMachine::<u32>::with_defaults(
            MachineConfig::hpca22(),
            el.num_vertices(),
            TUPLE_BYTES,
            el.num_edges() as u64,
        );
        assert_eq!(pb(&mut m, &el), reference(&el));
    }

    #[test]
    fn pb_improves_accumulate_locality_over_baseline_updates() {
        // On a large uniform graph, the baseline's offsets/neighbors
        // accesses are cache-hostile; PB's accumulate touches one small key
        // range at a time.
        let el = gen::uniform_random(1 << 16, 1 << 18, 3);

        let mut e = SimEngine::new(MachineConfig::hpca22());
        let _ = baseline(&mut e, &el);
        let base = e.finish();

        let mut b = SwPb::<_, u32>::new(
            SimEngine::new(MachineConfig::hpca22()),
            el.num_vertices(),
            1024,
            TUPLE_BYTES,
            el.num_edges() as u64,
        );
        let _ = pb(&mut b, &el);
        let pbr = b.into_engine().finish();

        let base_main = base.phase("main").expect("main");
        let pb_acc = pbr.phase("accumulate").expect("accumulate");
        assert!(
            pb_acc.mem.l1d.miss_rate() < base_main.mem.l1d.miss_rate(),
            "accumulate {} vs baseline {}",
            pb_acc.mem.l1d.miss_rate(),
            base_main.mem.l1d.miss_rate()
        );
    }

    #[test]
    fn empty_graph_handled() {
        let el = EdgeList::new(4, vec![]);
        let mut e = NullEngine::new();
        let g = baseline(&mut e, &el);
        assert_eq!(g.num_edges(), 0);
    }
}
