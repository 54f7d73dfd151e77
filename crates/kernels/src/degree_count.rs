//! Degree-Count: the first kernel of Edgelist→CSR conversion (GAP).
//!
//! Streams the edge list and increments `degrees[dst]` — a commutative
//! irregular update (keys span all vertex IDs).

use crate::common::{accumulate, stream_edges, EdgeListAddrs};
use cobra_core::PbBackend;
use cobra_graph::EdgeList;
use cobra_sim::engine::Engine;

/// Tuple size: 4 B (key only; the increment carries no payload).
pub const TUPLE_BYTES: u32 = 4;

/// Native (uninstrumented) reference.
pub fn reference(el: &EdgeList) -> Vec<u32> {
    el.reversed().degrees()
}

/// Baseline execution: direct irregular increments.
pub fn baseline<E: Engine>(e: &mut E, el: &EdgeList) -> Vec<u32> {
    let nv = el.num_vertices() as usize;
    let addrs = EdgeListAddrs::alloc(e, el);
    let deg = e.alloc("degrees", nv.max(1) as u64 * 4);
    let mut degrees = vec![0u32; nv];
    e.phase(cobra_core::exec::phases::MAIN);
    stream_edges(e, el, addrs, |e, edge| {
        e.load(deg.addr(4, edge.dst as u64), 4);
        e.alu(1);
        e.store(deg.addr(4, edge.dst as u64), 4);
        degrees[edge.dst as usize] += 1;
    });
    degrees
}

/// Propagation-Blocking execution over any binning backend (software PB or
/// COBRA): Init counts per-bin tuples, Binning routes `(dst)` keys,
/// Accumulate applies the increments bin by bin.
pub fn pb<B: PbBackend<()>>(b: &mut B, el: &EdgeList) -> Vec<u32> {
    let nv = el.num_vertices() as usize;
    let addrs = EdgeListAddrs::alloc(b, el);
    let deg = b.alloc("degrees", nv.max(1) as u64 * 4);
    let mut degrees = vec![0u32; nv];

    let edges = el.edges();
    b.init_bins(edges.len(), |b, i| {
        b.load(addrs.edges.addr(8, i as u64), 8);
        edges[i].dst
    });

    b.phase(cobra_core::exec::phases::BINNING);
    stream_edges(b, el, addrs, |b, edge| b.insert(edge.dst, ()));
    let storage = b.flush_and_take();

    b.phase(cobra_core::exec::phases::ACCUMULATE);
    accumulate(b, &storage, |e, key, _| {
        e.load(deg.addr(4, key as u64), 4);
        e.alu(1);
        e.store(deg.addr(4, key as u64), 4);
        degrees[key as usize] += 1;
    });
    degrees
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_core::{CobraMachine, SwPb};
    use cobra_graph::gen;
    use cobra_sim::engine::{NullEngine, SimEngine};
    use cobra_sim::MachineConfig;

    fn input() -> EdgeList {
        gen::rmat(10, 8, 17)
    }

    #[test]
    fn baseline_matches_reference() {
        let el = input();
        let mut e = NullEngine::new();
        assert_eq!(baseline(&mut e, &el), reference(&el));
    }

    #[test]
    fn pb_software_matches_reference() {
        let el = input();
        let mut b = SwPb::<_, ()>::new(
            NullEngine::new(),
            el.num_vertices(),
            64,
            TUPLE_BYTES,
            el.num_edges() as u64,
        );
        assert_eq!(pb(&mut b, &el), reference(&el));
    }

    #[test]
    fn pb_cobra_matches_reference() {
        let el = input();
        let mut m = CobraMachine::<()>::with_defaults(
            MachineConfig::hpca22(),
            el.num_vertices(),
            TUPLE_BYTES,
            el.num_edges() as u64,
        );
        assert_eq!(pb(&mut m, &el), reference(&el));
    }

    #[test]
    fn instrumented_baseline_has_poor_l1_locality() {
        let el = gen::uniform_random(1 << 17, 1 << 19, 5);
        let mut e = SimEngine::new(MachineConfig::hpca22());
        let _ = baseline(&mut e, &el);
        let r = e.finish();
        // The degree array (512 KB) far exceeds L1: the irregular update
        // loads should miss L1 frequently.
        assert!(
            r.mem.l1d.miss_rate() > 0.15,
            "miss rate {}",
            r.mem.l1d.miss_rate()
        );
    }

    #[test]
    fn phases_are_reported() {
        let el = gen::uniform_random(1 << 12, 1 << 14, 9);
        let mut b = SwPb::<_, ()>::new(
            SimEngine::new(MachineConfig::hpca22()),
            el.num_vertices(),
            64,
            TUPLE_BYTES,
            el.num_edges() as u64,
        );
        let _ = pb(&mut b, &el);
        let r = b.into_engine().finish();
        for name in ["init", "binning", "accumulate"] {
            assert!(r.phase(name).is_some(), "missing phase {name}");
        }
    }
}
