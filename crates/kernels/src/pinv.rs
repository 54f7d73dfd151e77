//! PINV (SuiteSparse `cs_pinv`): inverse of a row/column permutation —
//! `pinv[p[i]] = i`. A pure irregular scatter with unique keys; updates
//! cannot be coalesced (every key occurs exactly once), so commutativity
//! optimizations are inapplicable while PB still helps locality.

use crate::common::{accumulate, pc, stream_array};
use cobra_core::PbBackend;
use cobra_sim::engine::Engine;

/// Tuple size: 8 B (`p[i]` key + `i` payload).
pub const TUPLE_BYTES: u32 = 8;

/// Native reference.
pub fn reference(p: &[u32]) -> Vec<u32> {
    let mut pinv = vec![0u32; p.len()];
    for (i, &pi) in p.iter().enumerate() {
        pinv[pi as usize] = i as u32;
    }
    pinv
}

/// Baseline: direct scatter.
pub fn baseline<E: Engine>(e: &mut E, p: &[u32]) -> Vec<u32> {
    let n = p.len();
    let p_addr = e.alloc("pinv_p", n.max(1) as u64 * 4);
    let out_addr = e.alloc("pinv_out", n.max(1) as u64 * 4);
    let mut pinv = vec![0u32; n];
    e.phase(cobra_core::exec::phases::MAIN);
    for (i, &pi) in p.iter().enumerate() {
        e.load(p_addr.addr(4, i as u64), 4);
        e.alu(1);
        e.store(out_addr.addr(4, pi as u64), 4);
        e.branch(pc::STREAM_LOOP, i + 1 < n);
        pinv[pi as usize] = i as u32;
    }
    pinv
}

/// PB execution.
pub fn pb<B: PbBackend<u32>>(b: &mut B, p: &[u32]) -> Vec<u32> {
    let n = p.len();
    let p_addr = b.alloc("pinv_p", n.max(1) as u64 * 4);
    let out_addr = b.alloc("pinv_out", n.max(1) as u64 * 4);
    let mut pinv = vec![0u32; n];

    b.init_bins(n, |b, i| {
        b.load(p_addr.addr(4, i as u64), 4);
        p[i]
    });

    b.phase(cobra_core::exec::phases::BINNING);
    stream_array(b, p_addr, n, 4, |b, i| b.insert(p[i], i as u32));
    let storage = b.flush_and_take();

    b.phase(cobra_core::exec::phases::ACCUMULATE);
    accumulate(b, &storage, |e, key, &i| {
        e.store(out_addr.addr(4, key as u64), 4);
        pinv[key as usize] = i;
    });
    pinv
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_core::{CobraMachine, SwPb};
    use cobra_graph::gen;
    use cobra_sim::engine::NullEngine;
    use cobra_sim::MachineConfig;

    #[test]
    fn inverse_composes_to_identity() {
        let p = gen::random_permutation(10_000, 3);
        let pinv = reference(&p);
        for i in 0..p.len() {
            assert_eq!(pinv[p[i] as usize] as usize, i);
        }
    }

    #[test]
    fn baseline_matches_reference() {
        let p = gen::random_permutation(10_000, 5);
        let mut e = NullEngine::new();
        assert_eq!(baseline(&mut e, &p), reference(&p));
    }

    #[test]
    fn pb_matches_reference() {
        let p = gen::random_permutation(10_000, 5);
        let mut b = SwPb::<_, u32>::new(
            NullEngine::new(),
            p.len() as u32,
            32,
            TUPLE_BYTES,
            p.len() as u64,
        );
        assert_eq!(pb(&mut b, &p), reference(&p));
    }

    #[test]
    fn cobra_matches_reference() {
        let p = gen::random_permutation(10_000, 5);
        let mut m = CobraMachine::<u32>::with_defaults(
            MachineConfig::hpca22(),
            p.len() as u32,
            TUPLE_BYTES,
            p.len() as u64,
        );
        assert_eq!(pb(&mut m, &p), reference(&p));
    }

    #[test]
    fn identity_permutation() {
        let p: Vec<u32> = (0..100).collect();
        let mut e = NullEngine::new();
        assert_eq!(baseline(&mut e, &p), p);
    }
}
