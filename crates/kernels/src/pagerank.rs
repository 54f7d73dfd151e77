//! Pagerank (GAP): the kernel Propagation Blocking was originally designed
//! for. One push-style iteration: every vertex scatters its contribution
//! `rank[u] / degree[u]` to each out-neighbor — a commutative (`+=`)
//! irregular update over the full vertex range.

use crate::common::{accumulate, traverse_csr, CsrAddrs};
use cobra_core::PbBackend;
use cobra_graph::Csr;
use cobra_sim::engine::Engine;

/// Tuple size: 8 B (`dst` key + `f32` contribution).
pub const TUPLE_BYTES: u32 = 8;

/// Damping factor (GAP default).
pub const DAMPING: f32 = 0.85;

/// Native reference: one push iteration from uniform ranks.
pub fn reference(g: &Csr) -> Vec<f32> {
    let nv = g.num_vertices();
    let init = 1.0 / nv as f32;
    let mut sums = vec![0.0f32; nv];
    for u in 0..nv as u32 {
        let deg = g.degree(u);
        if deg == 0 {
            continue;
        }
        let contrib = init / deg as f32;
        for &v in g.neighbors(u) {
            sums[v as usize] += contrib;
        }
    }
    let base = (1.0 - DAMPING) / nv as f32;
    sums.iter().map(|s| base + DAMPING * s).collect()
}

/// Baseline: direct push scatter (irregular `+=` to `sums[dst]`).
pub fn baseline<E: Engine>(e: &mut E, g: &Csr) -> Vec<f32> {
    let nv = g.num_vertices();
    let addrs = CsrAddrs::alloc(e, g);
    let contrib_addr = e.alloc("pr_contrib", nv.max(1) as u64 * 4);
    let sums_addr = e.alloc("pr_sums", nv.max(1) as u64 * 4);
    let rank_addr = e.alloc("pr_rank", nv.max(1) as u64 * 4);

    let init = 1.0 / nv as f32;
    let mut sums = vec![0.0f32; nv];

    e.phase(cobra_core::exec::phases::MAIN);
    traverse_csr(
        e,
        g,
        addrs,
        |e, v| {
            // contrib[v] = rank[v] / degree[v] (streaming).
            e.load(rank_addr.addr(4, v as u64), 4);
            e.alu(1);
            e.store(contrib_addr.addr(4, v as u64), 4);
        },
        |e, u, v| {
            let contrib = init / g.degree(u) as f32;
            e.load(sums_addr.addr(4, v as u64), 4);
            e.alu(1);
            e.store(sums_addr.addr(4, v as u64), 4);
            sums[v as usize] += contrib;
        },
    );
    // Final rank pass (streaming).
    let mut out = Vec::with_capacity(nv);
    let base = (1.0 - DAMPING) / nv as f32;
    for v in 0..nv as u64 {
        e.load(sums_addr.addr(4, v), 4);
        e.alu(2);
        e.store(rank_addr.addr(4, v), 4);
        out.push(base + DAMPING * sums[v as usize]);
    }
    out
}

/// PB execution: Binning scatters `(dst, contrib)` tuples; Accumulate sums
/// them with high locality.
pub fn pb<B: PbBackend<f32>>(b: &mut B, g: &Csr) -> Vec<f32> {
    let nv = g.num_vertices();
    let addrs = CsrAddrs::alloc(b, g);
    // Unused by PB, but allocated so the address layout matches baseline's.
    b.alloc("pr_contrib", nv.max(1) as u64 * 4);
    let sums_addr = b.alloc("pr_sums", nv.max(1) as u64 * 4);
    let rank_addr = b.alloc("pr_rank", nv.max(1) as u64 * 4);
    let init = 1.0 / nv as f32;
    let mut sums = vec![0.0f32; nv];

    // The init pass streams the neighbor array to size the bins.
    let na = g.neighbors_array();
    b.init_bins(na.len(), |b, i| {
        b.load(addrs.neighbors.addr(4, i as u64), 4);
        na[i]
    });

    b.phase(cobra_core::exec::phases::BINNING);
    traverse_csr(
        b,
        g,
        addrs,
        |b, u| {
            // contrib = rank[u] / degree[u], computed in a register.
            if g.degree(u) != 0 {
                b.load(rank_addr.addr(4, u as u64), 4);
                b.alu(1);
            }
        },
        |b, u, v| b.insert(v, init / g.degree(u) as f32),
    );
    let storage = b.flush_and_take();

    b.phase(cobra_core::exec::phases::ACCUMULATE);
    accumulate(b, &storage, |e, key, &contrib| {
        e.load(sums_addr.addr(4, key as u64), 4);
        e.alu(1);
        e.store(sums_addr.addr(4, key as u64), 4);
        sums[key as usize] += contrib;
    });
    let base = (1.0 - DAMPING) / nv as f32;
    let mut out = Vec::with_capacity(nv);
    for v in 0..nv as u64 {
        b.load(sums_addr.addr(4, v), 4);
        b.alu(2);
        b.store(rank_addr.addr(4, v), 4);
        out.push(base + DAMPING * sums[v as usize]);
    }
    out
}

/// Maximum absolute difference between two rank vectors (float summation
/// order differs across execution modes).
pub fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f32::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_core::{CobraMachine, SwPb};
    use cobra_graph::gen;
    use cobra_sim::engine::{NullEngine, SimEngine};
    use cobra_sim::MachineConfig;

    fn input() -> Csr {
        Csr::from_edgelist(&gen::rmat(10, 8, 31))
    }

    #[test]
    fn baseline_matches_reference() {
        let g = input();
        let mut e = NullEngine::new();
        let got = baseline(&mut e, &g);
        assert_eq!(got, reference(&g), "same summation order -> bitwise equal");
    }

    #[test]
    fn pb_matches_reference_within_fp_tolerance() {
        let g = input();
        let mut b = SwPb::<_, f32>::new(
            NullEngine::new(),
            g.num_vertices() as u32,
            64,
            TUPLE_BYTES,
            g.num_edges() as u64,
        );
        let got = pb(&mut b, &g);
        let diff = max_abs_diff(&got, &reference(&g));
        assert!(diff < 1e-6, "diff {diff}");
    }

    #[test]
    fn cobra_matches_reference_within_fp_tolerance() {
        let g = input();
        let mut m = CobraMachine::<f32>::with_defaults(
            MachineConfig::hpca22(),
            g.num_vertices() as u32,
            TUPLE_BYTES,
            g.num_edges() as u64,
        );
        let got = pb(&mut m, &g);
        let diff = max_abs_diff(&got, &reference(&g));
        assert!(diff < 1e-6, "diff {diff}");
    }

    #[test]
    fn ranks_sum_to_one() {
        let g = input();
        let mut e = NullEngine::new();
        let ranks = baseline(&mut e, &g);
        let sum: f64 = ranks.iter().map(|&r| r as f64).sum();
        // Vertices with zero out-degree leak rank; allow slack.
        assert!(sum > 0.3 && sum < 1.01, "sum {sum}");
    }

    #[test]
    fn power_law_baseline_has_branch_misses() {
        // The paper's footnote: neighborhood boundary checks in power-law
        // graphs mispredict.
        let g = Csr::from_edgelist(&gen::rmat(12, 6, 7));
        let mut e = SimEngine::new(MachineConfig::hpca22());
        let _ = baseline(&mut e, &g);
        let r = e.finish();
        assert!(r.core.branch_mpki() > 1.0, "mpki {}", r.core.branch_mpki());
    }
}
