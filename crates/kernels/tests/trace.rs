//! Pins every kernel's dynamic trace.
//!
//! [`Trace`] is an [`Engine`] that folds each reported event — allocation
//! name and size, load, store, non-temporal store, ALU count, branch and
//! phase — into one FNV-1a digest. Each kernel's `baseline` (on the bare
//! engine) and `pb` (on `SwPb<Trace, _>`) must reproduce a golden digest,
//! as must the three Pagerank variants of `tiling`. The digests depend on
//! the event stream alone, not on any timing or cache model, so a
//! refactor that keeps them keeps every simulated number, and a change to
//! the timing model leaves them alone.
//!
//! After a deliberate trace change, the failure message prints the full
//! table of new digests to paste over `GOLDEN`.

use cobra_core::SwPb;
use cobra_graph::{gen, matrix};
use cobra_kernels::suite::RADII_ROUNDS;
use cobra_kernels::{
    degree_count, int_sort, neighbor_populate, pagerank, pinv, radii, spgemm, spmv, symperm,
    tiling, transpose, Input, KernelId, ALL_KERNELS,
};
use cobra_sim::addr::{AddressSpace, ArrayAddr};
use cobra_sim::engine::Engine;

/// FNV-1a over every event the kernel reports.
struct Trace {
    space: AddressSpace,
    hash: u64,
}

impl Trace {
    fn new() -> Self {
        Trace {
            space: AddressSpace::new(),
            hash: 0xcbf29ce484222325,
        }
    }

    fn feed(&mut self, tag: u8, bytes: &[u8]) {
        for &b in std::iter::once(&tag).chain(bytes) {
            self.hash ^= b as u64;
            self.hash = self.hash.wrapping_mul(0x100000001b3);
        }
    }

    fn access(&mut self, tag: u8, addr: u64, bytes: u32) {
        self.feed(tag, &addr.to_le_bytes());
        self.feed(tag, &bytes.to_le_bytes());
    }
}

impl Engine for Trace {
    fn alloc(&mut self, name: &str, bytes: u64) -> ArrayAddr {
        self.feed(b'A', name.as_bytes());
        self.feed(b'A', &bytes.to_le_bytes());
        self.space.alloc(name, bytes)
    }
    fn load(&mut self, addr: u64, bytes: u32) {
        self.access(b'L', addr, bytes);
    }
    fn store(&mut self, addr: u64, bytes: u32) {
        self.access(b'S', addr, bytes);
    }
    fn nt_store(&mut self, addr: u64, bytes: u32) {
        self.access(b'N', addr, bytes);
    }
    fn alu(&mut self, n: u32) {
        self.feed(b'U', &n.to_le_bytes());
    }
    fn branch(&mut self, pc: u64, taken: bool) {
        self.feed(b'B', &pc.to_le_bytes());
        self.feed(b'B', &[taken as u8]);
    }
    fn phase(&mut self, name: &'static str) {
        self.feed(b'P', name.as_bytes());
    }
}

/// Bins requested for every PB run.
const MIN_BINS: usize = 64;
/// Pagerank iterations for the `tiling` variants.
const ITERS: u32 = 2;
/// Vertices per CSR-Segmenting segment, as a power of two.
const SEGMENT_SHIFT: u32 = 6;

fn input_for(k: KernelId) -> Input {
    match k {
        KernelId::DegreeCount
        | KernelId::NeighborPopulate
        | KernelId::Pagerank
        | KernelId::Radii => Input::graph(gen::rmat(9, 6, 3)),
        KernelId::IntSort => Input::keys(gen::random_keys(5000, 1 << 13, 7), 1 << 13),
        _ => Input::matrix(matrix::random_uniform(400, 6, 9)),
    }
}

/// Runs `body` on a software-PB backend sized as the suite sizes it.
fn on_swpb<V: Copy>(k: KernelId, input: &Input, body: impl FnOnce(&mut SwPb<Trace, V>)) -> u64 {
    let mut b = SwPb::new(
        Trace::new(),
        input.num_keys(k),
        MIN_BINS,
        k.tuple_bytes(),
        input.num_updates(k),
    );
    body(&mut b);
    b.into_engine().hash
}

fn baseline_digest(k: KernelId, input: &Input) -> u64 {
    let e = &mut Trace::new();
    match (k, input) {
        (KernelId::DegreeCount, Input::Graph { el, .. }) => {
            degree_count::baseline(e, el);
        }
        (KernelId::NeighborPopulate, Input::Graph { el, .. }) => {
            neighbor_populate::baseline(e, el);
        }
        (KernelId::Pagerank, Input::Graph { csr, .. }) => {
            pagerank::baseline(e, csr);
        }
        (KernelId::Radii, Input::Graph { csr, .. }) => {
            radii::baseline(e, csr, RADII_ROUNDS);
        }
        (KernelId::IntSort, Input::Keys { keys, max_key }) => {
            int_sort::baseline(e, keys, *max_key);
        }
        (KernelId::Spmv, Input::Matrix { m, x, .. }) => {
            spmv::baseline(e, m, x);
        }
        (KernelId::Transpose, Input::Matrix { m, .. }) => {
            transpose::baseline(e, m);
        }
        (KernelId::Pinv, Input::Matrix { p, .. }) => {
            pinv::baseline(e, p);
        }
        (KernelId::SymPerm, Input::Matrix { m, p, .. }) => {
            symperm::baseline(e, m, p);
        }
        (KernelId::SpGemm, Input::Matrix { m, .. }) => {
            spgemm::baseline(e, m, m);
        }
        (k, _) => unreachable!("{k:?} on the wrong input kind"),
    }
    e.hash
}

fn pb_digest(k: KernelId, input: &Input) -> u64 {
    match (k, input) {
        (KernelId::DegreeCount, Input::Graph { el, .. }) => on_swpb(k, input, |b| {
            degree_count::pb(b, el);
        }),
        (KernelId::NeighborPopulate, Input::Graph { el, .. }) => on_swpb(k, input, |b| {
            neighbor_populate::pb(b, el);
        }),
        (KernelId::Pagerank, Input::Graph { csr, .. }) => on_swpb(k, input, |b| {
            pagerank::pb(b, csr);
        }),
        (KernelId::Radii, Input::Graph { csr, .. }) => on_swpb(k, input, |b| {
            radii::pb(b, csr, RADII_ROUNDS);
        }),
        (KernelId::IntSort, Input::Keys { keys, max_key }) => on_swpb(k, input, |b| {
            int_sort::pb(b, keys, *max_key);
        }),
        (KernelId::Spmv, Input::Matrix { m, x, .. }) => on_swpb(k, input, |b| {
            spmv::pb(b, m, x);
        }),
        (KernelId::Transpose, Input::Matrix { m, .. }) => on_swpb(k, input, |b| {
            transpose::pb(b, m);
        }),
        (KernelId::Pinv, Input::Matrix { p, .. }) => on_swpb(k, input, |b| {
            pinv::pb(b, p);
        }),
        (KernelId::SymPerm, Input::Matrix { m, p, .. }) => on_swpb(k, input, |b| {
            symperm::pb(b, m, p);
        }),
        (KernelId::SpGemm, Input::Matrix { m, .. }) => on_swpb(k, input, |b| {
            spgemm::pb(b, m, m);
        }),
        (k, _) => unreachable!("{k:?} on the wrong input kind"),
    }
}

fn tiling_digests() -> [(String, u64); 3] {
    let input = input_for(KernelId::Pagerank);
    let Input::Graph { csr, .. } = &input else {
        unreachable!("Pagerank takes a graph")
    };
    let e = &mut Trace::new();
    tiling::pagerank_baseline_iters(e, csr, ITERS);
    let base = e.hash;
    let pb = on_swpb(KernelId::Pagerank, &input, |b| {
        tiling::pagerank_pb_iters(b, csr, ITERS);
    });
    let e = &mut Trace::new();
    tiling::pagerank_tiled(e, csr, SEGMENT_SHIFT, ITERS);
    [
        ("tiling/baseline_iters".into(), base),
        ("tiling/pb_iters".into(), pb),
        ("tiling/tiled".into(), e.hash),
    ]
}

const GOLDEN: &[(&str, u64)] = &[
    ("Degree-Count/baseline", 0xe9cb962e4b0bd531),
    ("Degree-Count/pb", 0x51ae81a66b9e4f58),
    ("Neighbor-Populate/baseline", 0xc65196d983ebdbe4),
    ("Neighbor-Populate/pb", 0xc1af2bd7ab881bf4),
    ("Pagerank/baseline", 0x56cc1ae30bd2a46a),
    ("Pagerank/pb", 0x46c9d5ffaa306d82),
    ("Radii/baseline", 0x606af1966f364adb),
    ("Radii/pb", 0xa5cc2c995638cf84),
    ("Int-Sort/baseline", 0xe6437224c7eed755),
    ("Int-Sort/pb", 0x4171b900163dc64d),
    ("SpMV/baseline", 0x3a8bbd753263e5ae),
    ("SpMV/pb", 0x8ed969dd6639086e),
    ("Transpose/baseline", 0x429c7ef5b1ebe9d6),
    ("Transpose/pb", 0xbf7e5e05c8e02cdf),
    ("PINV/baseline", 0x73478cff98507089),
    ("PINV/pb", 0x62ddc2d373fd2617),
    ("SymPerm/baseline", 0xe1894dcd3c72de39),
    ("SymPerm/pb", 0x41892b7f146389d2),
    ("SpGEMM/baseline", 0x74f271170b264cf7),
    ("SpGEMM/pb", 0x6e781911ab243548),
    ("tiling/baseline_iters", 0x44cf9e8ff2d3ff86),
    ("tiling/pb_iters", 0xa703dfe7a8e712e3),
    ("tiling/tiled", 0xb02e0c289625e27c),
];

#[test]
fn every_kernel_trace_matches_its_golden_digest() {
    let mut got: Vec<(String, u64)> = Vec::new();
    for k in ALL_KERNELS {
        let input = input_for(k);
        got.push((format!("{}/baseline", k.name()), baseline_digest(k, &input)));
        got.push((format!("{}/pb", k.name()), pb_digest(k, &input)));
    }
    got.extend(tiling_digests());
    let want: Vec<(String, u64)> = GOLDEN.iter().map(|&(n, d)| (n.to_owned(), d)).collect();
    let table: String = got
        .iter()
        .map(|(n, d)| format!("    ({n:?}, {d:#018x}),\n"))
        .collect();
    assert!(got == want, "trace digests moved; now:\n{table}");
}
