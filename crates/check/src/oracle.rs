//! Commutativity oracle: validates every kernel's and reducer's declared
//! commutative-vs-ordered mode by *replaying updates in permuted orders*
//! and diffing outputs.
//!
//! Three layers, strongest first:
//!
//! 1. **Whole-kernel replay** — [`ShuffledPb`] is a [`PbBackend`] whose
//!    `flush_and_take` shuffles each bin's tuples before handing them to
//!    the Accumulate phase. Running the real `pb()` kernels over it checks
//!    that the four declared-commutative kernels produce reference output
//!    under *any* within-bin replay order (seed 0 keeps arrival order as a
//!    control).
//! 2. **Scatter models** — a small executable model of each suite
//!    kernel's per-update scatter function, driven by collision-rich
//!    synthetic update streams. Declared-commutative kernels must be
//!    insensitive to stream permutation; declared-ordered kernels must be
//!    provably sensitive (at least one permutation diverges), so a stale
//!    declaration in either direction fails.
//! 3. **Reducer oracle** — the `cobra-stream` [`Reducer`]s (and
//!    `cobra-spgemm`'s `ColSum`): permuted apply order, plus, for every
//!    reducer declared `FUSABLE`, the `fuse_values` law the C-Buffer frame
//!    coalescer rests on — a fused pair applies like its two halves, a
//!    refused pair leaves the staged value alone.
//!
//! Floating-point values in the models are dyadic rationals small enough
//! that every partial sum is exact, so commutativity comparisons are
//! bit-exact rather than tolerance-based; the whole-kernel Pagerank replay
//! (real ranks) uses the suite's own 1e-4 tolerance instead.

use cobra_core::backend::{BinStorage, PbBackend};
use cobra_graph::rng::SplitMix64;
use cobra_graph::{gen, Csr, SparseMatrix};
use cobra_kernels::{degree_count, pagerank, radii, spmv, KernelId};
use cobra_pb::Binner;
use cobra_sim::addr::ArrayAddr;
use cobra_sim::engine::{Engine, NullEngine};
use cobra_stream::{Append, Count, Latest, Reducer, Sum};
use cobra_wal::{decode_all, Record};

/// In-place Fisher–Yates shuffle driven by the repo's deterministic RNG.
fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        let j = rng.u32_below(i as u32 + 1) as usize;
        items.swap(i, j);
    }
}

/// A [`PbBackend`] over [`NullEngine`] + the software [`Binner`] that
/// permutes each bin's tuples at flush time. Seed 0 is the identity
/// (arrival order); any other seed is a deterministic shuffle.
pub struct ShuffledPb<V> {
    engine: NullEngine,
    binner: Binner<V>,
    tuple_bytes: u32,
    seed: u64,
    base: Option<ArrayAddr>,
}

impl<V: Copy> ShuffledPb<V> {
    /// Creates a backend for keys `0..num_keys` with at least `min_bins`
    /// bins, shuffling with `seed` (0 = keep arrival order).
    pub fn new(num_keys: u32, min_bins: usize, seed: u64) -> Self {
        ShuffledPb {
            engine: NullEngine::new(),
            binner: Binner::new(num_keys, min_bins),
            tuple_bytes: std::mem::size_of::<(u32, V)>() as u32,
            seed,
            base: None,
        }
    }
}

impl<V> Engine for ShuffledPb<V> {
    fn alloc(&mut self, name: &str, bytes: u64) -> ArrayAddr {
        self.engine.alloc(name, bytes)
    }
    fn load(&mut self, _addr: u64, _bytes: u32) {}
    fn store(&mut self, _addr: u64, _bytes: u32) {}
    fn nt_store(&mut self, _addr: u64, _bytes: u32) {}
    fn alu(&mut self, _n: u32) {}
    fn branch(&mut self, _pc: u64, _taken: bool) {}
    fn phase(&mut self, _name: &'static str) {}
}

impl<V: Copy> PbBackend<V> for ShuffledPb<V> {
    fn bin_shift(&self) -> u32 {
        self.binner.bin_shift()
    }

    fn num_bins(&self) -> usize {
        self.binner.num_bins()
    }

    fn presize(&mut self, _counts: &[u64]) {}

    fn insert(&mut self, key: u32, value: V) {
        self.binner.insert(key, value);
    }

    fn flush_and_take(&mut self) -> BinStorage<V> {
        // Seed 0 hands the columnar store through untouched (arrival
        // order); any other seed refills each bin in permuted order.
        let mut store = self.binner.take_bins().into_store();
        if self.seed != 0 {
            let arrival = store.take();
            let mut rng = SplitMix64::seed_from_u64(self.seed);
            for b in 0..arrival.num_bins() {
                let mut bin: Vec<(u32, V)> = arrival.iter_bin(b).map(|(&k, &v)| (k, v)).collect();
                shuffle(&mut bin, &mut rng);
                for (key, value) in bin {
                    store.push(b, key, value);
                }
            }
        }
        let bytes = (store.len().max(1) as u64) * self.tuple_bytes as u64;
        let base = *self
            .base
            .get_or_insert_with(|| self.engine.alloc("shuffled_bins", bytes));
        BinStorage::new(base, self.tuple_bytes, store)
    }
}

/// Outcome of one oracle check.
#[derive(Debug, Clone)]
pub struct OracleResult {
    /// What was checked (kernel or reducer name, with the layer).
    pub subject: String,
    /// The declared mode under test.
    pub declared_commutative: bool,
    /// What the permutation replay actually observed.
    pub observed_commutative: bool,
    /// Orders tried beyond the reference order.
    pub permutations: usize,
}

impl OracleResult {
    /// The declaration matches the observation.
    pub fn agrees(&self) -> bool {
        self.declared_commutative == self.observed_commutative
    }
}

impl std::fmt::Display for OracleResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:40} declared={:11} observed={:11} ({} permutations) {}",
            self.subject,
            if self.declared_commutative {
                "commutative"
            } else {
                "ordered"
            },
            if self.observed_commutative {
                "commutative"
            } else {
                "ordered"
            },
            self.permutations,
            if self.agrees() { "OK" } else { "MISMATCH" },
        )
    }
}

/// Per-key model state: a list per key (single-slot kernels use index 0).
type ModelState = Vec<Vec<u64>>;

/// An executable model of one kernel's per-update scatter function.
pub struct ScatterModel {
    /// The kernel being modelled.
    pub kernel: KernelId,
    /// Key domain of the synthetic stream.
    pub num_keys: u32,
    /// The collision-rich synthetic update stream.
    pub updates: Vec<(u32, u64)>,
    /// Applies one `(key, value)` update to the model state.
    pub apply: fn(&mut ModelState, u32, u64),
}

impl ScatterModel {
    fn run(&self, updates: &[(u32, u64)]) -> ModelState {
        let mut state: ModelState = vec![Vec::new(); self.num_keys as usize];
        for &(k, v) in updates {
            (self.apply)(&mut state, k, v);
        }
        state
    }
}

fn slot(state: &mut ModelState, k: u32) -> &mut u64 {
    let s = &mut state[k as usize];
    if s.is_empty() {
        s.push(0);
    }
    &mut s[0]
}

/// A collision-rich stream: `n` updates over `keys` keys, every key hit
/// repeatedly with distinct values so any within-key reorder is visible
/// to an order-sensitive scatter function.
fn collision_stream(n: usize, keys: u32, seed: u64) -> Vec<(u32, u64)> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    (0..n).map(|i| (rng.u32_below(keys), i as u64)).collect()
}

/// The suite kernels' scatter models with their probe streams.
///
/// Values double as exact dyadic floats where the kernel sums: `Pagerank`
/// stores `f32` bits, `SpMV` stores `f64` bits, both multiples of 0.25 so
/// addition never rounds and order-insensitivity is bit-exact.
///
/// `IntSort` and `PINV` deserve a note: at whole-kernel granularity on
/// *valid* inputs they look order-insensitive (sorted output / unique
/// keys), but their scatter functions — stable record placement and
/// slot overwrite — are order-sensitive, which is why the paper classifies
/// them as ordered. The probe streams use duplicate keys with distinct
/// values to test the scatter function itself, not the lucky input.
pub fn scatter_models() -> Vec<ScatterModel> {
    let keys = 16u32;
    let n = 160usize;
    vec![
        ScatterModel {
            kernel: KernelId::DegreeCount,
            num_keys: keys,
            updates: collision_stream(n, keys, 11),
            apply: |s, k, _| *slot(s, k) += 1,
        },
        ScatterModel {
            kernel: KernelId::NeighborPopulate,
            num_keys: keys,
            updates: collision_stream(n, keys, 12),
            apply: |s, k, v| s[k as usize].push(v),
        },
        ScatterModel {
            kernel: KernelId::Pagerank,
            num_keys: keys,
            updates: collision_stream(n, keys, 13)
                .into_iter()
                .map(|(k, v)| (k, f32::to_bits((v % 8 + 1) as f32 * 0.25) as u64))
                .collect(),
            apply: |s, k, v| {
                let cur = f32::from_bits(*slot(s, k) as u32);
                *slot(s, k) = f32::to_bits(cur + f32::from_bits(v as u32)) as u64;
            },
        },
        ScatterModel {
            kernel: KernelId::Radii,
            num_keys: keys,
            updates: collision_stream(n, keys, 14)
                .into_iter()
                .map(|(k, v)| (k, 1u64 << (v % 64)))
                .collect(),
            apply: |s, k, v| *slot(s, k) |= v,
        },
        ScatterModel {
            kernel: KernelId::IntSort,
            num_keys: keys,
            // Counting sort's scatter places record i at the next cursor of
            // bucket key(i): stable, hence order-sensitive per bucket.
            updates: collision_stream(n, keys, 15),
            apply: |s, k, v| s[k as usize].push(v),
        },
        ScatterModel {
            kernel: KernelId::Spmv,
            num_keys: keys,
            updates: collision_stream(n, keys, 16)
                .into_iter()
                .map(|(k, v)| (k, f64::to_bits((v % 16 + 1) as f64 * 0.25)))
                .collect(),
            apply: |s, k, v| {
                let cur = f64::from_bits(*slot(s, k));
                *slot(s, k) = f64::to_bits(cur + f64::from_bits(v));
            },
        },
        ScatterModel {
            kernel: KernelId::Transpose,
            num_keys: keys,
            // Column-major scatter appends (row, value) records at the
            // column's cursor: order-sensitive.
            updates: collision_stream(n, keys, 17),
            apply: |s, k, v| s[k as usize].push(v),
        },
        ScatterModel {
            kernel: KernelId::Pinv,
            num_keys: keys,
            // pinv[p[i]] = i is a slot overwrite; probe with duplicate
            // keys so last-writer-wins order sensitivity is exposed.
            updates: collision_stream(n, keys, 18),
            apply: |s, k, v| *slot(s, k) = v,
        },
        ScatterModel {
            kernel: KernelId::SymPerm,
            num_keys: keys,
            updates: collision_stream(n, keys, 19),
            apply: |s, k, v| s[k as usize].push(v),
        },
        ScatterModel {
            // SpGEMM's per-cell accumulator: dyadic f64 `+=` on the
            // output cell — the same commutative shape as SpMV, applied
            // to partial products.
            kernel: KernelId::SpGemm,
            num_keys: keys,
            updates: collision_stream(n, keys, 20)
                .into_iter()
                .map(|(k, v)| (k, f64::to_bits((v % 16 + 1) as f64 * 0.25)))
                .collect(),
            apply: |s, k, v| {
                let cur = f64::from_bits(*slot(s, k));
                *slot(s, k) = f64::to_bits(cur + f64::from_bits(v));
            },
        },
    ]
}

/// Permutes a scatter model's stream `perms` times and compares outputs.
pub fn check_scatter_model(model: &ScatterModel, perms: usize) -> OracleResult {
    let reference = model.run(&model.updates);
    let mut observed_commutative = true;
    for seed in 1..=perms as u64 {
        let mut shuffled = model.updates.clone();
        let mut rng = SplitMix64::seed_from_u64(seed.wrapping_mul(0x9e37_79b9));
        shuffle(&mut shuffled, &mut rng);
        if model.run(&shuffled) != reference {
            observed_commutative = false;
            break;
        }
    }
    OracleResult {
        subject: format!("scatter-model {}", model.kernel.name()),
        declared_commutative: model.kernel.is_commutative(),
        observed_commutative,
        permutations: perms,
    }
}

/// Runs the scatter-model oracle over every suite kernel.
pub fn check_all_scatter_models(perms: usize) -> Vec<OracleResult> {
    scatter_models()
        .iter()
        .map(|m| check_scatter_model(m, perms))
        .collect()
}

/// Generic reducer probe: applies `values` in order and in `perms`
/// shuffled orders, and (for the fusable contract) checks `fuse_values`
/// on every adjacent pair against a different accumulator state each.
fn probe_reducer<R, EQ>(
    name: &str,
    reducer: &R,
    values: Vec<R::Value>,
    perms: usize,
    eq: EQ,
) -> OracleResult
where
    R: Reducer,
    R::Value: PartialEq,
    EQ: Fn(&R::Acc, &R::Acc) -> bool,
{
    let apply_all = |vals: &[R::Value]| {
        let mut acc = reducer.identity();
        for v in vals {
            reducer.apply(&mut acc, v);
        }
        acc
    };
    let reference = apply_all(&values);
    let mut observed_commutative = true;
    for seed in 1..=perms as u64 {
        let mut shuffled = values.clone();
        let mut rng = SplitMix64::seed_from_u64(seed.wrapping_mul(0x517c_c1b7));
        shuffle(&mut shuffled, &mut rng);
        if !eq(&apply_all(&shuffled), &reference) {
            observed_commutative = false;
            break;
        }
    }
    if R::COMMUTATIVE && R::FUSABLE {
        // The frame coalescer's law (the condition `bin_run` fuses under):
        // apply(acc, fuse(a, b)) == apply(apply(acc, a), b) when the pair
        // fuses, `a` untouched when it is refused. `acc` runs along the
        // prefix fold, so every pair meets another accumulator state.
        let mut acc = reducer.identity();
        for pair in values.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            let mut fused = a;
            observed_commutative &= if reducer.fuse_values(&mut fused, &b) {
                let (mut once, mut twice) = (acc.clone(), acc.clone());
                reducer.apply(&mut once, &fused);
                reducer.apply(&mut twice, &a);
                reducer.apply(&mut twice, &b);
                eq(&once, &twice)
            } else {
                fused == a
            };
            reducer.apply(&mut acc, &a);
        }
    }
    OracleResult {
        subject: format!("reducer {name}"),
        declared_commutative: R::COMMUTATIVE,
        observed_commutative,
        permutations: perms,
    }
}

/// Runs the reducer oracle over the four `cobra-stream` reducers and
/// `cobra-spgemm`'s `ColSum` (fusable with a non-trivial refusal: two
/// products for different columns must not coalesce).
pub fn check_reducers(perms: usize) -> Vec<OracleResult> {
    let mut rng = SplitMix64::seed_from_u64(23);
    let counts: Vec<()> = vec![(); 64];
    // Dyadic values: f64 sums are exact, so shuffles compare bit-equal.
    let sums: Vec<f64> = (0..64).map(|_| rng.u32_below(32) as f64 * 0.25).collect();
    let appends: Vec<u32> = (0..64).map(|i| i as u32).collect();
    let latests: Vec<u64> = (0..64).map(|i| i as u64).collect();
    // Few columns, so adjacent pairs both fuse (same column) and refuse.
    let cells: Vec<(u32, f64)> = (0..64)
        .map(|_| (rng.u32_below(3), rng.u32_below(32) as f64 * 0.25))
        .collect();
    vec![
        probe_reducer("Count", &Count, counts, perms, |a, b| a == b),
        probe_reducer("Sum", &Sum, sums, perms, |a, b| a == b),
        probe_reducer("Append", &Append, appends, perms, |a, b| a == b),
        probe_reducer("Latest", &Latest, latests, perms, |a, b| a == b),
        probe_reducer("ColSum", &cobra_spgemm::ColSum, cells, perms, |a, b| a == b),
    ]
}

/// Replays one decoded WAL suffix through a reducer: batch (arrival)
/// order against `perms` shuffled orders, per-key accumulators.
fn replay_wal_reducer<R, F, EQ>(
    name: &str,
    reducer: &R,
    num_keys: u32,
    decoded: &[(u32, u64)],
    decode_value: F,
    perms: usize,
    eq: EQ,
) -> OracleResult
where
    R: Reducer,
    F: Fn(u64) -> R::Value,
    EQ: Fn(&R::Acc, &R::Acc) -> bool,
{
    let apply_all = |tuples: &[(u32, u64)]| {
        let mut state: Vec<R::Acc> = (0..num_keys).map(|_| reducer.identity()).collect();
        for &(k, w) in tuples {
            reducer.apply(&mut state[k as usize % num_keys as usize], &decode_value(w));
        }
        state
    };
    let reference = apply_all(decoded);
    let mut observed_commutative = true;
    'outer: for seed in 1..=perms as u64 {
        let mut shuffled = decoded.to_vec();
        let mut rng = SplitMix64::seed_from_u64(seed.wrapping_mul(0x2545_f491));
        shuffle(&mut shuffled, &mut rng);
        let replayed = apply_all(&shuffled);
        for (a, b) in replayed.iter().zip(&reference) {
            if !eq(a, b) {
                observed_commutative = false;
                break 'outer;
            }
        }
    }
    OracleResult {
        subject: format!("wal-replay {name}"),
        declared_commutative: R::COMMUTATIVE,
        observed_commutative,
        permutations: perms,
    }
}

/// WAL-suffix replay oracle: encodes a collision-rich update stream into
/// real WAL record bytes (with epoch `Seal`/`EpochCommit` markers
/// interleaved, as recovery would see them), decodes it back with the
/// total decoder, and replays the decoded suffix through each streaming
/// reducer in permuted order against the batch result. Commutative
/// reducers must be insensitive to suffix replay order — the property
/// crash recovery relies on when it re-bins a WAL suffix per shard —
/// while ordered reducers must be provably sensitive.
pub fn check_wal_replays(perms: usize) -> Vec<OracleResult> {
    let keys = 16u32;
    let updates = collision_stream(160, keys, 21);

    // Encode the suffix exactly as a shard WAL would hold it.
    let mut buf = Vec::new();
    let mut epoch = 0u64;
    for (i, &(key, value)) in updates.iter().enumerate() {
        Record::Update { key, value }.encode_into(&mut buf);
        if (i + 1) % 40 == 0 {
            epoch += 1;
            Record::Seal { epoch }.encode_into(&mut buf);
            Record::EpochCommit { epoch }.encode_into(&mut buf);
        }
    }
    let (records, end, clean) = decode_all(&buf);
    let decoded: Vec<(u32, u64)> = records
        .iter()
        .filter_map(|r| match *r {
            Record::Update { key, value } => Some((key, value)),
            _ => None,
        })
        .collect();
    let roundtrip_ok = clean && end == buf.len() && decoded == updates;

    let mut results = vec![OracleResult {
        // "Commutative" here encodes "the suffix decodes loss-free and
        // in order": the precondition every replay below depends on.
        subject: "wal-replay suffix-codec".into(),
        declared_commutative: true,
        observed_commutative: roundtrip_ok,
        permutations: 0,
    }];
    results.push(replay_wal_reducer(
        "Count",
        &Count,
        keys,
        &decoded,
        |_| (),
        perms,
        |a, b| a == b,
    ));
    // Dyadic sums (value word reinterpreted as quarters): exact f64 adds.
    let sums: Vec<(u32, u64)> = decoded
        .iter()
        .map(|&(k, w)| (k, f64::to_bits((w % 32) as f64 * 0.25)))
        .collect();
    results.push(replay_wal_reducer(
        "Sum",
        &Sum,
        keys,
        &sums,
        f64::from_bits,
        perms,
        |a, b| a == b,
    ));
    results.push(replay_wal_reducer(
        "Append",
        &Append,
        keys,
        &decoded,
        |w| w as u32,
        perms,
        |a, b| a == b,
    ));
    results.push(replay_wal_reducer(
        "Latest",
        &Latest,
        keys,
        &decoded,
        |w| w,
        perms,
        |a, b| a == b,
    ));
    results
}

/// Whole-kernel replay through [`ShuffledPb`]: the four declared-
/// commutative kernels must reproduce reference output under shuffled
/// within-bin replay order. Each kernel contributes one "does the run
/// shuffled with this seed match the reference?" closure; one loop runs
/// them all.
pub fn check_kernel_replays(perms: usize) -> Vec<OracleResult> {
    // Degree-Count over a random graph: exact equality.
    let el = gen::uniform_random(512, 4_000, 7);
    let degrees = degree_count::reference(&el);
    let degrees_match =
        |seed| degree_count::pb(&mut ShuffledPb::<()>::new(512, 8, seed), &el) == degrees;

    // Radii (bitset OR): exact equality of the radii vector.
    let radii_g = Csr::from_edgelist(&gen::rmat(8, 8, 3));
    let radii_want = radii::reference(&radii_g, 4);
    let radii_match = |seed| {
        let mut b = ShuffledPb::<u64>::new(radii_g.num_vertices() as u32, 8, seed);
        radii::pb(&mut b, &radii_g, 4).radii == radii_want.radii
    };

    // Pagerank contributions: fp sums, suite tolerance (1e-4).
    let pr_g = Csr::from_edgelist(&gen::rmat(8, 8, 5));
    let ranks = pagerank::reference(&pr_g);
    let ranks_match = |seed| {
        let mut b = ShuffledPb::<f32>::new((pr_g.num_vertices() as u32).max(1), 8, seed);
        pagerank::max_abs_diff(&pagerank::pb(&mut b, &pr_g), &ranks) <= 1e-4
    };

    // SpMV scatter: fp sums, tight tolerance (few terms per row).
    let m: SparseMatrix = cobra_graph::matrix::banded(256, 8, 5);
    let mut rng = SplitMix64::seed_from_u64(9);
    let x: Vec<f64> = (0..m.cols()).map(|_| rng.f64_range(-1.0, 1.0)).collect();
    let y = spmv::reference(&m, &x);
    let spmv_match = |seed| {
        let mut b = ShuffledPb::<f64>::new(m.rows().max(1), 8, seed);
        spmv::max_abs_diff(&spmv::pb(&mut b, &m, &x), &y) <= 1e-9
    };

    type Matches<'a> = &'a dyn Fn(u64) -> bool;
    let replays: [(&str, KernelId, Matches<'_>); 4] = [
        ("Degree-Count", KernelId::DegreeCount, &degrees_match),
        ("Radii", KernelId::Radii, &radii_match),
        ("Pagerank", KernelId::Pagerank, &ranks_match),
        ("SpMV", KernelId::Spmv, &spmv_match),
    ];
    replays
        .iter()
        .map(|(name, kernel, matches)| OracleResult {
            subject: format!("kernel-replay {name}"),
            declared_commutative: kernel.is_commutative(),
            observed_commutative: (0..=perms as u64).all(matches),
            permutations: perms,
        })
        .collect()
}

/// SpGEMM fusion oracle: proves the frame-fusion pass and the streaming
/// path preserve the batch-unfused product *bitwise* on dyadic inputs,
/// and that the per-cell fold really is permutation-insensitive.
///
/// Three probes, each an [`OracleResult`]:
///
/// 1. **fused-vs-unfused** — `spgemm` with fusion on vs off, same input;
///    requires the fused run to actually score fusion hits (a fusion pass
///    that never fires would pass vacuously).
/// 2. **batch-vs-streaming** — the epoch-tiled [`spgemm_stream`]
///    (fused shards) against the batch-unfused product.
/// 3. **permuted-replay** — the raw partial-product stream folded per
///    cell in `perms` shuffled orders against arrival order, the
///    commutativity fact fusion's legality rests on.
///
/// The mutation hook `spgemm_with_merge` (a merge that fuses *across*
/// columns) is what the self-test plants to prove probe 1 catches broken
/// fusion.
///
/// [`spgemm_stream`]: cobra_spgemm::spgemm_stream
pub fn check_spgemm_fusion(perms: usize) -> Vec<OracleResult> {
    use cobra_spgemm::{
        dyadic_matrix, dyadic_skewed_matrix, spgemm, spgemm_stream, triplets, SpGemmConfig,
    };
    let a = dyadic_matrix(400, 300, 5, 27);
    let b = dyadic_skewed_matrix(300, 256, 6, 1.3, 28);
    let unfused_cfg = SpGemmConfig {
        fusion: false,
        ..Default::default()
    };
    let (unfused, _) = spgemm(&a, &b, &unfused_cfg);
    let want = triplets(&unfused);

    let (fused, rep) = spgemm(&a, &b, &SpGemmConfig::default());
    let mut results = vec![OracleResult {
        subject: "spgemm fused-vs-unfused".into(),
        declared_commutative: true,
        observed_commutative: rep.fuse.hits > 0 && triplets(&fused) == want,
        permutations: 0,
    }];

    let (streamed, stats) = spgemm_stream(&a, &b, 4, cobra_stream::StreamConfig::default());
    results.push(OracleResult {
        subject: "spgemm batch-vs-streaming".into(),
        declared_commutative: true,
        observed_commutative: stats.epochs_sealed >= 4 && triplets(&streamed) == want,
        permutations: 0,
    });

    // Permuted replay of the raw partial-product stream.
    let mut products: Vec<(u32, u32, u64)> = Vec::new();
    cobra_spgemm::expand(&a, &b, |i, (j, v)| products.push((i, j, v.to_bits())));
    let fold = |stream: &[(u32, u32, u64)]| {
        let mut cells: std::collections::BTreeMap<(u32, u32), u64> = Default::default();
        for &(i, j, bits) in stream {
            let e = cells.entry((i, j)).or_insert(0.0f64.to_bits());
            *e = (f64::from_bits(*e) + f64::from_bits(bits)).to_bits();
        }
        cells
    };
    let reference = fold(&products);
    let mut ok = reference
        .iter()
        .map(|(&(i, j), &bits)| (i, j, bits))
        .eq(want.iter().copied());
    for seed in 1..=perms as u64 {
        let mut shuffled = products.clone();
        let mut rng = SplitMix64::seed_from_u64(seed.wrapping_mul(0x6c62_272e));
        shuffle(&mut shuffled, &mut rng);
        if fold(&shuffled) != reference {
            ok = false;
            break;
        }
    }
    results.push(OracleResult {
        subject: "spgemm permuted-replay".into(),
        declared_commutative: KernelId::SpGemm.is_commutative(),
        observed_commutative: ok,
        permutations: perms,
    });
    results
}

/// The seeded broken-fusion mutation: a merge that pre-adds values
/// *across different output columns*. Returns `true` when the corruption
/// is visible against the unfused product (the fusion oracle's probe 1
/// must catch exactly this). A broken oracle — or a fusion path that
/// never fires — returns `false`.
pub fn spgemm_broken_fusion_is_caught() -> bool {
    use cobra_spgemm::{
        dyadic_matrix, dyadic_skewed_matrix, spgemm, spgemm_with_merge, triplets, SpGemmConfig,
    };
    let a = dyadic_matrix(400, 300, 5, 27);
    let b = dyadic_skewed_matrix(300, 256, 6, 1.3, 28);
    let unfused_cfg = SpGemmConfig {
        fusion: false,
        ..Default::default()
    };
    let (unfused, _) = spgemm(&a, &b, &unfused_cfg);
    let (broken, rep) = spgemm_with_merge(&a, &b, &SpGemmConfig::default(), |x, y| {
        x.1 += y.1; // ignores the column — illegal coalescing
        true
    });
    rep.fuse.hits > 0 && triplets(&broken) != triplets(&unfused)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spgemm_fusion_probes_all_agree() {
        for r in check_spgemm_fusion(6) {
            assert!(r.agrees(), "{r}");
        }
    }

    #[test]
    fn spgemm_broken_fusion_mutation_is_caught() {
        assert!(spgemm_broken_fusion_is_caught());
    }

    #[test]
    fn scatter_models_all_agree_with_declarations() {
        for r in check_all_scatter_models(6) {
            assert!(r.agrees(), "{r}");
        }
    }

    #[test]
    fn reducers_all_agree_with_declarations() {
        for r in check_reducers(6) {
            assert!(r.agrees(), "{r}");
        }
    }

    #[test]
    fn wal_suffix_replays_agree_with_declarations() {
        for r in check_wal_replays(6) {
            assert!(r.agrees(), "{r}");
        }
    }

    #[test]
    fn kernel_replays_are_permutation_stable() {
        for r in check_kernel_replays(3) {
            assert!(r.agrees(), "{r}");
        }
    }

    #[test]
    fn a_wrong_declaration_is_caught() {
        // Model an overwrite scatter but declare it commutative (use a
        // commutative KernelId): the oracle must observe "ordered" and
        // therefore disagree.
        let lying = ScatterModel {
            kernel: KernelId::DegreeCount, // declared commutative
            num_keys: 8,
            updates: collision_stream(64, 8, 42),
            apply: |s, k, v| *slot(s, k) = v, // actually order-sensitive
        };
        let r = check_scatter_model(&lying, 8);
        assert!(!r.agrees(), "oracle failed to expose the lie: {r}");
    }

    #[test]
    fn a_wrong_fuse_values_is_caught() {
        // `Sum`'s fold with a `fuse_values` that "coalesces" by dropping
        // `b`: permutation-stable, so only the fuse law can expose it.
        struct DropsB;
        impl Reducer for DropsB {
            type Value = f64;
            type Acc = f64;
            const COMMUTATIVE: bool = true;
            const FUSABLE: bool = true;
            fn identity(&self) -> f64 {
                0.0
            }
            fn apply(&self, acc: &mut f64, value: &f64) {
                *acc += value;
            }
            fn fuse_values(&self, _a: &mut f64, _b: &f64) -> bool {
                true
            }
        }
        let r = probe_reducer("DropsB", &DropsB, vec![0.25, 0.5, 0.75], 4, |a, b| a == b);
        assert!(!r.agrees(), "oracle missed the dropped value: {r}");
    }
}
