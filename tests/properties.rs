//! Randomized property tests over the core invariants of the
//! reproduction: binning is an order-preserving range partition (through
//! both the software library and the COBRA hardware model), the kernels
//! preserve their semantics under PB, the simulator conserves events, and
//! streaming ingestion converges to the batch result.
//!
//! Cases are generated with the in-repo [`SplitMix64`] generator from
//! fixed seeds, so every run exercises the same (reproducible) inputs.

use cobra_repro::cobra::{CobraMachine, DesConfig, PbBackend, ReservedWays, SwPb};
use cobra_repro::graph::prefix::{exclusive_sum, exclusive_sum_parallel};
use cobra_repro::graph::{Csr, Edge, EdgeList, SplitMix64};
use cobra_repro::pb::Binner;
use cobra_repro::sim::engine::NullEngine;
use cobra_repro::sim::MachineConfig;
use cobra_repro::stream::{Append, Count, IngestPipeline, Reducer, StreamConfig};

const CASES: u64 = 64;

/// A length in `min..max`.
fn random_len(rng: &mut SplitMix64, min: usize, max: usize) -> usize {
    min + rng.u32_below((max - min) as u32) as usize
}

/// A vec of random length in `min_len..max_len` with values in `0..bound`.
fn random_vec_len(rng: &mut SplitMix64, min_len: usize, max_len: usize, bound: u32) -> Vec<u32> {
    let len = random_len(rng, min_len, max_len);
    (0..len).map(|_| rng.u32_below(bound)).collect()
}

/// Software binning is a permutation of the input, partitioned by key
/// range, order-preserving within each bin.
#[test]
fn binner_is_an_order_preserving_partition() {
    let mut rng = SplitMix64::seed_from_u64(0xB1);
    for case in 0..CASES {
        let keys = random_vec_len(&mut rng, 1, 2000, 5000);
        let min_bins = 1 + rng.u32_below(63) as usize;
        let mut b = Binner::<u32>::new(5000, min_bins);
        for (i, &k) in keys.iter().enumerate() {
            b.insert(k, i as u32);
        }
        let bins = b.finish();
        assert_eq!(bins.len(), keys.len(), "case {case}");
        let shift = bins.bin_shift();
        let mut seen = vec![false; keys.len()];
        for bin_id in 0..bins.num_bins() {
            let mut last_idx_for_key = std::collections::HashMap::new();
            for t in bins.iter_bin(bin_id) {
                assert_eq!((t.key >> shift) as usize, bin_id, "case {case}");
                assert_eq!(keys[t.value as usize], t.key, "case {case}");
                assert!(!seen[t.value as usize], "case {case}: duplicate tuple");
                seen[t.value as usize] = true;
                // Per-key order preserved (indices ascend).
                if let Some(prev) = last_idx_for_key.insert(t.key, t.value) {
                    assert!(prev < t.value, "case {case}");
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "case {case}");
    }
}

/// The full-frame path, for one payload type: 1-4 hot bins of 20-200
/// frames each (the other bins stay empty), 80% of a hot bin's tuples on
/// a tenth of its keys so repeats meet inside a frame, `take_bins` at 1-4
/// random cut points, which fall mid-frame.
fn check_full_frames<V: Copy + PartialEq + std::fmt::Debug>(seed: u64, payload: impl Fn(u64) -> V) {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let (num_keys, min_bins) = (1u32 << 12, 32usize);
    for case in 0..8 {
        let mut plain = Binner::<V>::new(num_keys, min_bins);
        let mut refused = Binner::<V>::new(num_keys, min_bins);
        let cap = plain.flush_stats().frame_capacity as usize;
        let range = plain.bin_range() as u32;
        let mut stream = Vec::new();
        for _ in 0..1 + rng.u32_below(4) {
            let base = rng.u32_below(min_bins as u32) * range;
            for _ in 0..random_len(&mut rng, 20 * cap, 200 * cap) {
                let hot = rng.u32_below(10) < 8;
                stream.push(base + rng.u32_below(if hot { range / 10 } else { range }));
            }
        }
        for i in (1..stream.len()).rev() {
            stream.swap(i, rng.usize_through(i));
        }
        let mut cuts = vec![stream.len()];
        for _ in 0..1 + rng.u32_below(4) {
            cuts.push(random_len(&mut rng, 1, stream.len()));
        }
        cuts.sort_unstable();

        // The reference: `BinStore::insert`, shift routing and no frames.
        let mut want = Binner::<V>::new(num_keys, min_bins).finish().into_store();
        let mut got = want.clone();
        let mut from = 0;
        for &cut in &cuts {
            for (i, &k) in stream[from..cut].iter().enumerate() {
                let v = payload((from + i) as u64);
                plain.insert(k, v);
                refused.insert_fused(k, v, |_, _| false);
                want.insert(k, v);
            }
            from = cut;
            let take = plain.take_bins();
            assert!(refused.take_bins() == take, "case {case}: refused != plain");
            for b in 0..take.num_bins() {
                got.extend_bin(b, take.keys(b), take.values(b));
            }
        }
        assert!(got == want, "case {case}: takes differ from direct routing");
        let stats = plain.flush_stats();
        assert_eq!(stats.tuples, stream.len() as u64, "case {case}");
        assert!(stats.frames >= 20, "case {case}: no frame filled");
        assert_eq!(refused.flush_stats(), stats, "case {case}");
        let fuse = refused.fuse_stats();
        assert_eq!((fuse.attempts, fuse.hits), (stats.tuples, 0), "case {case}");
    }
}

/// Frames that fill, flush and are cut mid-frame by `take_bins` route
/// exactly as frameless shift routing does, for every payload width, and
/// an always-refusing fused insert is `insert` (the property above draws
/// too few keys per bin to fill a frame).
#[test]
fn full_frames_split_by_takes_equal_direct_routing() {
    check_full_frames(0xF1, |_| ());
    check_full_frames(0xF2, |i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    check_full_frames(0xF3, |i| (i as u32, i as f64 * 0.5));
}

/// Run bounds for a stream of `len` tuples: random cut points, a repeated
/// cut (an empty run) and a cut at one of `flush_ends`, the tuple counts
/// after which the per-tuple loop flushed a frame (a run that ends
/// exactly on a flush).
fn cut_into_runs(rng: &mut SplitMix64, len: usize, flush_ends: &[usize]) -> Vec<usize> {
    assert!(flush_ends.len() >= 4, "the stream must flush frames");
    let mut cuts = vec![0, len];
    for _ in 0..1 + rng.u32_below(6) {
        cuts.push(random_len(rng, 1, len));
    }
    cuts.push(flush_ends[rng.usize_through(flush_ends.len() - 1)]);
    cuts.push(cuts[rng.usize_through(cuts.len() - 1)]);
    cuts.sort_unstable();
    let flushes_in =
        |lo: usize, hi: usize| flush_ends.iter().filter(|&&e| lo < e && e <= hi).count();
    assert!(
        cuts.windows(2).any(|w| flushes_in(w[0], w[1]) >= 2),
        "some run must span several flushes"
    );
    cuts
}

/// A merge policy for `insert_fused`/`extend_fused`.
type Merge<V> = fn(&mut V, &V) -> bool;

/// `extend` and `extend_fused` over runs at random boundaries, for one
/// payload type and its merges: the same bins, `flush_stats` and
/// `fuse_stats` as `insert`/`insert_fused` one tuple at a time. Streams
/// alternate between uniform keys and 80% of the tuples on a tenth of
/// the keys of 1-3 hot bins (where same-key repeats meet in a frame, and
/// frames still fill under a merge that always folds).
fn check_runs<V: Copy + PartialEq>(seed: u64, payload: impl Fn(u64) -> V, merges: &[Merge<V>]) {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let (num_keys, min_bins) = (1u32 << 16, 32usize);
    let mut fused = false;
    let policies: Vec<Option<Merge<V>>> = std::iter::once(None)
        .chain(merges.iter().copied().map(Some))
        .collect();
    for case in 0..8 {
        let range = Binner::<V>::new(num_keys, min_bins).bin_range() as u32;
        let len = random_len(&mut rng, 20_000, 60_000);
        let stream: Vec<u32> = if case % 2 == 0 {
            (0..len).map(|_| rng.u32_below(num_keys)).collect()
        } else {
            let hot: Vec<u32> = (0..1 + rng.u32_below(3))
                .map(|_| rng.u32_below(min_bins as u32) * range)
                .collect();
            (0..len)
                .map(|_| match rng.u32_below(10) {
                    0..=7 => hot[rng.usize_through(hot.len() - 1)] + rng.u32_below(range / 10),
                    _ => rng.u32_below(num_keys),
                })
                .collect()
        };
        let tuple = |i: usize| (stream[i], payload(i as u64));
        for (p, &merge) in policies.iter().enumerate() {
            let mut one = Binner::<V>::new(num_keys, min_bins);
            let mut flush_ends = Vec::new();
            for i in 0..len {
                let (k, v) = tuple(i);
                let frames = one.flush_stats().frames;
                match merge {
                    None => one.insert(k, v),
                    Some(m) => one.insert_fused(k, v, m),
                }
                if one.flush_stats().frames > frames {
                    flush_ends.push(i + 1);
                }
            }
            let cuts = cut_into_runs(&mut rng, len, &flush_ends);
            let mut runs = Binner::<V>::new(num_keys, min_bins);
            for w in cuts.windows(2) {
                let run = (w[0]..w[1]).map(tuple);
                match merge {
                    None => runs.extend(run),
                    Some(m) => runs.extend_fused(run, m),
                }
            }
            fused |= one.fuse_stats().hits > 0;
            let what = format!("case {case}, policy {p}");
            assert_eq!(runs.flush_stats(), one.flush_stats(), "{what}");
            assert_eq!(runs.fuse_stats(), one.fuse_stats(), "{what}");
            assert!(runs.finish() == one.finish(), "{what}: runs != one by one");
        }
    }
    assert!(fused, "some stream must fuse");
}

/// A run routes exactly as its tuples one by one, for every payload
/// width, without a merge and under a merge that always folds, one that
/// always refuses and one that folds only some pairs (for `(u32, f64)`,
/// those with the same first field: SpGEMM's `merge_same_col` shape).
#[test]
fn runs_equal_the_per_tuple_loop() {
    fn refuse<V>(_: &mut V, _: &V) -> bool {
        false
    }
    check_runs(
        0xE1,
        |i| i as u32,
        &[
            |a: &mut u32, v: &u32| {
                *a = a.wrapping_add(*v);
                true
            },
            refuse,
            |a: &mut u32, v: &u32| {
                *a % 2 == *v % 2 && {
                    *a = a.wrapping_add(*v);
                    true
                }
            },
        ],
    );
    check_runs(
        0xE2,
        |i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        &[
            |a: &mut u64, v: &u64| {
                *a = a.wrapping_add(*v);
                true
            },
            refuse,
            |a: &mut u64, v: &u64| {
                *a & 1 == *v & 1 && {
                    *a ^= *v;
                    true
                }
            },
        ],
    );
    check_runs(0xE3, |_| (), &[|_: &mut (), _: &()| true, refuse]);
    check_runs(
        0xE4,
        |i| ((i % 3) as u32, i as f64 * 0.5),
        &[
            |a: &mut (u32, f64), v: &(u32, f64)| {
                a.1 += v.1;
                true
            },
            refuse,
            |a: &mut (u32, f64), v: &(u32, f64)| {
                a.0 == v.0 && {
                    a.1 += v.1;
                    true
                }
            },
        ],
    );
}

/// The COBRA hardware model produces exactly the same bins as the
/// software binner when configured with the same geometry.
#[test]
fn cobra_binning_equals_software_binning() {
    let mut rng = SplitMix64::seed_from_u64(0xB2);
    let machine = MachineConfig::hpca22();
    let domain = 1u32 << 14;
    for case in 0..CASES {
        let keys = random_vec_len(&mut rng, 1, 1500, domain);
        let mut hw = CobraMachine::<u32>::with_defaults(machine, domain, 8, keys.len() as u64);
        let nbins = PbBackend::<u32>::num_bins(&hw);
        let mut sw = SwPb::<_, u32>::new(NullEngine::new(), domain, nbins, 8, keys.len() as u64);
        assert_eq!(
            PbBackend::<u32>::bin_shift(&hw),
            PbBackend::<u32>::bin_shift(&sw),
            "case {case}"
        );
        for (i, &k) in keys.iter().enumerate() {
            hw.insert(k, i as u32);
            sw.insert(k, i as u32);
        }
        let a = hw.flush_and_take();
        let b = sw.flush_and_take();
        assert_eq!(a.store(), b.store(), "case {case}");
    }
}

/// Edgelist -> CSR -> edgelist round-trips the edge multiset, and the
/// PB'd Neighbor-Populate matches the direct construction bit-for-bit.
#[test]
fn neighbor_populate_pb_equals_reference() {
    let mut rng = SplitMix64::seed_from_u64(0xB3);
    for case in 0..CASES {
        let len = random_len(&mut rng, 0, 600);
        let raw: Vec<Edge> = (0..len)
            .map(|_| Edge::new(rng.u32_below(300), rng.u32_below(300)))
            .collect();
        let el = EdgeList::new(300, raw);
        let reference = Csr::from_edgelist(&el);
        let mut b = SwPb::<_, u32>::new(NullEngine::new(), 300, 8, 8, el.num_edges().max(1) as u64);
        let got = cobra_repro::kernels::neighbor_populate::pb(&mut b, &el);
        assert_eq!(got, reference, "case {case}");
    }
}

/// PB counting sort sorts (equals std sort) for arbitrary inputs.
#[test]
fn pb_counting_sort_sorts() {
    let mut rng = SplitMix64::seed_from_u64(0xB4);
    for case in 0..CASES {
        let keys = random_vec_len(&mut rng, 0, 3000, 1 << 12);
        let mut b = SwPb::<_, ()>::new(NullEngine::new(), 1 << 12, 16, 4, keys.len().max(1) as u64);
        let got = cobra_repro::kernels::int_sort::pb(&mut b, &keys, 1 << 12);
        let mut want = keys.clone();
        want.sort_unstable();
        assert_eq!(got, want, "case {case}");
    }
}

/// Parallel prefix sum equals serial for any input and thread count.
#[test]
fn prefix_sums_agree() {
    let mut rng = SplitMix64::seed_from_u64(0xB5);
    for case in 0..CASES {
        let vals = random_vec_len(&mut rng, 0, 2000, 1000);
        let threads = 1 + rng.u32_below(8) as usize;
        assert_eq!(
            exclusive_sum_parallel(&vals, threads),
            exclusive_sum(&vals),
            "case {case}"
        );
    }
}

/// Cache-simulator conservation: hits + misses == accesses at every
/// level, and inner-level misses equal outer-level accesses.
#[test]
fn hierarchy_conserves_accesses() {
    let mut rng = SplitMix64::seed_from_u64(0xB6);
    for case in 0..CASES {
        let len = random_len(&mut rng, 1, 3000);
        let mut h = cobra_repro::sim::hierarchy::Hierarchy::new(MachineConfig::tiny());
        for _ in 0..len {
            let a = rng.next_u64() % (1 << 22);
            if rng.next_u64() & 1 == 0 {
                h.store(0x1000_0000 + a * 8);
            } else {
                h.load(0x1000_0000 + a * 8);
            }
        }
        let s = h.stats();
        assert_eq!(s.l1d.accesses(), len as u64, "case {case}");
        assert_eq!(s.l2.accesses(), s.l1d.misses, "case {case}");
        assert_eq!(s.llc.accesses(), s.l2.misses, "case {case}");
        assert_eq!(s.dram_read_bytes, s.llc.misses * 64, "case {case}");
    }
}

/// Every tuple pushed through the eviction DES reaches memory exactly
/// once (full lines + flush partials).
#[test]
fn eviction_des_conserves_tuples() {
    let mut rng = SplitMix64::seed_from_u64(0xB7);
    let machine = MachineConfig::hpca22();
    for case in 0..CASES {
        let keys = random_vec_len(&mut rng, 1, 4000, 1 << 16);
        let l1_entries = 1 + rng.u32_below(39) as usize;
        let hier = cobra_repro::cobra::BinHierarchy::bininit(
            &machine,
            ReservedWays::paper_default(&machine),
            1 << 16,
            8,
        );
        let cfg = DesConfig {
            l1_evict_entries: l1_entries,
            l2_evict_entries: 4,
        };
        let rep =
            cobra_repro::cobra::evict::simulate_fixed_rate(&hier, cfg, keys.iter().copied(), 2);
        assert_eq!(
            rep.stats.llc_tuples_written,
            keys.len() as u64,
            "case {case}"
        );
    }
}

/// Commutative, not fusable, over values whose `f64` sums round: any
/// reassociation of a key's fold (say, across a seal) shows in the bits.
struct Harmonic;

impl Reducer for Harmonic {
    type Value = f64;
    type Acc = f64;
    const COMMUTATIVE: bool = true;
    fn identity(&self) -> f64 {
        0.0
    }
    fn apply(&self, acc: &mut f64, value: &f64) {
        *acc += value;
    }
}

/// A streamed epoch snapshot equals batch PB (bin + accumulate) over the
/// same tuples — for a commutative reducer (Count) regardless of producer
/// interleaving, and with a single producer also per key in arrival order
/// (Append, non-commutative) and bit for bit (Harmonic): every reducer
/// replays through the one accumulate path, the serial left fold.
#[test]
fn stream_snapshot_equals_batch_pb() {
    let mut rng = SplitMix64::seed_from_u64(0xB8);
    for case in 0..24 {
        let num_keys = 1 + rng.u32_below(4000);
        let keys = random_vec_len(&mut rng, 1, 3000, num_keys);
        let shards = 1 + rng.u32_below(6) as usize;
        let batch = 1 + rng.u32_below(64) as usize;
        let seals = rng.u32_below(4);

        // Batch reference: one binner over the full domain.
        let mut binner = Binner::<u32>::new(num_keys, 16.min(num_keys as usize));
        for (i, &k) in keys.iter().enumerate() {
            binner.insert(k, i as u32);
        }
        let mut want_counts = vec![0u32; num_keys as usize];
        let mut want_logs = vec![Vec::new(); num_keys as usize];
        let mut want_sums = vec![0.0f64; num_keys as usize];
        binner.finish().accumulate(|k, &v| {
            want_counts[k as usize] += 1;
            want_logs[k as usize].push(v);
            want_sums[k as usize] += 1.0 / (v + 3) as f64;
        });

        let cfg = StreamConfig::new().shards(shards).batch_tuples(batch);
        let counting = IngestPipeline::new(num_keys, Count, cfg);
        let ordered = IngestPipeline::new(num_keys, Append, cfg);
        let summing = IngestPipeline::new(num_keys, Harmonic, cfg);
        let mut hc = counting.handle();
        let mut ho = ordered.handle();
        let mut hs = summing.handle();
        for (i, &k) in keys.iter().enumerate() {
            hc.send(k, ()).unwrap();
            ho.send(k, i as u32).unwrap();
            hs.send(k, 1.0 / (i + 3) as f64).unwrap();
            // Sprinkle mid-stream epoch seals: they must not change totals.
            if seals > 0 && i > 0 && i % (keys.len() / (seals as usize + 1)).max(1) == 0 {
                hc.seal_epoch().unwrap();
                ho.seal_epoch().unwrap();
                hs.seal_epoch().unwrap();
            }
        }
        drop(hc);
        drop(ho);
        drop(hs);
        let (counts, _) = counting.shutdown();
        let (logs, _) = ordered.shutdown();
        let (sums, _) = summing.shutdown();
        assert_eq!(counts.to_vec(), want_counts, "case {case}: counts diverge");
        assert_eq!(
            logs.to_vec(),
            want_logs,
            "case {case}: per-key order diverges"
        );
        for (k, (got, want)) in sums.iter().zip(&want_sums).enumerate() {
            assert_eq!(got.to_bits(), want.to_bits(), "case {case}: sum of key {k}");
        }
    }
}
