//! Native (real-hardware) benchmarks of the software Propagation Blocking
//! library: the locality optimization the paper builds on, measured as real
//! wall-clock on the host machine — direct irregular updates vs
//! binning + accumulate, and PB counting sort vs the standard sort.
//!
//! Plain `harness = false` binary (no external benchmark framework) so the
//! workspace builds offline; see `cobra_bench::timing`.

use cobra_bench::timing::{bench, Measurement};
use cobra_graph::gen;
use cobra_pb::Binner;
use std::time::Instant;

const NUM_KEYS: u32 = 1 << 22; // 4M-entry histogram: 16MB, beyond LLC
const NUM_UPDATES: usize = 1 << 22;
const SAMPLES: usize = 10;

fn updates() -> Vec<u32> {
    gen::random_keys(NUM_UPDATES, NUM_KEYS, 42)
}

fn bench_histogram(keys: &[u32]) {
    println!("histogram_4M_keys");
    let n = keys.len() as u64;

    bench("direct_scatter", n, SAMPLES, || {
        let mut counts = vec![0u32; NUM_KEYS as usize];
        for &k in keys {
            counts[k as usize] += 1;
        }
        counts
    });

    for bins in [256usize, 4096, 65536] {
        bench(&format!("pb_bin_accumulate/{bins}"), n, SAMPLES, || {
            let mut binner = Binner::<()>::new(NUM_KEYS, bins);
            for &k in keys {
                binner.insert(k, ());
            }
            let mut counts = vec![0u32; NUM_KEYS as usize];
            binner.finish().accumulate(|k, _| counts[k as usize] += 1);
            counts
        });
    }
    println!();
}

fn bench_counting_sort() {
    let keys = gen::random_keys(1 << 21, 1 << 22, 7);
    println!("integer_sort_2M");
    let n = keys.len() as u64;

    bench("std_sort_unstable", n, SAMPLES, || {
        let mut v = keys.clone();
        v.sort_unstable();
        v
    });

    bench("pb_counting_sort", n, SAMPLES, || {
        let mut binner = Binner::<()>::new(1 << 22, 4096);
        for &k in &keys {
            binner.insert(k, ());
        }
        let bins = binner.finish();
        let range = 1usize << bins.bin_shift();
        let mut out = Vec::with_capacity(keys.len());
        for bin_id in 0..bins.num_bins() {
            let base = (bin_id * range) as u32;
            let mut local = vec![0u32; range];
            for t in bins.iter_bin(bin_id) {
                local[(t.key - base) as usize] += 1;
            }
            for (off, &cnt) in local.iter().enumerate() {
                for _ in 0..cnt {
                    out.push(base + off as u32);
                }
            }
        }
        out
    });
    println!();
}

fn bench_parallel_binning(keys: &[u32]) {
    println!("parallel_binning_4M");
    let n = keys.len() as u64;
    for threads in [1usize, 2, 4] {
        bench(&format!("threads/{threads}"), n, SAMPLES, || {
            cobra_pb::bin_parallel(keys.len(), NUM_KEYS, 4096, threads, |i| (keys[i], ()))
        });
    }
}

/// The native Figure 4: Binning and Accumulate wall-clock per update as
/// the bin count sweeps, one uniform `u64` update per key, 2 threads —
/// `fig04_bin_sensitivity`'s column order, measured instead of simulated.
fn bin_sweep() {
    const THREADS: usize = 2;
    const SWEEP_SAMPLES: usize = 3;
    println!(
        "bin_sweep: FRAME_KEYS = {}, u64 payloads, {THREADS} threads, median of {SWEEP_SAMPLES}",
        cobra_bins::FRAME_KEYS
    );
    for log_keys in [22u32, 25] {
        let n = 1usize << log_keys;
        let keys = gen::random_keys(n, n as u32, 42);
        let mut table = vec![0u64; n];
        println!("keys = updates = 2^{log_keys}");
        println!(
            "{:>8} {:>16} {:>19} {:>14}",
            "bins", "binning ns/upd", "accumulate ns/upd", "total ns/upd"
        );
        for log_bins in 6..=14 {
            let mut phases = [Vec::new(), Vec::new()];
            // Sample 0 is the untimed warmup, as in `timing::bench`.
            for sample in 0..=SWEEP_SAMPLES {
                let t0 = Instant::now();
                let bins = cobra_pb::bin_parallel(n, n as u32, 1 << log_bins, THREADS, |i| {
                    (keys[i], i as u64)
                });
                let t1 = Instant::now();
                bins.accumulate_into(&mut table, THREADS, |chunk, base, k, v| {
                    let slot = &mut chunk[(k - base) as usize];
                    *slot = slot.wrapping_add(*v);
                });
                let t2 = Instant::now();
                if sample > 0 {
                    phases[0].push(t1 - t0);
                    phases[1].push(t2 - t1);
                }
            }
            let [binning, accumulate] = phases.map(|mut samples| {
                samples.sort_unstable();
                let m = Measurement {
                    name: String::new(),
                    samples,
                    elements: n as u64,
                };
                1e9 / m.throughput()
            });
            println!(
                "{:>8} {binning:>16.2} {accumulate:>19.2} {:>14.2}",
                1u32 << log_bins,
                binning + accumulate
            );
        }
        std::hint::black_box(&table);
    }
}

/// `cargo bench -p cobra-bench --bench pb_native -- bin_sweep` runs one
/// group; no name runs all of them.
fn main() {
    let names: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with('-'))
        .collect();
    let wanted = |group: &str| names.is_empty() || names.iter().any(|n| n == group);
    let keys = updates();
    if wanted("histogram") {
        bench_histogram(&keys);
    }
    if wanted("counting_sort") {
        bench_counting_sort();
    }
    if wanted("parallel_binning") {
        bench_parallel_binning(&keys);
    }
    if wanted("bin_sweep") {
        bin_sweep();
    }
}
