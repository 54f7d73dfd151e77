//! Integer Sort: counting sort of `u32` keys (the paper's PB/COBRA versions
//! optimize a parallel counting sort; the baseline comparison sort is
//! `slice::sort_unstable` in the native benchmarks).
//!
//! Counting sort performs two irregular passes over the key domain —
//! histogram increments and scatter-by-cursor — and the scatter is
//! *non-commutative* in record-sorting form (each record must land in a
//! distinct slot whose position depends on update order).

use crate::common::{pc, stream_array};
use cobra_core::PbBackend;
use cobra_graph::prefix::exclusive_sum;
use cobra_sim::engine::Engine;

/// Tuple size: 4 B (the key is the payload).
pub const TUPLE_BYTES: u32 = 4;

/// Native reference.
pub fn reference(keys: &[u32]) -> Vec<u32> {
    let mut out = keys.to_vec();
    out.sort_unstable();
    out
}

/// Baseline: counting sort with full-domain histogram + scatter.
pub fn baseline<E: Engine>(e: &mut E, keys: &[u32], max_key: u32) -> Vec<u32> {
    let n = keys.len();
    let keys_addr = e.alloc("is_keys", n.max(1) as u64 * 4);
    let counts_addr = e.alloc("is_counts", max_key.max(1) as u64 * 4);
    let out_addr = e.alloc("is_out", n.max(1) as u64 * 4);

    let mut counts = vec![0u32; max_key as usize];
    e.phase(cobra_core::exec::phases::MAIN);
    // Histogram pass: irregular increments.
    for (i, &k) in keys.iter().enumerate() {
        e.load(keys_addr.addr(4, i as u64), 4);
        e.load(counts_addr.addr(4, k as u64), 4);
        e.alu(2);
        e.store(counts_addr.addr(4, k as u64), 4);
        e.branch(pc::STREAM_LOOP, i + 1 < n);
        counts[k as usize] += 1;
    }
    // Prefix sum: streaming.
    let offsets = exclusive_sum(&counts);
    for k in 0..max_key as u64 {
        e.load(counts_addr.addr(4, k), 4);
        e.alu(1);
        e.store(counts_addr.addr(4, k), 4);
    }
    // Scatter pass: two irregular accesses per key.
    let mut cursor = offsets;
    let mut out = vec![0u32; n];
    for (i, &k) in keys.iter().enumerate() {
        e.load(keys_addr.addr(4, i as u64), 4);
        e.load(counts_addr.addr(4, k as u64), 4);
        let slot = cursor[k as usize];
        e.store(out_addr.addr(4, slot as u64), 4);
        e.alu(1);
        e.store(counts_addr.addr(4, k as u64), 4);
        e.branch(pc::STREAM_LOOP, i + 1 < n);
        out[slot as usize] = k;
        cursor[k as usize] += 1;
    }
    out
}

/// PB execution: Binning partitions keys by range; Accumulate counting-sorts
/// each bin into its contiguous output segment — every irregular structure
/// (local histogram, output segment) is bin-sized and cache-resident.
pub fn pb<B: PbBackend<()>>(b: &mut B, keys: &[u32], _max_key: u32) -> Vec<u32> {
    let n = keys.len();
    let keys_addr = b.alloc("is_keys", n.max(1) as u64 * 4);
    let out_addr = b.alloc("is_out", n.max(1) as u64 * 4);

    b.init_bins(n, |b, i| {
        b.load(keys_addr.addr(4, i as u64), 4);
        keys[i]
    });

    b.phase(cobra_core::exec::phases::BINNING);
    stream_array(b, keys_addr, n, 4, |b, i| b.insert(keys[i], ()));
    let storage = b.flush_and_take();

    b.phase(cobra_core::exec::phases::ACCUMULATE);
    let bin_range = 1usize << storage.bin_shift();
    let local_addr = b.alloc("is_local_counts", bin_range as u64 * 4);
    let tuple_bytes = storage.tuple_bytes();
    let mut out = Vec::with_capacity(n);
    let mut tuple_addr_cursor = storage.base_addr();
    // Not the shared Accumulate walk: each bin is a histogram pass then an
    // emit pass, so the walk is per bin rather than per tuple.
    for bin_id in 0..storage.num_bins() {
        let base_key = (bin_id << storage.bin_shift()) as u32;
        let mut local = vec![0u32; bin_range];
        // Local histogram over this bin's key range (cache-resident).
        let bin_keys = storage.keys(bin_id);
        for (j, &k) in bin_keys.iter().enumerate() {
            b.load(tuple_addr_cursor, tuple_bytes); // sequential tuple reads
            tuple_addr_cursor += tuple_bytes as u64;
            b.load(local_addr.addr(4, (k - base_key) as u64), 4);
            b.alu(2);
            b.store(local_addr.addr(4, (k - base_key) as u64), 4);
            b.branch(pc::STREAM_LOOP, j + 1 < bin_keys.len());
            local[(k - base_key) as usize] += 1;
        }
        // Emit the bin's keys in order (sequential output writes).
        for (off, &c) in local.iter().enumerate() {
            b.load(local_addr.addr(4, off as u64), 4);
            b.branch(pc::FILTER, c > 0);
            for _ in 0..c {
                b.store(out_addr.addr(4, out.len() as u64), 4);
                b.alu(1);
                out.push(base_key + off as u32);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_core::{CobraMachine, SwPb};
    use cobra_graph::gen;
    use cobra_sim::engine::{NullEngine, SimEngine};
    use cobra_sim::MachineConfig;

    fn input() -> (Vec<u32>, u32) {
        (gen::random_keys(20_000, 1 << 16, 5), 1 << 16)
    }

    #[test]
    fn baseline_sorts() {
        let (keys, max) = input();
        let mut e = NullEngine::new();
        assert_eq!(baseline(&mut e, &keys, max), reference(&keys));
    }

    #[test]
    fn pb_software_sorts() {
        let (keys, max) = input();
        let mut b = SwPb::<_, ()>::new(NullEngine::new(), max, 64, TUPLE_BYTES, keys.len() as u64);
        assert_eq!(pb(&mut b, &keys, max), reference(&keys));
    }

    #[test]
    fn pb_cobra_sorts() {
        let (keys, max) = input();
        let mut m = CobraMachine::<()>::with_defaults(
            MachineConfig::hpca22(),
            max,
            TUPLE_BYTES,
            keys.len() as u64,
        );
        assert_eq!(pb(&mut m, &keys, max), reference(&keys));
    }

    #[test]
    fn pb_accumulate_beats_baseline_scatter_locality() {
        let keys = gen::random_keys(60_000, 1 << 20, 9);
        let mut e = SimEngine::new(MachineConfig::hpca22());
        let _ = baseline(&mut e, &keys, 1 << 20);
        let base = e.finish();

        let mut b = SwPb::<_, ()>::new(
            SimEngine::new(MachineConfig::hpca22()),
            1 << 20,
            1024,
            TUPLE_BYTES,
            keys.len() as u64,
        );
        let _ = pb(&mut b, &keys, 1 << 20);
        let pbr = b.into_engine().finish();
        let acc = pbr.phase("accumulate").expect("accumulate");
        assert!(
            acc.mem.l1d.miss_rate() < base.mem.l1d.miss_rate(),
            "accumulate {} vs baseline {}",
            acc.mem.l1d.miss_rate(),
            base.mem.l1d.miss_rate()
        );
    }

    #[test]
    fn degenerate_inputs() {
        let mut e = NullEngine::new();
        assert_eq!(baseline(&mut e, &[], 16), Vec::<u32>::new());
        assert_eq!(baseline(&mut e, &[3, 3, 3], 16), vec![3, 3, 3]);
        let mut b = SwPb::<_, ()>::new(NullEngine::new(), 16, 2, TUPLE_BYTES, 3);
        assert_eq!(pb(&mut b, &[3, 3, 3], 16), vec![3, 3, 3]);
    }
}
