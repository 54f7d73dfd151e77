//! Parallel Propagation Blocking: per-thread binning, per-bin accumulate.
//!
//! Parallel PB (paper, Section III-A) simply duplicates all bins and
//! C-Buffers per thread, eliminating synchronization during Binning. The
//! Accumulate phase then parallelizes over *bins*: each bin's key range is
//! disjoint, so threads update disjoint slices of the output without
//! atomics — including for non-commutative kernels.
//!
//! The paper's Init phase sizes every bin with a counting pre-pass so
//! Binning never allocates. [`bin_parallel`] gets the same effect without
//! the second read of its input: a worker knows how many items it will
//! bin and into how many bins, so it reserves the uniform expectation
//! plus slack per bin before its first insert.

use crate::accumulate::{accumulate, Bin};
use crate::binner::{Binner, Bins};
use cobra_bins::BinMemory;

/// The per-thread bins produced by [`bin_parallel`].
#[derive(Debug, Clone)]
pub struct ThreadBins<V> {
    per_thread: Vec<Bins<V>>,
    num_keys: u32,
}

/// Bins `items` in parallel: the item range is split into `threads`
/// contiguous chunks, each binned by its own [`Binner`] into at least
/// `min_bins` bins. `produce` maps an item index to its `(key, value)`
/// update tuple.
///
/// Tuples retain their per-thread insertion order, matching Algorithm 2.
///
/// Each worker pre-reserves `mean + 8·⌈√mean⌉` tuples per bin, `mean`
/// being its items over its bins (eight standard deviations of a uniform
/// stream's bin count, so such a stream never regrows). A hot bin that
/// outgrows that doubles on demand, a cold bin's untouched capacity is
/// never resident, and a worker with fewer items than bins reserves
/// nothing.
///
/// # Panics
///
/// Panics if `threads == 0`, `num_keys == 0` or a worker panics.
pub fn bin_parallel<V, F>(
    num_items: usize,
    num_keys: u32,
    min_bins: usize,
    threads: usize,
    produce: F,
) -> ThreadBins<V>
where
    V: Copy + Send,
    F: Fn(usize) -> (u32, V) + Sync,
{
    assert!(threads > 0, "need at least one thread");
    let chunk = num_items.div_ceil(threads).max(1);
    let per_thread: Vec<Bins<V>> = std::thread::scope(|s| {
        let produce = &produce;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    let lo = (t * chunk).min(num_items);
                    let hi = ((t + 1) * chunk).min(num_items);
                    let mut binner = Binner::new(num_keys, min_bins);
                    let per_bin = init_reservation(hi - lo, binner.num_bins());
                    binner.reserve(&vec![per_bin; binner.num_bins()]);
                    binner.extend((lo..hi).map(produce));
                    binner.finish()
                })
            })
            .collect();
        let mut joined = Vec::with_capacity(handles.len());
        for h in handles {
            let bins = h.join().expect("binning worker panicked");
            joined.push(bins);
        }
        joined
    });
    ThreadBins {
        per_thread,
        num_keys,
    }
}

/// Init-phase capacity of one bin for a worker binning `items` tuples
/// into `num_bins` bins: the uniform mean plus eight standard deviations.
fn init_reservation(items: usize, num_bins: usize) -> u32 {
    let mean = items / num_bins;
    let per_bin = mean + 8 * (mean as f64).sqrt().ceil() as usize;
    u32::try_from(per_bin).unwrap_or(u32::MAX)
}

impl<V: Copy + Send + Sync> ThreadBins<V> {
    /// Number of bins (identical across threads).
    pub fn num_bins(&self) -> usize {
        self.per_thread[0].num_bins()
    }

    /// log2 of the bin key range.
    pub fn bin_shift(&self) -> u32 {
        self.per_thread[0].bin_shift()
    }

    /// Total tuples across all threads and bins.
    pub fn len(&self) -> usize {
        self.per_thread.iter().map(Bins::len).sum()
    }

    /// Whether no tuples were produced.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bin-memory footprint summed over the per-thread stores.
    pub fn memory(&self) -> BinMemory {
        let mut total = BinMemory::default();
        for bins in &self.per_thread {
            total.add(bins.store().memory());
        }
        total
    }

    /// Capacity acquisitions summed over the per-thread stores: one per
    /// non-empty (thread, bin) pair when the Init reservation held.
    pub fn grow_events(&self) -> u64 {
        self.per_thread
            .iter()
            .map(|bins| bins.store().grow_events())
            .sum()
    }

    /// The key/value column pair of bin `b`, one per producing thread, in
    /// thread order.
    pub fn bin_slices(&self, b: usize) -> impl Iterator<Item = (&[u32], &[V])> {
        self.per_thread
            .iter()
            .map(move |bins| (bins.keys(b), bins.values(b)))
    }

    /// Serial Accumulate: [`accumulate`]'s one-worker use, on the
    /// caller's thread.
    pub fn accumulate_serial<F: FnMut(u32, &V) + Send>(&self, mut f: F) {
        accumulate(&self.per_thread, 1, |_| {
            vec![move |bin: Bin<'_, V>| bin.for_each(&mut f)]
        });
    }

    /// Parallel Accumulate over an output slice indexed by key:
    /// [`accumulate`]'s many-worker use.
    ///
    /// `data` is split into per-bin chunks of `bin_range` elements and
    /// each of up to `threads` workers owns the chunks of a contiguous run
    /// of bins, so updates need no synchronization. The closure receives
    /// the bin's chunk, the chunk's base key, and each tuple, in the order
    /// of [`accumulate_serial`](Self::accumulate_serial).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != num_keys` or `threads == 0`.
    pub fn accumulate_into<T, F>(&self, data: &mut [T], threads: usize, f: F)
    where
        T: Send,
        F: Fn(&mut [T], u32, u32, &V) + Sync,
    {
        assert_eq!(
            data.len(),
            self.num_keys as usize,
            "data must cover the key domain"
        );
        let f = &f;
        let mut chunks = data.chunks_mut(1 << self.bin_shift());
        accumulate(&self.per_thread, threads, |runs| {
            runs.iter()
                .map(|run| {
                    let mut mine: Vec<&mut [T]> = chunks.by_ref().take(run.len()).collect();
                    let first = run.start;
                    move |bin: Bin<'_, V>| {
                        let chunk = &mut *mine[bin.index - first];
                        bin.for_each(|k, v| f(chunk, bin.keys.start, k, v));
                    }
                })
                .collect()
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binner::tests::skewed_tuples;

    #[test]
    fn parallel_binning_partitions_all_items() {
        let keys: Vec<u32> = (0..10_000)
            .map(|i| (i * 2654435761u64 % 4096) as u32)
            .collect();
        let tb = bin_parallel(keys.len(), 4096, 16, 4, |i| (keys[i], i as u32));
        assert_eq!(tb.len(), keys.len());
        // Every tuple lives in the bin covering its key, and the two
        // columns of every slice stay parallel.
        for b in 0..tb.num_bins() {
            for (keys, values) in tb.bin_slices(b) {
                assert_eq!(keys.len(), values.len());
                for &k in keys {
                    assert_eq!((k >> tb.bin_shift()) as usize, b);
                }
            }
        }
    }

    #[test]
    fn serial_accumulate_preserves_per_thread_order() {
        // One thread: global order within a bin must equal insertion order.
        let keys = [7u32, 3, 7, 7, 3];
        let tb = bin_parallel(keys.len(), 8, 1, 1, |i| (keys[i], i as u32));
        let mut seen = Vec::new();
        tb.accumulate_serial(|k, &v| {
            if k == 7 {
                seen.push(v);
            }
        });
        assert_eq!(seen, vec![0, 2, 3]);
    }

    #[test]
    fn accumulate_into_matches_serial_histogram() {
        let n_keys = 1 << 12;
        let keys: Vec<u32> = (0..50_000)
            .map(|i| (i * 48271 % n_keys as usize) as u32)
            .collect();
        let tb = bin_parallel(keys.len(), n_keys, 64, 3, |i| (keys[i], 1u32));

        let mut serial = vec![0u32; n_keys as usize];
        tb.accumulate_serial(|k, &v| serial[k as usize] += v);

        let mut parallel = vec![0u32; n_keys as usize];
        tb.accumulate_into(&mut parallel, 4, |chunk, base, key, &v| {
            chunk[(key - base) as usize] += v;
        });
        assert_eq!(serial, parallel);

        // And both match a direct histogram.
        let mut direct = vec![0u32; n_keys as usize];
        for &k in &keys {
            direct[k as usize] += 1;
        }
        assert_eq!(serial, direct);
    }

    #[test]
    fn every_tuple_reaches_the_chunk_that_owns_its_key() {
        // Hot bins, empty bins, and 1000 keys over 64-key bins: the last
        // chunk is ragged.
        let n_keys = 1000u32;
        let tuples = skewed_tuples(40_000, n_keys, 0xB1A5);
        let tb = bin_parallel(tuples.len(), n_keys, 16, 4, |i| (tuples[i].0, 1u32));
        let shift = tb.bin_shift();
        assert_ne!(n_keys as usize % (1usize << shift), 0, "ragged last bin");

        let mut parallel = vec![0u32; n_keys as usize];
        tb.accumulate_into(&mut parallel, 3, |chunk, base, key, &v| {
            assert!(base <= key, "key {key} below its chunk's base {base}");
            assert!(
                ((key - base) as usize) < chunk.len(),
                "key {key} past its chunk"
            );
            assert_eq!(
                key >> shift,
                base >> shift,
                "key {key} replayed into another bin"
            );
            chunk[(key - base) as usize] += v;
        });
        let mut serial = vec![0u32; n_keys as usize];
        tb.accumulate_serial(|k, &v| serial[k as usize] += v);
        assert_eq!(parallel, serial);
    }

    #[test]
    fn contiguous_runs_match_serial_at_every_worker_count() {
        // Keys only in the low quarter of a 1000-key domain over 64-key
        // bins: hot bins, empty bins and a ragged last bin.
        let n_keys = 1000u32;
        let tuples = skewed_tuples(20_000, n_keys / 4, 0xC0B7);
        let tb = bin_parallel(tuples.len(), n_keys, 16, 3, |i| (tuples[i].0, i as u64));
        let num_bins = tb.num_bins();
        assert_ne!(
            n_keys as usize % (1usize << tb.bin_shift()),
            0,
            "ragged last bin"
        );
        let empty = (0..num_bins).filter(|&b| tb.bin_slices(b).all(|(k, _)| k.is_empty()));
        assert!(empty.count() > 0, "no empty bin");

        let mut serial = vec![Vec::new(); n_keys as usize];
        tb.accumulate_serial(|k, &v| serial[k as usize].push(v));
        for threads in [1, 2, 3, num_bins, num_bins + 5] {
            // The runs tile the bins in order, one per worker, none empty,
            // and a body sees only its own run's bins, ascending.
            let mut runs = Vec::new();
            accumulate(&tb.per_thread, threads, |r| {
                runs = r.to_vec();
                r.iter()
                    .cloned()
                    .map(|run| {
                        let mut last = None;
                        move |bin: Bin<'_, u64>| {
                            let mut tuples = 0;
                            bin.for_each(|_, _| tuples += 1);
                            assert!(tuples > 0, "empty bin {} handed out", bin.index);
                            assert!(run.contains(&bin.index), "{} outside {run:?}", bin.index);
                            assert!(last < Some(bin.index), "bin {} replayed late", bin.index);
                            last = Some(bin.index);
                        }
                    })
                    .collect()
            });
            assert_eq!(runs.len(), threads.min(num_bins), "{threads} threads");
            assert!(runs.iter().all(|r| !r.is_empty()), "a worker without a bin");
            assert_eq!(runs.first().map(|r| r.start), Some(0));
            assert_eq!(runs.last().map(|r| r.end), Some(num_bins));
            assert!(runs.windows(2).all(|w| w[0].end == w[1].start), "{runs:?}");
            if threads == 2 {
                // Cut by tuples, not bins: the second worker is not
                // handed only the empty upper bins.
                let mut held = runs.iter().map(|r| {
                    let slices = r.clone().flat_map(|b| tb.bin_slices(b));
                    slices.map(|(k, _)| k.len()).sum::<usize>()
                });
                assert!(held.all(|t| t > 0), "a worker without tuples: {runs:?}");
            }

            let mut parallel = vec![Vec::new(); n_keys as usize];
            tb.accumulate_into(&mut parallel, threads, |chunk, base, k, &v| {
                chunk[(k - base) as usize].push(v)
            });
            assert_eq!(parallel, serial, "{threads} threads");
        }
    }

    #[test]
    fn non_commutative_sequence_build() {
        // Build per-key arrival lists through PB; with a single thread the
        // result must be identical to the direct construction — this is the
        // property that makes PB safe for Neighbor-Populate.
        let n_keys = 256u32;
        let keys: Vec<u32> = (0..5_000).map(|i| (i * 31 % 256) as u32).collect();
        let tb = bin_parallel(keys.len(), n_keys, 8, 1, |i| (keys[i], i as u32));
        let mut via_pb: Vec<Vec<u32>> = vec![Vec::new(); n_keys as usize];
        tb.accumulate_serial(|k, &v| via_pb[k as usize].push(v));
        let mut direct: Vec<Vec<u32>> = vec![Vec::new(); n_keys as usize];
        for (i, &k) in keys.iter().enumerate() {
            direct[k as usize].push(i as u32);
        }
        assert_eq!(via_pb, direct);
    }

    #[test]
    fn init_reservation_covers_a_uniform_stream() {
        // 2^18 uniform tuples, 64 bins, 2 threads: every (thread, bin)
        // pair acquires its capacity once, before the first insert, and
        // never regrows (on-demand doubling paid several grows per pair).
        let n = 1usize << 18;
        let key = |i: usize| ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 44) as u32;
        let tb = bin_parallel(n, 1 << 20, 64, 2, |i| (key(i), i as u64));
        assert_eq!(tb.num_bins(), 64);
        let nonempty = (0..tb.num_bins())
            .flat_map(|b| tb.bin_slices(b))
            .filter(|(keys, _)| !keys.is_empty())
            .count() as u64;
        assert_eq!(nonempty, 128);
        assert_eq!(tb.grow_events(), nonempty);
        assert_eq!(tb.memory().tuples, n as u64);
    }

    #[test]
    fn a_bin_that_outgrows_its_reservation_grows_on_demand() {
        // Keys only in the low quarter of the domain, 80% of them on a
        // tenth of that: the hottest bin takes well over 10x what Init
        // reserved for it. The result is the chunks pushed through
        // un-reserved binners.
        let (n_keys, min_bins, threads) = (1u32 << 14, 64, 2);
        let tuples = skewed_tuples(60_000, n_keys / 4, 0x1417);
        let tb = bin_parallel(tuples.len(), n_keys, min_bins, threads, |i| tuples[i]);
        let chunk = tuples.len() / threads;
        let reserved = init_reservation(chunk, tb.num_bins()) as usize;
        let hottest = (0..tb.num_bins())
            .flat_map(|b| tb.bin_slices(b))
            .map(|(keys, _)| keys.len())
            .max();
        assert!(hottest >= Some(10 * reserved), "{hottest:?} vs {reserved}");

        let unreserved: Vec<Bins<u64>> = tuples
            .chunks(chunk)
            .map(|part| {
                let mut binner = Binner::new(n_keys, min_bins);
                for &(k, v) in part {
                    binner.insert(k, v);
                }
                binner.finish()
            })
            .collect();
        assert_eq!(unreserved.len(), threads);
        for b in 0..tb.num_bins() {
            let want = unreserved.iter().map(|bins| (bins.keys(b), bins.values(b)));
            assert!(tb.bin_slices(b).eq(want), "bin {b} differs");
        }
    }

    #[test]
    fn sparse_calls_reserve_nothing() {
        // Three items over 4096 bins and 8 threads: a worker with fewer
        // items than bins has a zero mean, so only the bins that receive a
        // tuple own any memory.
        let tb = bin_parallel(3, 1 << 20, 4096, 8, |i| ((i as u32) << 18, i as u64));
        assert_eq!(tb.len(), 3);
        let mem = tb.memory();
        assert!(mem.segments <= 3, "{mem:?}");
        assert!(
            mem.bytes <= 3 * cobra_bins::store::SEGMENT_BYTES as u64,
            "{mem:?}"
        );
        assert_eq!(tb.grow_events(), 3);
    }

    #[test]
    fn works_with_more_threads_than_items() {
        let tb = bin_parallel(3, 16, 2, 8, |i| (i as u32, i as u32));
        assert_eq!(tb.len(), 3);
        let mut total = 0;
        tb.accumulate_serial(|_, _| total += 1);
        assert_eq!(total, 3);
    }

    #[test]
    fn empty_input() {
        let tb = bin_parallel(0, 16, 2, 2, |_| (0u32, 0u32));
        assert!(tb.is_empty());
        let mut data = vec![0u32; 16];
        tb.accumulate_into(&mut data, 2, |c, b, k, &v| c[(k - b) as usize] += v);
        assert!(data.iter().all(|&x| x == 0));
    }

    #[test]
    #[should_panic]
    fn accumulate_into_rejects_wrong_len() {
        let tb = bin_parallel(1, 16, 2, 1, |i| (i as u32, 0u32));
        let mut data = vec![0u32; 8];
        tb.accumulate_into(&mut data, 1, |_, _, _, _| {});
    }
}
