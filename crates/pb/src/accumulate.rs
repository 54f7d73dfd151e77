//! Algorithm 2's Accumulate, written once.
//!
//! Every consumer of filled bins replays them through [`accumulate`]:
//! [`Bins::accumulate`], [`ThreadBins`](crate::ThreadBins)'s serial and
//! parallel Accumulate, SpGEMM's per-bin dense/hash fold and the stream
//! shards' `apply_bins`. The replay order that makes PB legal without
//! commutativity is therefore stated, and kept, in one place.

use crate::binner::Bins;
use std::ops::Range;

/// One non-empty bin, as [`accumulate`] hands it to a body.
#[derive(Debug)]
pub struct Bin<'a, V> {
    /// The bin's index, the same in every producing thread's [`Bins`].
    pub index: usize,
    /// The keys the bin covers.
    pub keys: Range<u32>,
    per_thread: &'a [Bins<V>],
}

impl<'a, V> Bin<'a, V> {
    /// Hands `f` every tuple of the bin, in [`accumulate`]'s order.
    pub fn for_each(&self, mut f: impl FnMut(u32, &'a V)) {
        for bins in self.per_thread {
            let (keys, values) = (bins.keys(self.index), bins.values(self.index));
            for (&k, v) in keys.iter().zip(values) {
                f(k, v);
            }
        }
    }
}

/// Algorithm 2's Accumulate over `per_thread`, the bins of each producing
/// thread (all of one geometry; a single [`Bins`] is one thread, passed
/// as `std::slice::from_ref(&bins)`).
///
/// **Order.** Every non-empty bin is handed to a body exactly once, as a
/// [`Bin`]. Bins ascend; within a bin the producing threads come in
/// order, and each thread's tuples in insertion order. That fixed order,
/// not commutativity, is what makes PB legal for non-commutative kernels
/// such as Neighbor-Populate: every update applies once, and the updates
/// of one key apply in one deterministic order.
///
/// **Workers.** The bins are cut into `min(threads, num_bins)` contiguous
/// runs of near-equal bin count, none empty. `workers` receives the runs,
/// ascending, and returns one body per run; a body sees only its run's
/// bins, ascending. The first run replays on the caller's thread and
/// every further run on a scoped thread of its own, so a body can own the
/// part of the output its run covers (`accumulate_into` hands each body
/// its bins' `chunks_mut` slices).
///
/// # Panics
///
/// Panics if `per_thread` is empty, `threads == 0`, `workers` returns
/// other than one body per run, or a body panics.
pub fn accumulate<'a, V, W>(
    per_thread: &'a [Bins<V>],
    threads: usize,
    workers: impl FnOnce(&[Range<usize>]) -> Vec<W>,
) where
    V: Sync,
    W: FnMut(Bin<'a, V>) + Send,
{
    assert!(threads > 0, "need at least one thread");
    let num_bins = per_thread[0].num_bins();
    let n = threads.min(num_bins);
    let runs: Vec<Range<usize>> = (0..n)
        .map(|i| i * num_bins / n..(i + 1) * num_bins / n)
        .collect();
    let bodies = workers(&runs);
    assert_eq!(bodies.len(), runs.len(), "one body per run");
    let replay = |run: Range<usize>, mut body: W| {
        for index in run.filter(|&b| per_thread.iter().any(|bins| bins.bin_len(b) > 0)) {
            let keys = per_thread[0].key_range(index);
            body(Bin {
                index,
                keys,
                per_thread,
            });
        }
    };
    let mut work = runs.into_iter().zip(bodies);
    let first = work.next();
    std::thread::scope(|s| {
        let handles: Vec<_> = work
            .map(|(run, body)| s.spawn(move || replay(run, body)))
            .collect();
        if let Some((run, body)) = first {
            replay(run, body);
        }
        for h in handles {
            h.join().expect("accumulate worker panicked");
        }
    });
}
