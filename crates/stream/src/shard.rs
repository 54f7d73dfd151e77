//! Shard workers: the streaming Binning phase, and the Accumulate phase
//! of their own key range.
//!
//! Each worker owns a [`cobra_pb::Binner`] over its disjoint key
//! sub-range and drains one bounded FIFO — the same producer → eviction
//! buffer → binning engine shape as the paper's Section V-D, with the
//! ingest handle's frames standing in for evicted C-Buffer lines. It also
//! owns the per-key state of that range: the copy-on-write handles of its
//! snapshot segments, which no other shard shares. Sealing an epoch swaps the
//! active bins out ([`Binner::take_bins`]), replays them into those
//! handles ([`apply_bins`]) and ships clones of the *handles* to the
//! accumulator — the paper's per-bin parallel Accumulate: shard ranges
//! are disjoint, so every worker replays its own keys with no lock and
//! nothing to merge. Ownership, not a `Mutex`, is what makes that safe.
//!
//! A shipped handle is never written again: the next seal replays the
//! last seal's bins into the handle retired then, or copies the segment.

use crate::channel::{Receiver, Sender};
use crate::epoch::{apply_bins, AccMsg, Handles, Segments};
use crate::reducer::Reducer;
use crate::stats::ShardCounters;
use cobra_pb::{Binner, Bins, Tuple};
use cobra_wal::{Record, WalStats, WalWriter};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Handle-to-shard protocol. Batches carry *global* keys; the worker
/// rebases them into its local domain.
pub(crate) enum ShardMsg<V> {
    /// One frame of update tuples.
    Batch(Vec<Tuple<V>>),
    /// Seal epoch `e`: flush, apply and ship the segment handles.
    Seal(u64),
    /// Final drain as epoch `e`: flush, apply, ship, report done, exit.
    Shutdown(u64),
}

/// A shard's write-ahead log: every binned tuple is also appended here
/// (global keys, values widened to words), and every seal writes a `Seal`
/// marker followed by a group-commit flush. An I/O failure flips the
/// writer into a degraded mode that keeps serving (counted in
/// [`WalStats::io_errors`]) rather than wedging the pipeline.
pub(crate) struct ShardWal<V> {
    pub(crate) writer: WalWriter,
    /// `<V as WalValue>::to_word`, stored as a plain fn pointer so the
    /// worker needs no `WalValue` bound.
    pub(crate) to_word: fn(V) -> u64,
    pub(crate) stats: Arc<WalStats>,
    pub(crate) failed: bool,
}

impl<V: Copy> ShardWal<V> {
    fn append_update(&mut self, key: u32, value: V) {
        if self.failed {
            return;
        }
        let rec = Record::Update {
            key,
            value: (self.to_word)(value),
        };
        if self.writer.append(&rec).is_err() {
            self.failed = true;
            self.stats.note_io_error();
        }
    }

    /// Writes the `Seal` marker and group-commit flushes. Returns the
    /// logical offset just past the marker — the shard's durable replay
    /// boundary for this epoch — or 0 in degraded mode.
    fn seal(&mut self, epoch: u64) -> u64 {
        if self.failed {
            return 0;
        }
        if self.writer.append(&Record::Seal { epoch }).is_err() {
            self.failed = true;
            self.stats.note_io_error();
            return 0;
        }
        match self.writer.seal_flush() {
            Ok(offset) => offset,
            Err(_) => {
                self.failed = true;
                self.stats.note_io_error();
                0
            }
        }
    }
}

/// Routes a run of tuples (shard-local keys) into a shard binner the way
/// `R` declares legal: through the Coup-style frame fusion pass when the
/// reducer is commutative and its values fusable — a staged tuple for the
/// same key absorbs a later one before it ever crosses into bin memory
/// (cobra-check's oracle validates the declaration) — and plainly
/// otherwise. The choice is a compile-time constant. Live ingest bins
/// each frame as one run; WAL replay bins one record at a time through
/// `bin_one`. A run leaves the binner exactly as the one-tuple loop
/// does, so a recovered epoch is re-binned exactly as it was binned the
/// first time.
#[inline]
pub(crate) fn bin_run<R: Reducer>(
    reducer: &R,
    binner: &mut Binner<R::Value>,
    run: impl IntoIterator<Item = (u32, R::Value)>,
) {
    if R::COMMUTATIVE && R::FUSABLE {
        binner.extend_fused(run, |a, b| reducer.fuse_values(a, b));
    } else {
        binner.extend(run);
    }
}

/// `bin_run` of one tuple (shard-local key): WAL replay's entry.
#[inline]
pub(crate) fn bin_one<R: Reducer>(
    reducer: &R,
    binner: &mut Binner<R::Value>,
    local_key: u32,
    value: R::Value,
) {
    bin_run(reducer, binner, std::iter::once((local_key, value)));
}

pub(crate) struct ShardWorker<R: Reducer> {
    pub(crate) id: usize,
    /// First global key of this shard's range.
    pub(crate) base: u32,
    pub(crate) binner: Binner<R::Value>,
    pub(crate) reducer: Arc<R>,
    pub(crate) counters: Arc<ShardCounters>,
    pub(crate) acc_tx: Sender<AccMsg<R::Acc>>,
    /// Durable mode: the shard's WAL (None = in-memory pipeline).
    pub(crate) wal: Option<ShardWal<R::Value>>,
    /// The handles of the snapshot segments of this shard's key range.
    pub(crate) state: Segments<R::Acc>,
    /// The last seal's bins: what the next one replays into its spares.
    pub(crate) prev: Option<Bins<R::Value>>,
}

impl<R: Reducer> ShardWorker<R> {
    /// The worker loop: bin frames, apply on seal, drain on shutdown.
    /// Accumulator-side disconnects are ignored — the worker keeps
    /// draining its FIFO so producers are never wedged.
    pub(crate) fn run(mut self, rx: Receiver<ShardMsg<R::Value>>) {
        loop {
            match rx.recv() {
                Some(ShardMsg::Batch(tuples)) => {
                    self.counters
                        .tuples_binned
                        // ordering: Relaxed — stats counter; the batch
                        // arrived through the channel mutex.
                        .fetch_add(tuples.len() as u64, Ordering::Relaxed);
                    let base = self.base;
                    bin_run(
                        &*self.reducer,
                        &mut self.binner,
                        tuples.iter().map(|t| (t.key - base, t.value)),
                    );
                    if let Some(wal) = &mut self.wal {
                        for t in &tuples {
                            wal.append_update(t.key, t.value);
                        }
                    }
                }
                Some(ShardMsg::Seal(epoch)) => {
                    // The WAL seal precedes the accumulator send: once the
                    // accumulator sees this epoch from every shard it may
                    // commit it, so the shard's updates must already be
                    // flushed past the OS boundary (crash-consistency
                    // argument, DESIGN.md §10).
                    let wal_offset = self.wal.as_mut().map_or(0, |w| w.seal(epoch));
                    let handles = self.accumulate();
                    let _ = self.acc_tx.send(AccMsg::Sealed {
                        shard: self.id,
                        epoch,
                        handles,
                        wal_offset,
                    });
                }
                Some(ShardMsg::Shutdown(drain_epoch)) => {
                    // Graceful drain: the remaining bins become one final
                    // sealed epoch, so a clean restart loses nothing.
                    let wal_offset = self.wal.as_mut().map_or(0, |w| w.seal(drain_epoch));
                    let handles = self.accumulate();
                    let _ = self.acc_tx.send(AccMsg::Done {
                        shard: self.id,
                        handles,
                        wal_offset,
                    });
                    return;
                }
                None => {
                    // Producer side vanished without a shutdown broadcast
                    // (the pipeline was dropped, not drained): apply the
                    // remaining bins but write no seal — a recovery treats
                    // the unsealed WAL tail as uncommitted, matching the
                    // fact that no snapshot of it was ever promised.
                    let handles = self.accumulate();
                    let _ = self.acc_tx.send(AccMsg::Done {
                        shard: self.id,
                        handles,
                        wal_offset: 0,
                    });
                    return;
                }
            }
        }
    }

    /// The shard's Accumulate phase: swaps the active bins out
    /// (double-buffering), replays them into the shard's own segments and
    /// returns clones of the handles — the shard's cumulative state as of
    /// this seal. The clones are what keeps the epoch immutable: the next
    /// epoch's first write into a segment goes to a recycled or copied
    /// handle, never to one it shipped.
    fn accumulate(&mut self) -> Handles<R::Acc> {
        let (bins, prev) = (self.binner.take_bins(), self.prev.take());
        let paths = apply_bins(
            &*self.reducer,
            &bins,
            prev.as_ref(),
            self.base,
            &mut self.state,
        );
        self.counters.record_flush(bins.len() as u64, paths);
        self.counters.record_memory(
            bins.store().memory(),
            bins.store().grow_events(),
            self.binner.flush_stats(),
            self.binner.fuse_stats(),
        );
        self.prev = Some(bins);
        self.state.handles.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reducer::Sum;

    /// Live ingest bins a frame through `bin_run`, WAL replay bins the
    /// same tuples through `bin_one`: both must leave the same bins and
    /// the same fusion counters, or a recovered epoch would differ from
    /// the one live ingest built.
    #[test]
    fn a_frame_binned_as_a_run_equals_the_bin_one_loop() {
        let (num_keys, base) = (1u32 << 12, 1u32 << 12);
        // Skewed: 80% of the tuples on 40 hot keys, so same-key repeats
        // meet inside a frame and fuse.
        let frame: Vec<Tuple<f64>> = (0..20_000u64)
            .map(|i| {
                let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let span = if (h >> 8) % 10 < 8 { 40 } else { num_keys };
                Tuple {
                    key: base + ((h >> 24) % span as u64) as u32,
                    value: (i % 7) as f64,
                }
            })
            .collect();
        let mut run = Binner::<f64>::new(num_keys, 32);
        let mut one = Binner::<f64>::new(num_keys, 32);
        for chunk in frame.chunks(1000) {
            bin_run(
                &Sum,
                &mut run,
                chunk.iter().map(|t| (t.key - base, t.value)),
            );
            for t in chunk {
                bin_one(&Sum, &mut one, t.key - base, t.value);
            }
        }
        assert!(one.fuse_stats().hits > 0, "the skewed stream must fuse");
        assert_eq!(run.fuse_stats(), one.fuse_stats());
        assert_eq!(run.flush_stats(), one.flush_stats());
        assert!(run.finish() == one.finish(), "bins differ");
    }
}
