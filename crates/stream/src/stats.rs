//! Pipeline-wide counters: the native-code counterpart of
//! `cobra-core::evict`'s DES stall accounting, so the Figure 13a
//! methodology (producer stall fraction vs. buffer capacity) can be
//! applied to the real streaming pipeline as well as to the simulated
//! eviction buffers.

use crate::channel::ChannelStats;
use crate::epoch::Privatised;
use cobra_bins::{BinMemory, FrameFlushStats, FuseStats};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Live per-shard counters, updated by the shard worker.
#[derive(Debug, Default)]
pub(crate) struct ShardCounters {
    pub tuples_binned: AtomicU64,
    pub epoch_flushes: AtomicU64,
    pub flushed_tuples: AtomicU64,
    pub max_flush_tuples: AtomicU64,
    pub max_bins_bytes: AtomicU64,
    pub max_bin_segments: AtomicU64,
    pub bin_grow_events: AtomicU64,
    pub cbuf_flush_frames: AtomicU64,
    pub cbuf_flush_tuples: AtomicU64,
    pub cbuf_frame_capacity: AtomicU64,
    pub fusion_attempts: AtomicU64,
    pub fusion_hits: AtomicU64,
    pub fusion_flushes: AtomicU64,
    pub segments_copied: AtomicU64,
    pub segments_recycled: AtomicU64,
}

impl ShardCounters {
    pub(crate) fn record_flush(&self, tuples: u64, paths: Privatised) {
        // ordering: Relaxed throughout — monotonic statistics counters
        // written only by the owning shard worker; readers take advisory
        // point-in-time snapshots, no payload crosses through them.
        self.epoch_flushes.fetch_add(1, Ordering::Relaxed); // ordering: stats
        self.flushed_tuples.fetch_add(tuples, Ordering::Relaxed); // ordering: stats
        self.max_flush_tuples.fetch_max(tuples, Ordering::Relaxed); // ordering: stats
        self.segments_copied
            .fetch_add(paths.copied, Ordering::Relaxed); // ordering: stats
        self.segments_recycled
            .fetch_add(paths.recycled, Ordering::Relaxed); // ordering: stats
    }

    /// Records the sealed epoch's bin-store footprint and the binner's
    /// running C-Buffer flush and fusion statistics.
    pub(crate) fn record_memory(
        &self,
        mem: BinMemory,
        grows: u64,
        frames: FrameFlushStats,
        fuse: FuseStats,
    ) {
        // ordering: Relaxed throughout — advisory footprint/occupancy
        // telemetry written only by the owning shard worker.
        self.max_bins_bytes.fetch_max(mem.bytes, Ordering::Relaxed); // ordering: stats
        self.max_bin_segments
            .fetch_max(mem.segments, Ordering::Relaxed); // ordering: stats
        self.bin_grow_events.fetch_add(grows, Ordering::Relaxed); // ordering: stats
        self.cbuf_flush_frames
            .store(frames.frames, Ordering::Relaxed); // ordering: stats
        self.cbuf_flush_tuples
            .store(frames.tuples, Ordering::Relaxed); // ordering: stats
        self.cbuf_frame_capacity
            .store(frames.frame_capacity as u64, Ordering::Relaxed); // ordering: stats

        // The binner's fuse counters are cumulative, so publish them with
        // absolute stores like the C-Buffer flush counters above.
        self.fusion_attempts.store(fuse.attempts, Ordering::Relaxed); // ordering: stats
        self.fusion_hits.store(fuse.hits, Ordering::Relaxed); // ordering: stats
        self.fusion_flushes.store(fuse.flushes, Ordering::Relaxed); // ordering: stats
    }
}

/// Point-in-time statistics of one shard worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// The key sub-range this shard owns.
    pub key_range: Range<u32>,
    /// Tuples routed into this shard's binner.
    pub tuples_binned: u64,
    /// Epoch flushes (seals + the final drain) performed.
    pub epoch_flushes: u64,
    /// Tuples carried by all flushes.
    pub flushed_tuples: u64,
    /// Largest single flush, in tuples.
    pub max_flush_tuples: u64,
    /// Always 0 since PR 18 (no flush pre-reduces any more). Kept only
    /// because `benchmarks/ladder` reads it (`stream.reduced_flush_frac`);
    /// goes with that metric in the next `benchmark` PR (ROADMAP item 1(b)).
    pub reduced_flushes: u64,
    /// Shared snapshot segments seals copied (no spare, or a held one).
    pub segments_copied: u64,
    /// Shared snapshot segments seals wrote into their recycled spare.
    pub segments_recycled: u64,
    /// Peak bin-store column capacity, in bytes, observed at any seal.
    pub bins_bytes: u64,
    /// Peak slab segment count backing that capacity.
    pub bin_segments: u64,
    /// Column growth (reallocation) events across all epochs.
    pub bin_grow_events: u64,
    /// Running C-Buffer flush statistics (frames, tuples, frame capacity).
    pub cbuf_flushes: FrameFlushStats,
    /// Running Coup-style frame-fusion counters (all zero when the
    /// reducer is not fusable).
    pub fusion: FuseStats,
    /// The shard's ingest FIFO: occupancy and producer-stall counters.
    pub channel: ChannelStats,
}

impl ShardStats {
    /// Average fill fraction of flushed C-Buffer frames (1.0 = every
    /// flush carried a full line; end-of-epoch partial flushes lower it).
    pub fn cbuf_occupancy(&self) -> f64 {
        self.cbuf_flushes.occupancy()
    }
}

/// Point-in-time statistics of a whole [`IngestPipeline`].
///
/// [`IngestPipeline`]: crate::IngestPipeline
#[derive(Debug, Clone, PartialEq)]
pub struct StreamStats {
    /// Tuples accepted by ingest handles.
    pub tuples_sent: u64,
    /// Batches shipped into shard FIFOs.
    pub batches_sent: u64,
    /// Epochs sealed (by `seal_epoch` or the auto-seal threshold).
    pub epochs_sealed: u64,
    /// Epoch snapshots published by the accumulator.
    pub epochs_published: u64,
    /// Epochs durably committed (an `EpochCommit` record flushed to the
    /// commit log). Equals `epochs_published` for non-durable pipelines,
    /// which commit by publishing.
    pub epochs_committed: u64,
    /// Bytes appended across all WAL segment files (0 when non-durable).
    pub wal_bytes_appended: u64,
    /// `fsync` calls issued by the WAL layer (0 when non-durable).
    pub wal_fsyncs: u64,
    /// WAL segment files opened/rotated (0 when non-durable).
    pub wal_segments: u64,
    /// WAL records replayed by the recovery that built this pipeline
    /// (0 when non-durable or freshly created).
    pub wal_replayed_records: u64,
    /// Wall-clock time since the pipeline was built.
    pub elapsed: Duration,
    /// Per-shard breakdown.
    pub shards: Vec<ShardStats>,
}

impl StreamStats {
    /// Ingest throughput over the pipeline's lifetime.
    pub fn tuples_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.tuples_sent as f64 / secs
        }
    }

    /// Total wall-clock time producers spent blocked on full shard FIFOs,
    /// summed across shards (can exceed `elapsed` when several producers
    /// stall concurrently).
    pub fn total_send_stall(&self) -> Duration {
        Duration::from_nanos(self.shards.iter().map(|s| s.channel.send_stall_nanos).sum())
    }

    /// Producer stall time as a fraction of elapsed wall-clock (the
    /// Figure 13a quantity; >1.0 means multiple producers stalled in
    /// parallel).
    pub fn stall_fraction(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.total_send_stall().as_secs_f64() / secs
        }
    }

    /// Total backpressure events (sends that found a full FIFO and
    /// waited). Every way in — `send`, `send_all`, `flush`, a seal — waits
    /// the same way, so the serve reactor's admission and settle stalls
    /// show here and in `send_stall_nanos`.
    pub fn total_send_blocks(&self) -> u64 {
        self.shards.iter().map(|s| s.channel.send_blocks).sum()
    }

    /// Peak bin-store bytes summed across shards (each shard's peak may
    /// occur at a different seal; this bounds the aggregate footprint).
    pub fn total_bins_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.bins_bytes).sum()
    }

    /// Peak slab segment count summed across shards.
    pub fn total_bin_segments(&self) -> u64 {
        self.shards.iter().map(|s| s.bin_segments).sum()
    }

    /// Snapshot segments copied by seals, summed across shards.
    pub fn total_segments_copied(&self) -> u64 {
        self.shards.iter().map(|s| s.segments_copied).sum()
    }

    /// Snapshot segments recycled by seals, summed across shards.
    pub fn total_segments_recycled(&self) -> u64 {
        self.shards.iter().map(|s| s.segments_recycled).sum()
    }

    /// Pipeline-wide average C-Buffer flush occupancy.
    pub fn cbuf_occupancy(&self) -> f64 {
        let mut total = FrameFlushStats::default();
        for s in &self.shards {
            total.frames += s.cbuf_flushes.frames;
            total.tuples += s.cbuf_flushes.tuples;
            total.frame_capacity = total.frame_capacity.max(s.cbuf_flushes.frame_capacity);
        }
        total.occupancy()
    }

    /// Tuples folded away by Coup-style frame fusion, summed across
    /// shards (each hit is one tuple that never crossed into bin memory).
    pub fn total_fusion_hits(&self) -> u64 {
        self.shards.iter().map(|s| s.fusion.hits).sum()
    }

    /// Coalescing-table resets forced by frame flushes, summed across
    /// shards.
    pub fn total_fusion_flushes(&self) -> u64 {
        self.shards.iter().map(|s| s.fusion.flushes).sum()
    }

    /// Pipeline-wide fraction of fusable tuples that fused away (0.0 for
    /// non-fusable reducers).
    pub fn fused_ratio(&self) -> f64 {
        let mut total = FuseStats::default();
        for s in &self.shards {
            total.attempts += s.fusion.attempts;
            total.hits += s.fusion.hits;
        }
        total.fused_ratio()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard(stall_nanos: u64, blocks: u64) -> ShardStats {
        ShardStats {
            shard: 0,
            key_range: 0..16,
            tuples_binned: 0,
            epoch_flushes: 0,
            flushed_tuples: 0,
            max_flush_tuples: 0,
            reduced_flushes: 0,
            segments_copied: 0,
            segments_recycled: 0,
            bins_bytes: 0,
            bin_segments: 0,
            bin_grow_events: 0,
            cbuf_flushes: FrameFlushStats::default(),
            fusion: FuseStats::default(),
            channel: ChannelStats {
                send_stall_nanos: stall_nanos,
                send_blocks: blocks,
                ..Default::default()
            },
        }
    }

    #[test]
    fn derived_rates() {
        let s = StreamStats {
            tuples_sent: 1_000_000,
            batches_sent: 100,
            epochs_sealed: 2,
            epochs_published: 3,
            epochs_committed: 3,
            wal_bytes_appended: 0,
            wal_fsyncs: 0,
            wal_segments: 0,
            wal_replayed_records: 0,
            elapsed: Duration::from_secs(2),
            shards: vec![shard(500_000_000, 3), shard(1_500_000_000, 4)],
        };
        assert_eq!(s.tuples_per_sec(), 500_000.0);
        assert_eq!(s.total_send_stall(), Duration::from_secs(2));
        assert!((s.stall_fraction() - 1.0).abs() < 1e-9);
        assert_eq!(s.total_send_blocks(), 7);
    }

    #[test]
    fn fusion_aggregates_across_shards() {
        let mut a = shard(0, 0);
        a.fusion = FuseStats {
            attempts: 100,
            hits: 40,
            flushes: 7,
        };
        let mut b = shard(0, 0);
        b.fusion = FuseStats {
            attempts: 100,
            hits: 10,
            flushes: 3,
        };
        let s = StreamStats {
            tuples_sent: 200,
            batches_sent: 2,
            epochs_sealed: 1,
            epochs_published: 1,
            epochs_committed: 1,
            wal_bytes_appended: 0,
            wal_fsyncs: 0,
            wal_segments: 0,
            wal_replayed_records: 0,
            elapsed: Duration::from_secs(1),
            shards: vec![a, b],
        };
        assert_eq!(s.total_fusion_hits(), 50);
        assert_eq!(s.total_fusion_flushes(), 10);
        assert!((s.fused_ratio() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn zero_elapsed_is_not_a_division_by_zero() {
        let s = StreamStats {
            tuples_sent: 0,
            batches_sent: 0,
            epochs_sealed: 0,
            epochs_published: 0,
            epochs_committed: 0,
            wal_bytes_appended: 0,
            wal_fsyncs: 0,
            wal_segments: 0,
            wal_replayed_records: 0,
            elapsed: Duration::ZERO,
            shards: vec![],
        };
        assert_eq!(s.tuples_per_sec(), 0.0);
        assert_eq!(s.stall_fraction(), 0.0);
    }
}
