//! The six workloads. Each is one process: inputs from the seed, one
//! discarded warm-up repeat, timed repeats, gates outside the timed region.

pub mod batch_uniform;
pub mod serve_ingest;
pub mod serve_mixed;
pub mod spgemm_zipf;
pub mod stream_zipf;

use crate::harness::{self, Checks, Params, Report};
use crate::metrics::{self, Metrics};
use crate::spans::Tracer;
use cobra_serve::WireStats;
use cobra_stream::StreamStats;
use std::time::Instant;

type Runner = fn(&'static str, &Params, Instant, Tracer, Metrics, Checks) -> Report;

/// Every workload's name with the common skeleton instantiated for it.
pub const RUNNERS: [(&str, Runner); 6] = [
    (
        metrics::BATCH_UNIFORM,
        harness::run::<batch_uniform::BatchUniform>,
    ),
    (
        metrics::STREAM_ZIPF,
        harness::run::<stream_zipf::StreamZipf>,
    ),
    (metrics::SERVE_INGEST, harness::run::<serve_ingest::Ingest>),
    (
        metrics::SERVE_DURABLE,
        harness::run::<serve_ingest::Durable>,
    ),
    (
        metrics::SERVE_MIXED,
        harness::run::<serve_mixed::ServeMixed>,
    ),
    (
        metrics::SPGEMM_ZIPF,
        harness::run::<spgemm_zipf::SpgemmZipf>,
    ),
];

/// Counted `stream.*` metrics from a pipeline's public stats.
pub fn stream_counts(stats: &StreamStats, layers: &mut Metrics) {
    let binned: Vec<f64> = stats
        .shards
        .iter()
        .map(|s| s.tuples_binned as f64)
        .collect();
    let mean = binned.iter().sum::<f64>() / binned.len().max(1) as f64;
    let max = binned.iter().copied().fold(0.0, f64::max);
    let flushes: u64 = stats.shards.iter().map(|s| s.epoch_flushes).sum();
    let reduced: u64 = stats.shards.iter().map(|s| s.reduced_flushes).sum();
    layers.val("stream.stall_frac", stats.stall_fraction());
    layers.val("stream.send_blocks", stats.total_send_blocks() as f64);
    layers.val(
        "stream.tuples_per_batch",
        stats.tuples_sent as f64 / stats.batches_sent.max(1) as f64,
    );
    layers.val(
        "stream.shard_skew",
        if mean > 0.0 { max / mean } else { 0.0 },
    );
    layers.val("stream.cbuf_occupancy", stats.cbuf_occupancy());
    layers.val("stream.fused_ratio", stats.fused_ratio());
    layers.val("stream.bins_bytes", stats.total_bins_bytes() as f64);
    layers.val(
        "stream.reduced_flush_frac",
        reduced as f64 / flushes.max(1) as f64,
    );
}

/// Counted `serve.*`, `stream.*`, `wal.*` and `mvcc.*` metrics from a
/// server's public stats. `busy_rounds` comes from the clients.
pub fn serve_counts(stats: &WireStats, busy_rounds: u64, layers: &mut Metrics) {
    let offered = stats.tuples_ingested + stats.busy_tuples;
    layers.val(
        "serve.busy_frac",
        stats.busy_tuples as f64 / offered.max(1) as f64,
    );
    layers.val("serve.busy_rounds", busy_rounds as f64);
    layers.val(
        "serve.tuples_per_frame",
        stats.tuples_ingested as f64 / stats.frames.max(1) as f64,
    );
    layers.val("serve.frames", stats.frames as f64);
    layers.val("serve.cache_hit_rate", stats.cache_hit_rate());
    layers.val("stream.cbuf_occupancy", stats.cbuf_occupancy());
    layers.val("stream.fused_ratio", stats.fused_ratio());
    layers.val("stream.bins_bytes", stats.bins_bytes as f64);
    layers.val("mvcc.retained_epochs", stats.retained_epochs as f64);
    layers.val("mvcc.retained_bytes", stats.retained_bytes as f64);
    if stats.wal_segments > 0 {
        layers.val(
            "wal.bytes_per_tuple",
            stats.wal_bytes_appended as f64 / stats.tuples_ingested.max(1) as f64,
        );
        layers.val("wal.fsyncs", stats.wal_fsyncs as f64);
        layers.val("wal.segments", stats.wal_segments as f64);
        layers.val("wal.replayed_records", stats.wal_replayed_records as f64);
    }
}
