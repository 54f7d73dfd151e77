//! End-to-end tests of the streaming ingestion subsystem: a multi-threaded
//! million-tuple stream must drain cleanly and the final epoch snapshot
//! must be bit-identical to batch Propagation Blocking over the same
//! tuples — for a commutative reducer (Degree-Count) and a non-commutative
//! one (Neighbor-Populate-style append) — and an undersized FIFO must make
//! producer backpressure visible in the stats.

use cobra_repro::graph::{gen, SplitMix64};
use cobra_repro::kernels::streaming;
use cobra_repro::pb::bin_parallel;
use cobra_repro::stream::{Append, Count, IngestPipeline, StreamConfig};

const NUM_KEYS: u32 = 1 << 16;
const NUM_TUPLES: usize = 1 << 20; // 1M+

fn tuple_keys() -> Vec<u32> {
    gen::random_keys(NUM_TUPLES, NUM_KEYS, 0xC0B7A)
}

/// 1M+ tuples from 4 producer threads, commutative counting: the final
/// snapshot equals batch PB (`bin_parallel` + accumulate) bit for bit.
#[test]
fn million_tuples_commutative_equals_batch_pb() {
    let keys = tuple_keys();

    // Batch PB reference.
    let bins = bin_parallel(keys.len(), NUM_KEYS, 256, 4, |i| (keys[i], ()));
    let mut want = vec![0u32; NUM_KEYS as usize];
    bins.accumulate_serial(|k, _| want[k as usize] += 1);

    let cfg = StreamConfig::new()
        .shards(4)
        .channel_capacity(64)
        .epoch_tuples(100_000);
    let pipeline = IngestPipeline::new(NUM_KEYS, Count, cfg);
    std::thread::scope(|s| {
        for chunk in keys.chunks(keys.len() / 4) {
            let mut h = pipeline.handle();
            s.spawn(move || {
                for &k in chunk {
                    h.send(k, ()).expect("pipeline alive");
                }
            });
        }
    });
    let (snap, stats) = pipeline.shutdown();

    assert_eq!(snap.to_vec(), want, "streamed counts != batch PB");
    assert_eq!(stats.tuples_sent, NUM_TUPLES as u64);
    assert!(
        stats.epochs_sealed >= 9,
        "auto-seal fired {}",
        stats.epochs_sealed
    );
    assert!(stats.epochs_published >= stats.epochs_sealed);
    let binned: u64 = stats.shards.iter().map(|s| s.tuples_binned).sum();
    assert_eq!(binned, NUM_TUPLES as u64, "every tuple binned exactly once");
}

/// 1M+ tuples, non-commutative append: producers own disjoint key ranges
/// (so per-key arrival order is deterministic), and the snapshot's per-key
/// sequences are bit-identical to batch PB replay of the same per-producer
/// streams.
#[test]
fn million_tuples_non_commutative_equals_batch_pb() {
    // Producer p owns keys with k % 4 == p: per-key order is then fully
    // determined by that producer's send order regardless of thread
    // interleaving.
    let mut rng = SplitMix64::seed_from_u64(7);
    let streams: Vec<Vec<(u32, u32)>> = (0..4u32)
        .map(|p| {
            (0..NUM_TUPLES / 4)
                .map(|i| (4 * rng.u32_below(NUM_KEYS / 4) + p, i as u32))
                .collect()
        })
        .collect();

    // Batch PB reference: one single-threaded binner per producer stream,
    // replayed into per-key logs (bin_parallel with threads=1 preserves
    // exactly the per-producer order the pipeline guarantees).
    let mut want: Vec<Vec<u32>> = vec![Vec::new(); NUM_KEYS as usize];
    for stream in &streams {
        let bins = bin_parallel(stream.len(), NUM_KEYS, 256, 1, |i| stream[i]);
        bins.accumulate_serial(|k, &v| want[k as usize].push(v));
    }

    let pipeline = IngestPipeline::new(
        NUM_KEYS,
        Append,
        StreamConfig::new().shards(4).epoch_tuples(137_111),
    );
    std::thread::scope(|s| {
        for stream in &streams {
            let mut h = pipeline.handle();
            s.spawn(move || {
                for &(k, v) in stream {
                    h.send(k, v).expect("pipeline alive");
                }
            });
        }
    });
    let (snap, stats) = pipeline.shutdown();

    assert_eq!(stats.tuples_sent, NUM_TUPLES as u64);
    assert_eq!(snap.to_vec(), want, "streamed per-key order != batch PB");
}

/// A deliberately undersized channel bound makes backpressure observable:
/// non-zero producer stall time, block count, and channel occupancy.
#[test]
fn undersized_channels_report_backpressure() {
    let keys = tuple_keys();
    let cfg = StreamConfig::new()
        .shards(2)
        .channel_capacity(1) // eviction buffer of depth 1: Figure 13a's worst case
        .batch_tuples(16);
    let pipeline = IngestPipeline::new(NUM_KEYS, Count, cfg);
    std::thread::scope(|s| {
        for chunk in keys.chunks(keys.len() / 4) {
            let mut h = pipeline.handle();
            s.spawn(move || {
                for &k in chunk {
                    h.send(k, ()).expect("pipeline alive");
                }
            });
        }
    });
    let (snap, stats) = pipeline.shutdown();

    assert_eq!(
        snap.iter().map(|&c| c as u64).sum::<u64>(),
        NUM_TUPLES as u64
    );
    assert!(
        stats.total_send_blocks() > 0,
        "expected producers to hit full FIFOs"
    );
    assert!(
        stats.total_send_stall().as_nanos() > 0,
        "stall time must be recorded"
    );
    assert!(stats.stall_fraction() > 0.0);
    for sh in &stats.shards {
        assert!(
            sh.channel.occupancy_hwm >= 1,
            "shard {} never filled",
            sh.shard
        );
        assert!(sh.channel.mean_occupancy() > 0.0);
    }
    // And with ample capacity the same load stalls less (or not at all).
    let roomy = IngestPipeline::new(
        NUM_KEYS,
        Count,
        StreamConfig::new()
            .shards(2)
            .channel_capacity(4096)
            .batch_tuples(4096),
    );
    let mut h = roomy.handle();
    for &k in &keys {
        h.send(k, ()).expect("pipeline alive");
    }
    drop(h);
    let (_, roomy_stats) = roomy.shutdown();
    assert!(
        roomy_stats.total_send_blocks() <= stats.total_send_blocks(),
        "larger buffers must not stall more: {} vs {}",
        roomy_stats.total_send_blocks(),
        stats.total_send_blocks()
    );
}

/// The streaming kernel drivers agree with their batch references on a
/// full-size RMAT input (the ISSUE's end-to-end acceptance path).
#[test]
fn streaming_drivers_match_references_on_rmat() {
    let el = gen::rmat(16, 16, 3); // 2^16 vertices, ~1M edges
    assert!(el.num_edges() >= 1 << 20);
    let want = cobra_repro::kernels::degree_count::reference(&el);
    let (got, stats) =
        streaming::degree_count(&el, 4, StreamConfig::new().shards(4).epoch_tuples(250_000));
    assert_eq!(got, want);
    assert_eq!(stats.tuples_sent, el.num_edges() as u64);
    assert!(stats.tuples_per_sec() > 0.0);
}
