//! Streaming ingestion: a live RMAT edge stream, epoch snapshots, and
//! point queries — the long-lived-service face of Propagation Blocking.
//!
//! Four producer threads push a skewed edge stream into a sharded
//! [`IngestPipeline`]; an epoch is sealed every 100k tuples, so queryable
//! snapshots appear while ingestion continues; the final drain must agree
//! with the batch reference exactly.
//!
//! Run with: `cargo run --release --example streaming_ingest`

use cobra_repro::graph::gen;
use cobra_repro::kernels::degree_count;
use cobra_repro::stream::{Count, IngestPipeline, StreamConfig};

fn main() {
    // ---- 1. An RMAT edge stream (skewed, like real graphs). ----
    let el = gen::rmat(16, 16, 42);
    let nv = el.num_vertices();
    println!("streaming {} edges over {} vertices", el.num_edges(), nv);

    // ---- 2. A sharded pipeline counting in-degrees as edges arrive. ----
    let cfg = StreamConfig::new()
        .shards(4)
        .channel_capacity(64)
        .epoch_tuples(100_000);
    let pipeline = IngestPipeline::new(nv, Count, cfg);
    for (s, r) in (0..pipeline.num_shards()).map(|s| (s, pipeline.shard_range(s))) {
        println!("  shard {s} owns keys {}..{}", r.start, r.end);
    }

    // ---- 3. Four producers ingest concurrently; we query mid-stream. ----
    let edges = el.edges();
    std::thread::scope(|s| {
        for chunk in edges.chunks(edges.len().div_ceil(4)) {
            let mut handle = pipeline.handle();
            s.spawn(move || {
                for e in chunk {
                    handle.send(e.dst, ()).expect("pipeline alive");
                }
            });
        }
        // Meanwhile: watch epoch snapshots appear.
        let snap = pipeline.snapshot();
        println!(
            "mid-stream: epoch {} visible, {} tuples counted so far",
            snap.epoch(),
            snap.iter().map(|&c| c as u64).sum::<u64>()
        );
    });

    // ---- 4. Drain and compare against the batch kernel. ----
    let (snapshot, stats) = pipeline.shutdown();
    let reference = degree_count::reference(&el);
    assert_eq!(snapshot.to_vec(), reference, "stream must equal batch");
    println!(
        "final: epoch {} == batch Degree-Count over all {} edges",
        snapshot.epoch(),
        el.num_edges()
    );
    let (top_v, top_deg) = reference
        .iter()
        .enumerate()
        .max_by_key(|&(_, &d)| d)
        .map(|(v, &d)| (v, d))
        .unwrap();
    println!(
        "hottest vertex: {top_v} with in-degree {top_deg} (query: {})",
        snapshot.get(top_v as u32)
    );

    // ---- 5. The pipeline's self-accounting. ----
    println!(
        "\n{:.1}M tuples/s, {} batches, {} epochs sealed, {} snapshots published",
        stats.tuples_per_sec() / 1e6,
        stats.batches_sent,
        stats.epochs_sealed,
        stats.epochs_published
    );
    println!(
        "backpressure: {} producer blocks, {:?} total stall ({:.3} of wall-clock)",
        stats.total_send_blocks(),
        stats.total_send_stall(),
        stats.stall_fraction()
    );
    println!(
        "snapshot segments written: {} copied, {} recycled",
        stats.total_segments_copied(),
        stats.total_segments_recycled()
    );
    for sh in &stats.shards {
        println!(
            "  shard {}: {} tuples, {} flushes (max {}), FIFO mean occupancy {:.1}, \
             segments {} copied / {} recycled",
            sh.shard,
            sh.tuples_binned,
            sh.epoch_flushes,
            sh.max_flush_tuples,
            sh.channel.mean_occupancy(),
            sh.segments_copied,
            sh.segments_recycled
        );
    }
}
