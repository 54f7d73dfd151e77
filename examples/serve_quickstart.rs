//! The network face of the streaming pipeline: a `cobra-serve` server on
//! an ephemeral port, a handful of clients pushing skewed updates over
//! real TCP, point queries answered out of the S3-FIFO snapshot cache,
//! and a graceful drain that proves no accepted update was lost.
//!
//! Run with: `cargo run --release --example serve_quickstart`

use cobra_repro::serve::{ServeClient, ServeConfig, Server};
use cobra_repro::stream::StreamConfig;

const NUM_KEYS: u32 = 1 << 14;
const CLIENTS: u64 = 4;
const BATCHES: u64 = 50;
const BATCH: u64 = 128;

fn main() {
    // ---- 1. A server: one reactor, 4 shards, small snapshot cache. ----
    let server = Server::start(
        NUM_KEYS,
        StreamConfig::new().shards(4).channel_capacity(64),
        ServeConfig::new().cache_blocks(64),
    )
    .expect("bind");
    let addr = server.local_addr();
    println!("serving on {addr}");

    // ---- 2. Clients push skewed updates and periodically seal. ----
    let mut expected_sum = 0u64;
    for c in 0..CLIENTS {
        for i in 0..BATCHES * BATCH {
            expected_sum += c * 1000 + i;
        }
    }
    let joins: Vec<_> = (0..CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(addr).expect("connect");
                let mut busy = 0u64;
                for b in 0..BATCHES {
                    let tuples: Vec<(u32, u64)> = (0..BATCH)
                        .map(|i| {
                            let n = b * BATCH + i;
                            // Zipf-ish: most updates hit the low keys.
                            let key = (n * n * 31 % NUM_KEYS as u64 / 16) as u32;
                            (key, c * 1000 + n)
                        })
                        .collect();
                    busy += client.update_all(&tuples).expect("update");
                    if b % 10 == 9 {
                        client.seal().expect("seal");
                    }
                }
                busy
            })
        })
        .collect();
    let busy_total: u64 = joins.into_iter().map(|j| j.join().expect("client")).sum();
    println!(
        "{CLIENTS} clients sent {} tuples ({busy_total} BUSY retries absorbed)",
        CLIENTS * BATCHES * BATCH
    );

    // ---- 3. Queries ride the snapshot cache. ----
    let mut client = ServeClient::connect(addr).expect("connect");
    client.seal().expect("seal");
    let (epoch, hottest) = (0..64)
        .map(|k| (k, client.query(k).expect("query")))
        .map(|(k, (e, v))| (e, (k, v)))
        .max_by_key(|&(_, (_, v))| v)
        .expect("nonempty");
    println!(
        "epoch {epoch}: hottest low key {} -> {}",
        hottest.0, hottest.1
    );
    for _ in 0..200 {
        client.query(hottest.0).expect("query");
    }
    let stats = client.stats().expect("stats");
    println!(
        "cache: {:.1}% hit rate over {} queries ({} insertions, {} evictions)",
        100.0 * stats.cache_hit_rate(),
        stats.queries,
        stats.cache_insertions,
        stats.cache_evictions
    );

    // ---- 4. Graceful drain: nothing accepted may be lost. ----
    drop(client);
    let (snapshot, stats) = server.shutdown();
    let server_sum: u64 = snapshot.iter().sum();
    assert_eq!(server_sum, expected_sum, "zero-loss invariant");
    println!(
        "drained epoch {}: {} tuples ingested over {} connections, sums agree ({server_sum})",
        snapshot.epoch(),
        stats.tuples_ingested,
        stats.connections
    );
}
