//! Time travel and push subscriptions over the `cobra-serve` wire: a
//! server retaining a window of published epochs, a subscriber
//! reconstructing the key space from per-epoch deltas alone, a
//! time-travel `QUERY{epoch}` into the retention window, and a `DIFF`
//! between two retained epochs listing exactly the keys that changed.
//!
//! Run with: `cargo run --release --example subscribe_quickstart`

use cobra_repro::serve::{ServeClient, ServeConfig, Server, SubEvent};
use cobra_repro::stream::StreamConfig;

const NUM_KEYS: u32 = 1 << 10;
const EPOCHS: u64 = 8;

fn main() {
    // ---- 1. A server retaining the last 16 published epochs. ----
    let server = Server::start(
        NUM_KEYS,
        StreamConfig::new().shards(2).channel_capacity(64),
        ServeConfig::new().retain_epochs(16).sub_queue_epochs(8),
    )
    .expect("bind");
    let addr = server.local_addr();
    println!("serving on {addr} (retaining 16 epochs)");

    // ---- 2. A subscriber turns its connection into a delta stream. ----
    // `subscribe` consumes the client; the connection switches to push
    // mode and yields per-epoch `SubEvent`s as an iterator.
    let sub_handle = std::thread::spawn(move || {
        let client = ServeClient::connect(addr).expect("connect subscriber");
        let mut sub = client.subscribe(0, NUM_KEYS).expect("subscribe");
        let mut state = vec![0u64; NUM_KEYS as usize];
        let mut last = sub.start_epoch();
        while last < EPOCHS {
            match sub.next_event().expect("event") {
                SubEvent::Delta {
                    from_epoch,
                    to_epoch,
                    entries,
                } => {
                    // Gap-free by construction: each delta advances the
                    // reconstruction by exactly one epoch.
                    assert_eq!(from_epoch, last);
                    assert_eq!(to_epoch, last + 1);
                    println!(
                        "  delta {from_epoch} -> {to_epoch}: {} changed keys",
                        entries.len()
                    );
                    for (k, v) in entries {
                        state[k as usize] = v; // absolute values
                    }
                    last = to_epoch;
                }
                SubEvent::Lagged { resume_epoch } => {
                    // A slow consumer is never silently dropped: answer
                    // with one DIFF re-sync (see the mvcc e2e tests).
                    let mut aux = ServeClient::connect(addr).expect("aux");
                    let (_, to, entries) = aux
                        .diff(last, resume_epoch, 0, NUM_KEYS)
                        .expect("re-sync diff");
                    for (k, v) in entries {
                        state[k as usize] = v;
                    }
                    last = to;
                    println!("  lagged -> re-synced to epoch {to}");
                }
            }
        }
        // `unsubscribe` hands the plain request/response client back.
        let (_client, epoch) = sub.unsubscribe().expect("unsubscribe");
        println!("unsubscribed at epoch {epoch}");
        state
    });

    // ---- 3. The driver publishes a few epochs of updates. ----
    let mut driver = ServeClient::connect(addr).expect("connect driver");
    for e in 1..=EPOCHS {
        let tuples: Vec<(u32, u64)> = (0..32).map(|i| (e as u32 * 7 + i, e * 100 + 1)).collect();
        driver.update_all(&tuples).expect("update");
        let sealed = driver.seal().expect("seal");
        driver.wait_epoch(sealed).expect("wait publish");
    }
    let reconstructed = sub_handle.join().expect("subscriber");

    // ---- 4. Time travel: read any retained epoch, diff any two. ----
    let probe = 7u32 * 3 + 4; // touched by epoch 3
    for epoch in [1, 3, EPOCHS] {
        let (e, v) = driver.query_at(epoch, probe).expect("query_at");
        println!("QUERY{{epoch {e}}} key {probe} -> {v}");
    }
    let (from, to, changed) = driver.diff(3, 4, 0, NUM_KEYS).expect("diff");
    println!(
        "DIFF {from} -> {to}: {} keys changed between adjacent epochs",
        changed.len()
    );

    // The subscriber's delta-built state matches the server's snapshot.
    let (e, _, truth) = driver.snapshot(EPOCHS, 0, NUM_KEYS).expect("snapshot");
    assert_eq!(reconstructed, truth, "reconstruction must be bit-identical");
    println!("subscriber state is bit-identical to SNAPSHOT{{{e}}}");

    server.shutdown();
}
