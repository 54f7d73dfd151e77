//! Regression tests for schedules first identified by `cobra-check`'s
//! bounded schedule explorer (`cargo run -p cobra-check -- explore`).
//!
//! The explorer drives a model of the channel/seal/epoch state machine
//! through every interleaving of small scenarios; the cases below pin the
//! real implementation to the schedules the model showed to be the
//! interesting ones: a seal racing a blocked producer, and a receiver
//! vanishing while producers are wedged on a full FIFO.

use cobra_stream::channel::{bounded, Disconnected};
use cobra_stream::{Append, Count, IngestPipeline, StreamConfig, Sum, TryIngestError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Explorer scenario "receiver_drop_mid_epoch", channel layer: a producer
/// blocked in `send` on a full FIFO must be woken by the receiver's drop
/// and get its message handed back, not sleep forever (the lost-wakeup
/// case) and not lose the message silently.
#[test]
fn blocked_sender_wakes_on_receiver_drop() {
    let (tx, rx) = bounded(1);
    tx.send(0u64).expect("receiver alive");
    let blocked = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&blocked);
    let producer = thread::spawn(move || {
        flag.store(true, Ordering::SeqCst);
        // The queue is full: this parks on `not_full` until the drop below.
        tx.send(1u64)
    });
    while !blocked.load(Ordering::SeqCst) {
        thread::yield_now();
    }
    // Give the producer time to actually enter the condvar wait.
    thread::sleep(Duration::from_millis(20));
    drop(rx);
    let res = producer.join().expect("producer must not be wedged");
    assert_eq!(res, Err(Disconnected(1u64)));
}

/// Same scenario one layer up: handles still buffering when the pipeline
/// is shut down must not deadlock, and sends after shutdown must report
/// `PipelineClosed` rather than wedge.
#[test]
fn send_after_shutdown_reports_closed() {
    let pipeline = IngestPipeline::new(64, Count, StreamConfig::new().shards(1).batch_tuples(1));
    let mut handle = pipeline.handle();
    handle.send(3, ()).expect("pipeline open");
    let (snapshot, _) = pipeline.shutdown();
    assert_eq!(*snapshot.get(3), 1, "flushed tuple must be durable");
    // The shard workers are gone; the next flush hits a dead channel.
    assert!(
        handle.send(4, ()).is_err(),
        "sends into a shut-down pipeline must error"
    );
}

/// Explorer scenario "seal_during_blocked_send": with a capacity-1 FIFO, a
/// sealer broadcasts the Seal marker while other producers are blocked on
/// the same full channel. The explorer shows every interleaving either
/// orders the marker before or after each blocked batch — but never
/// deadlocks and never splits one producer's batch across the seal
/// boundary. Exercise exactly that contention shape for real, many times.
#[test]
fn seal_during_blocked_send_never_deadlocks_and_counts_every_tuple() {
    const PRODUCERS: usize = 3;
    const TUPLES_PER_PRODUCER: u64 = 400;
    let pipeline = IngestPipeline::new(
        256,
        Sum,
        StreamConfig::new()
            .shards(2)
            .channel_capacity(1) // maximal backpressure: senders block constantly
            .batch_tuples(4),
    );
    let stop = Arc::new(AtomicBool::new(false));
    let seals = thread::scope(|s| {
        let sealer = {
            let stop = Arc::clone(&stop);
            let p = &pipeline;
            s.spawn(move || {
                let mut seals = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    p.seal_epoch();
                    seals += 1;
                }
                seals
            })
        };
        let workers: Vec<_> = (0..PRODUCERS)
            .map(|w| {
                let mut handle = pipeline.handle();
                s.spawn(move || {
                    for i in 0..TUPLES_PER_PRODUCER {
                        let key = ((w as u64 * 97 + i * 31) % 256) as u32;
                        handle.send(key, 1.0f64).expect("pipeline open");
                    }
                    handle.flush().expect("pipeline open");
                })
            })
            .collect();
        for w in workers {
            w.join().expect("producer survived the seal storm");
        }
        stop.store(true, Ordering::SeqCst);
        sealer.join().expect("sealer survived")
    });
    assert!(seals > 0, "the sealer must have raced at least once");
    let (snapshot, stats) = pipeline.shutdown();
    let total: f64 = snapshot.iter().sum();
    assert_eq!(
        total as u64,
        PRODUCERS as u64 * TUPLES_PER_PRODUCER,
        "no tuple lost or duplicated across {} concurrent seals",
        seals
    );
    assert_eq!(stats.tuples_sent, PRODUCERS as u64 * TUPLES_PER_PRODUCER);
}

/// Explorer scenario "receiver_drop_mid_epoch", epoch layer: epoch
/// snapshots published while producers are still blocked must stay
/// epoch-aligned — the snapshot for epoch `e` reflects exactly the batches
/// that preceded the `e`-th seal marker in each shard's FIFO, which the
/// per-epoch monotonicity of the published totals makes observable.
#[test]
fn epoch_snapshots_stay_monotonic_under_backpressure() {
    let pipeline = IngestPipeline::new(
        128,
        Count,
        StreamConfig::new()
            .shards(2)
            .channel_capacity(1)
            .batch_tuples(2)
            .epoch_tuples(64), // auto-seal mid-stream, from inside the handle's ship
    );
    let mut handle = pipeline.handle();
    let mut last_total = 0u64;
    let mut last_epoch = 0u64;
    for i in 0..2_000u32 {
        handle.send(i % 128, ()).expect("pipeline open");
        if i % 128 == 0 {
            let snap = pipeline.snapshot();
            let total: u64 = snap.iter().map(|&c| c as u64).sum();
            assert!(
                snap.epoch() >= last_epoch,
                "published epoch went backwards: {} then {}",
                last_epoch,
                snap.epoch()
            );
            if snap.epoch() == last_epoch {
                assert_eq!(
                    total, last_total,
                    "same epoch republished with different contents"
                );
            } else {
                assert!(total >= last_total, "epoch totals must be monotonic");
            }
            last_total = total;
            last_epoch = snap.epoch();
        }
    }
    drop(handle);
    let (snapshot, _) = pipeline.shutdown();
    let total: u64 = snapshot.iter().map(|&c| c as u64).sum();
    assert_eq!(total, 2_000);
}

/// `send` and `try_send` (retried on `Busy`) are two callers of one
/// stage-and-ship: the same stream through either, against 1-deep FIFOs,
/// ends in the same per-key arrival logs and the same `tuples_sent`, and
/// the partial batches a dropped handle still held are in there.
#[test]
fn send_and_try_send_with_retry_are_equivalent() {
    let stream: Vec<(u32, u32)> = (0..20_000u32)
        .map(|i| (i.wrapping_mul(2654435761) % 256, i))
        .collect();
    let run = |blocking: bool| {
        let cfg = StreamConfig::new()
            .shards(2)
            .channel_capacity(1)
            .batch_tuples(7); // 20_000 % 7 != 0: the drop ships a remainder
        let pipeline = IngestPipeline::new(256, Append, cfg);
        let mut handle = pipeline.handle();
        for &(k, v) in &stream {
            if blocking {
                handle.send(k, v).expect("pipeline open");
            } else {
                while let Err(e) = handle.try_send(k, v) {
                    assert_eq!(e, TryIngestError::Busy);
                    thread::yield_now();
                }
            }
        }
        drop(handle);
        let (snapshot, stats) = pipeline.shutdown();
        (snapshot.to_vec(), stats.tuples_sent)
    };
    let mut want = vec![Vec::new(); 256];
    for &(k, v) in &stream {
        want[k as usize].push(v);
    }
    assert_eq!(run(true), (want.clone(), 20_000));
    assert_eq!(run(false), (want, 20_000));
}
