//! Shard-owned Accumulate and whole frames as properties: segments that
//! straddle shard boundaries, frame sizes, and epoch isolation under run-ahead.

use cobra_stream::{Append, Count, EpochSnapshot, IngestHandle, IngestPipeline, Reducer};
use cobra_stream::{PublishHook, StreamConfig};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

fn wait_until(what: &str, done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::yield_now();
    }
}

fn seal_and_wait<R: Reducer>(
    p: &IngestPipeline<R>,
    h: &mut IngestHandle<R::Value>,
) -> Arc<EpochSnapshot<R::Acc>> {
    let e = h.seal_epoch().expect("pipeline open");
    wait_until("the sealed epoch", || p.published_epoch() >= e);
    p.snapshot()
}

/// 1000 keys in four 256-key shards under 48-key segments: segments 5
/// (keys 240..288) and 10 (480..528) straddle a shard boundary, the
/// boundary at 768 = 16 × 48 is aligned, the last segment is short.
fn misaligned_geometry<R>(reducer: R, value: fn(u32) -> R::Value)
where
    R: Reducer + Copy,
    R::Acc: PartialEq + std::fmt::Debug,
{
    let cfg = StreamConfig::new().shards(3).snapshot_segment_keys(48);
    let p = IngestPipeline::new(1000, reducer, cfg);
    assert_eq!(p.num_shards(), 4);
    let mut h = p.handle();
    let mut want = vec![reducer.identity(); 1000];
    for epoch in 0..3u32 {
        for i in epoch * 700..(epoch + 1) * 700 {
            let k = (i.wrapping_mul(2_654_435_761) >> 7) % 1000;
            h.send(k, value(i)).expect("pipeline open");
            reducer.apply(&mut want[k as usize], &value(i));
        }
        assert_eq!(seal_and_wait(&p, &mut h).to_vec(), want, "epoch {epoch}");
    }
    // One of shard 0's keys in straddling segment 5: only it is restitched.
    let before = p.snapshot();
    h.send(250, value(9)).expect("pipeline open");
    reducer.apply(&mut want[250], &value(9));
    let after = seal_and_wait(&p, &mut h);
    assert_eq!((after.num_segments(), after.to_vec()), (21, want.clone()));
    for seg in 0..21 {
        let shared = Arc::ptr_eq(before.segment(seg), after.segment(seg));
        assert_eq!(shared, seg != 5, "segment {seg}");
    }
    drop(h);
    assert_eq!(p.shutdown().0.to_vec(), want);
}

#[test]
fn segments_straddling_shard_boundaries_fold_exactly_and_stay_shared() {
    misaligned_geometry(Count, |_| ());
    misaligned_geometry(Append, |i| i);
}

#[test]
fn frames_arrive_whole() {
    const TUPLES: u64 = 1 << 17;
    let p = IngestPipeline::new(1 << 16, Count, StreamConfig::new().shards(2));
    let mut h = p.handle();
    for i in 0..TUPLES {
        h.send((i.wrapping_mul(2_654_435_761) >> 9) as u32 % (1 << 16), ())
            .expect("pipeline open");
    }
    seal_and_wait(&p, &mut h);
    drop(h);
    let (snap, stats) = p.shutdown();
    assert_eq!(snap.iter().map(|&c| c as u64).sum::<u64>(), TUPLES);
    // Full 1024-tuple frames plus at most one ragged one per shard at the
    // seal: a regression to small frames fails here, not only in the benchmark.
    assert!(stats.batches_sent <= TUPLES / 1024 + 2 * 2, "{stats:?}");
}

#[test]
fn epochs_stay_isolated_while_workers_run_ahead_of_the_publish() {
    let seen = Arc::new(Mutex::new(Vec::new()));
    let (release, parked) = mpsc::channel::<()>();
    let hook: PublishHook<u32> = {
        let seen = Arc::clone(&seen);
        Box::new(move |snap| {
            seen.lock().expect("seen").push(Arc::clone(snap));
            if snap.epoch() == 1 {
                parked.recv().expect("released");
            }
        })
    };
    // One 1024-key segment shared by both shards: every snapshot is stitched.
    let p = IngestPipeline::with_publish_hook(64, Count, StreamConfig::new().shards(2), hook);
    let mut h = p.handle();
    for epoch in 1..=3 {
        for k in (0..64).cycle().take(64 * epoch) {
            h.send(k, ()).expect("pipeline open");
        }
        h.seal_epoch().expect("pipeline open");
    }
    // Both workers apply epochs 2 and 3 into their own handles (four
    // `AccMsg`s fit the inbox) while snapshot 1 is still unpublished.
    wait_until("three flushes per shard", || {
        p.stats().shards.iter().all(|s| s.epoch_flushes == 3)
    });
    assert_eq!(p.published_epoch(), 0);
    release.send(()).expect("hook parked");
    wait_until("epoch 3", || p.published_epoch() >= 3);
    for (snap, want) in seen.lock().expect("seen").iter().zip([1, 3, 6]) {
        assert!(snap.iter().all(|&c| c == want), "epoch {}", snap.epoch());
    }
    drop(h);
    p.shutdown();
}
