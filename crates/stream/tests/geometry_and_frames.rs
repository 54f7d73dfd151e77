//! Shard-owned Accumulate and whole frames as properties: the derived
//! snapshot geometry over ragged and power-of-two key domains, frame
//! sizes, and epoch isolation under run-ahead.

use cobra_stream::{Append, Count, EpochSnapshot, IngestHandle, IngestPipeline, Reducer};
use cobra_stream::{Publish, PublishHook, StreamConfig};
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

/// One key domain under the derived snapshot geometry: the segment size
/// is a power of two no larger than 1024 that every shard starts on,
/// three epochs fold exactly, and a one-key epoch rewrites that key's
/// segment alone.
fn derived_geometry<R>(reducer: R, value: fn(u32) -> R::Value, num_keys: u32, shards: usize)
where
    R: Reducer + Copy,
    R::Acc: PartialEq + std::fmt::Debug,
{
    let case = format!("{num_keys} keys, {shards} shards");
    let p = IngestPipeline::new(num_keys, reducer, StreamConfig::new().shards(shards));
    let seg = p.snapshot().segment_keys();
    assert!(seg.is_power_of_two() && seg <= 1024, "{case}: {seg}");
    for s in 0..p.num_shards() {
        assert_eq!(p.shard_range(s).start % seg, 0, "{case}: shard {s}");
    }
    let mut h = p.handle();
    let mut want = vec![reducer.identity(); num_keys as usize];
    for epoch in 0..3u32 {
        for i in epoch * 700..(epoch + 1) * 700 {
            let k = (i.wrapping_mul(2_654_435_761) >> 7) % num_keys;
            h.send(k, value(i)).expect("pipeline open");
            reducer.apply(&mut want[k as usize], &value(i));
        }
        assert_eq!(
            seal_and_wait(&p, &mut h).to_vec(),
            want,
            "{case}: epoch {epoch}"
        );
    }
    // The middle key: a shard boundary whenever the shards split evenly.
    let key = num_keys / 2;
    let before = p.snapshot();
    h.send(key, value(9)).expect("pipeline open");
    reducer.apply(&mut want[key as usize], &value(9));
    let after = seal_and_wait(&p, &mut h);
    assert_eq!(after.to_vec(), want, "{case}: one-key epoch");
    for i in 0..after.num_segments() {
        let shared = Arc::ptr_eq(before.segment(i), after.segment(i));
        assert_eq!(shared, i != (key / seg) as usize, "{case}: segment {i}");
    }
    drop(h);
    assert_eq!(p.shutdown().0.to_vec(), want, "{case}: drain");
}

#[test]
fn every_derived_geometry_folds_exactly_and_rewrites_only_touched_segments() {
    for num_keys in [1, 7, 64, 1000, 4099, 1 << 16] {
        for shards in [1, 2, 3, 4, 8] {
            derived_geometry(Count, |_| (), num_keys, shards);
            derived_geometry(Append, |i| i, num_keys, shards);
        }
    }
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
        Box::new(move |step| {
            let Publish::Admit(snap) = step else { return };
            seen.lock().expect("seen").push(Arc::clone(snap));
            if snap.epoch() == 1 {
                parked.recv().expect("released");
            }
        })
    };
    // 64 keys in 2-key segments, each written by one worker only.
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
