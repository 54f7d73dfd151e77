//! Recycling a retired segment never rewrites one anyone can still see:
//! snapshots a publish hook retains, a segment held only through a
//! `Weak`, and an epoch parked in the hook while the workers run ahead
//! all keep the values of their own epoch.

use cobra_stream::{Append, Count, IngestPipeline, PublishHook, Reducer, StreamConfig, Sum};
use std::sync::{mpsc, Arc, Mutex, Weak};
use std::time::{Duration, Instant};

const EPOCHS: u64 = 24;
/// The hook parks here until the workers have sealed two epochs more.
const PARKED: u64 = 9;
/// A `Weak` is taken to segment 0 as of this epoch (not a retained one).
const WEAK_EPOCH: u64 = 4;

fn wait_until(what: &str, done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::yield_now();
    }
}

/// Sparse epochs (every fourth) touch 48 keys in segments 0 and 5 of
/// `seg` keys each; dense ones send one tuple per key, in a scrambled
/// order.
fn epoch_keys(epoch: u64, keys: u32, seg: u32) -> Vec<u32> {
    if epoch % 4 == 1 {
        (0..16).chain(5 * seg..5 * seg + 32).collect()
    } else {
        let salt = (epoch as u32).wrapping_mul(0x9E37_79B9);
        (0..keys)
            .map(|i| (i.wrapping_mul(2_654_435_761) ^ salt) % keys)
            .collect()
    }
}

fn never_rewrites_a_visible_segment<R>(reducer: R, value: fn(u32) -> R::Value, keys: u32)
where
    R: Reducer + Copy,
    R::Acc: PartialEq + std::fmt::Debug,
{
    let retained = Arc::new(Mutex::new(Vec::new()));
    // The address of segment 0 in every published snapshot, by epoch.
    let seen = Arc::new(Mutex::new(Vec::new()));
    let weak = Arc::new(Mutex::new(None::<Weak<Vec<R::Acc>>>));
    let (release, parked) = mpsc::channel::<()>();
    let hook: PublishHook<R::Acc> = {
        let (retained, seen, weak) = (retained.clone(), seen.clone(), weak.clone());
        Box::new(move |snap| {
            let seg = snap.segment(0);
            seen.lock()
                .unwrap()
                .push((snap.epoch(), Arc::as_ptr(seg) as usize));
            if snap.epoch() == WEAK_EPOCH {
                *weak.lock().unwrap() = Some(Arc::downgrade(seg));
            }
            if snap.epoch() % 3 == 0 {
                retained.lock().unwrap().push(Arc::clone(snap));
            }
            if snap.epoch() == PARKED {
                parked.recv().expect("released");
            }
        })
    };
    let p = IngestPipeline::with_publish_hook(keys, reducer, StreamConfig::new().shards(2), hook);
    let seg = p.snapshot().segment_keys();
    assert!(
        seg >= 32 && keys / seg > 5,
        "{keys} keys: {seg}-key segments"
    );
    let mut h = p.handle();
    let mut want = vec![reducer.identity(); keys as usize];
    let mut folds = Vec::new();
    let mut n = 0u32;
    for epoch in 1..=EPOCHS {
        for k in epoch_keys(epoch, keys, seg) {
            h.send(k, value(n)).expect("pipeline open");
            reducer.apply(&mut want[k as usize], &value(n));
            n += 1;
        }
        assert_eq!(h.seal_epoch().expect("pipeline open"), epoch);
        if epoch % 3 == 0 {
            folds.push(want.clone());
        }
        match epoch {
            // Snapshot `PARKED` is in the hook; both workers apply two
            // more epochs into their own handles meanwhile.
            e if e == PARKED || e == PARKED + 1 => {}
            e if e == PARKED + 2 => {
                wait_until("the run-ahead", || {
                    p.stats().shards.iter().all(|s| s.epoch_flushes == e)
                });
                assert_eq!(p.published_epoch(), PARKED - 1);
                release.send(()).expect("hook parked");
                wait_until("the run-ahead epochs", || p.published_epoch() >= e);
            }
            e => wait_until("the sealed epoch", || p.published_epoch() >= e),
        }
    }
    drop(h);
    let (last, stats) = p.shutdown();
    assert!(stats.total_segments_recycled() > 0, "{stats:?}");
    assert_eq!(last.to_vec(), want, "final snapshot, {keys} keys");

    let retained = retained.lock().unwrap();
    assert_eq!(retained.len(), folds.len());
    for (snap, fold) in retained.iter().zip(&folds) {
        assert_eq!(&snap.to_vec(), fold, "retained epoch {}", snap.epoch());
    }
    // The `Weak` kept the segment's allocation, so its address is unique:
    // no later epoch may have published it again.
    let weak = weak.lock().unwrap().take().expect("weak taken");
    let addr = weak.as_ptr() as usize;
    let seen = seen.lock().unwrap();
    assert!(seen.iter().any(|&(e, a)| (e, a) == (WEAK_EPOCH, addr)));
    assert!(seen.iter().all(|&(e, a)| e <= WEAK_EPOCH || a != addr));
}

#[test]
fn recycling_never_rewrites_a_segment_anyone_can_still_see() {
    // 2 shards × 16 bins: 512-key segments (2^14 keys) and 64-key ones
    // (2^11), each inside one bin, so every segment may recycle.
    for keys in [1 << 14, 1 << 11] {
        never_rewrites_a_visible_segment(Count, |_| (), keys);
        never_rewrites_a_visible_segment(Append, |i| i, keys);
        // Integer-valued sums are exact under any fusion or association.
        never_rewrites_a_visible_segment(Sum, |i| f64::from(i % 7), keys);
    }
}
