//! The publish lock covers the pointer swap only: freeing the snapshot a
//! publish replaces — up to every rewritten segment of the state — must
//! not stall `snapshot()` / `get()` readers.

use cobra_stream::{IngestPipeline, Publish, PublishHook, Reducer, StreamConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// The next `SlowDrop` dropped sleeps (once).
static ARMED: AtomicBool = AtomicBool::new(false);
/// That drop has begun.
static DROPPING: AtomicBool = AtomicBool::new(false);

#[derive(Clone)]
struct SlowDrop(u32);

impl Drop for SlowDrop {
    fn drop(&mut self) {
        if ARMED.swap(false, Ordering::SeqCst) {
            DROPPING.store(true, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(200));
        }
    }
}

struct CountSlowly;

impl Reducer for CountSlowly {
    type Value = ();
    type Acc = SlowDrop;

    fn identity(&self) -> SlowDrop {
        SlowDrop(0)
    }

    fn apply(&self, acc: &mut SlowDrop, _: &()) {
        acc.0 += 1;
    }
}

#[test]
fn the_replaced_snapshot_is_freed_outside_the_publish_lock() {
    // Publish 2 waits in the hook until the test lets it go.
    let (release, parked) = mpsc::channel::<()>();
    let hook: PublishHook<SlowDrop> = Box::new(move |step| {
        if matches!(step, Publish::Admit(snap) if snap.epoch() == 2) {
            parked.recv().expect("released");
        }
    });
    let p = IngestPipeline::with_publish_hook(8, CountSlowly, StreamConfig::new().shards(1), hook);
    let mut h = p.handle();
    let wait = |what: &str, done: &dyn Fn() -> bool| {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "{what}");
            std::thread::yield_now();
        }
    };
    // Epoch 1 copies the one segment and keeps the original as its
    // spare; epoch 2 recycles that spare and keeps epoch 1's segment as
    // the next one.
    h.send(3, ()).expect("pipeline open");
    h.seal_epoch().expect("pipeline open");
    wait("epoch 1 was never published", &|| p.published_epoch() >= 1);
    h.send(3, ()).expect("pipeline open");
    h.seal_epoch().expect("pipeline open");
    // Epoch 3 writes nothing, so the worker drops that spare: snapshot 1,
    // still the published one, is the last holder of epoch 1's segment,
    // whose values are dropped when publish 2 replaces it.
    h.seal_epoch().expect("pipeline open");
    wait("epoch 3 was never sealed", &|| {
        p.stats().shards[0].epoch_flushes == 3
    });
    ARMED.store(true, Ordering::SeqCst);
    release.send(()).expect("hook parked");
    wait("snapshot 1 was never freed", &|| {
        DROPPING.load(Ordering::SeqCst)
    });
    // The accumulator is now inside a 200 ms free. A reader must not wait.
    let asked = Instant::now();
    let snap = p.snapshot();
    let waited = asked.elapsed();
    assert_eq!((snap.epoch(), snap.get(3).0), (2, 2));
    assert!(
        waited < Duration::from_millis(100),
        "reader waited {waited:?}"
    );
    drop((h, snap));
    p.shutdown();
}
