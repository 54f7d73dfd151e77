//! The publish lock covers the pointer swap only: freeing the snapshot a
//! publish replaces — up to every rewritten segment of the state — must
//! not stall `snapshot()` / `get()` readers.

use cobra_stream::{IngestPipeline, Reducer, StreamConfig};
use std::sync::atomic::{AtomicBool, Ordering};
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
    let p = IngestPipeline::new(8, CountSlowly, StreamConfig::new().shards(1));
    let mut h = p.handle();
    h.send(3, ()).expect("pipeline open");
    // Epoch 1 copies the one segment; publishing it replaces snapshot 0,
    // the last holder of the original, whose values are dropped there.
    ARMED.store(true, Ordering::SeqCst);
    h.seal_epoch().expect("pipeline open");
    let deadline = Instant::now() + Duration::from_secs(10);
    while !DROPPING.load(Ordering::SeqCst) {
        assert!(Instant::now() < deadline, "snapshot 0 was never freed");
        std::thread::yield_now();
    }
    // The accumulator is now inside a 200 ms free. A reader must not wait.
    let asked = Instant::now();
    let snap = p.snapshot();
    let waited = asked.elapsed();
    assert_eq!((snap.epoch(), snap.get(3).0), (1, 1));
    assert!(
        waited < Duration::from_millis(100),
        "reader waited {waited:?}"
    );
    drop(h);
    p.shutdown();
}
