//! Which path a seal takes into a shared snapshot segment, counted by
//! `ShardStats::{segments_copied, segments_recycled}`: a steady closed
//! loop recycles every segment from its third epoch on, a segment whose
//! spare was dropped copies, a recovered pipeline starts over like a fresh
//! one — and every path folds exactly.

use cobra_stream::{Count, DurableConfig, IngestPipeline, StreamConfig, SyncPolicy};
use std::time::{Duration, Instant};

const KEYS: u32 = 1 << 16;
const SEGMENT_KEYS: u32 = 1024;
const SEGMENTS: u32 = KEYS / SEGMENT_KEYS;

fn cfg() -> StreamConfig {
    StreamConfig::new()
        .shards(2)
        .snapshot_segment_keys(SEGMENT_KEYS as usize)
}

/// Runs `epochs` closed-loop epochs (send, seal, wait until visible) in
/// which segment `s` gets four tuples iff `touch(i, s)` (`i` counts this
/// call's epochs from 0). Every published snapshot must equal the fold
/// `want`. Returns, per epoch, the segments its seal copied and recycled.
fn closed_loop(
    p: &IngestPipeline<Count>,
    want: &mut [u32],
    epochs: u64,
    touch: impl Fn(u64, u32) -> bool,
) -> Vec<(u64, u64)> {
    let mut h = p.handle();
    let paths = |p: &IngestPipeline<Count>| {
        let stats = p.stats();
        (
            stats.total_segments_copied(),
            stats.total_segments_recycled(),
        )
    };
    let mut before = paths(p);
    let mut out = Vec::new();
    for i in 0..epochs {
        for s in (0..SEGMENTS).filter(|&s| touch(i, s)) {
            for j in 0..4 {
                let k = s * SEGMENT_KEYS + (i as u32 * 37 + j * 301) % SEGMENT_KEYS;
                h.send(k, ()).expect("pipeline open");
                want[k as usize] += 1;
            }
        }
        let e = h.seal_epoch().expect("pipeline open");
        let deadline = Instant::now() + Duration::from_secs(10);
        while p.published_epoch() < e {
            assert!(Instant::now() < deadline, "epoch {e} never published");
            std::thread::yield_now();
        }
        // Taking the snapshot takes the publish lock, which orders this
        // seal's counter updates before the reads below. It is dropped
        // before the next seal, so it pins no spare.
        assert_eq!(p.snapshot().to_vec(), want, "epoch {e}");
        let now = paths(p);
        out.push((now.0 - before.0, now.1 - before.1));
        before = now;
    }
    out
}

/// Epochs 1 and 2 copy every segment (the first seal has no bins to keep
/// a spare for); from epoch 3 on every one recycles.
fn steady(epochs: usize) -> Vec<(u64, u64)> {
    let all = u64::from(SEGMENTS);
    let mut v = vec![(all, 0); 2];
    v.resize(epochs, (0, all));
    v
}

#[test]
fn a_steady_dense_stream_recycles_every_segment_from_its_third_epoch() {
    let p = IngestPipeline::new(KEYS, Count, cfg());
    let mut want = vec![0; KEYS as usize];
    assert_eq!(closed_loop(&p, &mut want, 6, |_, _| true), steady(6));
    assert_eq!(p.shutdown().0.to_vec(), want);
}

#[test]
fn a_segment_touched_every_other_epoch_copies_and_still_folds_exactly() {
    let p = IngestPipeline::new(KEYS, Count, cfg());
    let mut want = vec![0; KEYS as usize];
    // Segment 7 sits out every second epoch, which drops its spare.
    let paths = closed_loop(&p, &mut want, 6, |i, s| s != 7 || i % 2 == 0);
    let all = u64::from(SEGMENTS);
    let rest = all - 1;
    let want_paths = [
        (all, 0),
        (rest, 0),
        (1, rest),
        (0, rest),
        (1, rest),
        (0, rest),
    ];
    assert_eq!(paths, want_paths);
    assert_eq!(p.shutdown().0.to_vec(), want);
}

#[test]
fn a_recovered_pipeline_copies_until_it_has_a_spare_then_recycles() {
    let dir = std::env::temp_dir().join(format!("cobra-stream-fast-path-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durable = DurableConfig::new(&dir).sync(SyncPolicy::Never);
    let (p, _) = IngestPipeline::recover(KEYS, Count, cfg(), durable.clone()).expect("fresh");
    let mut want = vec![0; KEYS as usize];
    assert_eq!(closed_loop(&p, &mut want, 3, |_, _| true), steady(3));
    let (pre_shutdown, _) = p.shutdown();

    let (p, report) = IngestPipeline::recover(KEYS, Count, cfg(), durable).expect("recover");
    assert_eq!(report.committed_epoch, pre_shutdown.epoch());
    assert_eq!(*p.snapshot(), *pre_shutdown, "recovered == pre-shutdown");
    drop(pre_shutdown);
    assert_eq!(closed_loop(&p, &mut want, 4, |_, _| true), steady(4));
    assert_eq!(p.shutdown().0.to_vec(), want);
    let _ = std::fs::remove_dir_all(&dir);
}
