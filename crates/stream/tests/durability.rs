//! Durable-mode integration tests: graceful-restart roundtrips, replay
//! without checkpoints, crash-image recovery (a copy of the data dir
//! taken mid-run, which is exactly what a kill -9 leaves behind), and
//! corrupted-log fault injection.

use cobra_stream::{
    Count, DurableConfig, IngestPipeline, ShardStats, StreamConfig, Sum, SyncPolicy,
};
use cobra_wal::{latest_checkpoint, write_checkpoint, CheckpointMeta};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "cobra-stream-durable-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn copy_dir(src: &Path, dst: &Path) {
    fs::create_dir_all(dst).expect("create dst");
    for entry in fs::read_dir(src).expect("read src") {
        let entry = entry.expect("entry");
        let to = dst.join(entry.file_name());
        if entry.file_type().expect("type").is_dir() {
            copy_dir(&entry.path(), &to);
        } else {
            fs::copy(entry.path(), &to).expect("copy file");
        }
    }
}

fn stream_cfg() -> StreamConfig {
    StreamConfig::new().shards(4).batch_tuples(8)
}

const KEYS: u32 = 1 << 10;

/// Ingests `epochs` epochs of `per_epoch` tuples (key = i % KEYS) and
/// seals each one. Returns the expected per-key counts.
fn ingest_epochs(p: &IngestPipeline<Count>, epochs: u64, per_epoch: u32) -> Vec<u32> {
    let mut h = p.handle();
    let mut expect = vec![0u32; KEYS as usize];
    for e in 0..epochs {
        for i in 0..per_epoch {
            let k = (e as u32 * 7 + i * 13) % KEYS;
            h.send(k, ()).expect("send");
            expect[k as usize] += 1;
        }
        h.seal_epoch().expect("seal");
    }
    expect
}

fn wait_published(p: &IngestPipeline<Count>, epoch: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while p.published_epoch() < epoch {
        assert!(Instant::now() < deadline, "epoch {epoch} never published");
        std::thread::yield_now();
    }
}

#[test]
fn graceful_restart_roundtrips_state_via_checkpoint() {
    let dir = temp_dir("graceful");
    let durable = DurableConfig::new(&dir).sync(SyncPolicy::Never);
    let (p, report) =
        IngestPipeline::recover(KEYS, Count, stream_cfg(), durable.clone()).expect("fresh");
    assert_eq!(report.committed_epoch, 0);
    assert_eq!(report.replayed_records, 0);
    let expect = ingest_epochs(&p, 3, 500);
    let (snap, stats) = p.shutdown();
    assert_eq!(snap.to_vec(), expect);
    let drained_epoch = snap.epoch();
    assert!(stats.wal_bytes_appended > 0, "updates were logged");
    assert!(stats.wal_segments > 0);

    // Restart: the drain checkpoint covers everything, so nothing replays.
    let (p2, report) =
        IngestPipeline::recover(KEYS, Count, stream_cfg(), durable.clone()).expect("recover");
    assert_eq!(report.committed_epoch, drained_epoch);
    assert_eq!(report.replayed_tuples, 0, "checkpoint made replay empty");
    assert_eq!(p2.published_epoch(), drained_epoch);
    assert_eq!(p2.snapshot().to_vec(), expect);

    // And the pipeline still works: new epochs land on top.
    let expect2 = ingest_epochs(&p2, 2, 200);
    let (snap2, stats2) = p2.shutdown();
    assert!(snap2.epoch() > drained_epoch, "epoch numbering continues");
    let combined: Vec<u32> = expect.iter().zip(&expect2).map(|(a, b)| a + b).collect();
    assert_eq!(snap2.to_vec(), combined);
    assert_eq!(stats2.wal_replayed_records, 0);

    // A third run replays nothing either and sees the combined state.
    let (p3, _) = IngestPipeline::recover(KEYS, Count, stream_cfg(), durable).expect("recover 2");
    assert_eq!(p3.snapshot().to_vec(), combined);
    p3.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn recovery_without_checkpoints_replays_the_whole_wal() {
    let dir = temp_dir("replay");
    let durable = DurableConfig::new(&dir)
        .sync(SyncPolicy::Never)
        .checkpoint_every(0);
    let (p, _) =
        IngestPipeline::recover(KEYS, Count, stream_cfg(), durable.clone()).expect("fresh");
    let expect = ingest_epochs(&p, 4, 300);
    let (snap, _) = p.shutdown();
    let drained_epoch = snap.epoch();

    let (p2, report) =
        IngestPipeline::recover(KEYS, Count, stream_cfg(), durable).expect("recover");
    assert_eq!(report.checkpoint_epoch, 0, "no checkpoints were written");
    assert_eq!(report.committed_epoch, drained_epoch);
    assert_eq!(report.replayed_tuples, 4 * 300, "every tuple replayed");
    assert!(
        report.replayed_records > report.replayed_tuples,
        "markers too"
    );
    let (snap2, stats2) = p2.shutdown();
    assert_eq!(snap2.to_vec(), expect);
    assert!(stats2.wal_replayed_records > 0);
    let _ = fs::remove_dir_all(&dir);
}

/// A recovered pipeline's shard counters count its live tuples only: the
/// WAL replays through binners of its own, not the workers' binners.
#[test]
fn a_recovered_pipelines_shard_stats_count_live_ingest_only() {
    const REPLAYED: u32 = 2_000;
    const LIVE: u32 = 700;
    let dir = temp_dir("live-stats");
    let durable = DurableConfig::new(&dir)
        .sync(SyncPolicy::Never)
        .checkpoint_every(0);
    let send = |p: &IngestPipeline<Sum>, n: u32, stride: u32| {
        let mut h = p.handle();
        for i in 0..n {
            h.send(i * stride % KEYS, 1.0).expect("send");
        }
        h.seal_epoch().expect("seal");
    };
    let (p, _) = IngestPipeline::recover(KEYS, Sum, stream_cfg(), durable.clone()).expect("fresh");
    send(&p, REPLAYED, 13);
    p.shutdown();

    let (p2, report) = IngestPipeline::recover(KEYS, Sum, stream_cfg(), durable).expect("recover");
    assert_eq!(report.replayed_tuples, u64::from(REPLAYED));
    send(&p2, LIVE, 7);
    let (_, stats) = p2.shutdown();
    let total = |f: fn(&ShardStats) -> u64| stats.shards.iter().map(f).sum::<u64>();
    assert_eq!(total(|s| s.tuples_binned), u64::from(LIVE));
    assert_eq!(total(|s| s.fusion.attempts), u64::from(LIVE));
    assert_eq!(
        total(|s| s.cbuf_flushes.tuples + s.fusion.hits),
        u64::from(LIVE),
        "every live tuple was fused or flushed, and nothing else was"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn crash_image_keeps_committed_epochs_and_drops_the_tail() {
    let dir = temp_dir("crash");
    let durable = DurableConfig::new(&dir)
        .sync(SyncPolicy::Never)
        .checkpoint_every(2);
    let (p, _) = IngestPipeline::recover(KEYS, Count, stream_cfg(), durable).expect("fresh");
    let expect = ingest_epochs(&p, 3, 400);
    wait_published(&p, 3);

    // Epoch 4 is in flight — sent and flushed to the shard FIFOs but never
    // sealed — when the "crash" happens: copying the data dir captures the
    // same on-disk image an abrupt kill would leave.
    let mut h = p.handle();
    for i in 0..250u32 {
        h.send((i * 3) % KEYS, ()).expect("send");
    }
    h.flush().expect("flush");
    let image = temp_dir("crash-image");
    copy_dir(&dir, &image);
    drop(h);
    p.shutdown();

    let recovered = DurableConfig::new(&image).sync(SyncPolicy::Never);
    let (p2, report) =
        IngestPipeline::recover(KEYS, Count, stream_cfg(), recovered).expect("recover");
    // Zero committed-epoch loss...
    assert_eq!(report.committed_epoch, 3);
    assert_eq!(p2.published_epoch(), 3);
    assert_eq!(p2.snapshot().to_vec(), expect);
    // ...and the unsealed epoch-4 tail did not leak in.
    let (snap2, _) = p2.shutdown();
    assert_eq!(snap2.to_vec(), expect);
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&image);
}

/// Largest shard log file, for corruption targets.
fn a_shard_segment(dir: &Path) -> PathBuf {
    let mut best: Option<(u64, PathBuf)> = None;
    for s in 0..64 {
        let sdir = dir.join(format!("shard-{s:03}"));
        let Ok(entries) = fs::read_dir(&sdir) else {
            continue;
        };
        for e in entries.flatten() {
            let len = e.metadata().map(|m| m.len()).unwrap_or(0);
            if best.as_ref().is_none_or(|(l, _)| len > *l) {
                best = Some((len, e.path()));
            }
        }
    }
    best.expect("no shard segments found").1
}

#[test]
fn truncated_shard_log_recovers_without_panicking() {
    let dir = temp_dir("trunc");
    let durable = DurableConfig::new(&dir)
        .sync(SyncPolicy::Never)
        .checkpoint_every(0);
    let (p, _) =
        IngestPipeline::recover(KEYS, Count, stream_cfg(), durable.clone()).expect("fresh");
    let expect = ingest_epochs(&p, 3, 400);
    p.shutdown();

    // Chop the tail off one shard's log: its later epochs are gone.
    let seg = a_shard_segment(&dir);
    let bytes = fs::read(&seg).expect("read");
    fs::write(&seg, &bytes[..bytes.len() - bytes.len() / 3]).expect("truncate");

    let (p2, report) =
        IngestPipeline::recover(KEYS, Count, stream_cfg(), durable).expect("recover");
    // The commit log still names the drain epoch; the damaged shard
    // contributes what survived. No panic, no over-counting.
    assert_eq!(p2.published_epoch(), report.committed_epoch);
    let (snap2, _) = p2.shutdown();
    for (k, (&got, &want)) in snap2.to_vec().iter().zip(&expect).enumerate() {
        assert!(got <= want, "key {k}: recovered {got} > expected {want}");
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn flipped_byte_in_shard_log_recovers_without_panicking() {
    let dir = temp_dir("flip");
    let durable = DurableConfig::new(&dir)
        .sync(SyncPolicy::Never)
        .checkpoint_every(0);
    let (p, _) =
        IngestPipeline::recover(KEYS, Count, stream_cfg(), durable.clone()).expect("fresh");
    let expect = ingest_epochs(&p, 3, 400);
    p.shutdown();

    let seg = a_shard_segment(&dir);
    let mut bytes = fs::read(&seg).expect("read");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    fs::write(&seg, &bytes).expect("write");

    let (p2, _) = IngestPipeline::recover(KEYS, Count, stream_cfg(), durable).expect("recover");
    let (snap2, _) = p2.shutdown();
    for (k, (&got, &want)) in snap2.to_vec().iter().zip(&expect).enumerate() {
        assert!(got <= want, "key {k}: recovered {got} > expected {want}");
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_checkpoint_falls_back_to_wal_replay() {
    let dir = temp_dir("badckpt");
    let durable = DurableConfig::new(&dir)
        .sync(SyncPolicy::Never)
        .checkpoint_every(1);
    let (p, _) =
        IngestPipeline::recover(KEYS, Count, stream_cfg(), durable.clone()).expect("fresh");
    let expect = ingest_epochs(&p, 3, 300);
    p.shutdown();

    // Corrupt every checkpoint: recovery must fall back to a full replay
    // and still reconstruct the exact committed state.
    let mut corrupted = 0;
    for e in fs::read_dir(&dir).expect("dir").flatten() {
        let name = e.file_name().to_string_lossy().into_owned();
        if name.starts_with("ckpt-") {
            let mut bytes = fs::read(e.path()).expect("read");
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xFF;
            fs::write(e.path(), bytes).expect("write");
            corrupted += 1;
        }
    }
    assert!(corrupted > 0, "expected checkpoints on disk");

    let (p2, report) =
        IngestPipeline::recover(KEYS, Count, stream_cfg(), durable).expect("recover");
    assert_eq!(report.checkpoint_epoch, 0, "all checkpoints rejected");
    assert_eq!(report.replayed_tuples, 3 * 300);
    let (snap2, _) = p2.shutdown();
    assert_eq!(snap2.to_vec(), expect);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn geometry_mismatch_is_an_error_not_a_scramble() {
    let dir = temp_dir("geom");
    let durable = DurableConfig::new(&dir).sync(SyncPolicy::Never);
    let (p, _) =
        IngestPipeline::recover(KEYS, Count, stream_cfg(), durable.clone()).expect("fresh");
    ingest_epochs(&p, 2, 100);
    p.shutdown();

    // Same directory, different key domain: refuse loudly.
    let err = IngestPipeline::recover(KEYS * 2, Count, stream_cfg(), durable)
        .err()
        .expect("must refuse");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    let _ = fs::remove_dir_all(&dir);

    // A checkpoint recording 1024-key segments for a domain that derives
    // narrower ones: refused too, never migrated or scrambled.
    let dir = temp_dir("geom-old");
    let durable = DurableConfig::new(&dir).sync(SyncPolicy::Never);
    let (p, _) =
        IngestPipeline::recover(KEYS, Count, stream_cfg(), durable.clone()).expect("fresh");
    assert!(p.snapshot().segment_keys() < 1024);
    let expect = ingest_epochs(&p, 2, 100);
    p.shutdown();
    let newest = latest_checkpoint::<u32>(&dir, u64::MAX)
        .expect("read checkpoints")
        .expect("the drain wrote one");
    let flat: Vec<u32> = newest
        .segments
        .iter()
        .flat_map(|s| s.iter().copied())
        .collect();
    assert_eq!(flat, expect);
    let old = CheckpointMeta {
        segment_keys: 1024,
        ..newest.meta
    };
    write_checkpoint(&dir, &old, &[Arc::new(flat)]).expect("rewrite the checkpoint");
    let err = IngestPipeline::recover(KEYS, Count, stream_cfg(), durable)
        .err()
        .expect("must refuse");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    let _ = fs::remove_dir_all(&dir);
}
