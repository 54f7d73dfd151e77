//! WAL shipping primitives: file-level iteration over log directories so a
//! replication layer can stream segments and checkpoints to a follower.
//!
//! Replication in COBRA is *file shipping*, not logical replay: a primary
//! sends the raw bytes of its segment files (`seg-*.wal`) and checkpoint
//! files (`ckpt-*.bin`) and the follower appends them verbatim, so the
//! follower's data directory converges on a byte-identical copy of the
//! primary's. Correctness then falls out of the recovery invariants that
//! already hold for a crashed single node:
//!
//! * segments are append-only, so an offset the follower has already
//!   received never changes underneath it;
//! * a torn tail on an in-progress segment is a truncation point for
//!   recovery, never corruption — shipping a prefix of a segment is
//!   always safe;
//! * checkpoints are published by atomic rename, so a checkpoint file
//!   either lists with its full length or not at all.
//!
//! This module only knows about a *single* log or checkpoint directory.
//! The data-directory layout a durable pipeline writes — which
//! directories exist and the wire name of every file — has one owner
//! above this crate, cobra-stream's `durable` module.

use crate::checkpoint::list_checkpoints;
use crate::log::list_segments;
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

/// One file a replication round can ship: its on-disk path, its name,
/// and its length at listing time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShipFile {
    /// File name (`seg-00000001.wal`, `ckpt-…bin`). The layout owner
    /// renames it relative to the data directory (`shard-000/seg-…`),
    /// which is how the wire protocol addresses files.
    pub name: String,
    /// Full path to the file.
    pub path: PathBuf,
    /// File length in bytes when listed. A replication round ships the
    /// file up to this length; bytes appended after the listing ship in
    /// the next round.
    pub len: u64,
}

fn with_lengths(files: Vec<(u64, PathBuf)>) -> io::Result<Vec<ShipFile>> {
    let mut out = Vec::with_capacity(files.len());
    for (_, path) in files {
        // A file can vanish between listing and stat (checkpoint GC);
        // skip it — the next round sees the stable survivors.
        let Ok(meta) = std::fs::metadata(&path) else {
            continue;
        };
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        out.push(ShipFile {
            name: name.to_string(),
            path: path.clone(),
            len: meta.len(),
        });
    }
    Ok(out)
}

/// Segment files (`seg-*.wal`) in one log directory, sorted by segment
/// index ascending, with their current lengths. A missing directory is an
/// empty listing, matching [`scan`](crate::scan).
pub fn segment_files(dir: &Path) -> io::Result<Vec<ShipFile>> {
    with_lengths(list_segments(dir)?)
}

/// Checkpoint files (`ckpt-*.bin`) in one directory, sorted by epoch
/// ascending (oldest first, so a follower applies them in publish order),
/// with their current lengths.
pub fn checkpoint_files(dir: &Path) -> io::Result<Vec<ShipFile>> {
    let mut files = list_checkpoints(dir)?;
    files.reverse(); // list_checkpoints sorts newest-first
    with_lengths(files)
}

/// Reads up to `max_len` bytes of `path` starting at byte `offset`.
/// Returns an empty buffer at or past end-of-file — the caller's signal
/// that this file is fully shipped at its current length.
pub fn read_chunk(path: &Path, offset: u64, max_len: usize) -> io::Result<Vec<u8>> {
    let mut f = File::open(path)?;
    let len = f.metadata()?.len();
    if offset >= len {
        return Ok(Vec::new());
    }
    f.seek(SeekFrom::Start(offset))?;
    let want = ((len - offset) as usize).min(max_len);
    let mut buf = vec![0u8; want];
    let mut read = 0usize;
    while read < want {
        match f.read(&mut buf[read..]) {
            Ok(0) => break, // concurrent truncation never happens; be total anyway
            Ok(n) => read += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    buf.truncate(read);
    Ok(buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{write_checkpoint, CheckpointMeta};
    use crate::log::{LogPosition, SyncPolicy, WalConfig, WalStats, WalWriter};
    use crate::record::Record;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        // ordering: Relaxed — test-only unique-directory counter.
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("cobra-wal-ship-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn segment_listing_reports_names_and_lengths() {
        let dir = temp_dir("segs");
        let stats = Arc::new(WalStats::default());
        let cfg = WalConfig::new(&dir)
            .sync(SyncPolicy::Never)
            .segment_bytes(64);
        let mut w = WalWriter::open(cfg, stats, LogPosition::start()).expect("open");
        for k in 0..40u32 {
            w.append(&Record::Update {
                key: k,
                value: k as u64,
            })
            .expect("append");
            w.seal_flush().expect("flush");
        }
        let total = w.logical_offset();
        let files = segment_files(&dir).expect("list");
        assert!(files.len() > 1, "expected rotation");
        assert_eq!(files[0].name, "seg-00000001.wal");
        assert_eq!(files.iter().map(|f| f.len).sum::<u64>(), total);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chunked_reads_reassemble_the_file() {
        let dir = temp_dir("chunks");
        let stats = Arc::new(WalStats::default());
        let cfg = WalConfig::new(&dir).sync(SyncPolicy::Never);
        let mut w = WalWriter::open(cfg, stats, LogPosition::start()).expect("open");
        for k in 0..100u32 {
            w.append(&Record::Update {
                key: k,
                value: k as u64 * 7,
            })
            .expect("append");
        }
        w.seal_flush().expect("flush");
        let files = segment_files(&dir).expect("list");
        assert_eq!(files.len(), 1);
        let mut got = Vec::new();
        loop {
            let chunk = read_chunk(&files[0].path, got.len() as u64, 37).expect("chunk");
            if chunk.is_empty() {
                break;
            }
            got.extend_from_slice(&chunk);
        }
        assert_eq!(got, std::fs::read(&files[0].path).expect("read"));
        assert_eq!(got.len() as u64, files[0].len);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_listing_is_oldest_first() {
        let dir = temp_dir("ckpts");
        let meta = CheckpointMeta {
            epoch: 0,
            num_keys: 4,
            segment_keys: 4,
            shard_offsets: vec![0],
        };
        let segs = vec![Arc::new(vec![1u64, 2, 3, 4])];
        for epoch in [5u64, 2, 9] {
            let m = CheckpointMeta {
                epoch,
                ..meta.clone()
            };
            write_checkpoint(&dir, &m, &segs).expect("write");
        }
        let files = checkpoint_files(&dir).expect("list");
        let names: Vec<&str> = files.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "ckpt-00000000000000000002.bin",
                "ckpt-00000000000000000005.bin",
                "ckpt-00000000000000000009.bin"
            ]
        );
        assert!(files.iter().all(|f| f.len > 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_dir_lists_empty_and_read_past_eof_is_empty() {
        let dir = temp_dir("missing");
        assert!(segment_files(&dir).expect("segs").is_empty());
        assert!(checkpoint_files(&dir).expect("ckpts").is_empty());
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("seg-00000001.wal");
        std::fs::write(&path, b"abc").expect("write");
        assert_eq!(read_chunk(&path, 3, 16).expect("eof"), Vec::<u8>::new());
        assert_eq!(read_chunk(&path, 1, 16).expect("tail"), b"bc");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
