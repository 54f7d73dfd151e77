//! Epoch checkpoints: a point-in-time serialization of the accumulator's
//! copy-on-write segments plus the manifest needed to resume the WAL.
//!
//! A checkpoint file (`ckpt-<epoch>.bin`) holds, in order: a magic tag, the
//! manifest (`epoch`, key geometry, per-shard WAL resume offsets), the
//! value segments (each a `u32` count followed by that many `u64` words),
//! and a trailing CRC32 over everything before it. The file is written to
//! a temp name and published with an atomic rename, so a crash mid-write
//! can only ever leave a stale temp file — never a half-valid checkpoint.
//!
//! Because the accumulator's segments are immutable `Arc<Vec<A>>`s, the
//! writer serializes straight out of the shared segment storage: no deep
//! copy of the state precedes the write.

use crate::crc32::Crc32;
use crate::log::numbered_files;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Magic bytes identifying a COBRA checkpoint, version 1.
const MAGIC: &[u8; 8] = b"CBRWCKP1";

/// Upper bound on checkpoint file size accepted by the reader (manifest
/// plus `num_keys` words plus slack); larger files are corrupt.
const MAX_FILE_BYTES: u64 = 1 << 32;

/// Values that can live in a WAL record or checkpoint: anything with a
/// lossless round-trip through a 64-bit word. Implemented for the
/// reducer value/accumulator types the durable pipeline supports.
pub trait WalValue: Copy + Send + Sync + 'static {
    /// Widens the value to a word.
    fn to_word(self) -> u64;
    /// Recovers the value from a word.
    fn from_word(word: u64) -> Self;
}

impl WalValue for u64 {
    fn to_word(self) -> u64 {
        self
    }
    fn from_word(word: u64) -> Self {
        word
    }
}

impl WalValue for u32 {
    fn to_word(self) -> u64 {
        self as u64
    }
    fn from_word(word: u64) -> Self {
        word as u32
    }
}

impl WalValue for i64 {
    fn to_word(self) -> u64 {
        self as u64
    }
    fn from_word(word: u64) -> Self {
        word as i64
    }
}

impl WalValue for f64 {
    fn to_word(self) -> u64 {
        self.to_bits()
    }
    fn from_word(word: u64) -> Self {
        f64::from_bits(word)
    }
}

impl WalValue for () {
    fn to_word(self) -> u64 {
        0
    }
    fn from_word(_: u64) -> Self {}
}

/// The checkpoint manifest: which epoch the segments reflect and where
/// each shard's WAL replay should resume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointMeta {
    /// The committed epoch this checkpoint captures.
    pub epoch: u64,
    /// Total key count (must match the pipeline's).
    pub num_keys: u32,
    /// Keys per segment (must match the pipeline's snapshot geometry).
    pub segment_keys: u32,
    /// Per-shard logical WAL offsets: replay each shard's log from its
    /// offset to roll forward past this checkpoint.
    pub shard_offsets: Vec<u64>,
}

/// A decoded checkpoint: manifest plus the value segments, already in the
/// `Arc`'d form the accumulator uses.
#[derive(Debug, Clone)]
pub struct Checkpoint<A> {
    /// The manifest.
    pub meta: CheckpointMeta,
    /// Value segments, in key order.
    pub segments: Vec<Arc<Vec<A>>>,
}

/// How checkpoint files are named: `ckpt-<epoch>.bin`, the epoch
/// zero-padded to 20 digits (see [`parse_numbered`](crate::parse_numbered)).
pub const CHECKPOINT_NAME: (&str, &str) = ("ckpt-", ".bin");

/// A checkpoint's temp file before its atomic rename.
const TEMP_NAME: (&str, &str) = ("ckpt-", ".tmp");

fn checkpoint_path(dir: &Path, epoch: u64) -> PathBuf {
    let (prefix, suffix) = CHECKPOINT_NAME;
    dir.join(format!("{prefix}{epoch:020}{suffix}"))
}

/// Checkpoint files in `dir` as `(epoch, path)`, sorted by epoch
/// descending (newest first). Non-checkpoint files are ignored.
pub(crate) fn list_checkpoints(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = numbered_files(dir, CHECKPOINT_NAME)?;
    out.reverse();
    Ok(out)
}

/// Serializes `meta` + `segments` to `ckpt-<epoch>.bin` in `dir` via a
/// temp file and atomic rename. Returns the checkpoint size in bytes.
pub fn write_checkpoint<A: WalValue>(
    dir: &Path,
    meta: &CheckpointMeta,
    segments: &[Arc<Vec<A>>],
) -> io::Result<u64> {
    fs::create_dir_all(dir)?;
    let mut body = Vec::with_capacity(
        MAGIC.len()
            + 8
            + 4
            + 4
            + 4
            + 4
            + meta.shard_offsets.len() * 8
            + segments.iter().map(|s| 4 + s.len() * 8).sum::<usize>()
            + 4,
    );
    body.extend_from_slice(MAGIC);
    body.extend_from_slice(&meta.epoch.to_le_bytes());
    body.extend_from_slice(&meta.num_keys.to_le_bytes());
    body.extend_from_slice(&meta.segment_keys.to_le_bytes());
    body.extend_from_slice(&(meta.shard_offsets.len() as u32).to_le_bytes());
    body.extend_from_slice(&(segments.len() as u32).to_le_bytes());
    for &off in &meta.shard_offsets {
        body.extend_from_slice(&off.to_le_bytes());
    }
    for seg in segments {
        body.extend_from_slice(&(seg.len() as u32).to_le_bytes());
        for &v in seg.iter() {
            body.extend_from_slice(&v.to_word().to_le_bytes());
        }
    }
    let mut crc = Crc32::new();
    crc.update(&body);
    body.extend_from_slice(&crc.finish().to_le_bytes());

    let path = checkpoint_path(dir, meta.epoch);
    let (prefix, suffix) = TEMP_NAME;
    let tmp = dir.join(format!("{prefix}{:020}{suffix}", meta.epoch));
    {
        let mut f = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&tmp)?;
        f.write_all(&body)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, &path)?;
    // Best-effort directory sync so the rename itself is durable; some
    // filesystems refuse fsync on directories, which is not fatal.
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(body.len() as u64)
}

/// Total little-endian cursor over a checkpoint body.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    fn u32(&mut self) -> Option<u32> {
        let b = self.take(4)?;
        Some(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Option<u64> {
        let b = self.take(8)?;
        Some(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("checkpoint: {msg}"))
}

/// Reads and validates one checkpoint file. Any structural problem —
/// short file, bad magic, CRC mismatch, inconsistent geometry — is
/// reported as [`io::ErrorKind::InvalidData`].
pub fn read_checkpoint<A: WalValue>(path: &Path) -> io::Result<Checkpoint<A>> {
    let mut f = File::open(path)?;
    let file_len = f.metadata()?.len();
    if file_len > MAX_FILE_BYTES {
        return Err(invalid("file too large"));
    }
    let mut bytes = Vec::with_capacity(file_len as usize);
    f.read_to_end(&mut bytes)?;
    if bytes.len() < MAGIC.len() + 4 {
        return Err(invalid("short file"));
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 4);
    let want_crc = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
    let mut crc = Crc32::new();
    crc.update(body);
    if crc.finish() != want_crc {
        return Err(invalid("crc mismatch"));
    }
    let mut cur = Cursor { buf: body, pos: 0 };
    if cur.take(MAGIC.len()) != Some(MAGIC.as_slice()) {
        return Err(invalid("bad magic"));
    }
    let epoch = cur.u64().ok_or_else(|| invalid("short manifest"))?;
    let num_keys = cur.u32().ok_or_else(|| invalid("short manifest"))?;
    let segment_keys = cur.u32().ok_or_else(|| invalid("short manifest"))?;
    let num_shards = cur.u32().ok_or_else(|| invalid("short manifest"))? as usize;
    let num_segments = cur.u32().ok_or_else(|| invalid("short manifest"))? as usize;
    if segment_keys == 0 {
        return Err(invalid("zero segment size"));
    }
    if num_segments != (num_keys as usize).div_ceil(segment_keys as usize) {
        return Err(invalid("segment count does not match key geometry"));
    }
    let mut shard_offsets = Vec::with_capacity(num_shards.min(1 << 16));
    for _ in 0..num_shards {
        shard_offsets.push(cur.u64().ok_or_else(|| invalid("short shard offsets"))?);
    }
    let mut segments = Vec::with_capacity(num_segments);
    let mut keys_seen = 0usize;
    for i in 0..num_segments {
        let count = cur.u32().ok_or_else(|| invalid("short segment header"))? as usize;
        if count > segment_keys as usize {
            return Err(invalid("segment larger than geometry allows"));
        }
        let mut seg = Vec::with_capacity(count);
        for _ in 0..count {
            seg.push(A::from_word(
                cur.u64().ok_or_else(|| invalid("short segment body"))?,
            ));
        }
        keys_seen += count;
        // All segments but the last must be full.
        if i + 1 < num_segments && count != segment_keys as usize {
            return Err(invalid("non-final segment not full"));
        }
        segments.push(Arc::new(seg));
    }
    if keys_seen != num_keys as usize {
        return Err(invalid("key count does not match segments"));
    }
    if cur.pos != body.len() {
        return Err(invalid("trailing garbage"));
    }
    Ok(Checkpoint {
        meta: CheckpointMeta {
            epoch,
            num_keys,
            segment_keys,
            shard_offsets,
        },
        segments,
    })
}

/// Loads the newest valid checkpoint with epoch ≤ `max_epoch`, skipping
/// over corrupt or unreadable files (recovery must survive a bad
/// checkpoint by falling back to an older one or to empty state).
pub fn latest_checkpoint<A: WalValue>(
    dir: &Path,
    max_epoch: u64,
) -> io::Result<Option<Checkpoint<A>>> {
    for (epoch, path) in list_checkpoints(dir)? {
        if epoch > max_epoch {
            continue;
        }
        if let Ok(ckpt) = read_checkpoint::<A>(&path) {
            if ckpt.meta.epoch == epoch {
                return Ok(Some(ckpt));
            }
        }
    }
    Ok(None)
}

/// Removes all but the newest `keep` checkpoint files (and any stale temp
/// files from interrupted writes).
pub fn gc_checkpoints(dir: &Path, keep: usize) -> io::Result<()> {
    for (_, path) in list_checkpoints(dir)?.into_iter().skip(keep) {
        fs::remove_file(&path)?;
    }
    for (_, path) in numbered_files(dir, TEMP_NAME)? {
        fs::remove_file(&path)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        // ordering: Relaxed — test-only unique-directory counter.
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("cobra-wal-ckpt-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample() -> (CheckpointMeta, Vec<Arc<Vec<u64>>>) {
        let meta = CheckpointMeta {
            epoch: 7,
            num_keys: 10,
            segment_keys: 4,
            shard_offsets: vec![96, 120],
        };
        let segments = vec![
            Arc::new(vec![1u64, 2, 3, 4]),
            Arc::new(vec![5, 6, 7, 8]),
            Arc::new(vec![9, 10]),
        ];
        (meta, segments)
    }

    #[test]
    fn write_read_roundtrip() {
        let dir = temp_dir("roundtrip");
        let (meta, segments) = sample();
        let bytes = write_checkpoint(&dir, &meta, &segments).expect("write");
        assert!(bytes > 0);
        let ckpt = latest_checkpoint::<u64>(&dir, u64::MAX)
            .expect("read")
            .expect("some");
        assert_eq!(ckpt.meta, meta);
        assert_eq!(ckpt.segments.len(), 3);
        for (a, b) in ckpt.segments.iter().zip(&segments) {
            assert_eq!(a.as_slice(), b.as_slice());
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checkpoint_is_skipped_in_favor_of_older() {
        let dir = temp_dir("skip");
        let (meta, segments) = sample();
        write_checkpoint(&dir, &meta, &segments).expect("write old");
        let newer = CheckpointMeta {
            epoch: 9,
            ..meta.clone()
        };
        write_checkpoint(&dir, &newer, &segments).expect("write new");
        // Flip a byte in the newer checkpoint.
        let path = checkpoint_path(&dir, 9);
        let mut bytes = fs::read(&path).expect("read");
        bytes[20] ^= 0xFF;
        fs::write(&path, bytes).expect("corrupt");
        let ckpt = latest_checkpoint::<u64>(&dir, u64::MAX)
            .expect("read")
            .expect("some");
        assert_eq!(ckpt.meta.epoch, 7);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn max_epoch_bound_ignores_newer_checkpoints() {
        let dir = temp_dir("bound");
        let (meta, segments) = sample();
        write_checkpoint(&dir, &meta, &segments).expect("write 7");
        let newer = CheckpointMeta {
            epoch: 12,
            ..meta.clone()
        };
        write_checkpoint(&dir, &newer, &segments).expect("write 12");
        let ckpt = latest_checkpoint::<u64>(&dir, 10)
            .expect("read")
            .expect("some");
        assert_eq!(ckpt.meta.epoch, 7);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_keeps_the_newest() {
        let dir = temp_dir("gc");
        let (meta, segments) = sample();
        for epoch in [1u64, 2, 3, 4] {
            let m = CheckpointMeta {
                epoch,
                ..meta.clone()
            };
            write_checkpoint(&dir, &m, &segments).expect("write");
        }
        gc_checkpoints(&dir, 2).expect("gc");
        let left = list_checkpoints(&dir).expect("list");
        assert_eq!(left.iter().map(|&(e, _)| e).collect::<Vec<_>>(), [4, 3]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_file_is_invalid_data() {
        let dir = temp_dir("trunc");
        let (meta, segments) = sample();
        write_checkpoint(&dir, &meta, &segments).expect("write");
        let path = checkpoint_path(&dir, 7);
        let bytes = fs::read(&path).expect("read");
        fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate");
        let err = read_checkpoint::<u64>(&path).expect_err("should fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(latest_checkpoint::<u64>(&dir, u64::MAX)
            .expect("scan")
            .is_none());
        let _ = fs::remove_dir_all(&dir);
    }
}
