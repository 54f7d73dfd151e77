//! The segmented append-only log: group-commit writer and total scanner.
//!
//! A log is a directory of fixed-capacity segment files
//! (`seg-00000001.wal`, `seg-00000002.wal`, …). Records never straddle a
//! segment boundary; the *logical offset* of a record is its byte offset
//! in the concatenation of all segments, so `(logical, segment, in-segment
//! offset)` are interconvertible given the segment lengths on disk.
//!
//! The writer buffers encoded records in memory (group commit) and writes
//! them out in one `write(2)` per flush; the [`SyncPolicy`] decides when a
//! flush is also an `fsync`. The scanner is total: torn tails, flipped
//! bytes, and missing segments all terminate the scan at the last valid
//! record instead of panicking.

use crate::record::{decode_at, DecodeStep, Record};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// When appended bytes are forced to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Never `fsync`. Epoch seals still `write(2)` the group-commit buffer
    /// to the OS page cache, so a crashed *process* loses nothing — only
    /// an OS/power failure can drop sealed epochs.
    Never,
    /// `fsync` at every epoch seal: a committed epoch survives OS/power
    /// failure. The default.
    OnSeal,
    /// `fsync` whenever this many bytes have been written since the last
    /// sync (amortized durability for seal-free workloads).
    EveryNBytes(u64),
}

/// Configuration of one segmented log directory.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Directory holding the segment files (created on open).
    pub dir: PathBuf,
    /// Sync policy (default [`SyncPolicy::OnSeal`]).
    pub sync: SyncPolicy,
    /// Segment rotation threshold in bytes (default 8 MiB). A segment is
    /// closed at the first flush that reaches this size.
    pub segment_bytes: u64,
    /// Group-commit buffer capacity in bytes (default 64 KiB): appends
    /// accumulate in memory and are written out when the buffer fills or
    /// at a seal flush.
    pub buffer_bytes: usize,
}

impl WalConfig {
    /// Defaults for a log rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        WalConfig {
            dir: dir.into(),
            sync: SyncPolicy::OnSeal,
            segment_bytes: 8 << 20,
            buffer_bytes: 64 << 10,
        }
    }

    /// Sets the sync policy.
    pub fn sync(mut self, sync: SyncPolicy) -> Self {
        self.sync = sync;
        self
    }

    /// Sets the segment rotation threshold.
    pub fn segment_bytes(mut self, bytes: u64) -> Self {
        assert!(bytes > 0, "need a positive segment size");
        self.segment_bytes = bytes;
        self
    }
}

/// Shared WAL counters, updated by writers and recovery, read by the
/// pipeline stats plumbing.
#[derive(Debug, Default)]
pub struct WalStats {
    bytes_appended: AtomicU64,
    records_appended: AtomicU64,
    fsyncs: AtomicU64,
    segments_created: AtomicU64,
    io_errors: AtomicU64,
}

impl WalStats {
    /// Bytes written to segment files (post-buffer, across all logs
    /// sharing this handle).
    pub fn bytes_appended(&self) -> u64 {
        // ordering: Relaxed throughout — monotonic advisory counters; no
        // payload is transferred through them.
        self.bytes_appended.load(Ordering::Relaxed) // ordering: stats
    }

    /// Records appended (buffered counts immediately).
    pub fn records_appended(&self) -> u64 {
        self.records_appended.load(Ordering::Relaxed) // ordering: stats
    }

    /// `fsync` calls issued.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs.load(Ordering::Relaxed) // ordering: stats
    }

    /// Segment files created (rotations + initial segments).
    pub fn segments_created(&self) -> u64 {
        self.segments_created.load(Ordering::Relaxed) // ordering: stats
    }

    /// I/O errors swallowed by degraded-mode writers.
    pub fn io_errors(&self) -> u64 {
        self.io_errors.load(Ordering::Relaxed) // ordering: stats
    }

    /// Counts one swallowed I/O error (a durable pipeline that keeps
    /// serving after its WAL fails records the failure here).
    pub fn note_io_error(&self) {
        self.io_errors.fetch_add(1, Ordering::Relaxed); // ordering: stats
    }

    fn note_write(&self, bytes: u64) {
        self.bytes_appended.fetch_add(bytes, Ordering::Relaxed); // ordering: stats
    }

    fn note_record(&self) {
        self.records_appended.fetch_add(1, Ordering::Relaxed); // ordering: stats
    }

    fn note_fsync(&self) {
        self.fsyncs.fetch_add(1, Ordering::Relaxed); // ordering: stats
    }

    fn note_segment(&self) {
        self.segments_created.fetch_add(1, Ordering::Relaxed); // ordering: stats
    }
}

/// A position in a segmented log: the logical offset plus its physical
/// `(segment, in-segment length)` decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogPosition {
    /// Byte offset in the concatenation of all segments.
    pub logical: u64,
    /// 1-based index of the segment containing this position.
    pub segment_index: u64,
    /// Byte offset within that segment.
    pub segment_len: u64,
}

impl LogPosition {
    /// The start of an empty log.
    pub fn start() -> Self {
        LogPosition {
            logical: 0,
            segment_index: 1,
            segment_len: 0,
        }
    }
}

/// How segment files are named: `seg-<index>.wal`, the 1-based index
/// zero-padded to 8 digits (see [`parse_numbered`]).
pub const SEGMENT_NAME: (&str, &str) = ("seg-", ".wal");

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    let (prefix, suffix) = SEGMENT_NAME;
    dir.join(format!("{prefix}{index:08}{suffix}"))
}

/// The number in a file name of the form `<prefix><digits><suffix>`:
/// one or more ASCII digits that fit a `u64`. Any other name is `None`.
/// Segments ([`SEGMENT_NAME`]), checkpoints
/// ([`CHECKPOINT_NAME`](crate::CHECKPOINT_NAME)) and checkpoint temp
/// files are all named this way.
pub fn parse_numbered(name: &str, (prefix, suffix): (&str, &str)) -> Option<u64> {
    let digits = name.strip_prefix(prefix)?.strip_suffix(suffix)?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// The entries of `dir` named `<prefix><digits><suffix>` (see
/// [`parse_numbered`]) as `(number, path)`, ascending by number. Other
/// entries are ignored, and a missing directory lists empty.
pub fn numbered_files(dir: &Path, pattern: (&str, &str)) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let Some(n) = name.to_str().and_then(|n| parse_numbered(n, pattern)) else {
            continue;
        };
        out.push((n, entry.path()));
    }
    out.sort_by_key(|&(n, _)| n);
    Ok(out)
}

/// Segment files in `dir`, sorted by index. Non-segment files are ignored.
pub(crate) fn list_segments(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    numbered_files(dir, SEGMENT_NAME)
}

/// Group-commit append writer over a segmented log directory.
pub struct WalWriter {
    cfg: WalConfig,
    stats: Arc<WalStats>,
    file: File,
    segment_index: u64,
    segment_len: u64,
    /// Logical offset of the current segment's first byte.
    base_offset: u64,
    buf: Vec<u8>,
    unsynced: u64,
}

impl std::fmt::Debug for WalWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalWriter")
            .field("dir", &self.cfg.dir)
            .field("segment_index", &self.segment_index)
            .field("logical", &self.logical_offset())
            .finish()
    }
}

impl WalWriter {
    /// Opens the log for appending at `pos`, truncating everything after
    /// it: the segment containing `pos` is cut to length and later
    /// segments are deleted. `pos` normally comes from a [`scan`] — its
    /// end is the last valid record boundary, so opening there drops the
    /// torn/uncommitted tail.
    pub fn open(cfg: WalConfig, stats: Arc<WalStats>, pos: LogPosition) -> io::Result<Self> {
        fs::create_dir_all(&cfg.dir)?;
        for (index, path) in list_segments(&cfg.dir)? {
            if index > pos.segment_index {
                fs::remove_file(&path)?;
            }
        }
        let path = segment_path(&cfg.dir, pos.segment_index);
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        file.set_len(pos.segment_len)?;
        stats.note_segment();
        let buffer_bytes = cfg.buffer_bytes.max(64);
        Ok(WalWriter {
            cfg,
            stats,
            file,
            segment_index: pos.segment_index,
            segment_len: pos.segment_len,
            base_offset: pos.logical - pos.segment_len,
            buf: Vec::with_capacity(buffer_bytes),
            unsynced: 0,
        })
    }

    /// The logical offset one past the last appended record (buffered
    /// records included).
    pub fn logical_offset(&self) -> u64 {
        self.base_offset + self.segment_len + self.buf.len() as u64
    }

    /// Shared counters handle.
    pub fn stats(&self) -> &Arc<WalStats> {
        &self.stats
    }

    /// Buffers one record; writes through when the group-commit buffer
    /// fills. Durability is only guaranteed after [`seal_flush`]
    /// (per the sync policy).
    ///
    /// [`seal_flush`]: Self::seal_flush
    pub fn append(&mut self, record: &Record) -> io::Result<()> {
        record.encode_into(&mut self.buf);
        self.stats.note_record();
        if self.buf.len() >= self.cfg.buffer_bytes {
            self.write_buf()?;
        }
        Ok(())
    }

    /// The group-commit point: writes the buffer to the OS, `fsync`s when
    /// the policy asks for it, and returns the logical offset of the log
    /// end — the value recovery uses as a resume/truncation boundary.
    pub fn seal_flush(&mut self) -> io::Result<u64> {
        self.write_buf()?;
        if matches!(self.cfg.sync, SyncPolicy::OnSeal) {
            self.sync()?;
        }
        Ok(self.logical_offset())
    }

    fn write_buf(&mut self) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        self.file.write_all(&self.buf)?;
        let n = self.buf.len() as u64;
        self.buf.clear();
        self.segment_len += n;
        self.unsynced += n;
        self.stats.note_write(n);
        if let SyncPolicy::EveryNBytes(limit) = self.cfg.sync {
            if self.unsynced >= limit {
                self.sync()?;
            }
        }
        if self.segment_len >= self.cfg.segment_bytes {
            self.rotate()?;
        }
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()?;
        self.unsynced = 0;
        self.stats.note_fsync();
        Ok(())
    }

    fn rotate(&mut self) -> io::Result<()> {
        // Make the finished segment durable before moving on, unless the
        // caller opted out of durability entirely.
        if !matches!(self.cfg.sync, SyncPolicy::Never) {
            self.sync()?;
        }
        self.base_offset += self.segment_len;
        self.segment_index += 1;
        self.segment_len = 0;
        let path = segment_path(&self.cfg.dir, self.segment_index);
        self.file = OpenOptions::new().create(true).append(true).open(&path)?;
        self.file.set_len(0)?;
        self.stats.note_segment();
        Ok(())
    }
}

/// Outcome of a [`scan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanOutcome {
    /// The end of the valid record prefix — the position to resume
    /// appending at (everything after it is torn, corrupt, or was
    /// rejected by the visitor).
    pub end: LogPosition,
    /// Records delivered to the visitor.
    pub records: u64,
    /// `true` when the scan consumed every byte of every segment; `false`
    /// when it stopped early at a torn tail, corruption, a segment-index
    /// gap, or a visitor rejection.
    pub clean: bool,
}

/// Scans the log in `dir`, invoking `visit(logical_offset, record)` for
/// every valid record at logical offset ≥ `from` (records below `from`
/// are decoded for position tracking but not delivered; `from` must be a
/// record boundary, e.g. an offset returned by
/// [`WalWriter::seal_flush`]).
///
/// The visitor returns `true` to continue. Returning `false` stops the
/// scan *before* the offending record: the outcome's `end` is the
/// boundary in front of it, so re-opening the writer there truncates that
/// record and everything after it.
///
/// Corruption is not an error: torn tails, flipped bytes, and missing
/// segments end the scan at the last valid record with `clean == false`.
/// Only real I/O failures return `Err`.
pub fn scan<F>(dir: &Path, from: u64, mut visit: F) -> io::Result<ScanOutcome>
where
    F: FnMut(u64, Record) -> bool,
{
    let segments = list_segments(dir)?;
    let Some(&(first_index, _)) = segments.first() else {
        return Ok(ScanOutcome {
            end: LogPosition::start(),
            records: 0,
            clean: true,
        });
    };
    let mut base = 0u64;
    let mut records = 0u64;
    let mut end = LogPosition {
        logical: 0,
        segment_index: first_index,
        segment_len: 0,
    };
    for (expect, (index, path)) in (first_index..).zip(segments.iter()) {
        if *index != expect {
            // A gap means the tail segments belong to a different lineage;
            // treat the prefix end as the truncation point.
            return Ok(ScanOutcome {
                end,
                records,
                clean: false,
            });
        }
        let bytes = fs::read(path)?;
        let mut pos = 0usize;
        loop {
            match decode_at(&bytes, pos) {
                DecodeStep::Rec(rec, next) => {
                    let logical = base + pos as u64;
                    if logical >= from && !visit(logical, rec) {
                        return Ok(ScanOutcome {
                            end: LogPosition {
                                logical,
                                segment_index: *index,
                                segment_len: pos as u64,
                            },
                            records,
                            clean: true,
                        });
                    }
                    if logical >= from {
                        records += 1;
                    }
                    pos = next;
                }
                DecodeStep::End => break,
                DecodeStep::TornTail | DecodeStep::Corrupt(_) => {
                    return Ok(ScanOutcome {
                        end: LogPosition {
                            logical: base + pos as u64,
                            segment_index: *index,
                            segment_len: pos as u64,
                        },
                        records,
                        clean: false,
                    });
                }
            }
        }
        base += bytes.len() as u64;
        end = LogPosition {
            logical: base,
            segment_index: *index,
            segment_len: bytes.len() as u64,
        };
    }
    Ok(ScanOutcome {
        end,
        records,
        clean: true,
    })
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
            std::env::temp_dir().join(format!("cobra-wal-log-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn collect(dir: &Path, from: u64) -> (Vec<(u64, Record)>, ScanOutcome) {
        let mut out = Vec::new();
        let outcome = scan(dir, from, |off, rec| {
            out.push((off, rec));
            true
        })
        .expect("scan");
        (out, outcome)
    }

    #[test]
    fn append_flush_scan_roundtrip() {
        let dir = temp_dir("roundtrip");
        let stats = Arc::new(WalStats::default());
        let cfg = WalConfig::new(&dir).sync(SyncPolicy::Never);
        let mut w = WalWriter::open(cfg, stats.clone(), LogPosition::start()).expect("open");
        for k in 0..10u32 {
            w.append(&Record::Update {
                key: k,
                value: k as u64 * 3,
            })
            .expect("append");
        }
        w.append(&Record::Seal { epoch: 1 }).expect("append");
        let end = w.seal_flush().expect("flush");
        let (recs, outcome) = collect(&dir, 0);
        assert_eq!(recs.len(), 11);
        assert_eq!(outcome.end.logical, end);
        assert!(outcome.clean);
        assert_eq!(stats.records_appended(), 11);
        assert_eq!(stats.bytes_appended(), end);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_spreads_records_over_segments() {
        let dir = temp_dir("rotate");
        let stats = Arc::new(WalStats::default());
        let cfg = WalConfig::new(&dir)
            .sync(SyncPolicy::Never)
            .segment_bytes(64);
        let mut w = WalWriter::open(cfg, stats.clone(), LogPosition::start()).expect("open");
        for k in 0..40u32 {
            w.append(&Record::Update {
                key: k,
                value: k as u64,
            })
            .expect("append");
            // Flush every record so rotation thresholds are exercised.
            w.seal_flush().expect("flush");
        }
        assert!(stats.segments_created() > 1, "expected rotation");
        let (recs, outcome) = collect(&dir, 0);
        assert_eq!(recs.len(), 40);
        assert!(outcome.clean);
        // Offsets are strictly increasing across segment boundaries.
        for pair in recs.windows(2) {
            assert!(pair[0].0 < pair[1].0);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_at_scan_end_truncates_torn_tail() {
        let dir = temp_dir("truncate");
        let stats = Arc::new(WalStats::default());
        let cfg = WalConfig::new(&dir).sync(SyncPolicy::Never);
        let mut w =
            WalWriter::open(cfg.clone(), stats.clone(), LogPosition::start()).expect("open");
        w.append(&Record::Seal { epoch: 1 }).expect("append");
        let good_end = w.seal_flush().expect("flush");
        drop(w);
        // Simulate a torn write.
        let seg = segment_path(&dir, 1);
        let mut f = OpenOptions::new()
            .append(true)
            .open(&seg)
            .expect("open seg");
        f.write_all(&[0xDE, 0xAD, 0xBE]).expect("torn bytes");
        drop(f);
        let (recs, outcome) = collect(&dir, 0);
        assert_eq!(recs.len(), 1);
        assert!(!outcome.clean);
        assert_eq!(outcome.end.logical, good_end);
        // Re-open at the scan end: the torn bytes are gone and appends
        // continue from the valid prefix.
        let mut w = WalWriter::open(cfg, stats, outcome.end).expect("reopen");
        assert_eq!(w.logical_offset(), good_end);
        w.append(&Record::Seal { epoch: 2 }).expect("append");
        w.seal_flush().expect("flush");
        let (recs, outcome) = collect(&dir, 0);
        assert_eq!(
            recs.iter().map(|&(_, r)| r).collect::<Vec<_>>(),
            [Record::Seal { epoch: 1 }, Record::Seal { epoch: 2 }]
        );
        assert!(outcome.clean);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn visitor_rejection_truncates_before_the_record() {
        let dir = temp_dir("reject");
        let stats = Arc::new(WalStats::default());
        let cfg = WalConfig::new(&dir).sync(SyncPolicy::Never);
        let mut w =
            WalWriter::open(cfg.clone(), stats.clone(), LogPosition::start()).expect("open");
        w.append(&Record::Seal { epoch: 1 }).expect("append");
        let boundary = w.seal_flush().expect("flush");
        w.append(&Record::Update { key: 1, value: 1 })
            .expect("append");
        w.append(&Record::Seal { epoch: 2 }).expect("append");
        w.seal_flush().expect("flush");
        drop(w);
        let outcome = scan(&dir, 0, |_, rec| !matches!(rec, Record::Update { .. })).expect("scan");
        assert_eq!(outcome.end.logical, boundary);
        assert!(outcome.clean);
        assert_eq!(outcome.records, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn scan_from_offset_skips_earlier_records() {
        let dir = temp_dir("from");
        let stats = Arc::new(WalStats::default());
        let cfg = WalConfig::new(&dir).sync(SyncPolicy::Never);
        let mut w = WalWriter::open(cfg, stats, LogPosition::start()).expect("open");
        w.append(&Record::Update { key: 1, value: 1 })
            .expect("append");
        w.append(&Record::Seal { epoch: 1 }).expect("append");
        let mid = w.seal_flush().expect("flush");
        w.append(&Record::Update { key: 2, value: 2 })
            .expect("append");
        w.append(&Record::Seal { epoch: 2 }).expect("append");
        w.seal_flush().expect("flush");
        let (recs, outcome) = collect(&dir, mid);
        assert_eq!(
            recs.iter().map(|&(_, r)| r).collect::<Vec<_>>(),
            [
                Record::Update { key: 2, value: 2 },
                Record::Seal { epoch: 2 }
            ]
        );
        assert_eq!(outcome.records, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_dir_scans_clean() {
        let dir = temp_dir("empty");
        let (recs, outcome) = collect(&dir, 0);
        assert!(recs.is_empty());
        assert_eq!(outcome.end, LogPosition::start());
        assert!(outcome.clean);
    }
}
