//! Durable mode: write-ahead logging and crash recovery for the
//! ingestion pipeline.
//!
//! # On-disk layout
//!
//! ```text
//! data_dir/
//!   commit/seg-*.wal      EpochCommit records, one per applied epoch
//!   shard-000/seg-*.wal   shard 0: Update records + Seal markers
//!   shard-001/seg-*.wal   …one log per shard worker
//!   ckpt-<epoch>.bin      epoch checkpoints (newest two kept)
//! ```
//!
//! Segment and checkpoint files are numbered `<prefix><digits><suffix>`
//! names ([`cobra_wal::SEGMENT_NAME`], [`cobra_wal::CHECKPOINT_NAME`]); a
//! shard directory is `shard-` plus its index zero-padded to three
//! digits. This module is the one owner of the layout. Replication
//! addresses files by their path relative to the data directory, and the
//! three functions it needs live here: [`commit_files`] and
//! [`data_files`] list what a primary ships and what a follower already
//! holds, and [`is_data_file`] is the name check a follower applies to
//! every name a primary sends — true for exactly the names those two
//! listings can return.
//!
//! # Crash-consistency protocol
//!
//! Writes are ordered so that *observable implies durable*:
//!
//! 1. Each shard worker appends an `Update` record per binned tuple and,
//!    on `Seal(e)`, a `Seal` marker followed by a group-commit flush —
//!    **before** it applies the epoch into its own segments and reports
//!    their handles to the accumulator.
//! 2. The accumulator assembles epoch `e`'s aligned wave, then appends
//!    `EpochCommit(e)` to the commit log (flushed per the sync policy)
//!    — **before** publishing the epoch-`e` snapshot.
//!
//! So when any client has observed epoch `e` (via a snapshot or the
//! published-epoch counter), every shard's updates through `e` and the
//! commit record are at least in the OS page cache (killed process loses
//! nothing) and, under [`SyncPolicy::OnSeal`], on stable storage (power
//! loss loses nothing).
//!
//! Recovery inverts the protocol: the commit log defines the committed
//! epoch `E`; the newest valid checkpoint with epoch ≤ `E` seeds the
//! state; each shard's WAL suffix replays *through the shard's binner*
//! from the checkpoint's manifest offset, applying updates epoch by epoch
//! up to and including `Seal(E)`; everything after the last committed
//! seal — a torn tail, a flipped record, or whole uncommitted epochs — is
//! truncated, and the writers resume at the truncation point.

use crate::epoch::{apply_bins, identity_segments, EpochEvent, EpochSink, PublishHook, Segments};
use crate::pipeline::{
    segment_keys, shard_binner, shard_plan, DurableParts, IngestPipeline, StreamConfig,
};
use crate::reducer::Reducer;
use crate::shard::{bin_one, ShardWal};
use cobra_wal::{
    checkpoint_files, gc_checkpoints, latest_checkpoint, numbered_files, parse_numbered, scan,
    segment_files, write_checkpoint, CheckpointMeta, Record, ShipFile, SyncPolicy, WalConfig,
    WalStats, WalValue, WalWriter, CHECKPOINT_NAME, SEGMENT_NAME,
};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Durability knobs for [`IngestPipeline::recover`].
#[derive(Debug, Clone)]
pub struct DurableConfig {
    /// Data directory (created if missing) holding the shard WALs, the
    /// commit log, and the checkpoints.
    pub dir: PathBuf,
    /// WAL sync policy (default [`SyncPolicy::OnSeal`]).
    pub sync: SyncPolicy,
    /// WAL segment rotation threshold in bytes (default 8 MiB).
    pub segment_bytes: u64,
    /// Write a checkpoint every this many committed epochs, plus one at
    /// the graceful-shutdown drain. 0 disables checkpointing (the whole
    /// WAL replays on recovery). Default 8.
    pub checkpoint_every: u64,
}

impl DurableConfig {
    /// Defaults for a data directory at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurableConfig {
            dir: dir.into(),
            sync: SyncPolicy::OnSeal,
            segment_bytes: 8 << 20,
            checkpoint_every: 8,
        }
    }

    /// Sets the sync policy.
    pub fn sync(mut self, sync: SyncPolicy) -> Self {
        self.sync = sync;
        self
    }

    /// Sets the WAL segment rotation threshold.
    pub fn segment_bytes(mut self, bytes: u64) -> Self {
        assert!(bytes > 0, "need a positive segment size");
        self.segment_bytes = bytes;
        self
    }

    /// Sets the checkpoint cadence in epochs (0 = never checkpoint).
    pub fn checkpoint_every(mut self, epochs: u64) -> Self {
        self.checkpoint_every = epochs;
        self
    }
}

/// What a [`recover`](IngestPipeline::recover) found and replayed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Epoch of the checkpoint the state was seeded from (0 = none).
    pub checkpoint_epoch: u64,
    /// The committed epoch the pipeline resumed at (0 = fresh directory).
    pub committed_epoch: u64,
    /// WAL records (updates + markers) replayed past the checkpoint.
    pub replayed_records: u64,
    /// Update tuples re-binned and re-applied during replay.
    pub replayed_tuples: u64,
}

/// The commit log's directory name inside a data directory.
const COMMIT: &str = "commit";

/// Shard directories are `shard-<index>` (see [`shard_name`]).
const SHARD_NAME: (&str, &str) = ("shard-", "");

/// The canonical directory name of shard `shard`: its index zero-padded
/// to three digits.
fn shard_name(shard: u64) -> String {
    format!("shard-{shard:03}")
}

/// The log directory of shard `shard` inside a durable data directory.
fn shard_dir(dir: &Path, shard: usize) -> PathBuf {
    dir.join(shard_name(shard as u64))
}

/// The commit-log directory inside a durable data directory.
fn commit_dir(dir: &Path) -> PathBuf {
    dir.join(COMMIT)
}

/// True for a canonical shard directory name. `shard-7` and `shard-0007`
/// parse as shard 7 but are not its directory.
fn is_shard_name(name: &str) -> bool {
    parse_numbered(name, SHARD_NAME).is_some_and(|shard| name == shard_name(shard))
}

/// Names each file `<sub>/<file name>`, its path relative to the data
/// directory.
fn under(sub: &str, files: Vec<ShipFile>) -> impl Iterator<Item = ShipFile> + '_ {
    files.into_iter().map(move |mut f| {
        f.name = format!("{sub}/{}", f.name);
        f
    })
}

/// The commit log's segments in the data directory `dir`, oldest first,
/// named `commit/seg-…` with their lengths now. A missing directory lists
/// empty.
pub fn commit_files(dir: &Path) -> io::Result<Vec<ShipFile>> {
    Ok(under(COMMIT, segment_files(&commit_dir(dir))?).collect())
}

/// Every other file replication ships from the data directory `dir`,
/// named relative to it with its length now: the shard logs
/// (`shard-NNN/seg-…`), shards ascending and segments oldest first, then
/// the checkpoints (`ckpt-…bin`), oldest first.
///
/// Shard directories are found by scanning for canonical names, never by
/// counting up from 0, so a missing shard directory hides no later one.
pub fn data_files(dir: &Path) -> io::Result<Vec<ShipFile>> {
    let mut out = Vec::new();
    for (shard, path) in numbered_files(dir, SHARD_NAME)? {
        let name = shard_name(shard);
        if path.file_name() == Some(name.as_ref()) {
            out.extend(under(&name, segment_files(&path)?));
        }
    }
    out.extend(checkpoint_files(dir)?);
    Ok(out)
}

/// True for exactly the names [`commit_files`] and [`data_files`] can
/// return: `commit/seg-<digits>.wal`, `shard-NNN/seg-<digits>.wal` with a
/// canonical shard directory, and `ckpt-<digits>.bin`. Absolute paths,
/// `..`, extra separators and every other file are refused.
pub fn is_data_file(name: &str) -> bool {
    match name.split_once('/') {
        None => parse_numbered(name, CHECKPOINT_NAME).is_some(),
        Some((sub, file)) => {
            (sub == COMMIT || is_shard_name(sub)) && parse_numbered(file, SEGMENT_NAME).is_some()
        }
    }
}

impl<R: Reducer> IngestPipeline<R>
where
    R::Value: WalValue,
    R::Acc: WalValue,
{
    /// Opens (or creates) the durable data directory at `durable.dir`,
    /// recovers the committed state, and starts a pipeline that logs
    /// every update to its shard WAL and every applied epoch to the
    /// commit log. A fresh/empty directory starts at epoch 0 with
    /// identity state — `recover` is also the durable constructor.
    ///
    /// Recovery: load the newest valid checkpoint whose epoch does not
    /// exceed the commit log's committed epoch, replay each shard's WAL
    /// suffix through that shard's binner up to the committed epoch, and
    /// truncate everything after the last committed seal. Corrupt WAL
    /// tails and corrupt checkpoints are tolerated (older checkpoints and
    /// longer replays take over); only real I/O failures and geometry
    /// mismatches return `Err` (`InvalidData`): a directory created with a
    /// different `num_keys` or shard count, or one whose checkpoint records
    /// a segment size other than the one this shard plan derives — so a
    /// small key domain's directory whose checkpoint records 1024-key
    /// segments is refused, not migrated.
    ///
    /// # Panics
    ///
    /// Panics on the same zero-value config knobs as
    /// [`new`](IngestPipeline::new).
    pub fn recover(
        num_keys: u32,
        reducer: R,
        cfg: StreamConfig,
        durable: DurableConfig,
    ) -> io::Result<(Self, RecoveryReport)> {
        Self::recover_with_hook(num_keys, reducer, cfg, durable, None)
    }

    /// [`recover`](Self::recover) plus an optional [`PublishHook`] — the
    /// durable counterpart of
    /// [`with_publish_hook`](IngestPipeline::with_publish_hook). The hook
    /// fires for epochs published after recovery; the recovered snapshot
    /// itself is available through [`snapshot`](IngestPipeline::snapshot)
    /// for the caller to seed its retention window.
    pub fn recover_with_hook(
        num_keys: u32,
        reducer: R,
        cfg: StreamConfig,
        durable: DurableConfig,
        publish_hook: Option<PublishHook<R::Acc>>,
    ) -> io::Result<(Self, RecoveryReport)> {
        assert!(num_keys > 0, "need at least one key");
        assert!(cfg.shards > 0, "need at least one shard");
        std::fs::create_dir_all(&durable.dir)?;
        let (_, ranges) = shard_plan(num_keys, cfg.shards);
        let segment_keys = segment_keys(&ranges);
        let num_shards = ranges.len();
        let wal_stats = Arc::new(WalStats::default());

        // Phase 1 — the commit log defines the committed epoch: the
        // largest EpochCommit in its valid prefix.
        let mut committed = 0u64;
        let commit_outcome = scan(&commit_dir(&durable.dir), 0, |_, rec| {
            if let Record::EpochCommit { epoch } = rec {
                if epoch > committed {
                    committed = epoch;
                }
            }
            true
        })?;

        // Phase 2 — seed state from the newest usable checkpoint. A
        // checkpoint newer than the committed epoch would contain state no
        // observer was ever promised; `latest_checkpoint` skips those and
        // any corrupt files.
        let ckpt = latest_checkpoint::<R::Acc>(&durable.dir, committed)?;
        let (checkpoint_epoch, mut offsets, handles) = match ckpt {
            Some(c) => {
                if c.meta.num_keys != num_keys
                    || c.meta.segment_keys != segment_keys
                    || c.meta.shard_offsets.len() != num_shards
                {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "checkpoint geometry ({} keys, {} segment keys, {} shards) does not \
                             match the pipeline ({num_keys}, {segment_keys}, {num_shards})",
                            c.meta.num_keys,
                            c.meta.segment_keys,
                            c.meta.shard_offsets.len()
                        ),
                    ));
                }
                (c.meta.epoch, c.meta.shard_offsets, c.segments)
            }
            None => (
                0,
                vec![0u64; num_shards],
                identity_segments(&reducer, num_keys, segment_keys),
            ),
        };

        // Recovery replays every shard into the one whole state.
        let mut state = Segments {
            first: 0,
            segment_keys,
            handles,
            spares: Vec::new(),
        };

        // Phase 3 — replay each shard's WAL suffix through a binner (the
        // same `bin_run` → `apply_bins` path live tuples take, one record
        // per `bin_one` run, with the same locality win: replay writes are
        // bin-local, not key-random).
        // Epochs apply wholesale at their Seal marker; the scan stops
        // *before* the first record past the committed epoch, so opening
        // the writer at the scan end truncates the uncommitted tail.
        let mut replayed_records = 0u64;
        let mut replayed_tuples = 0u64;
        let mut shard_wals = Vec::with_capacity(num_shards);
        for (s, range) in ranges.iter().enumerate() {
            let mut binner = shard_binner(&ranges, s);
            let sdir = shard_dir(&durable.dir, s);
            let mut done = checkpoint_epoch >= committed;
            let mut tuples_here = 0u64;
            let outcome = scan(&sdir, offsets[s], |_, rec| {
                if done {
                    return false;
                }
                match rec {
                    Record::Update { key, value } => {
                        // Out-of-range keys mean the log belongs to a
                        // different geometry; skip rather than corrupt a
                        // neighboring shard's slot.
                        if key >= range.start && key < range.end {
                            let value = R::Value::from_word(value);
                            bin_one(&reducer, &mut binner, key - range.start, value);
                            tuples_here += 1;
                        }
                        true
                    }
                    Record::Seal { epoch } => {
                        if epoch <= committed {
                            let bins = binner.take_bins();
                            apply_bins(&reducer, &bins, None, range.start, &mut state);
                            if epoch == committed {
                                done = true;
                            }
                            true
                        } else {
                            // An uncommitted epoch boundary: truncate here.
                            false
                        }
                    }
                    // Commit records never appear in shard logs; tolerate.
                    Record::EpochCommit { .. } => true,
                }
            })?;
            replayed_records += outcome.records;
            replayed_tuples += tuples_here;
            // Tuples staged past the last committed seal (a torn epoch)
            // are uncommitted and die with the binner; the worker bins
            // live tuples into a fresh one, so its counters count only
            // them.
            offsets[s] = outcome.end.logical;
            let wcfg = WalConfig::new(&sdir)
                .sync(durable.sync)
                .segment_bytes(durable.segment_bytes);
            let writer = WalWriter::open(wcfg, Arc::clone(&wal_stats), outcome.end)?;
            shard_wals.push(ShardWal {
                writer,
                to_word: <R::Value as WalValue>::to_word,
                stats: Arc::clone(&wal_stats),
                failed: false,
            });
        }

        // Phase 4 — resume the commit log and build the epoch sink: the
        // accumulator fires it after applying each aligned wave and
        // before publishing (commit-before-publish).
        let commit_cfg = WalConfig::new(commit_dir(&durable.dir))
            .sync(durable.sync)
            .segment_bytes(durable.segment_bytes);
        let mut commit_writer =
            WalWriter::open(commit_cfg, Arc::clone(&wal_stats), commit_outcome.end)?;
        let sink_dir = durable.dir.clone();
        let checkpoint_every = durable.checkpoint_every;
        let sink_stats = Arc::clone(&wal_stats);
        let committed_counter = Arc::new(AtomicU64::new(committed));
        let sink_committed = Arc::clone(&committed_counter);
        let mut sink_failed = false;
        let epoch_sink: EpochSink<R::Acc> = Box::new(move |ev: EpochEvent<'_, R::Acc>| {
            if sink_failed {
                return;
            }
            let wrote = commit_writer
                .append(&Record::EpochCommit { epoch: ev.epoch })
                .and_then(|()| commit_writer.seal_flush().map(|_| ()));
            if wrote.is_err() {
                // Degrade rather than wedge the accumulator: snapshots
                // keep publishing, durability stops advancing, and the
                // error surfaces through the stats counter.
                sink_failed = true;
                sink_stats.note_io_error();
                return;
            }
            // ordering: Relaxed — audited: monotonic progress counter,
            // stored on the accumulator thread before its Release store
            // of the published count, so a reader that Acquire-loads
            // `published_epoch() >= e` sees this reach `e` too. A reader
            // acting on "epoch e is committed" fetches the state through
            // the publish mutex or recovers it from the commit log.
            sink_committed.store(ev.epoch, Ordering::Relaxed);
            let due = checkpoint_every > 0 && (ev.drain || ev.epoch % checkpoint_every == 0);
            if due {
                let meta = CheckpointMeta {
                    epoch: ev.epoch,
                    num_keys,
                    segment_keys,
                    shard_offsets: ev.shard_offsets.to_vec(),
                };
                // The event borrows the accumulator's Arc'd segments, so
                // serialization needs no deep copy of the state.
                match write_checkpoint(&sink_dir, &meta, ev.state) {
                    Ok(_) => {
                        let _ = gc_checkpoints(&sink_dir, 2);
                    }
                    Err(_) => sink_stats.note_io_error(),
                }
            }
        });

        let report = RecoveryReport {
            checkpoint_epoch,
            committed_epoch: committed,
            replayed_records,
            replayed_tuples,
        };
        let parts = DurableParts {
            shard_wals,
            initial_epoch: committed,
            initial_state: state.handles,
            initial_offsets: offsets,
            epoch_sink,
            committed: committed_counter,
            wal_stats,
            replayed_records,
        };
        Ok((
            Self::build(num_keys, reducer, cfg, Some(parts), publish_hook),
            report,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_allowlist_refuses_traversal() {
        for good in [
            "ckpt-00000000000000000003.bin",
            "commit/seg-00000000.wal",
            "shard-007/seg-00000012.wal",
        ] {
            assert!(is_data_file(good), "{good:?} should be allowed");
        }
        for bad in [
            "",
            "..",
            "../x",
            "a/../b",
            "/etc/passwd",
            "a/b/c",
            "shard-000/",
            "/seg-0.wal",
            "a\\b",
            "seg\0.wal",
            "shard-000/..",
            // Accepted by the follower's old character allowlist, but no
            // listing can produce them.
            "foo/bar",
            "evil.txt",
            "commit/x.wal",
            "shard-7/seg-00000001.wal",
            "shard-000/ckpt-00000000000000000001.bin",
            "seg-00000001.wal",
            "ckpt-00000000000000000001.tmp",
            "commit/seg-99999999999999999999.wal",
            // `u64::from_str` takes a sign; a numbered name does not.
            "commit/seg-+0000001.wal",
        ] {
            assert!(!is_data_file(bad), "{bad:?} must be refused");
        }
    }

    #[test]
    fn shard_directories_are_found_by_scanning_not_counting() {
        let dir = std::env::temp_dir().join(format!("cobra-durable-layout-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Shard 1 is missing; shard 2 must still be listed. Non-canonical
        // and foreign entries are not.
        for sub in ["shard-000", "shard-002", "shard-7", "shard-0003", "other"] {
            std::fs::create_dir_all(dir.join(sub)).unwrap();
            std::fs::write(dir.join(sub).join("seg-00000001.wal"), b"x").unwrap();
        }
        std::fs::create_dir_all(dir.join(COMMIT)).unwrap();
        std::fs::write(dir.join("commit/seg-00000001.wal"), b"ab").unwrap();
        std::fs::write(dir.join("ckpt-00000000000000000002.bin"), b"abc").unwrap();
        std::fs::write(dir.join("ckpt-00000000000000000002.tmp"), b"tmp").unwrap();
        let names = |files: Vec<ShipFile>| -> Vec<(String, u64)> {
            files.into_iter().map(|f| (f.name, f.len)).collect()
        };
        assert_eq!(
            names(commit_files(&dir).unwrap()),
            [("commit/seg-00000001.wal".to_string(), 2)]
        );
        let data = names(data_files(&dir).unwrap());
        assert_eq!(
            data,
            [
                ("shard-000/seg-00000001.wal".to_string(), 1),
                ("shard-002/seg-00000001.wal".to_string(), 1),
                ("ckpt-00000000000000000002.bin".to_string(), 3),
            ]
        );
        assert!(data.iter().all(|(name, _)| is_data_file(name)));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
