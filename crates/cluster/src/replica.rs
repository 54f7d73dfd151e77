//! WAL-shipping replication, follower side.
//!
//! A follower holds a byte-for-byte copy of the primary's data
//! directory, built by repeated [`sync_round`]s: the follower sends a
//! manifest of the files it already holds (name → length), the primary
//! streams back the missing suffixes, and the follower appends them in
//! place. No replay, no interpretation — the unit of replication is the
//! WAL byte, so every guarantee the recovery path gives a crashed
//! primary transfers verbatim to a promoted follower:
//!
//! * Segments are append-only and a round ships the commit log *last*
//!   (listed on the primary *first*, and shipped only up to its listed
//!   length), so the follower's commit log never leads its shard logs:
//!   observable implies durable, on both machines.
//! * A round that dies mid-stream leaves a torn shard-log tail; recovery
//!   truncates torn tails, exactly as after a primary crash.
//! * Checkpoints are pure acceleration: a torn shipped checkpoint is
//!   skipped by recovery, which falls back to the previous one plus WAL
//!   replay.
//!
//! The follower does not know the layout itself. Its manifest is the
//! same two listings the primary ships from
//! ([`cobra_stream::commit_files`], [`cobra_stream::data_files`]), and
//! every name a primary sends must pass [`cobra_stream::is_data_file`]
//! before it touches the filesystem.
//!
//! Promotion is therefore not a protocol step at all — it is starting a
//! `cobra-served`-style process on the follower's directory and letting
//! ordinary crash recovery run.
//!
//! [`sync_round`]: ReplicaSync::sync_round

use cobra_serve::{ClientError, ServeClient};
use cobra_stream::{commit_files, data_files, is_data_file};
use std::fmt;
use std::fs::{self, OpenOptions};
use std::io::{self, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};

/// Everything that can go wrong in a replication round.
#[derive(Debug)]
pub enum ReplicaError {
    /// Local filesystem failure.
    Io(io::Error),
    /// The connection to the primary failed (the promotion trigger).
    Primary(ClientError),
    /// The primary sent a file name that is not a
    /// `shard-NNN/seg-<digits>.wal`, `commit/seg-<digits>.wal` or
    /// `ckpt-<digits>.bin` path ([`is_data_file`]) — refused before it
    /// touches the filesystem.
    BadName(String),
    /// A `Segment` frame's offset does not continue the local file — the
    /// round is aborted rather than writing a gap.
    OffsetGap {
        /// Offending file.
        name: String,
        /// Local length.
        have: u64,
        /// Offset the primary wrote at.
        offset: u64,
    },
}

impl fmt::Display for ReplicaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplicaError::Io(e) => write!(f, "replica i/o error: {e}"),
            ReplicaError::Primary(e) => write!(f, "primary unreachable: {e}"),
            ReplicaError::BadName(name) => write!(f, "refused unsafe file name {name:?}"),
            ReplicaError::OffsetGap { name, have, offset } => write!(
                f,
                "segment for {name:?} at offset {offset} but local file has {have} bytes"
            ),
        }
    }
}

impl std::error::Error for ReplicaError {}

impl From<io::Error> for ReplicaError {
    fn from(e: io::Error) -> Self {
        ReplicaError::Io(e)
    }
}

/// Summary of one completed replication round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaRound {
    /// Epoch the primary had durably committed when the round started —
    /// after the round, the follower holds everything through it.
    pub epoch: u64,
    /// Files the round touched.
    pub files: u32,
    /// Bytes the round shipped (0 = the follower was already caught up).
    pub bytes: u64,
    /// The primary's committed epoch when it processed the follower's
    /// acknowledgement; `primary_epoch - epoch` is the replication lag.
    pub primary_epoch: u64,
}

/// A follower: one connection to the primary and a local data directory
/// being kept in sync.
pub struct ReplicaSync {
    dir: PathBuf,
    client: ServeClient,
    total_bytes: u64,
    last_epoch: u64,
}

/// The manifest of replicated files the directory already holds: the
/// same two listings the primary ships from.
fn manifest(dir: &Path) -> io::Result<Vec<(String, u64)>> {
    let mut files = commit_files(dir)?;
    files.extend(data_files(dir)?);
    Ok(files.into_iter().map(|f| (f.name, f.len)).collect())
}

impl ReplicaSync {
    /// Connects to the primary and prepares `dir` as the replica copy.
    pub fn connect(primary: &str, dir: impl Into<PathBuf>) -> io::Result<ReplicaSync> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(ReplicaSync {
            dir,
            client: ServeClient::connect(primary)?,
            total_bytes: 0,
            last_epoch: 0,
        })
    }

    /// The replica directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Appends one `Segment` frame to its local file, enforcing the
    /// layout's name check ([`is_data_file`]) and the no-gaps rule.
    fn apply(dir: &Path, name: &str, offset: u64, bytes: &[u8]) -> Result<(), ReplicaError> {
        if !is_data_file(name) {
            return Err(ReplicaError::BadName(name.to_string()));
        }
        let path = dir.join(name);
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let have = file.metadata()?.len();
        if have != offset {
            return Err(ReplicaError::OffsetGap {
                name: name.to_string(),
                have,
                offset,
            });
        }
        let mut file = file;
        file.write_all(bytes)?;
        Ok(())
    }

    /// One manifest → segments → acknowledgement round trip. An already
    /// caught-up follower gets an empty round (`bytes == 0`). Rounds
    /// separated by [`wait_for_next_epoch`](Self::wait_for_next_epoch)
    /// *are* the replication daemon.
    pub fn sync_round(&mut self) -> Result<ReplicaRound, ReplicaError> {
        let manifest = manifest(&self.dir)?;
        let dir = self.dir.clone();
        // An apply error must abort the stream decisively: surfacing it
        // as an I/O error tears the connection down, so a half-applied
        // round is never acknowledged.
        let mut apply_failure = None;
        let result = self.client.replicate(manifest, |name, offset, bytes| {
            match Self::apply(&dir, name, offset, bytes) {
                Ok(()) => Ok(()),
                Err(e) => {
                    let io_err = io::Error::other(e.to_string());
                    apply_failure = Some(e);
                    Err(io_err)
                }
            }
        });
        let (epoch, files, bytes) = match result {
            Ok(done) => done,
            Err(e) => {
                return Err(match apply_failure {
                    Some(local) => local,
                    None => ReplicaError::Primary(e),
                })
            }
        };
        self.total_bytes += bytes;
        self.last_epoch = epoch;
        let primary_epoch = self
            .client
            .ack(epoch, self.total_bytes)
            .map_err(ReplicaError::Primary)?;
        Ok(ReplicaRound {
            epoch,
            files,
            bytes,
            primary_epoch,
        })
    }

    /// Blocks until the primary has committed and published an epoch past
    /// [`last_epoch`](Self::last_epoch) — a `WAIT_EPOCH` on the round's
    /// own connection — and returns the primary's committed epoch. Only
    /// then has a round something new to ship (beyond an uncommitted
    /// tail).
    pub fn wait_for_next_epoch(&mut self) -> Result<u64, ReplicaError> {
        self.client
            .wait_epoch(self.last_epoch + 1)
            .map_err(ReplicaError::Primary)
    }

    /// A handle on the connection to the primary: shutting it down from
    /// another thread ends a blocked
    /// [`wait_for_next_epoch`](Self::wait_for_next_epoch) or round with
    /// [`ReplicaError::Primary`].
    pub fn try_clone_stream(&self) -> io::Result<TcpStream> {
        self.client.try_clone_stream()
    }

    /// The newest epoch a completed round has covered.
    pub fn last_epoch(&self) -> u64 {
        self.last_epoch
    }

    /// Total bytes shipped over this connection.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_serve::{ServeConfig, Server};
    use cobra_stream::{DurableConfig, StreamConfig, SyncPolicy};

    /// A durable primary with 3 shards, rotating segments and two kept
    /// checkpoints: every listed name passes the follower's check, and
    /// `sync_round`s leave the follower holding exactly that listing.
    #[test]
    fn layout_round_trips_through_sync_rounds() {
        let base =
            std::env::temp_dir().join(format!("cobra-replica-layout-{}", std::process::id()));
        let _ = fs::remove_dir_all(&base);
        let (primary_dir, follower_dir) = (base.join("primary"), base.join("follower"));
        let durable = DurableConfig::new(&primary_dir)
            .sync(SyncPolicy::Never)
            .segment_bytes(4096)
            .checkpoint_every(2);
        let server = Server::start(
            3 << 10,
            StreamConfig::new().shards(3),
            ServeConfig::new().durable(durable),
        )
        .expect("start primary");
        let mut client = ServeClient::connect(server.local_addr()).expect("connect");
        // Checkpoints at epochs 2 and 4. The sink writes a checkpoint
        // after the commit `wait_epoch` sees, so epoch 5's commit is what
        // proves the directory quiet.
        for round in 0..5u64 {
            let tuples: Vec<(u32, u64)> = (0..3u32 << 10).map(|k| (k, round + 1)).collect();
            client.update_all(&tuples).expect("update");
            let epoch = client.seal().expect("seal");
            client.wait_epoch(epoch).expect("commit");
        }

        let mut listing = manifest(&primary_dir).expect("list primary");
        assert!(listing.iter().all(|(name, _)| is_data_file(name)));
        let count = |prefix: &str| {
            listing
                .iter()
                .filter(|(n, _)| n.starts_with(prefix))
                .count()
        };
        for shard in ["shard-000/", "shard-001/", "shard-002/"] {
            assert!(count(shard) >= 2, "{shard} did not rotate: {listing:?}");
        }
        assert!(count("commit/") >= 1);
        assert_eq!(count("ckpt-"), 2, "{listing:?}");

        let mut follower =
            ReplicaSync::connect(&server.local_addr().to_string(), &follower_dir).expect("follow");
        let first = follower.sync_round().expect("first round");
        assert!(first.bytes > 0);
        let second = follower.sync_round().expect("second round");
        assert_eq!(second.bytes, 0, "an idle primary has nothing more to ship");
        let mut copy = manifest(&follower_dir).expect("list follower");
        // Rotation opens the next segment before anything is written to
        // it; a file with no bytes has nothing to ship.
        listing.retain(|&(_, len)| len > 0);
        listing.sort();
        copy.sort();
        assert_eq!(copy, listing);
        server.shutdown();
        let _ = fs::remove_dir_all(&base);
    }

    #[test]
    fn apply_enforces_contiguity() {
        let dir = std::env::temp_dir().join(format!("cobra-replica-apply-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        ReplicaSync::apply(&dir, "shard-000/seg-00000000.wal", 0, b"abcd").unwrap();
        ReplicaSync::apply(&dir, "shard-000/seg-00000000.wal", 4, b"efgh").unwrap();
        let err = ReplicaSync::apply(&dir, "shard-000/seg-00000000.wal", 12, b"late").unwrap_err();
        assert!(matches!(
            err,
            ReplicaError::OffsetGap {
                have: 8,
                offset: 12,
                ..
            }
        ));
        assert_eq!(
            fs::read(dir.join("shard-000/seg-00000000.wal")).unwrap(),
            b"abcdefgh"
        );
        let mut m = manifest(&dir).unwrap();
        m.sort();
        assert_eq!(m, vec![("shard-000/seg-00000000.wal".to_string(), 8)]);
        let _ = fs::remove_dir_all(&dir);
    }
}
