//! The client-side cluster tier: key-range routing, per-node batching,
//! and the coordinator-free epoch barrier.
//!
//! [`ClusterRouter`] is Propagation Blocking applied at the network
//! layer. A stream of `(key, value)` updates with no locality is *binned
//! by destination node* into per-node buffers (the C-Buffer-line
//! analogue, one line per backend) and flushed as full `UPDATE` frames —
//! so each backend receives dense, range-local batches instead of a
//! scatter of single tuples, exactly as the paper's binning phase turns
//! DRAM scatter into block-sequential traffic.
//!
//! Epoch alignment needs no coordinator process. The router is the only
//! sealer, so epochs advance in lockstep: [`seal_and_commit`] flushes
//! every buffer, fans `SEAL` out to every node (asserting the returned
//! epoch numbers agree), then holds the barrier — `WAIT_EPOCH(E)` on
//! every node — until each one reports `EpochCommit(E)`. Only then does
//! the call return, so a cluster snapshot taken for epoch `E` can never
//! observe a node that has not durably committed `E`.
//!
//! [`seal_and_commit`]: ClusterRouter::seal_and_commit

use crate::range::RangeMap;
use cobra_serve::protocol::MAX_SNAPSHOT_KEYS;
use cobra_serve::{ClientError, ServeClient, WireStats};
use std::fmt;
use std::time::{Duration, Instant};

/// Everything that can go wrong on a cluster call.
#[derive(Debug)]
pub enum ClusterError {
    /// A node failed (connection refused, dropped mid-call, or an error
    /// frame): the node index, its address, and the underlying failure.
    NodeDown {
        /// Index of the failed node in the router's address list.
        node: usize,
        /// The node's address, for the operator.
        addr: String,
        /// What the client call actually returned.
        source: ClientError,
    },
    /// `SEAL` fan-out returned different epoch numbers — some node was
    /// sealed by another writer, which the single-sealer protocol forbids.
    EpochMisaligned {
        /// Per-node epochs, indexed like the address list.
        epochs: Vec<u64>,
    },
    /// The key is outside the cluster's key space.
    KeyOutOfRange {
        /// The offending key.
        key: u32,
        /// The cluster's key-space size.
        num_keys: u32,
    },
    /// A node failed to publish the awaited epoch before the deadline.
    SnapshotTimeout {
        /// Node that never published.
        node: usize,
        /// The epoch that was awaited.
        epoch: u64,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::NodeDown { node, addr, source } => {
                write!(f, "node {node} ({addr}) is down: {source}")
            }
            ClusterError::EpochMisaligned { epochs } => {
                write!(f, "seal fan-out returned misaligned epochs {epochs:?}")
            }
            ClusterError::KeyOutOfRange { key, num_keys } => {
                write!(f, "key {key} >= cluster key space {num_keys}")
            }
            ClusterError::SnapshotTimeout { node, epoch } => {
                write!(f, "node {node} never published epoch {epoch}")
            }
        }
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClusterError::NodeDown { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// How long [`ClusterRouter::cluster_snapshot`] waits for each node to
/// publish the awaited epoch.
const SNAPSHOT_DEADLINE: Duration = Duration::from_secs(30);

/// Tuning knobs of a [`ClusterRouter`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Tuples buffered per node before the router flushes the buffer as
    /// one `UPDATE` frame (the network C-Buffer line size).
    pub batch_tuples: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig { batch_tuples: 4096 }
    }
}

struct Node {
    addr: String,
    client: ServeClient,
    buf: Vec<(u32, u64)>,
}

/// One client's view of the cluster: a [`RangeMap`], one connection per
/// node, and per-node coalescing buffers.
///
/// A router is single-threaded by design (like [`ServeClient`]); load is
/// scaled by running one router per client thread, all sharing the same
/// address list. Exactly one of them may seal.
pub struct ClusterRouter {
    map: RangeMap,
    nodes: Vec<Node>,
    cfg: ClusterConfig,
}

impl ClusterRouter {
    /// Connects to every backend. Fails fast with a typed
    /// [`ClusterError::NodeDown`] naming the first unreachable node.
    ///
    /// # Panics
    ///
    /// Panics if `addrs` is empty or `cfg.batch_tuples == 0`.
    pub fn connect(
        num_keys: u32,
        addrs: &[String],
        cfg: ClusterConfig,
    ) -> Result<ClusterRouter, ClusterError> {
        assert!(!addrs.is_empty(), "need at least one backend address");
        assert!(cfg.batch_tuples > 0, "need a non-zero batch size");
        let map = RangeMap::new(num_keys, addrs.len());
        assert!(
            map.len() == addrs.len(),
            "key space {num_keys} only supports {} nodes (got {} addresses); \
             shrink the cluster or grow the key space",
            map.len(),
            addrs.len()
        );
        let mut nodes = Vec::with_capacity(addrs.len());
        for (i, addr) in addrs.iter().enumerate() {
            let client =
                ServeClient::connect(addr.as_str()).map_err(|e| ClusterError::NodeDown {
                    node: i,
                    addr: addr.clone(),
                    source: ClientError::Io(e),
                })?;
            nodes.push(Node {
                addr: addr.clone(),
                client,
                buf: Vec::with_capacity(cfg.batch_tuples),
            });
        }
        Ok(ClusterRouter { map, nodes, cfg })
    }

    /// The key partition this router routes over.
    pub fn range_map(&self) -> &RangeMap {
        &self.map
    }

    fn node_err(&self, node: usize, source: ClientError) -> ClusterError {
        ClusterError::NodeDown {
            node,
            addr: self.nodes[node].addr.clone(),
            source,
        }
    }

    fn flush_node(&mut self, n: usize) -> Result<(), ClusterError> {
        if self.nodes[n].buf.is_empty() {
            return Ok(());
        }
        let buf = std::mem::take(&mut self.nodes[n].buf);
        let res = self.nodes[n].client.update_all(&buf);
        self.nodes[n].buf = buf;
        self.nodes[n].buf.clear();
        res.map(|_| ()).map_err(|e| self.node_err(n, e))
    }

    /// Routes one update into its node's buffer, flushing the buffer as a
    /// full `UPDATE` frame when it reaches the configured batch size.
    pub fn send(&mut self, key: u32, value: u64) -> Result<(), ClusterError> {
        let Some(n) = self.map.node_of(key) else {
            return Err(ClusterError::KeyOutOfRange {
                key,
                num_keys: self.map.num_keys(),
            });
        };
        self.nodes[n].buf.push((key, value));
        if self.nodes[n].buf.len() >= self.cfg.batch_tuples {
            self.flush_node(n)?;
        }
        Ok(())
    }

    /// Flushes every node's buffer (partial frames included).
    pub fn flush(&mut self) -> Result<(), ClusterError> {
        for n in 0..self.nodes.len() {
            self.flush_node(n)?;
        }
        Ok(())
    }

    /// The cluster epoch barrier: flush everything, seal every node,
    /// check the epoch numbers agree, then wait until every node reports
    /// the epoch durably committed. Returns the aligned epoch.
    ///
    /// Only after this returns may a cluster snapshot for the epoch be
    /// assembled — that is the "snapshot publishes only after every
    /// node's `EpochCommit`" rule, enforced by construction.
    pub fn seal_and_commit(&mut self) -> Result<u64, ClusterError> {
        self.flush()?;
        let mut epochs = Vec::with_capacity(self.nodes.len());
        for n in 0..self.nodes.len() {
            let epoch = self.nodes[n]
                .client
                .seal()
                .map_err(|e| self.node_err(n, e))?;
            epochs.push(epoch);
        }
        let epoch = epochs[0];
        if epochs.iter().any(|&e| e != epoch) {
            return Err(ClusterError::EpochMisaligned { epochs });
        }
        // The barrier proper: every node must durably commit `epoch`
        // before any caller may treat the cluster epoch as complete.
        for n in 0..self.nodes.len() {
            self.nodes[n]
                .client
                .wait_epoch(epoch)
                .map_err(|e| self.node_err(n, e))?;
        }
        Ok(epoch)
    }

    /// Queries one key on the node owning it; returns `(epoch, value)`.
    pub fn query(&mut self, key: u32) -> Result<(u64, u64), ClusterError> {
        let Some(n) = self.map.node_of(key) else {
            return Err(ClusterError::KeyOutOfRange {
                key,
                num_keys: self.map.num_keys(),
            });
        };
        self.nodes[n]
            .client
            .query(key)
            .map_err(|e| self.node_err(n, e))
    }

    /// Assembles the cluster-wide snapshot for epoch `min_epoch`: each
    /// node's owned range is fetched (in `MAX_SNAPSHOT_KEYS` chunks) from
    /// a published snapshot at `>= min_epoch` and concatenated in key
    /// order. Call after [`seal_and_commit`](Self::seal_and_commit)
    /// returned `min_epoch` — commit precedes publish, so each node's
    /// snapshot arrives after a bounded wait.
    pub fn cluster_snapshot(&mut self, min_epoch: u64) -> Result<Vec<u64>, ClusterError> {
        let mut out = Vec::with_capacity(self.map.num_keys() as usize);
        for (n, range) in self.map.iter().collect::<Vec<_>>() {
            let deadline = Instant::now() + SNAPSHOT_DEADLINE;
            let mut lo = range.start;
            while lo < range.end {
                let hi = range.end.min(lo + MAX_SNAPSHOT_KEYS);
                let (epoch, _, values) = self.nodes[n]
                    .client
                    .snapshot(0, lo, hi)
                    .map_err(|e| self.node_err(n, e))?;
                if epoch < min_epoch {
                    // Committed but not yet published: poll, bounded.
                    if Instant::now() >= deadline {
                        return Err(ClusterError::SnapshotTimeout {
                            node: n,
                            epoch: min_epoch,
                        });
                    }
                    std::thread::sleep(Duration::from_millis(1));
                    continue;
                }
                out.extend_from_slice(&values);
                lo = hi;
            }
        }
        Ok(out)
    }

    /// Fetches every node's server statistics, indexed like the address
    /// list (per-node throughput for the bench harness).
    pub fn stats(&mut self) -> Result<Vec<WireStats>, ClusterError> {
        let mut all = Vec::with_capacity(self.nodes.len());
        for n in 0..self.nodes.len() {
            let s = self.nodes[n]
                .client
                .stats()
                .map_err(|e| self.node_err(n, e))?;
            all.push(s);
        }
        Ok(all)
    }
}
