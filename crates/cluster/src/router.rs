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
use cobra_stream::route::{route, Destinations, Stop};
use std::fmt;

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
}

impl Node {
    /// Runs one client call on node `n`, naming the node in its error.
    fn call<T>(
        &mut self,
        n: usize,
        f: impl FnOnce(&mut ServeClient) -> Result<T, ClientError>,
    ) -> Result<T, ClusterError> {
        f(&mut self.client).map_err(|source| ClusterError::NodeDown {
            node: n,
            addr: self.addr.clone(),
            source,
        })
    }
}

/// The router's destinations for the shared routing body
/// ([`cobra_stream::route`]): one node connection per frame.
struct ToNodes<'a>(&'a mut [Node]);

impl Destinations<u64> for ToNodes<'_> {
    type Frame = Vec<(u32, u64)>;
    type Refusal = ClusterError;

    /// Sends the frame as `UPDATE` frames and empties it, delivered or not.
    fn ship(&mut self, n: usize, buf: &mut Vec<(u32, u64)>) -> Result<(), ClusterError> {
        let sent = self.0[n].call(n, |c| c.update_all(buf));
        buf.clear();
        sent.map(|_| ())
    }
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
    /// One frame per node, indexed like `nodes`.
    bufs: Vec<Vec<(u32, u64)>>,
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
            });
        }
        let bufs = vec![Vec::new(); nodes.len()];
        Ok(ClusterRouter {
            map,
            nodes,
            bufs,
            cfg,
        })
    }

    /// The key partition this router routes over.
    pub fn range_map(&self) -> &RangeMap {
        &self.map
    }

    /// Routes one update into its node's buffer, flushing the buffer as a
    /// full `UPDATE` frame when it reaches the configured batch size: a
    /// one-tuple run of the shared routing body.
    pub fn send(&mut self, key: u32, value: u64) -> Result<(), ClusterError> {
        let (num_keys, shift) = (self.map.num_keys(), self.map.shift());
        let (to, batch) = (&mut ToNodes(&mut self.nodes), self.cfg.batch_tuples);
        let (_, stopped) = route([(key, value)], &mut self.bufs, to, num_keys, shift, batch);
        stopped.map_err(|stop| match stop {
            Stop::KeyOutOfRange(key) => ClusterError::KeyOutOfRange { key, num_keys },
            Stop::Refused(down) => down,
        })
    }

    /// Flushes every node's buffer (partial frames included).
    pub fn flush(&mut self) -> Result<(), ClusterError> {
        let mut to = ToNodes(&mut self.nodes);
        for (n, buf) in self.bufs.iter_mut().enumerate() {
            if !buf.is_empty() {
                to.ship(n, buf)?;
            }
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
        let nodes = self.nodes.iter_mut().enumerate();
        let epochs: Vec<u64> = nodes
            .map(|(n, node)| node.call(n, ServeClient::seal))
            .collect::<Result<_, _>>()?;
        let epoch = epochs[0];
        if epochs.iter().any(|&e| e != epoch) {
            return Err(ClusterError::EpochMisaligned { epochs });
        }
        // The barrier proper: every node must durably commit `epoch`
        // before any caller may treat the cluster epoch as complete.
        for (n, node) in self.nodes.iter_mut().enumerate() {
            node.call(n, |c| c.wait_epoch(epoch))?;
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
        self.nodes[n].call(n, |c| c.query(key))
    }

    /// Assembles the cluster-wide snapshot for epoch `min_epoch`: each
    /// node's owned range is fetched (in `MAX_SNAPSHOT_KEYS` chunks) from
    /// its latest published snapshot and concatenated in key order.
    /// `WAIT_EPOCH(min_epoch)` goes first on each node: it answers once
    /// the epoch is committed and published, so that snapshot is at
    /// `>= min_epoch`, and the call waits as long as a node takes to get
    /// there. Call after [`seal_and_commit`](Self::seal_and_commit)
    /// returned `min_epoch`; the wait is then at most one accumulator
    /// step per node.
    pub fn cluster_snapshot(&mut self, min_epoch: u64) -> Result<Vec<u64>, ClusterError> {
        let mut out = Vec::with_capacity(self.map.num_keys() as usize);
        for (n, range) in self.map.iter().collect::<Vec<_>>() {
            let node = &mut self.nodes[n];
            node.call(n, |c| c.wait_epoch(min_epoch))?;
            for lo in range.clone().step_by(MAX_SNAPSHOT_KEYS as usize) {
                let hi = range.end.min(lo + MAX_SNAPSHOT_KEYS);
                let (_, _, values) = node.call(n, |c| c.snapshot(0, lo, hi))?;
                out.extend_from_slice(&values);
            }
        }
        Ok(out)
    }

    /// Fetches every node's server statistics, indexed like the address
    /// list (per-node throughput for the bench harness).
    pub fn stats(&mut self) -> Result<Vec<WireStats>, ClusterError> {
        let nodes = self.nodes.iter_mut().enumerate();
        nodes
            .map(|(n, node)| node.call(n, ServeClient::stats))
            .collect()
    }
}
