//! A blocking client for the COBRA wire protocol.
//!
//! [`ServeClient`] is deliberately minimal: one TCP connection, and every
//! call a frame round-trip except [`update_all`]'s window and the raw
//! [`send_update`] / [`recv_update`] pair. The benchmark and tests drive
//! many of these from separate threads; a connection-pooling client
//! would only obscure what the server is being measured on. Replies are
//! read through the server's own incremental decoder, [`FrameBuf`], so
//! client and server share one framing path.
//!
//! The server never refuses an `UPDATE` for load (a full shard FIFO
//! stalls it instead), so every acknowledgement covers its whole batch
//! and the client has nothing to retry.
//!
//! [`update_all`] **pipelines**: it keeps
//! [`DEFAULT_PIPELINE_WINDOW`] `UPDATE` frames in flight and reads
//! acknowledgements as they come back, so one connection can fill a
//! whole admission batch instead of paying a round-trip per chunk. The
//! raw window primitives ([`send_update`] / [`recv_update`]) are public
//! for open-loop load generators.
//!
//! [`update_all`]: ServeClient::update_all
//! [`send_update`]: ServeClient::send_update
//! [`recv_update`]: ServeClient::recv_update

use crate::protocol::{self, ErrorCode, Frame, FrameBuf, WireError, WireStats, MAX_UPDATE_TUPLES};
use std::collections::VecDeque;
use std::fmt;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};

/// Number of `UPDATE` frames [`ServeClient::update_all`] keeps in flight
/// before reading the first acknowledgement.
pub const DEFAULT_PIPELINE_WINDOW: usize = 16;

/// Everything that can go wrong on a client call.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(io::Error),
    /// The server sent bytes that do not decode as a frame.
    Wire(WireError),
    /// The server answered with an explicit `Error` frame.
    Server {
        /// Machine-readable reason.
        code: ErrorCode,
        /// Human-readable context from the server.
        detail: String,
    },
    /// The server closed the connection mid-conversation.
    Disconnected,
    /// The server answered with a frame kind that does not match the
    /// request (protocol bug, not an I/O condition).
    Unexpected(&'static str),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Wire(e) => write!(f, "undecodable response: {e}"),
            ClientError::Server { code, detail } => {
                write!(f, "server error {code:?}: {detail}")
            }
            ClientError::Disconnected => write!(f, "server closed the connection"),
            ClientError::Unexpected(what) => write!(f, "unexpected response frame: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// One blocking connection to a [`Server`](crate::Server).
pub struct ServeClient {
    stream: TcpStream,
    /// Bytes read but not yet taken: one read may carry the start of the
    /// next frame.
    inbox: FrameBuf,
    scratch: Vec<u8>,
}

impl ServeClient {
    /// Connects to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<ServeClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(ServeClient {
            stream,
            inbox: FrameBuf::new(),
            scratch: Vec::new(),
        })
    }

    /// A second handle on this connection's socket, for another thread to
    /// [`shutdown`](TcpStream::shutdown): a call blocked on a reply (a
    /// [`wait_epoch`](Self::wait_epoch), say) then fails with
    /// [`ClientError::Disconnected`].
    pub fn try_clone_stream(&self) -> io::Result<TcpStream> {
        self.stream.try_clone()
    }

    fn send(&mut self, request: &Frame) -> Result<(), ClientError> {
        protocol::write_frame(&mut self.stream, request, &mut self.scratch)?;
        Ok(())
    }

    /// Reads the next frame the server sent. Every outcome that is not a
    /// reply for the caller to interpret becomes its [`ClientError`]
    /// here: end of stream, socket failure, undecodable bytes, and the
    /// server's own `Error` frame.
    fn recv(&mut self) -> Result<Frame, ClientError> {
        loop {
            match self.inbox.next_frame().map_err(ClientError::Wire)? {
                Some(Frame::Error { code, detail }) => {
                    return Err(ClientError::Server { code, detail })
                }
                Some(frame) => return Ok(frame),
                None => {}
            }
            match self.inbox.read_from(&mut self.stream) {
                // End of stream inside a frame cuts it; between frames it
                // is a hang-up.
                Ok(0) if self.inbox.has_partial() => {
                    return Err(ClientError::Wire(WireError::Truncated))
                }
                Ok(0) => return Err(ClientError::Disconnected),
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(ClientError::Io(e)),
            }
        }
    }

    /// One request/response round-trip.
    fn call(&mut self, request: &Frame) -> Result<Frame, ClientError> {
        self.send(request)?;
        self.recv()
    }

    /// Sends one `UPDATE` batch and returns how many tuples the server
    /// accepted (the whole batch). Batches larger than
    /// [`MAX_UPDATE_TUPLES`] are refused locally — the server would reject
    /// the frame anyway.
    pub fn update(&mut self, tuples: &[(u32, u64)]) -> Result<u32, ClientError> {
        self.send_update(tuples)?;
        self.recv_update()
    }

    /// Writes one `UPDATE` frame without waiting for its acknowledgement
    /// — the send half of the pipelined window. Every `send_update` must
    /// eventually be paired with a [`recv_update`](Self::recv_update);
    /// responses come back in send order.
    pub fn send_update(&mut self, tuples: &[(u32, u64)]) -> Result<(), ClientError> {
        if tuples.len() > MAX_UPDATE_TUPLES as usize {
            return Err(ClientError::Unexpected(
                "update batch exceeds MAX_UPDATE_TUPLES",
            ));
        }
        self.send(&Frame::Update(tuples.to_vec()))
    }

    /// Reads the acknowledgement for the oldest unacknowledged
    /// [`send_update`](Self::send_update): the number of tuples accepted.
    pub fn recv_update(&mut self) -> Result<u32, ClientError> {
        match self.recv()? {
            Frame::Accepted { accepted } => Ok(accepted),
            _ => Err(ClientError::Unexpected("non-update response to UPDATE")),
        }
    }

    /// Sends a batch to completion, keeping up to
    /// [`DEFAULT_PIPELINE_WINDOW`] chunks on the wire before reading the
    /// first acknowledgement. Returns `Ok(0)`: the count of `BUSY`
    /// acknowledgements it used to absorb, kept only because
    /// `benchmarks/ladder` reads it (`serve.busy_rounds`); the return type
    /// goes with that metric in the next `benchmark` PR (ROADMAP item 1).
    ///
    /// On a server `Error` response the acknowledgements still owed to
    /// the other in-flight chunks are read and discarded before the
    /// error returns, so the connection stays frame-aligned and usable
    /// for later calls. An acknowledgement short of its chunk is a
    /// protocol violation ([`ClientError::Unexpected`]). After an I/O,
    /// wire, disconnect or protocol error the connection state is
    /// unknown — discard the client.
    pub fn update_all(&mut self, tuples: &[(u32, u64)]) -> Result<u64, ClientError> {
        let mut chunks = tuples.chunks(MAX_UPDATE_TUPLES as usize);
        // The lengths of the chunks on the wire, oldest first.
        let mut in_flight = VecDeque::new();
        loop {
            while in_flight.len() < DEFAULT_PIPELINE_WINDOW {
                let Some(chunk) = chunks.next() else {
                    break;
                };
                self.send_update(chunk)?;
                in_flight.push_back(chunk.len());
            }
            let Some(len) = in_flight.pop_front() else {
                return Ok(0);
            };
            match self.recv_update() {
                Ok(accepted) if accepted as usize == len => {}
                Ok(_) => return Err(ClientError::Unexpected("UPDATE accepted in part")),
                Err(err) => {
                    if matches!(err, ClientError::Server { .. }) {
                        // A server Error frame is a well-framed reply to
                        // one chunk; the chunks behind it still get their
                        // own acknowledgements. Drain them so the next
                        // call on this connection reads its own response,
                        // not a stale ack (protocol desync).
                        while in_flight.pop_front().is_some() {
                            match self.recv_update() {
                                // One whole frame consumed either way —
                                // alignment holds, keep draining.
                                Ok(_)
                                | Err(ClientError::Server { .. } | ClientError::Unexpected(_)) => {}
                                // The connection is broken; nothing left
                                // to drain. The first error still wins.
                                Err(_) => break,
                            }
                        }
                    }
                    return Err(err);
                }
            }
        }
    }

    /// Seals the current epoch; returns the sealed epoch number.
    pub fn seal(&mut self) -> Result<u64, ClientError> {
        match self.call(&Frame::Seal)? {
            Frame::Sealed { epoch } => Ok(epoch),
            _ => Err(ClientError::Unexpected("non-sealed response to SEAL")),
        }
    }

    /// Queries one key; returns `(epoch, value)` from the snapshot the
    /// server answered out of.
    pub fn query(&mut self, key: u32) -> Result<(u64, u64), ClientError> {
        match self.call(&Frame::Query { key })? {
            Frame::Value { epoch, value } => Ok((epoch, value)),
            _ => Err(ClientError::Unexpected("non-value response to QUERY")),
        }
    }

    /// Fetches `[lo, hi)` of a published snapshot. `epoch == 0` means
    /// "latest". Returns `(epoch, lo, values)`.
    pub fn snapshot(
        &mut self,
        epoch: u64,
        lo: u32,
        hi: u32,
    ) -> Result<(u64, u32, Vec<u64>), ClientError> {
        match self.call(&Frame::Snapshot { epoch, lo, hi })? {
            Frame::SnapshotSlice { epoch, lo, values } => Ok((epoch, lo, values)),
            _ => Err(ClientError::Unexpected("non-slice response to SNAPSHOT")),
        }
    }

    /// Fetches the server's statistics counters.
    pub fn stats(&mut self) -> Result<WireStats, ClientError> {
        match self.call(&Frame::Stats)? {
            Frame::StatsReport(stats) => Ok(stats),
            _ => Err(ClientError::Unexpected("non-stats response to STATS")),
        }
    }

    /// Blocks until the server has durably committed `epoch` and
    /// published it (the cluster barrier): a snapshot read after this
    /// returns is at `>= epoch`. Returns the server's committed
    /// high-water mark, which is `>= epoch`.
    pub fn wait_epoch(&mut self, epoch: u64) -> Result<u64, ClientError> {
        match self.call(&Frame::WaitEpoch { epoch })? {
            Frame::EpochCommitted { epoch } => Ok(epoch),
            _ => Err(ClientError::Unexpected("non-commit response to WAIT_EPOCH")),
        }
    }

    /// Acknowledges a replication round back to the primary: "this
    /// follower holds everything through `epoch` (`bytes` shipped so
    /// far)". Returns the primary's current committed epoch, which doubles
    /// as the lag signal (`primary - epoch`).
    pub fn ack(&mut self, epoch: u64, bytes: u64) -> Result<u64, ClientError> {
        match self.call(&Frame::Ack { epoch, bytes })? {
            Frame::EpochCommitted { epoch } => Ok(epoch),
            _ => Err(ClientError::Unexpected("non-commit response to ACK")),
        }
    }

    /// Queries one key as of a retained epoch (`epoch == 0` means
    /// "latest"). Returns `(epoch, value)` — the epoch actually served,
    /// which resolves a 0 to the real number. An epoch below the
    /// retention window fails with `ErrorCode::EpochEvicted`.
    pub fn query_at(&mut self, epoch: u64, key: u32) -> Result<(u64, u64), ClientError> {
        match self.call(&Frame::QueryAt { epoch, key })? {
            Frame::Value { epoch, value } => Ok((epoch, value)),
            _ => Err(ClientError::Unexpected("non-value response to QUERY_AT")),
        }
    }

    /// Fetches the changed keys in `[lo, hi)` between two retained epochs
    /// (`to_epoch == 0` means "latest"). Returns
    /// `(from_epoch, to_epoch, entries)` with the epochs resolved and the
    /// entries carrying absolute values at `to_epoch` — applying them is
    /// idempotent.
    pub fn diff(
        &mut self,
        from_epoch: u64,
        to_epoch: u64,
        lo: u32,
        hi: u32,
    ) -> Result<ResolvedDelta, ClientError> {
        let request = Frame::Diff {
            from_epoch,
            to_epoch,
            lo,
            hi,
        };
        match self.call(&request)? {
            Frame::Delta {
                from_epoch,
                to_epoch,
                done: _,
                entries,
            } => Ok((from_epoch, to_epoch, entries)),
            _ => Err(ClientError::Unexpected("non-delta response to DIFF")),
        }
    }

    /// Registers for per-epoch delta pushes over keys `[lo, hi)`, turning
    /// this connection into a [`Subscription`]. The returned
    /// subscription's [`start_epoch`](Subscription::start_epoch) is the
    /// baseline the deltas build on — fetch that state (for example via a
    /// second connection's `snapshot`), then fold every
    /// [`SubEvent::Delta`] on top.
    pub fn subscribe(mut self, lo: u32, hi: u32) -> Result<Subscription, ClientError> {
        match self.call(&Frame::Subscribe { lo, hi })? {
            Frame::Subscribed { epoch } => Ok(Subscription {
                client: self,
                start_epoch: epoch,
            }),
            _ => Err(ClientError::Unexpected(
                "non-subscribed response to SUBSCRIBE",
            )),
        }
    }

    /// Runs one replication round: sends the follower's `manifest` (file
    /// name → bytes already held) and invokes `apply` for every `Segment`
    /// frame the primary streams back. Returns the round's `ReplDone`
    /// summary `(committed_epoch, files, bytes)`.
    pub fn replicate(
        &mut self,
        manifest: Vec<(String, u64)>,
        mut apply: impl FnMut(&str, u64, &[u8]) -> io::Result<()>,
    ) -> Result<(u64, u32, u64), ClientError> {
        self.send(&Frame::Replicate { manifest })?;
        loop {
            match self.recv()? {
                Frame::Segment {
                    name,
                    offset,
                    bytes,
                } => apply(&name, offset, &bytes)?,
                Frame::ReplDone {
                    epoch,
                    files,
                    bytes,
                } => return Ok((epoch, files, bytes)),
                _ => {
                    return Err(ClientError::Unexpected(
                        "non-replication frame in a REPLICATE stream",
                    ))
                }
            }
        }
    }
}

/// A resolved `(from_epoch, to_epoch)` pair plus the changed
/// `(key, absolute value)` entries between them — the payload of a
/// [`ServeClient::diff`] reply and of a reassembled push delta.
type ResolvedDelta = (u64, u64, Vec<(u32, u64)>);

/// One event delivered to a [`Subscription`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubEvent {
    /// One epoch's changed keys in the subscribed range, as absolute
    /// `(key, value at to_epoch)` pairs. Delivery is gap-free:
    /// `to_epoch` is always the epoch after the previous event's, and an
    /// epoch with no changes in range still arrives (with no entries).
    Delta {
        /// The epoch this delta starts from.
        from_epoch: u64,
        /// The epoch the entries' values are absolute at.
        to_epoch: u64,
        /// Sorted `(key, value)` pairs.
        entries: Vec<(u32, u64)>,
    },
    /// The subscriber fell behind and epochs up to and including
    /// `resume_epoch` were dropped from its queue. Deltas resume at
    /// `resume_epoch + 1`; close the gap losslessly with one
    /// [`ServeClient::diff`] from the last applied epoch to
    /// `resume_epoch` on another connection (entries are absolute, so
    /// the re-sync composes with later deltas).
    Lagged {
        /// Newest missed epoch.
        resume_epoch: u64,
    },
}

/// A connection in push mode: blocks on [`next_event`](Self::next_event)
/// (or iteration) for per-epoch deltas, returns to request/response mode
/// via [`unsubscribe`](Self::unsubscribe). A server disconnect surfaces
/// as a typed [`ClientError::Disconnected`], never a hang.
pub struct Subscription {
    client: ServeClient,
    start_epoch: u64,
}

impl Subscription {
    /// The baseline epoch the pushes build on: the first delta's
    /// `from_epoch` equals this (unless a `Lagged` arrives first).
    pub fn start_epoch(&self) -> u64 {
        self.start_epoch
    }

    /// Blocks for the next push. A delta split across several wire
    /// frames (more than `MAX_DELTA_ENTRIES` changes) is reassembled
    /// into one event.
    pub fn next_event(&mut self) -> Result<SubEvent, ClientError> {
        let mut partial: Option<ResolvedDelta> = None;
        loop {
            match self.client.recv()? {
                Frame::Delta {
                    from_epoch,
                    to_epoch,
                    done,
                    entries,
                } => {
                    let (first_from, acc_to, mut acc) =
                        partial.take().unwrap_or((from_epoch, to_epoch, Vec::new()));
                    if acc_to != to_epoch {
                        return Err(ClientError::Unexpected(
                            "delta chunks for different epochs interleaved",
                        ));
                    }
                    acc.extend_from_slice(&entries);
                    if done {
                        return Ok(SubEvent::Delta {
                            from_epoch: first_from,
                            to_epoch,
                            entries: acc,
                        });
                    }
                    partial = Some((first_from, acc_to, acc));
                }
                Frame::Lagged { resume_epoch } => {
                    if partial.is_some() {
                        return Err(ClientError::Unexpected("lag notice inside a chunked delta"));
                    }
                    return Ok(SubEvent::Lagged { resume_epoch });
                }
                _ => {
                    return Err(ClientError::Unexpected(
                        "non-push frame in a subscription stream",
                    ))
                }
            }
        }
    }

    /// Leaves push mode: asks the server to tear the subscription down,
    /// drains the in-flight pushes, and returns the connection (back in
    /// request/response mode) together with the epoch the server
    /// confirmed the teardown at.
    pub fn unsubscribe(mut self) -> Result<(ServeClient, u64), ClientError> {
        self.client.send(&Frame::Unsubscribe)?;
        loop {
            match self.client.recv()? {
                // Pushes already on the wire keep arriving until the
                // server has drained the queue; discard them.
                Frame::Delta { .. } | Frame::Lagged { .. } => continue,
                Frame::Unsubscribed { epoch } => return Ok((self.client, epoch)),
                _ => {
                    return Err(ClientError::Unexpected(
                        "non-push frame while unsubscribing",
                    ))
                }
            }
        }
    }
}

impl Iterator for Subscription {
    type Item = Result<SubEvent, ClientError>;

    /// Blocking iteration over pushes. Ends (returns `None`) when the
    /// server disconnects; any other error is yielded to the caller.
    fn next(&mut self) -> Option<Self::Item> {
        match self.next_event() {
            Err(ClientError::Disconnected) => None,
            event => Some(event),
        }
    }
}
