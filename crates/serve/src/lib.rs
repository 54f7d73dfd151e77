//! # cobra-serve — a dependency-free network service over cobra-stream
//!
//! This crate turns the [`cobra_stream`] ingest pipeline into a network
//! service using nothing beyond `std::net`:
//!
//! * [`protocol`] — a length-prefixed binary wire protocol (`UPDATE`,
//!   `SEAL`, `QUERY`, `SNAPSHOT`, `STATS`) with total decoders: no byte
//!   sequence a client can send will panic the server.
//! * [`Server`] — a single-threaded epoll/kqueue reactor (via
//!   [`cobra_poll`]) driving non-blocking sockets: per-connection state
//!   machines feed an incremental frame decoder, many requests may be in
//!   flight per connection (pipelining), and every `UPDATE` admitted in
//!   one readiness round coalesces into a single ingest-handle settle —
//!   propagation blocking applied at the network ingress. Backpressure
//!   is never hidden: a full shard FIFO becomes an explicit
//!   `BUSY { accepted }` response (tuple-level admission control), and
//!   the connection cap refuses the connection (connection-level).
//!   Streaming requests (`REPLICATE`, `SUBSCRIBE`) are connection
//!   states of the same reactor: each round stages what fits under the
//!   outbox high-water mark, and a publish wakes the loop through a
//!   self-wake socket. The server runs exactly one thread of its own.
//! * [`S3FifoCache`] — the read path. `QUERY` is answered from cached
//!   `(epoch, block)` slices of published epoch snapshots, evicted with
//!   the S3-FIFO policy (small/main/ghost queues), so skewed query
//!   workloads stop contending on the snapshot publish lock.
//! * [`ServeClient`] — a blocking client whose
//!   [`update_all`](ServeClient::update_all) pipelines a window of
//!   `UPDATE` frames before reading acknowledgements, and whose
//!   `BUSY`-suffix retry loop extends the pipeline's zero-loss
//!   guarantee across the wire.
//! * **MVCC** (backed by [`cobra_mvcc`]) — the server retains a window
//!   of published epochs for time travel (`QUERY_AT`), diff reads
//!   (`DIFF`, by copy-on-write segment identity), and push
//!   subscriptions: [`ServeClient::subscribe`] turns a connection into
//!   a [`Subscription`] streaming gap-free per-epoch [`SubEvent`]s,
//!   with a lossless `LAGGED` + diff re-sync path when a subscriber
//!   falls behind.
//! * [`daemon`] — the body of the `cobra-served` process (flag parsing,
//!   serve until `q` on stdin, drain), which `cobra-clusterd --node`
//!   runs too.
//!
//! ## Quick start
//!
//! ```
//! use cobra_serve::{ServeClient, ServeConfig, Server};
//! use cobra_stream::StreamConfig;
//!
//! let server = Server::start(1024, StreamConfig::new(), ServeConfig::new())
//!     .expect("bind");
//! let mut client = ServeClient::connect(server.local_addr()).expect("connect");
//!
//! client.update_all(&[(7, 40), (7, 2)]).expect("update");
//! client.seal().expect("seal");
//!
//! // Publication is asynchronous; poll until the sealed epoch lands.
//! let value = loop {
//!     let (epoch, value) = client.query(7).expect("query");
//!     if epoch >= 1 {
//!         break value;
//!     }
//!     std::thread::yield_now();
//! };
//! assert_eq!(value, 42);
//!
//! let (snapshot, stats) = server.shutdown();
//! assert_eq!(*snapshot.get(7), 42);
//! assert_eq!(stats.tuples_ingested, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod daemon;
pub mod protocol;
pub mod server;

pub use cache::{CacheStats, S3FifoCache};
pub use client::{ClientError, ServeClient, SubEvent, Subscription, UpdateOutcome};
pub use protocol::{ErrorCode, Frame, WireError, WireStats};
pub use server::{ServeConfig, Server, SumU64};
