//! cobra-check: dynamic and static checking for the PB/stream stack.
//!
//! Three analyses, one crate (paper, Section III-B: correctness of
//! propagation blocking rests on bin disjointness, epoch alignment and
//! declared commutativity). Disjointness has no checker here because it
//! is not a run-time property of this workspace: `accumulate_into` hands
//! each worker `chunks_mut` slices under `#![forbid(unsafe_code)]`
//! (rule R9 keeps the attribute on every crate), so two workers writing
//! one key does not compile; routing and ownership are plain tests in
//! `cobra-pb` and `cobra-core`. The other two are re-proved mechanically:
//!
//! 1. [`oracle`] — commutativity oracles: replay each kernel's scatter
//!    function and each streaming reducer under permuted update orders and
//!    compare the observation against the declared commutative/ordered
//!    mode.
//! 2. [`explore`] — a dependency-free bounded schedule explorer (mini
//!    loom): one DFS driver over any [`explore::Model`], exhausting every
//!    interleaving of small configurations. Three protocols are written
//!    down as models: the `cobra-stream` channel/seal/epoch protocol
//!    (in [`explore`] itself), `cobra-cluster`'s cross-node seal/commit
//!    barrier ([`cluster`]: a cluster snapshot never publishes before
//!    every node's `EpochCommit`), and `cobra-mvcc`'s subscription
//!    fan-out ([`subs`]: bounded queues + lossless lag markers, delivery
//!    is gap-free and per-epoch ordered in every schedule).
//! 3. [`analyze`] — the one static pass (cobra-analyze): a
//!    dependency-free lexer, function table and conservative call graph
//!    over every `crates/*/{src,tests}` file, feeding the token rules
//!    R1–R3, R9, R11 (ordering justifications, hot-path panic hygiene, no
//!    locks on binning paths, unsafe audit, no blocking I/O or sleep on
//!    the reactor path), the graph rules R5–R8 (lock-order cycles,
//!    commit-before-publish dominance, wire-protocol exhaustiveness,
//!    atomics release/acquire pairing) and R10 (stale suppressions in the
//!    one allowlist).
//!
//! The `cobra-check` binary exposes each analysis as a subcommand and
//! `all` runs the full battery; any violation exits non-zero.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod cluster;
pub mod explore;
pub mod oracle;
pub mod subs;
