//! `cobra-served` — the COBRA service as a standalone process.
//!
//! ```text
//! cobra-served [--addr HOST:PORT] [--keys N] [--shards N]
//!              [--data-dir PATH] [--sync never|onseal|bytes:N]
//!              [--checkpoint-every N] [--epoch-tuples N]
//!              [--retain K] [--retain-secs T]
//! ```
//!
//! `--retain K` keeps the last K published epochs for time-travel reads,
//! diffs and subscriber re-sync (default 1 = latest only); `--retain-secs
//! T` additionally evicts epochs older than T seconds.
//!
//! Prints `ADDR <host:port>` on stdout once the listener is bound (port 0
//! resolves to the real ephemeral port — the recovery e2e test and
//! scripts parse this line), plus a `RECOVERED ...` line in durable mode.
//! Reading `q` (or EOF) on stdin triggers a graceful drain; an abrupt
//! kill is exactly the crash the WAL recovers from.

#![forbid(unsafe_code)]

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    cobra_serve::daemon::run(&args)
}
