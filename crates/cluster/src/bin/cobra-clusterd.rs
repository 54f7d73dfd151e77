//! `cobra-clusterd` — one cluster role as a standalone process.
//!
//! ```text
//! cobra-clusterd --node [--addr HOST:PORT] [--keys N]
//!                [--shards N] [--data-dir PATH] [--sync never|onseal|bytes:N]
//!                [--checkpoint-every N]
//! cobra-clusterd --follow PRIMARY_ADDR --data-dir PATH [--interval-ms N]
//! ```
//!
//! `--node` runs one `cobra-serve` backend (a cluster member). It prints
//! `ADDR <host:port>` once bound (plus `RECOVERED …` in durable mode) and
//! drains gracefully on `q`/EOF from stdin — the same contract as
//! `cobra-served`, duplicated here so the cluster e2e tests can spawn
//! members via `CARGO_BIN_EXE_cobra-clusterd`. Promotion of a follower is
//! exactly this mode pointed at the follower's directory: recovery does
//! the rest.
//!
//! `--follow` runs the replication daemon: one [`ReplicaSync`] round
//! every `--interval-ms` (default 20), printing
//! `SYNC epoch=E files=F bytes=B lag=L` after each round that shipped
//! bytes or advanced the epoch. When the primary dies it prints
//! `PRIMARY-LOST epoch=E` and exits cleanly — the operator (or test)
//! then promotes the directory with `--node`.

#![forbid(unsafe_code)]

use cobra_cluster::ReplicaSync;
use cobra_serve::{ServeConfig, Server};
use cobra_stream::{DurableConfig, StreamConfig, SyncPolicy};
use std::io::{BufRead, Write};
use std::process::ExitCode;
use std::sync::mpsc;
use std::time::Duration;

struct NodeOptions {
    addr: String,
    keys: u32,
    shards: usize,
    data_dir: Option<String>,
    sync: SyncPolicy,
    checkpoint_every: u64,
}

impl Default for NodeOptions {
    fn default() -> Self {
        NodeOptions {
            addr: "127.0.0.1:0".to_string(),
            keys: 1 << 20,
            shards: 4,
            data_dir: None,
            sync: SyncPolicy::OnSeal,
            checkpoint_every: 8,
        }
    }
}

struct FollowOptions {
    primary: String,
    data_dir: String,
    interval: Duration,
}

enum Mode {
    Node(NodeOptions),
    Follow(FollowOptions),
}

fn parse_sync(s: &str) -> Result<SyncPolicy, String> {
    if s == "never" {
        return Ok(SyncPolicy::Never);
    }
    if s == "onseal" {
        return Ok(SyncPolicy::OnSeal);
    }
    if let Some(n) = s.strip_prefix("bytes:") {
        let bytes: u64 = n
            .parse()
            .map_err(|_| format!("--sync bytes:N needs a number, got {n:?}"))?;
        return Ok(SyncPolicy::EveryNBytes(bytes));
    }
    Err(format!(
        "--sync must be never, onseal, or bytes:N (got {s:?})"
    ))
}

const USAGE: &str = "usage: cobra-clusterd --node [--addr HOST:PORT] [--keys N] \
     [--shards N] [--data-dir PATH] [--sync never|onseal|bytes:N] \
     [--checkpoint-every N]\n   or: cobra-clusterd --follow PRIMARY_ADDR \
     --data-dir PATH [--interval-ms N]";

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let mut node = NodeOptions::default();
    let mut is_node = false;
    let mut primary: Option<String> = None;
    let mut interval = Duration::from_millis(20);
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = |i: &mut usize| -> Result<&String, String> {
            *i += 1;
            args.get(*i).ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--node" => is_node = true,
            "--follow" => primary = Some(value(&mut i)?.clone()),
            "--addr" => node.addr = value(&mut i)?.clone(),
            "--keys" => {
                node.keys = value(&mut i)?
                    .parse()
                    .map_err(|_| "--keys needs a number".to_string())?
            }
            "--shards" => {
                node.shards = value(&mut i)?
                    .parse()
                    .map_err(|_| "--shards needs a number".to_string())?
            }
            "--data-dir" => node.data_dir = Some(value(&mut i)?.clone()),
            "--sync" => node.sync = parse_sync(value(&mut i)?)?,
            "--checkpoint-every" => {
                node.checkpoint_every = value(&mut i)?
                    .parse()
                    .map_err(|_| "--checkpoint-every needs a number".to_string())?
            }
            "--interval-ms" => {
                let ms: u64 = value(&mut i)?
                    .parse()
                    .map_err(|_| "--interval-ms needs a number".to_string())?;
                interval = Duration::from_millis(ms);
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
        i += 1;
    }
    match (is_node, primary) {
        (true, None) => Ok(Mode::Node(node)),
        (false, Some(primary)) => {
            let data_dir = node
                .data_dir
                .ok_or_else(|| "--follow needs --data-dir".to_string())?;
            Ok(Mode::Follow(FollowOptions {
                primary,
                data_dir,
                interval,
            }))
        }
        (true, Some(_)) => Err("--node and --follow are mutually exclusive".to_string()),
        (false, None) => Err(USAGE.to_string()),
    }
}

fn run_node(opts: NodeOptions) -> Result<(), String> {
    let stream_cfg = StreamConfig::new().shards(opts.shards);
    let mut serve_cfg = ServeConfig::new().addr(&opts.addr);
    if let Some(dir) = &opts.data_dir {
        serve_cfg = serve_cfg.durable(
            DurableConfig::new(dir)
                .sync(opts.sync)
                .checkpoint_every(opts.checkpoint_every),
        );
    }
    let server = Server::start(opts.keys, stream_cfg, serve_cfg)
        .map_err(|e| format!("failed to start node: {e}"))?;
    let mut out = std::io::stdout();
    if let Some(report) = server.recovery() {
        let _ = writeln!(
            out,
            "RECOVERED epoch={} checkpoint={} records={} tuples={}",
            report.committed_epoch,
            report.checkpoint_epoch,
            report.replayed_records,
            report.replayed_tuples
        );
    }
    // Tests and scripts block on this line to learn the ephemeral port.
    let _ = writeln!(out, "ADDR {}", server.local_addr());
    let _ = out.flush();

    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        match line {
            Ok(l) if l.trim() == "q" => break,
            Ok(_) => {}
            Err(_) => break,
        }
    }
    let (snapshot, stats) = server.shutdown();
    let _ = writeln!(
        out,
        "DRAINED epoch={} tuples={}",
        snapshot.epoch(),
        stats.tuples_ingested
    );
    Ok(())
}

fn run_follow(opts: FollowOptions) -> Result<(), String> {
    let mut sync = ReplicaSync::connect(&opts.primary, &opts.data_dir)
        .map_err(|e| format!("failed to reach primary {}: {e}", opts.primary))?;
    let mut out = std::io::stdout();
    let _ = writeln!(out, "FOLLOWING {}", opts.primary);
    let _ = out.flush();

    // Watch stdin from a helper thread so the sync loop stays simple:
    // any line `q` (or EOF) requests a graceful stop.
    let (quit_tx, quit_rx) = mpsc::channel::<()>();
    std::thread::spawn(move || {
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            match line {
                Ok(l) if l.trim() == "q" => break,
                Ok(_) => {}
                Err(_) => break,
            }
        }
        let _ = quit_tx.send(());
    });

    let mut last_reported = u64::MAX;
    loop {
        match sync.sync_round() {
            Ok(round) => {
                if round.bytes > 0 || round.epoch != last_reported {
                    last_reported = round.epoch;
                    let _ = writeln!(
                        out,
                        "SYNC epoch={} files={} bytes={} lag={}",
                        round.epoch,
                        round.files,
                        round.bytes,
                        round.primary_epoch.saturating_sub(round.epoch)
                    );
                    let _ = out.flush();
                }
            }
            Err(cobra_cluster::ReplicaError::Primary(e)) => {
                // The promotion trigger: report how far we got and stop.
                let _ = writeln!(out, "PRIMARY-LOST epoch={} ({e})", sync.last_epoch());
                let _ = out.flush();
                return Ok(());
            }
            Err(e) => return Err(format!("replication failed: {e}")),
        }
        match quit_rx.recv_timeout(opts.interval) {
            Ok(()) | Err(mpsc::RecvTimeoutError::Disconnected) => {
                let _ = writeln!(out, "STOPPED epoch={}", sync.last_epoch());
                return Ok(());
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = match parse_args(&args) {
        Ok(mode) => mode,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let result = match mode {
        Mode::Node(opts) => run_node(opts),
        Mode::Follow(opts) => run_follow(opts),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
