//! The body of a serving process: flag parsing, then serve until stdin
//! says quit.
//!
//! `cobra-served` is [`run`] and nothing else; `cobra-clusterd --node`
//! forwards its remaining arguments here, so a cluster member *is* a
//! `cobra-served` — same flags, same stdout contract (`RECOVERED …` in
//! durable mode, `ADDR <host:port>` once bound, `DRAINED …` after the
//! graceful drain that `q` or EOF on stdin triggers).

use crate::{ServeConfig, Server};
use cobra_stream::{DurableConfig, StreamConfig, SyncPolicy};
use std::io::{BufRead, Write};
use std::process::ExitCode;

struct Options {
    addr: String,
    keys: u32,
    shards: usize,
    data_dir: Option<String>,
    sync: SyncPolicy,
    checkpoint_every: u64,
    epoch_tuples: u64,
    retain: usize,
    retain_secs: Option<u64>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            addr: "127.0.0.1:0".to_string(),
            keys: 1 << 20,
            shards: 4,
            data_dir: None,
            sync: SyncPolicy::OnSeal,
            checkpoint_every: 8,
            epoch_tuples: 0,
            retain: 1,
            retain_secs: None,
        }
    }
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

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = |i: &mut usize| -> Result<&String, String> {
            *i += 1;
            args.get(*i).ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--addr" => opts.addr = value(&mut i)?.clone(),
            "--keys" => {
                opts.keys = value(&mut i)?
                    .parse()
                    .map_err(|_| "--keys needs a number".to_string())?
            }
            "--shards" => {
                opts.shards = value(&mut i)?
                    .parse()
                    .map_err(|_| "--shards needs a number".to_string())?
            }
            "--data-dir" => opts.data_dir = Some(value(&mut i)?.clone()),
            "--sync" => opts.sync = parse_sync(value(&mut i)?)?,
            "--checkpoint-every" => {
                opts.checkpoint_every = value(&mut i)?
                    .parse()
                    .map_err(|_| "--checkpoint-every needs a number".to_string())?
            }
            "--epoch-tuples" => {
                opts.epoch_tuples = value(&mut i)?
                    .parse()
                    .map_err(|_| "--epoch-tuples needs a number".to_string())?
            }
            "--retain" => {
                opts.retain = value(&mut i)?
                    .parse()
                    .map_err(|_| "--retain needs a number".to_string())?;
                if opts.retain == 0 {
                    return Err("--retain must be at least 1 (the latest epoch)".to_string());
                }
            }
            "--retain-secs" => {
                opts.retain_secs = Some(
                    value(&mut i)?
                        .parse()
                        .map_err(|_| "--retain-secs needs a number".to_string())?,
                )
            }
            "--help" | "-h" => {
                return Err("usage: cobra-served [--addr HOST:PORT] [--keys N] \
                     [--shards N] [--data-dir PATH] \
                     [--sync never|onseal|bytes:N] [--checkpoint-every N] \
                     [--epoch-tuples N] [--retain K] [--retain-secs T]\n   \
                     or: cobra-clusterd --node [the same flags]"
                    .to_string())
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
        i += 1;
    }
    Ok(opts)
}

fn serve(opts: Options) -> Result<(), String> {
    let mut stream_cfg = StreamConfig::new().shards(opts.shards);
    if opts.epoch_tuples > 0 {
        stream_cfg = stream_cfg.epoch_tuples(opts.epoch_tuples);
    }
    let mut serve_cfg = ServeConfig::new()
        .addr(&opts.addr)
        .retain_epochs(opts.retain);
    if let Some(secs) = opts.retain_secs {
        serve_cfg = serve_cfg.retain_age(std::time::Duration::from_secs(secs));
    }
    if let Some(dir) = &opts.data_dir {
        serve_cfg = serve_cfg.durable(
            DurableConfig::new(dir)
                .sync(opts.sync)
                .checkpoint_every(opts.checkpoint_every),
        );
    }

    let server = Server::start(opts.keys, stream_cfg, serve_cfg)
        .map_err(|e| format!("failed to start server: {e}"))?;
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
    // Scripts and tests block on this line to learn the ephemeral port.
    let _ = writeln!(out, "ADDR {}", server.local_addr());
    let _ = out.flush();

    // Serve until stdin says quit (or closes). A SIGKILL instead of `q`
    // is the crash path the durability tests exercise.
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
        "DRAINED epoch={} tuples={} wal_bytes={}",
        snapshot.epoch(),
        stats.tuples_ingested,
        stats.wal_bytes_appended
    );
    Ok(())
}

/// Parses `args` (the command line after the program name and any role
/// flag), serves until `q` or EOF on stdin, drains, and returns the
/// process's exit code.
pub fn run(args: &[String]) -> ExitCode {
    match parse_args(args).and_then(serve) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
