//! `cobra-clusterd` — one cluster role as a standalone process.
//!
//! ```text
//! cobra-clusterd --node [any cobra-served flag …]
//! cobra-clusterd --follow PRIMARY_ADDR --data-dir PATH
//! ```
//!
//! `--node` runs one `cobra-serve` backend (a cluster member): the rest
//! of the command line goes to [`cobra_serve::daemon::run`], the body of
//! `cobra-served`, so flags and stdout contract (`ADDR <host:port>` once
//! bound, `RECOVERED …` in durable mode, graceful drain on `q`/EOF from
//! stdin) are that binary's. The role exists here so the cluster e2e
//! tests can spawn members via `CARGO_BIN_EXE_cobra-clusterd`. Promotion
//! of a follower is exactly this mode pointed at the follower's
//! directory: recovery does the rest.
//!
//! `--follow` runs the replication daemon: one [`ReplicaSync`] round
//! each time the primary publishes a new epoch (a `WAIT_EPOCH` past the
//! last round's epoch between rounds, no clock), printing
//! `SYNC epoch=E files=F bytes=B lag=L` after each round that shipped
//! bytes or advanced the epoch. When the primary dies it prints
//! `PRIMARY-LOST epoch=E` and exits cleanly — the operator (or test)
//! then promotes the directory with `--node`. `q` or end of input on
//! stdin prints `STOPPED epoch=E` and exits.

#![forbid(unsafe_code)]

use cobra_cluster::ReplicaSync;
use std::io::{BufRead, Write};
use std::net::Shutdown;
use std::process::ExitCode;
use std::sync::mpsc;

struct FollowOptions {
    primary: String,
    data_dir: String,
}

const USAGE: &str = "usage: cobra-clusterd --node [any cobra-served flag ...]\n   \
     or: cobra-clusterd --follow PRIMARY_ADDR --data-dir PATH";

fn parse_follow(args: &[String]) -> Result<FollowOptions, String> {
    let mut primary: Option<String> = None;
    let mut data_dir: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = |i: &mut usize| -> Result<&String, String> {
            *i += 1;
            args.get(*i).ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--follow" => primary = Some(value(&mut i)?.clone()),
            "--data-dir" => data_dir = Some(value(&mut i)?.clone()),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
        i += 1;
    }
    Ok(FollowOptions {
        primary: primary.ok_or_else(|| USAGE.to_string())?,
        data_dir: data_dir.ok_or_else(|| "--follow needs --data-dir".to_string())?,
    })
}

fn run_follow(opts: FollowOptions) -> Result<(), String> {
    let mut sync = ReplicaSync::connect(&opts.primary, &opts.data_dir)
        .map_err(|e| format!("failed to reach primary {}: {e}", opts.primary))?;
    let mut out = std::io::stdout();
    let _ = writeln!(out, "FOLLOWING {}", opts.primary);
    let _ = out.flush();

    // Watch stdin from a helper thread: any line `q` (or EOF) requests
    // a graceful stop, which shuts the connection to the primary down so
    // that a round or a wait in progress ends at once.
    let primary = sync
        .try_clone_stream()
        .map_err(|e| format!("failed to share the primary connection: {e}"))?;
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
        let _ = primary.shutdown(Shutdown::Both);
    });

    let mut last_reported = u64::MAX;
    loop {
        // A round, then a wait until the primary has a newer epoch: each
        // blocks on the primary, and either ends when it is lost.
        let ended = sync.sync_round().and_then(|round| {
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
            sync.wait_for_next_epoch()
        });
        match ended {
            Ok(_) => {}
            // The stdin thread asks to stop before it cuts the connection.
            Err(_) if quit_rx.try_recv().is_ok() => {
                let _ = writeln!(out, "STOPPED epoch={}", sync.last_epoch());
                return Ok(());
            }
            Err(cobra_cluster::ReplicaError::Primary(e)) => {
                // The promotion trigger: report how far we got and stop.
                let _ = writeln!(out, "PRIMARY-LOST epoch={} ({e})", sync.last_epoch());
                let _ = out.flush();
                return Ok(());
            }
            Err(e) => return Err(format!("replication failed: {e}")),
        }
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(at) = args.iter().position(|a| a == "--node") {
        args.remove(at);
        if args.iter().any(|a| a == "--follow") {
            eprintln!("--node and --follow are mutually exclusive");
            return ExitCode::FAILURE;
        }
        return cobra_serve::daemon::run(&args);
    }
    match parse_follow(&args).and_then(run_follow) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
