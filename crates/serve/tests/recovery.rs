//! Kill-and-recover end-to-end tests: a real `cobra-served` process on an
//! ephemeral port, killed abruptly (SIGKILL) mid-epoch and restarted on
//! the same data directory. Committed epochs must survive bit-for-bit; a
//! crash-free control run on a second directory defines "bit-for-bit".

use cobra_serve::ServeClient;
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

const KEYS: u32 = 4096;

fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "cobra-serve-recovery-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

struct Served {
    child: Child,
    addr: SocketAddr,
    recovered: Option<String>,
}

/// Spawns `cobra-served --data-dir <dir>` and waits for its `ADDR` line.
fn spawn_served(dir: &PathBuf) -> Served {
    let mut child = Command::new(env!("CARGO_BIN_EXE_cobra-served"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--keys",
            &KEYS.to_string(),
            "--shards",
            "2",
            "--data-dir",
        ])
        .arg(dir)
        .args(["--sync", "never", "--checkpoint-every", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn cobra-served");
    let stdout = child.stdout.take().expect("child stdout piped");
    let mut lines = BufReader::new(stdout).lines();
    let mut recovered = None;
    let addr = loop {
        let line = lines
            .next()
            .expect("cobra-served exited before printing ADDR")
            .expect("read child stdout");
        if let Some(rest) = line.strip_prefix("RECOVERED ") {
            recovered = Some(rest.to_string());
        } else if let Some(addr) = line.strip_prefix("ADDR ") {
            break addr.parse().expect("parse ADDR line");
        }
    };
    // Keep draining stdout so the child never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines.by_ref() {});
    Served {
        child,
        addr,
        recovered,
    }
}

impl Served {
    fn quit(mut self) {
        if let Some(stdin) = self.child.stdin.as_mut() {
            let _ = stdin.write_all(b"q\n");
        }
        let status = self.child.wait().expect("wait for cobra-served");
        assert!(status.success(), "cobra-served exited with {status}");
    }

    fn kill(mut self) {
        // SIGKILL: no drain, no Drop handlers — a genuine crash.
        self.child.kill().expect("kill cobra-served");
        let _ = self.child.wait();
    }
}

/// Deterministic workload: epoch `e` holds `per_epoch` tuples.
fn epoch_tuples(e: u64, per_epoch: u32) -> Vec<(u32, u64)> {
    (0..per_epoch)
        .map(|i| (((e as u32 * 17 + i * 31) % KEYS), u64::from(i) + e))
        .collect()
}

fn query_at_epoch(client: &mut ServeClient, key: u32, min_epoch: u64) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (epoch, value) = client.query(key).expect("query");
        if epoch >= min_epoch {
            return value;
        }
        assert!(
            Instant::now() < deadline,
            "epoch {min_epoch} never published (stuck at {epoch})"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Full snapshot of the published state, as served over the wire.
fn wire_snapshot(client: &mut ServeClient, min_epoch: u64) -> (u64, Vec<u64>) {
    query_at_epoch(client, 0, min_epoch);
    let (epoch, _, values) = client.snapshot(0, 0, KEYS).expect("snapshot");
    assert!(epoch >= min_epoch);
    (epoch, values)
}

#[test]
fn sigkill_mid_epoch_loses_no_committed_epoch() {
    let crash_dir = temp_dir("crash");
    let control_dir = temp_dir("control");
    const EPOCHS: u64 = 3;
    const PER_EPOCH: u32 = 500;

    // Crash run: commit three epochs, then die mid-epoch-4 by SIGKILL.
    let served = spawn_served(&crash_dir);
    assert_eq!(
        served.recovered.as_deref(),
        Some("epoch=0 checkpoint=0 records=0 tuples=0")
    );
    let mut client = ServeClient::connect(served.addr).expect("connect");
    for e in 1..=EPOCHS {
        client
            .update_all(&epoch_tuples(e, PER_EPOCH))
            .expect("update");
        assert_eq!(client.seal().expect("seal"), e);
    }
    // Wait until epoch 3 is published — published implies committed
    // (durably logged), which is exactly what recovery must preserve.
    query_at_epoch(&mut client, 0, EPOCHS);
    // Uncommitted tail: updates in epoch 4 that never get sealed.
    client
        .update_all(&epoch_tuples(9, 300))
        .expect("tail update");
    drop(client);
    served.kill();

    // Restart on the same directory.
    let served = spawn_served(&crash_dir);
    let recovered = served
        .recovered
        .clone()
        .expect("durable restart reports recovery");
    assert!(
        recovered.starts_with(&format!("epoch={EPOCHS} ")),
        "expected recovery to epoch {EPOCHS}, got {recovered:?}"
    );
    let mut client = ServeClient::connect(served.addr).expect("connect");
    let stats = client.stats().expect("stats");
    assert!(
        stats.wal_replayed_records > 0 || recovered.contains("checkpoint=2"),
        "restart must replay WAL records past the checkpoint: {recovered:?} / {stats:?}"
    );
    let (crash_epoch, crash_values) = wire_snapshot(&mut client, EPOCHS);
    assert_eq!(
        crash_epoch, EPOCHS,
        "no committed epoch lost, no phantom epoch"
    );
    drop(client);

    // Control run: the same three epochs with no crash at all.
    let control = spawn_served(&control_dir);
    let mut ctrl = ServeClient::connect(control.addr).expect("connect control");
    for e in 1..=EPOCHS {
        ctrl.update_all(&epoch_tuples(e, PER_EPOCH))
            .expect("update");
        ctrl.seal().expect("seal");
    }
    let (_, control_values) = wire_snapshot(&mut ctrl, EPOCHS);
    drop(ctrl);
    control.quit();

    assert_eq!(
        crash_values, control_values,
        "recovered state differs from the crash-free run"
    );

    // The recovered server is live: it keeps accepting epochs.
    let mut client = ServeClient::connect(served.addr).expect("reconnect");
    client
        .update_all(&[(7, 100)])
        .expect("post-recovery update");
    assert_eq!(client.seal().expect("seal"), EPOCHS + 1);
    let after = query_at_epoch(&mut client, 7, EPOCHS + 1);
    assert_eq!(after, crash_values[7] + 100);
    drop(client);
    served.quit();

    let _ = std::fs::remove_dir_all(&crash_dir);
    let _ = std::fs::remove_dir_all(&control_dir);
}

#[test]
fn graceful_restart_preserves_the_drain_epoch() {
    let dir = temp_dir("graceful");
    let served = spawn_served(&dir);
    let mut client = ServeClient::connect(served.addr).expect("connect");
    client.update_all(&epoch_tuples(1, 200)).expect("update");
    client.seal().expect("seal");
    query_at_epoch(&mut client, 0, 1);
    let (_, before) = wire_snapshot(&mut client, 1);
    drop(client);
    // Graceful quit seals a final drain epoch (epoch 2) on the way down.
    served.quit();

    let served = spawn_served(&dir);
    let recovered = served.recovered.clone().expect("recovery report");
    // Graceful shutdown seals a final epoch and then the pipeline drain
    // seals once more: client epoch 1 becomes drain epoch 3.
    assert!(
        recovered.starts_with("epoch=3 "),
        "drain epoch must survive a graceful restart: {recovered:?}"
    );
    let mut client = ServeClient::connect(served.addr).expect("connect");
    let (epoch, after) = wire_snapshot(&mut client, 3);
    assert_eq!(epoch, 3);
    assert_eq!(after, before, "graceful restart changed the state");
    drop(client);
    served.quit();
    let _ = std::fs::remove_dir_all(&dir);
}
