//! Multi-process cluster end-to-end tests: real `cobra-clusterd`
//! processes on ephemeral ports, driven over TCP.
//!
//! * `cluster_merge_matches_single_node` — the headline acceptance test:
//!   two backends behind [`ClusterRouter`]s, four concurrent client
//!   threads streaming ≥ 1M updates, and the merged cluster snapshot
//!   must be bit-identical to a single-node run of the same tuple
//!   stream.
//! * `killed_primary_promoted_follower_loses_no_committed_epoch` — WAL
//!   shipping + promotion: SIGKILL the primary mid-epoch, promote the
//!   follower's directory, and every committed epoch must be served
//!   bit-for-bit.
//! * partial-failure tests — a dead backend surfaces as a typed
//!   [`ClusterError::NodeDown`] promptly, at connect time and mid-stream.

use cobra_cluster::{ClusterConfig, ClusterError, ClusterRouter, RangeMap};
use cobra_serve::ServeClient;
use std::io::{BufRead, BufReader, Lines, Write};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

const KEYS: u32 = 1 << 16;

fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("cobra-cluster-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

struct Daemon {
    child: Child,
    lines: Option<Lines<BufReader<ChildStdout>>>,
}

impl Daemon {
    fn spawn(args: &[&str]) -> Daemon {
        let child = Command::new(env!("CARGO_BIN_EXE_cobra-clusterd"))
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn cobra-clusterd");
        let stdout = child.stdout.as_ref().expect("stdout piped");
        let _ = stdout; // taken below
        let mut daemon = Daemon { child, lines: None };
        let stdout = daemon.child.stdout.take().expect("stdout piped");
        daemon.lines = Some(BufReader::new(stdout).lines());
        daemon
    }

    /// Reads stdout lines until `prefix` matches; returns the rest of
    /// the line. Panics if the process exits first.
    fn expect_line(&mut self, prefix: &str) -> String {
        let lines = self.lines.as_mut().expect("stdout not detached");
        for line in lines.by_ref() {
            let line = line.expect("read child stdout");
            if let Some(rest) = line.strip_prefix(prefix) {
                return rest.to_string();
            }
        }
        panic!("child exited before printing {prefix:?}");
    }

    /// Detaches stdout into a drain thread (children must never block on
    /// a full pipe once the test stops reading).
    fn drain_stdout(&mut self) {
        if let Some(lines) = self.lines.take() {
            std::thread::spawn(move || for _ in lines {});
        }
    }

    fn quit(mut self) {
        if let Some(stdin) = self.child.stdin.as_mut() {
            let _ = stdin.write_all(b"q\n");
        }
        self.drain_stdout();
        let status = self.child.wait().expect("wait for cobra-clusterd");
        assert!(status.success(), "cobra-clusterd exited with {status}");
    }

    fn kill(mut self) {
        // SIGKILL: no drain, no Drop handlers — a genuine crash.
        self.drain_stdout();
        self.child.kill().expect("kill cobra-clusterd");
        let _ = self.child.wait();
    }
}

fn spawn_node(keys: u32, data_dir: Option<&PathBuf>) -> (Daemon, SocketAddr) {
    let keys = keys.to_string();
    let mut args = vec![
        "--node",
        "--addr",
        "127.0.0.1:0",
        "--keys",
        &keys,
        "--shards",
        "2",
    ];
    let dir_arg;
    if let Some(dir) = data_dir {
        dir_arg = dir.display().to_string();
        args.extend_from_slice(&["--data-dir", &dir_arg, "--sync", "never"]);
        args.extend_from_slice(&["--checkpoint-every", "2"]);
    }
    let mut daemon = Daemon::spawn(&args);
    let addr = daemon
        .expect_line("ADDR ")
        .parse()
        .expect("parse ADDR line");
    (daemon, addr)
}

/// Deterministic pseudo-random workload shared by cluster and control
/// runs: tuple `i` of `total`.
fn tuple(i: u64) -> (u32, u64) {
    let key = (i.wrapping_mul(2654435761) >> 7) as u32 % KEYS;
    (key, (i % 1000) + 1)
}

#[test]
fn cluster_merge_matches_single_node() {
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 250_000; // 1M tuples total
    let (node0, addr0) = spawn_node(KEYS, None);
    let (node1, addr1) = spawn_node(KEYS, None);
    let addrs: Vec<String> = vec![addr0.to_string(), addr1.to_string()];

    // Four concurrent writers, each with its own router over both nodes.
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let addrs = addrs.clone();
            scope.spawn(move || {
                let mut router = ClusterRouter::connect(KEYS, &addrs, ClusterConfig::default())
                    .expect("connect router");
                for i in (t * PER_THREAD)..((t + 1) * PER_THREAD) {
                    let (key, value) = tuple(i);
                    router.send(key, value).expect("send");
                }
                router.flush().expect("flush");
            });
        }
    });

    // One sealer: the single-sealer rule behind coordinator-free epoch
    // alignment. The barrier returns only once both nodes committed.
    let mut sealer =
        ClusterRouter::connect(KEYS, &addrs, ClusterConfig::default()).expect("connect sealer");
    let epoch = sealer.seal_and_commit().expect("seal_and_commit");
    assert_eq!(epoch, 1, "both nodes must agree on epoch 1");
    let clustered = sealer.cluster_snapshot(epoch).expect("cluster snapshot");
    assert_eq!(clustered.len(), KEYS as usize);

    // Per-node throughput numbers exist and the tuple counts add up.
    let stats = sealer.stats().expect("stats");
    let ingested: u64 = stats.iter().map(|s| s.tuples_ingested).sum();
    assert_eq!(
        ingested,
        THREADS * PER_THREAD,
        "no tuple lost or duplicated"
    );
    node0.quit();
    node1.quit();

    // Control: a single node over the full key space fed the same tuple
    // stream, sealed once.
    let (control, control_addr) = spawn_node(KEYS, None);
    let mut client = ServeClient::connect(control_addr).expect("connect control");
    let mut batch = Vec::with_capacity(4096);
    for i in 0..(THREADS * PER_THREAD) {
        batch.push(tuple(i));
        if batch.len() == 4096 {
            client.update_all(&batch).expect("control update");
            batch.clear();
        }
    }
    client.update_all(&batch).expect("control update");
    assert_eq!(client.seal().expect("control seal"), 1);
    client.wait_epoch(1).expect("control commit");
    let mut single = Vec::with_capacity(KEYS as usize);
    let map = RangeMap::new(KEYS, 1);
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (epoch, _, first) = client.snapshot(0, 0, 1).expect("control snapshot probe");
        if epoch >= 1 {
            drop(first);
            break;
        }
        assert!(Instant::now() < deadline, "control epoch never published");
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut lo = 0u32;
    while lo < map.num_keys() {
        let hi = map.num_keys().min(lo + 65_536);
        let (_, _, values) = client.snapshot(0, lo, hi).expect("control snapshot");
        single.extend_from_slice(&values);
        lo = hi;
    }
    drop(client);
    control.quit();

    assert_eq!(
        clustered, single,
        "merged cluster snapshot must be bit-identical to the single-node run"
    );
}

/// Epoch `e`'s deterministic tuples for the replication tests.
fn epoch_tuples(e: u64, per_epoch: u32) -> Vec<(u32, u64)> {
    (0..per_epoch)
        .map(|i| (((e as u32 * 17 + i * 31) % KEYS), u64::from(i) + e))
        .collect()
}

#[test]
fn killed_primary_promoted_follower_loses_no_committed_epoch() {
    const EPOCHS: u64 = 3;
    let primary_dir = temp_dir("primary");
    let follower_dir = temp_dir("follower");

    let (primary, addr) = spawn_node(KEYS, Some(&primary_dir));
    let mut follower = Daemon::spawn(&[
        "--follow",
        &addr.to_string(),
        "--data-dir",
        &follower_dir.display().to_string(),
    ]);
    follower.expect_line("FOLLOWING ");

    // Commit three epochs; the WAIT_EPOCH after each seal guarantees the
    // epoch is durable on the primary before we move on.
    let mut client = ServeClient::connect(addr).expect("connect primary");
    for e in 1..=EPOCHS {
        client.update_all(&epoch_tuples(e, 500)).expect("update");
        assert_eq!(client.seal().expect("seal"), e);
        assert!(client.wait_epoch(e).expect("commit barrier") >= e);
    }

    // The follower's SYNC line names the epoch its copy covers; wait for
    // it to catch up to epoch 3.
    loop {
        let rest = follower.expect_line("SYNC ");
        let epoch: u64 = rest
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix("epoch="))
            .expect("SYNC line has epoch=")
            .parse()
            .expect("parse epoch");
        if epoch >= EPOCHS {
            break;
        }
    }

    // Capture the committed state the promotion must reproduce, then
    // write an uncommitted tail and crash the primary mid-epoch.
    let (snap_epoch, _, expected) = client.snapshot(0, 0, KEYS).expect("primary snapshot");
    assert_eq!(snap_epoch, EPOCHS);
    client.update_all(&epoch_tuples(9, 300)).expect("tail");
    drop(client);
    primary.kill();

    // The follower notices the dead primary and stops cleanly.
    follower.expect_line("PRIMARY-LOST ");
    follower.drain_stdout();
    let status = follower.child.wait().expect("wait for follower");
    assert!(status.success(), "follower exited with {status}");

    // Promotion: start a node on the follower's directory. Ordinary
    // crash recovery must land exactly on the last committed epoch.
    let mut promoted = Daemon::spawn(&[
        "--node",
        "--addr",
        "127.0.0.1:0",
        "--keys",
        &KEYS.to_string(),
        "--shards",
        "2",
        "--data-dir",
        &follower_dir.display().to_string(),
        "--sync",
        "never",
    ]);
    let recovered = promoted.expect_line("RECOVERED ");
    assert!(
        recovered.starts_with(&format!("epoch={EPOCHS} ")),
        "promoted follower must recover to epoch {EPOCHS}, got {recovered:?}"
    );
    let addr: SocketAddr = promoted
        .expect_line("ADDR ")
        .parse()
        .expect("parse promoted ADDR");
    let mut client = ServeClient::connect(addr).expect("connect promoted");
    let deadline = Instant::now() + Duration::from_secs(10);
    let values = loop {
        let (epoch, _, values) = client.snapshot(0, 0, KEYS).expect("promoted snapshot");
        if epoch >= EPOCHS {
            assert_eq!(epoch, EPOCHS, "no phantom epoch on the promoted node");
            break values;
        }
        assert!(Instant::now() < deadline, "promoted epoch never published");
        std::thread::sleep(Duration::from_millis(1));
    };
    assert_eq!(
        values, expected,
        "promoted follower must serve the committed state bit-for-bit"
    );
    drop(client);
    promoted.quit();

    let _ = std::fs::remove_dir_all(&primary_dir);
    let _ = std::fs::remove_dir_all(&follower_dir);
}

#[test]
fn dead_backend_at_connect_is_a_typed_error_not_a_hang() {
    let (node, addr) = spawn_node(KEYS, None);
    // A port that was just vacated: nothing listens there.
    let dead = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind probe");
        listener.local_addr().expect("probe addr")
    };
    let addrs = vec![addr.to_string(), dead.to_string()];
    let started = Instant::now();
    let err = ClusterRouter::connect(KEYS, &addrs, ClusterConfig::default())
        .err()
        .expect("connect must fail");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "dead backend must fail fast, not hang"
    );
    match err {
        ClusterError::NodeDown { node, addr, .. } => {
            assert_eq!(node, 1);
            assert_eq!(addr, dead.to_string());
        }
        other => panic!("expected NodeDown, got {other}"),
    }
    node.quit();
}

#[test]
fn backend_killed_mid_stream_is_a_typed_error_not_a_hang() {
    let (node0, addr0) = spawn_node(KEYS, None);
    let (node1, addr1) = spawn_node(KEYS, None);
    let addrs = vec![addr0.to_string(), addr1.to_string()];
    let mut router =
        ClusterRouter::connect(KEYS, &addrs, ClusterConfig::default()).expect("connect");
    let map = router.range_map().clone();
    let victim_key = map.range(1).start;
    router.send(victim_key, 1).expect("send before kill");
    router.flush().expect("flush before kill");
    node1.kill();

    // Keep streaming at the dead node until the failure surfaces. The
    // error must be typed and must arrive promptly.
    let started = Instant::now();
    let err = loop {
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "dead backend never surfaced as an error"
        );
        if let Err(e) = router.send(victim_key, 1).and_then(|()| router.flush()) {
            break e;
        }
    };
    match err {
        ClusterError::NodeDown { node, .. } => assert_eq!(node, 1),
        other => panic!("expected NodeDown, got {other}"),
    }
    node0.quit();
}
