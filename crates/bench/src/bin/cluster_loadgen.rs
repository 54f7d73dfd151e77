//! Closed-loop load generator for the `cobra-cluster` tier.
//!
//! Two in-process `cobra-serve` backends sit behind [`ClusterRouter`]s:
//! N client threads each drive one router, streaming key-partitioned
//! UPDATE batches (propagation blocking at the network layer), while a
//! single sealer router drives epoch rounds through the cross-node
//! seal/commit barrier. Node 0 runs durably and a follower thread ships
//! its WAL continuously via [`ReplicaSync`], so the run also measures
//! replication lag under load.
//!
//! Like `serve_loadgen`, the run is a correctness gate:
//!
//! * **Zero loss** — the merged cluster snapshot must sum to exactly
//!   what the clients sent.
//! * **Replication catch-up** — after the last epoch the follower must
//!   reach the primary's committed epoch (final lag zero).
//!
//! Either failure exits non-zero. The run prints one row of per-node
//! throughput and replication-lag columns; the measured series lives in
//! `benchmarks/results/BENCH_<n>.json`.

#![forbid(unsafe_code)]

use cobra_bench::{report, Scale, Table};
use cobra_cluster::{ClusterConfig, ClusterRouter, ReplicaSync};
use cobra_graph::rng::SplitMix64;
use cobra_serve::{ServeConfig, Server};
use cobra_stream::{DurableConfig, StreamConfig, SyncPolicy};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Backends behind the router; fixed so the CSV columns stay stable.
const NODES: usize = 2;

#[derive(Clone, Copy)]
struct Load {
    num_keys: u32,
    clients: usize,
    epochs: u64,
    tuples_per_client_per_epoch: usize,
    batch_tuples: usize,
}

impl Load {
    fn for_scale(scale: Scale) -> Load {
        match scale {
            Scale::Quick => Load {
                num_keys: 1 << 14,
                clients: 4,
                epochs: 3,
                tuples_per_client_per_epoch: 20_000,
                batch_tuples: 1_024,
            },
            Scale::Standard => Load {
                num_keys: 1 << 18,
                clients: 8,
                epochs: 5,
                tuples_per_client_per_epoch: 100_000,
                batch_tuples: 4_096,
            },
            Scale::Full => Load {
                num_keys: 1 << 20,
                clients: 16,
                epochs: 8,
                tuples_per_client_per_epoch: 400_000,
                batch_tuples: 4_096,
            },
        }
    }
}

/// What the follower thread observed: sync rounds run, bytes shipped,
/// worst and final epoch lag behind the primary.
struct FollowerReport {
    rounds: u64,
    bytes: u64,
    max_lag: u64,
    final_lag: u64,
    last_epoch: u64,
}

fn run_follower(primary: String, dir: std::path::PathBuf, stop: Arc<AtomicBool>) -> FollowerReport {
    let mut sync = ReplicaSync::connect(&primary, dir).expect("follower connect");
    let mut rounds = 0u64;
    let mut max_lag = 0u64;
    let mut final_lag;
    loop {
        let stopping = stop.load(Ordering::Relaxed); // ordering: stop flag only gates loop exit
        let round = sync.sync_round().expect("follower sync");
        rounds += 1;
        let lag = round.primary_epoch.saturating_sub(round.epoch);
        max_lag = max_lag.max(lag);
        final_lag = lag;
        if stopping && round.bytes == 0 && lag == 0 {
            break;
        }
        if !stopping {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    FollowerReport {
        rounds,
        bytes: sync.total_bytes(),
        max_lag,
        final_lag,
        last_epoch: sync.last_epoch(),
    }
}

fn run_client(addrs: Vec<String>, load: Load, id: u64, epoch: u64) -> u64 {
    let cfg = ClusterConfig {
        batch_tuples: load.batch_tuples,
        ..ClusterConfig::default()
    };
    let mut router = ClusterRouter::connect(load.num_keys, &addrs, cfg).expect("client connect");
    let mut rng = SplitMix64::seed_from_u64(0xC10C + id * 1_000 + epoch);
    let mut sent_sum = 0u64;
    for _ in 0..load.tuples_per_client_per_epoch {
        let key = rng.u32_below(load.num_keys);
        let value = rng.next_u64() >> 40; // small, sums stay < u64::MAX
        sent_sum += value;
        router.send(key, value).expect("client send");
    }
    router.flush().expect("client flush");
    sent_sum
}

fn main() {
    let scale = Scale::from_args();
    let load = Load::for_scale(scale);

    let stream_cfg = StreamConfig::new()
        .shards(4)
        .channel_capacity(64)
        .batch_tuples(load.batch_tuples);
    let pid = std::process::id();
    let primary_dir = report::results_dir().join(format!("cluster-loadgen-primary-{pid}"));
    let follower_dir = report::results_dir().join(format!("cluster-loadgen-follower-{pid}"));

    // Node 0 is the durable primary (WAL on, shipped to the follower);
    // node 1 is a plain in-memory backend.
    let mut servers = Vec::with_capacity(NODES);
    for node in 0..NODES {
        let mut serve_cfg = ServeConfig::new().read_timeout(Duration::from_millis(20));
        if node == 0 {
            serve_cfg =
                serve_cfg.durable(DurableConfig::new(&primary_dir).sync(SyncPolicy::OnSeal));
        }
        // Every node is started with the full key space; the router only
        // ever sends a node the keys in its owned range.
        servers.push(Server::start(load.num_keys, stream_cfg, serve_cfg).expect("start node"));
    }
    let addrs: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();

    println!(
        "cluster loadgen ({scale:?}): {} nodes, {} clients x {} epochs x {} tuples over {} keys",
        NODES, load.clients, load.epochs, load.tuples_per_client_per_epoch, load.num_keys
    );

    let stop = Arc::new(AtomicBool::new(false));
    let follower = {
        let primary = addrs[0].clone();
        let dir = follower_dir.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || run_follower(primary, dir, stop))
    };

    let sealer_cfg = ClusterConfig {
        batch_tuples: load.batch_tuples,
        ..ClusterConfig::default()
    };
    let mut sealer =
        ClusterRouter::connect(load.num_keys, &addrs, sealer_cfg).expect("sealer connect");

    let t0 = Instant::now();
    let mut sent_sum = 0u64;
    for epoch in 0..load.epochs {
        let joins: Vec<_> = (0..load.clients)
            .map(|c| {
                let addrs = addrs.clone();
                std::thread::spawn(move || run_client(addrs, load, c as u64, epoch))
            })
            .collect();
        for j in joins {
            sent_sum += j.join().expect("client thread");
        }
        let committed = sealer.seal_and_commit().expect("seal_and_commit");
        assert_eq!(committed, epoch + 1, "cluster epochs must advance by one");
    }
    let elapsed = t0.elapsed();

    let snapshot = sealer
        .cluster_snapshot(load.epochs)
        .expect("cluster snapshot");
    let stats = sealer.stats().expect("cluster stats");

    // Let the follower catch up fully, then read its report.
    stop.store(true, Ordering::Relaxed); // ordering: stop flag only gates loop exit
    let frep = follower.join().expect("follower thread");

    let sent_tuples = load.clients as u64 * load.epochs * load.tuples_per_client_per_epoch as u64;
    let cluster_sum: u64 = snapshot.iter().sum();
    let tuples_per_sec = sent_tuples as f64 / elapsed.as_secs_f64();
    let node_mtps: Vec<f64> = stats
        .iter()
        .map(|s| s.tuples_ingested as f64 / elapsed.as_secs_f64() / 1e6)
        .collect();

    let mut t = Table::new(
        "cluster loadgen (closed loop)",
        &[
            "scale",
            "nodes",
            "clients",
            "epochs",
            "tuples",
            "Mtuples/s",
            "node0_Mtps",
            "node1_Mtps",
            "repl_rounds",
            "repl_bytes",
            "repl_lag_max",
            "repl_lag_final",
        ],
    );
    t.row(vec![
        format!("{scale:?}").to_lowercase(),
        NODES.to_string(),
        load.clients.to_string(),
        load.epochs.to_string(),
        sent_tuples.to_string(),
        report::f2(tuples_per_sec / 1e6),
        report::f2(node_mtps[0]),
        report::f2(node_mtps[1]),
        frep.rounds.to_string(),
        frep.bytes.to_string(),
        frep.max_lag.to_string(),
        frep.final_lag.to_string(),
    ]);
    t.print();

    for (n, s) in stats.iter().enumerate() {
        println!(
            "node {n}: {} tuples ingested, {} epochs committed",
            s.tuples_ingested, s.epochs_committed
        );
    }
    drop(sealer);
    for s in servers.drain(..) {
        let _ = s.shutdown();
    }
    let _ = std::fs::remove_dir_all(&primary_dir);
    let _ = std::fs::remove_dir_all(&follower_dir);

    // Correctness gates.
    let mut ok = true;
    if cluster_sum != sent_sum {
        println!("LOST UPDATES: clients sent sum {sent_sum}, cluster accumulated {cluster_sum}");
        ok = false;
    } else {
        println!("zero-loss check: cluster sum == client sum ({cluster_sum})");
    }
    let ingested: u64 = stats.iter().map(|s| s.tuples_ingested).sum();
    if ingested != sent_tuples {
        println!("TUPLE COUNT MISMATCH: clients sent {sent_tuples}, cluster ingested {ingested}");
        ok = false;
    }
    if frep.last_epoch != load.epochs || frep.final_lag != 0 {
        println!(
            "REPLICATION BEHIND: follower at epoch {} (lag {}), primary committed {}",
            frep.last_epoch, frep.final_lag, load.epochs
        );
        ok = false;
    } else {
        println!(
            "replication check: follower caught up at epoch {} ({} bytes over {} rounds, max lag {})",
            frep.last_epoch, frep.bytes, frep.rounds, frep.max_lag
        );
    }
    if !ok {
        std::process::exit(1);
    }
}
