//! Closed-loop load generator for the `cobra-serve` network layer.
//!
//! N client threads each drive one connection: UPDATE batches with a
//! periodic SEAL, interleaved with a skewed QUERY mix (90% of queries on
//! 10% of the key space — the workload the S3-FIFO snapshot cache is
//! for). Query latency is measured per round-trip; ingest throughput is
//! wall-clock over the total tuples the server accepted.
//!
//! The run is also a correctness gate, not just a measurement:
//!
//! * **Zero loss** — after a graceful shutdown, the sum over the final
//!   snapshot must equal the sum of every value the clients sent
//!   (`SumU64` makes this a single equality).
//! * **Warm cache** — the skewed query mix must produce a non-zero
//!   cache hit rate.
//!
//! `--connections N` adds a connection-scaling storm before shutdown:
//! N concurrent connections (16 driver threads, each multiplexing its
//! share over the reactor) push pipelined UPDATEs in open loop with
//! `BUSY`-suffix retries, while one subscriber asserts the pushed epoch
//! stream stays gap-free under the storm. The storm's tuples join the
//! zero-loss equality, so a single dropped update anywhere across the
//! N connections fails the run.
//!
//! Either failure exits non-zero. The run prints one `scale,…` row; the
//! measured series lives in `benchmarks/results/BENCH_<n>.json`.

#![forbid(unsafe_code)]

use cobra_bench::{report, Scale, Table};
use cobra_graph::rng::SplitMix64;
use cobra_serve::{ServeClient, ServeConfig, Server, SubEvent};
use cobra_stream::{DurableConfig, StreamConfig, SyncPolicy};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Clone, Copy)]
struct Load {
    num_keys: u32,
    clients: usize,
    batches_per_client: usize,
    batch_tuples: usize,
    queries_per_batch: usize,
    seal_every_batches: usize,
}

impl Load {
    fn for_scale(scale: Scale) -> Load {
        match scale {
            Scale::Quick => Load {
                num_keys: 1 << 14,
                clients: 4,
                batches_per_client: 60,
                batch_tuples: 256,
                queries_per_batch: 8,
                seal_every_batches: 10,
            },
            Scale::Standard => Load {
                num_keys: 1 << 18,
                clients: 8,
                batches_per_client: 400,
                batch_tuples: 512,
                queries_per_batch: 8,
                seal_every_batches: 25,
            },
            Scale::Full => Load {
                num_keys: 1 << 20,
                clients: 16,
                batches_per_client: 1_000,
                batch_tuples: 1_024,
                queries_per_batch: 8,
                seal_every_batches: 50,
            },
        }
    }
}

struct ClientReport {
    sent_sum: u64,
    sent_tuples: u64,
    busy_rounds: u64,
    latencies_us: Vec<u64>,
}

fn run_client(addr: std::net::SocketAddr, load: &Load, id: u64) -> ClientReport {
    let mut client = ServeClient::connect(addr).expect("loadgen connect");
    let mut rng = SplitMix64::seed_from_u64(0xC0BA + id);
    let hot_keys = (load.num_keys / 10).max(1);
    let mut sent_sum = 0u64;
    let mut sent_tuples = 0u64;
    let mut busy_rounds = 0u64;
    let mut latencies_us = Vec::with_capacity(load.batches_per_client * load.queries_per_batch);

    for batch_no in 0..load.batches_per_client {
        let batch: Vec<(u32, u64)> = (0..load.batch_tuples)
            .map(|_| {
                let key = rng.u32_below(load.num_keys);
                let value = rng.next_u64() >> 40; // small, sums stay < u64::MAX
                sent_sum += value;
                sent_tuples += 1;
                (key, value)
            })
            .collect();
        busy_rounds += client.update_all(&batch).expect("loadgen update");

        if batch_no % load.seal_every_batches == load.seal_every_batches - 1 {
            client.seal().expect("loadgen seal");
        }

        for _ in 0..load.queries_per_batch {
            // 90% of queries land on the first 10% of keys: the skew the
            // snapshot cache exists to absorb.
            let key = if rng.u32_below(10) < 9 {
                rng.u32_below(hot_keys)
            } else {
                rng.u32_below(load.num_keys)
            };
            let t0 = Instant::now();
            client.query(key).expect("loadgen query");
            latencies_us.push(t0.elapsed().as_micros() as u64);
        }
    }

    ClientReport {
        sent_sum,
        sent_tuples,
        busy_rounds,
        latencies_us,
    }
}

fn percentile_us(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// Drivers used by the connection storm; each multiplexes its share of
/// the total connection count.
const STORM_DRIVERS: usize = 16;
const STORM_ROUNDS: usize = 4;
const STORM_TUPLES_PER_ROUND: usize = 16;

struct StormReport {
    sent_sum: u64,
    sent_tuples: u64,
    busy_rounds: u64,
    completed_conns: usize,
}

/// One storm driver: opens `conns` connections, then per round sends one
/// UPDATE down every connection before reading any acknowledgement (open
/// loop across the whole set), collecting `BUSY` suffixes with lockstep
/// retries. Every connection must finish every round — a refused
/// connection or lost tuple shows up in the gates.
fn run_storm_driver(
    addr: std::net::SocketAddr,
    num_keys: u32,
    conns: usize,
    id: u64,
) -> StormReport {
    let mut clients: Vec<ServeClient> = (0..conns)
        .map(|_| ServeClient::connect(addr).expect("storm connect"))
        .collect();
    let mut rng = SplitMix64::seed_from_u64(0x57A2 + id);
    let mut sent_sum = 0u64;
    let mut sent_tuples = 0u64;
    let mut busy_rounds = 0u64;
    let mut batch = Vec::with_capacity(STORM_TUPLES_PER_ROUND);
    let mut batches: Vec<Vec<(u32, u64)>> = Vec::with_capacity(conns);
    for _ in 0..STORM_ROUNDS {
        batches.clear();
        // Phase A: one UPDATE in flight on every connection at once.
        for client in clients.iter_mut() {
            batch.clear();
            for _ in 0..STORM_TUPLES_PER_ROUND {
                let key = rng.u32_below(num_keys);
                let value = rng.next_u64() >> 40;
                sent_sum += value;
                sent_tuples += 1;
                batch.push((key, value));
            }
            client.send_update(&batch).expect("storm send");
            batches.push(batch.clone());
        }
        // Phase B: collect acknowledgements; a BUSY answer admits a
        // prefix, so resend the suffix until the batch is fully in.
        for (client, batch) in clients.iter_mut().zip(&batches) {
            let mut at = 0usize;
            loop {
                let outcome = client.recv_update().expect("storm recv");
                at += outcome.accepted as usize;
                if !outcome.busy {
                    break;
                }
                busy_rounds += 1;
                if outcome.accepted == 0 {
                    std::thread::sleep(Duration::from_micros(200));
                }
                client.send_update(&batch[at..]).expect("storm resend");
            }
            assert_eq!(at, batch.len(), "storm batch not fully accepted");
        }
        // One driver seals per round so the storm also exercises epoch
        // turnover (and feeds the gap-free subscriber).
        if id == 0 {
            clients[0].seal().expect("storm seal");
        }
    }
    StormReport {
        sent_sum,
        sent_tuples,
        busy_rounds,
        completed_conns: clients.len(),
    }
}

/// Runs the connection storm: N concurrent connections plus one
/// subscriber that must observe a gap-free epoch stream throughout.
/// Returns the aggregate report; exits the process on a gap.
fn run_storm(addr: std::net::SocketAddr, num_keys: u32, connections: usize) -> StormReport {
    // The subscriber rides along for the whole storm; `target_epoch`
    // (set after the final seal) tells it when to stop.
    let target_epoch = Arc::new(AtomicU64::new(0));
    let subscriber = std::thread::spawn({
        let target_epoch = Arc::clone(&target_epoch);
        move || {
            let client = ServeClient::connect(addr).expect("subscriber connect");
            let mut sub = client.subscribe(0, num_keys).expect("subscribe");
            let mut prev = sub.start_epoch();
            let mut gaps = 0u64;
            let mut epochs = 0u64;
            loop {
                match sub.next_event().expect("subscriber event") {
                    SubEvent::Delta {
                        from_epoch,
                        to_epoch,
                        ..
                    } => {
                        if from_epoch != prev || to_epoch != prev + 1 {
                            gaps += 1;
                        }
                        prev = to_epoch;
                        epochs += 1;
                    }
                    // A lag drop is a gap by definition for this gate.
                    SubEvent::Lagged { resume_epoch } => {
                        gaps += 1;
                        prev = resume_epoch;
                    }
                }
                let target = target_epoch.load(Ordering::Acquire);
                if target > 0 && prev >= target {
                    break;
                }
            }
            sub.unsubscribe().expect("unsubscribe");
            (gaps, epochs)
        }
    });

    let per_driver = connections.div_ceil(STORM_DRIVERS);
    let joins: Vec<_> = (0..STORM_DRIVERS)
        .map(|d| {
            let share = per_driver.min(connections - (per_driver * d).min(connections));
            std::thread::spawn(move || run_storm_driver(addr, num_keys, share, d as u64))
        })
        .collect();
    let mut total = StormReport {
        sent_sum: 0,
        sent_tuples: 0,
        busy_rounds: 0,
        completed_conns: 0,
    };
    for j in joins {
        let r = j.join().expect("storm driver");
        total.sent_sum += r.sent_sum;
        total.sent_tuples += r.sent_tuples;
        total.busy_rounds += r.busy_rounds;
        total.completed_conns += r.completed_conns;
    }

    // Final seal: everything the storm sent is now behind a published
    // epoch, and the subscriber knows where its stream may end. The
    // subscriber may have consumed that epoch's delta before the store
    // became visible, so keep nudging fresh epochs (value-0 tuples leave
    // the zero-loss sum untouched) until it notices and exits.
    let mut sealer = ServeClient::connect(addr).expect("sealer connect");
    let last = sealer.seal().expect("final seal");
    target_epoch.store(last, Ordering::Release);
    while !subscriber.is_finished() {
        sealer.update_all(&[(0, 0)]).expect("nudge update");
        total.sent_tuples += 1;
        sealer.seal().expect("nudge seal");
        std::thread::sleep(Duration::from_millis(5));
    }
    let (gaps, epochs) = subscriber.join().expect("subscriber thread");

    println!(
        "connection storm: {} connections completed, {} tuples, {} busy rounds, \
         subscriber saw {} epochs with {} gaps",
        total.completed_conns, total.sent_tuples, total.busy_rounds, epochs, gaps
    );
    if total.completed_conns != connections {
        println!(
            "CONNECTION LOSS: asked for {connections}, only {} completed",
            total.completed_conns
        );
        std::process::exit(1);
    }
    if gaps != 0 {
        println!("SUBSCRIPTION GAPS: {gaps} gaps in the pushed epoch stream under the storm");
        std::process::exit(1);
    }
    total
}

fn main() {
    let scale = Scale::from_args();
    let load = Load::for_scale(scale);
    // `--durable` runs the same closed loop with the write-ahead log on,
    // so the WAL columns quantify the durability tax.
    let durable = std::env::args().any(|a| a == "--durable");
    // `--connections N`: run the connection-scaling storm after the
    // closed loop (N concurrent connections against the reactor).
    let connections = {
        let args: Vec<String> = std::env::args().collect();
        args.iter()
            .position(|a| a == "--connections")
            .and_then(|i| args.get(i + 1))
            .map(|v| v.parse::<usize>().expect("--connections needs a number"))
            .unwrap_or(0)
    };

    let stream_cfg = StreamConfig::new()
        .shards(4)
        .channel_capacity(64)
        .batch_tuples(load.batch_tuples);
    let mut serve_cfg = ServeConfig::new()
        .max_conns(load.clients + connections + STORM_DRIVERS)
        .cache_blocks(256)
        .cache_block_keys(512)
        .read_timeout(Duration::from_millis(20));
    let data_dir = report::results_dir().join(format!("wal-loadgen-{}", std::process::id()));
    if durable {
        serve_cfg = serve_cfg.durable(DurableConfig::new(&data_dir).sync(SyncPolicy::OnSeal));
    }
    let server = Server::start(load.num_keys, stream_cfg, serve_cfg).expect("bind loadgen server");
    let addr = server.local_addr();

    println!(
        "serve loadgen ({scale:?}{}): {} clients x {} batches x {} tuples over {} keys @ {addr}",
        if durable { ", durable" } else { "" },
        load.clients,
        load.batches_per_client,
        load.batch_tuples,
        load.num_keys
    );

    let t0 = Instant::now();
    let joins: Vec<_> = (0..load.clients)
        .map(|c| std::thread::spawn(move || run_client(addr, &load, c as u64)))
        .collect();
    let reports: Vec<ClientReport> = joins
        .into_iter()
        .map(|j| j.join().expect("client thread"))
        .collect();
    let elapsed = t0.elapsed();

    // The storm shares the server (and the zero-loss equality) with the
    // closed loop but is timed separately: the elapsed window above only
    // covers the throughput measurement.
    let storm = if connections > 0 {
        Some(run_storm(addr, load.num_keys, connections))
    } else {
        None
    };

    let (snapshot, stats) = server.shutdown();

    // Throughput is measured over the closed loop alone; the gates at
    // the bottom cover the storm's tuples too.
    let loop_tuples: u64 = reports.iter().map(|r| r.sent_tuples).sum();
    let mut sent_sum: u64 = reports.iter().map(|r| r.sent_sum).sum();
    let mut sent_tuples: u64 = loop_tuples;
    let mut busy_rounds: u64 = reports.iter().map(|r| r.busy_rounds).sum();
    if let Some(s) = &storm {
        sent_sum += s.sent_sum;
        sent_tuples += s.sent_tuples;
        busy_rounds += s.busy_rounds;
    }
    let server_sum: u64 = snapshot.iter().sum();

    let mut lat: Vec<u64> = reports
        .iter()
        .flat_map(|r| r.latencies_us.iter().copied())
        .collect();
    lat.sort_unstable();
    let p50 = percentile_us(&lat, 0.50);
    let p99 = percentile_us(&lat, 0.99);
    let tuples_per_sec = loop_tuples as f64 / elapsed.as_secs_f64();
    let queries_per_sec = lat.len() as f64 / elapsed.as_secs_f64();

    let mut t = Table::new(
        "serve loadgen (closed loop)",
        &[
            "scale",
            "clients",
            "connections",
            "tuples",
            "Mtuples/s",
            "busy_rounds",
            "queries",
            "q/s",
            "p50_us",
            "p99_us",
            "cache_hit_rate",
            "bins_bytes",
            "bin_segments",
            "cbuf_occupancy",
            "wal_bytes",
            "wal_fsyncs",
            "wal_segments",
            "wal_replayed",
        ],
    );
    t.row(vec![
        format!("{scale:?}").to_lowercase(),
        load.clients.to_string(),
        // Closed-loop connections (one per client) plus the storm's.
        (load.clients + connections).to_string(),
        sent_tuples.to_string(),
        report::f2(tuples_per_sec / 1e6),
        busy_rounds.to_string(),
        lat.len().to_string(),
        format!("{queries_per_sec:.0}"),
        p50.to_string(),
        p99.to_string(),
        report::f2(stats.cache_hit_rate()),
        stats.bins_bytes.to_string(),
        stats.bin_segments.to_string(),
        report::f2(stats.cbuf_occupancy()),
        stats.wal_bytes_appended.to_string(),
        stats.wal_fsyncs.to_string(),
        stats.wal_segments.to_string(),
        stats.wal_replayed_records.to_string(),
    ]);
    t.print();
    if durable {
        let _ = std::fs::remove_dir_all(&data_dir);
    }

    println!(
        "ingested {} tuples ({} refused then retried), {} epochs sealed, {} published",
        stats.tuples_ingested, stats.busy_tuples, stats.epochs_sealed, stats.epochs_published
    );

    // Correctness gates.
    let mut ok = true;
    if server_sum != sent_sum {
        println!("LOST UPDATES: clients sent sum {sent_sum}, server accumulated {server_sum}");
        ok = false;
    } else {
        println!("zero-loss check: server sum == client sum ({server_sum})");
    }
    if stats.tuples_ingested != sent_tuples {
        println!(
            "TUPLE COUNT MISMATCH: clients sent {sent_tuples}, server ingested {}",
            stats.tuples_ingested
        );
        ok = false;
    }
    if stats.cache_hits == 0 {
        println!("COLD CACHE: skewed query mix produced no cache hits ({stats:?})");
        ok = false;
    } else {
        println!(
            "cache check: hit rate {:.1}% over {} queries",
            100.0 * stats.cache_hit_rate(),
            stats.queries
        );
    }
    if !ok {
        std::process::exit(1);
    }
}
