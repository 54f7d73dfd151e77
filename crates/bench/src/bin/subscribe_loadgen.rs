//! Closed-loop load generator for `cobra-serve` push subscriptions.
//!
//! One driver connection seals a stream of epochs while N subscriber
//! threads, registered before the first publish, reconstruct the full
//! key space from per-epoch deltas alone (absolute values; a `LAGGED`
//! notice is answered with one diff re-sync over an auxiliary
//! connection). Delta latency is measured from the driver's `SEAL`
//! round-trip to the delta's arrival at each subscriber.
//!
//! The run is a correctness gate, not just a measurement:
//!
//! * **Zero gaps** — every delta a subscriber applies must advance its
//!   reconstruction by exactly one epoch (`to_epoch == last + 1`), and
//!   every lag re-sync must land exactly on the marker's resume epoch.
//! * **Bit-identical reconstruction** — after the final epoch, every
//!   subscriber's reconstructed state must equal the server's own
//!   `SNAPSHOT` of that epoch, value for value.
//!
//! Either failure exits non-zero. The run prints one `scale,…` row; the
//! measured series lives in `benchmarks/results/BENCH_<n>.json`.

#![forbid(unsafe_code)]

use cobra_bench::{report, Scale, Table};
use cobra_graph::rng::SplitMix64;
use cobra_serve::{ServeClient, ServeConfig, Server, SubEvent};
use std::time::{Duration, Instant};

#[derive(Clone, Copy)]
struct Load {
    num_keys: u32,
    epochs: u64,
    subscribers: usize,
    tuples_per_epoch: usize,
    sub_queue_epochs: usize,
}

impl Load {
    fn for_scale(scale: Scale) -> Load {
        match scale {
            Scale::Quick => Load {
                num_keys: 1 << 12,
                epochs: 30,
                subscribers: 3,
                tuples_per_epoch: 1 << 10,
                sub_queue_epochs: 8,
            },
            Scale::Standard => Load {
                num_keys: 1 << 15,
                epochs: 100,
                subscribers: 8,
                tuples_per_epoch: 1 << 13,
                sub_queue_epochs: 8,
            },
            Scale::Full => Load {
                num_keys: 1 << 16,
                epochs: 250,
                subscribers: 12,
                tuples_per_epoch: 1 << 14,
                sub_queue_epochs: 8,
            },
        }
    }
}

struct SubReport {
    state: Vec<u64>,
    gaps: u64,
    lags: u64,
    /// `(epoch, arrival)` for every directly delivered delta.
    arrivals: Vec<(u64, Instant)>,
}

fn run_subscriber(addr: std::net::SocketAddr, load: &Load) -> SubReport {
    let client = ServeClient::connect(addr).expect("subscriber connect");
    let mut sub = client.subscribe(0, load.num_keys).expect("subscribe");
    let mut aux = ServeClient::connect(addr).expect("subscriber aux connect");
    let (mut state, mut last) = if sub.start_epoch() == 0 {
        (vec![0u64; load.num_keys as usize], 0)
    } else {
        let (e, _, v) = aux
            .snapshot(sub.start_epoch(), 0, load.num_keys)
            .expect("baseline snapshot");
        (v, e)
    };
    let mut gaps = 0u64;
    let mut lags = 0u64;
    let mut arrivals = Vec::with_capacity(load.epochs as usize);

    while last < load.epochs {
        match sub.next_event().expect("subscription event") {
            SubEvent::Delta {
                from_epoch,
                to_epoch,
                entries,
            } => {
                if from_epoch != last || to_epoch != last + 1 {
                    gaps += 1;
                }
                for (k, v) in entries {
                    state[k as usize] = v;
                }
                last = to_epoch;
                arrivals.push((to_epoch, Instant::now()));
            }
            SubEvent::Lagged { resume_epoch } => {
                lags += 1;
                let (_, to, entries) = aux
                    .diff(last, resume_epoch, 0, load.num_keys)
                    .expect("re-sync diff");
                if to != resume_epoch {
                    gaps += 1;
                }
                for (k, v) in entries {
                    state[k as usize] = v;
                }
                last = to;
            }
        }
    }
    sub.unsubscribe().expect("unsubscribe");
    SubReport {
        state,
        gaps,
        lags,
        arrivals,
    }
}

fn percentile_us(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn main() {
    let scale = Scale::from_args();
    let load = Load::for_scale(scale);

    let stream_cfg = cobra_stream::StreamConfig::new()
        .shards(4)
        .channel_capacity(64)
        .batch_tuples(1024);
    let serve_cfg = ServeConfig::new()
        .cache_blocks(64)
        .cache_block_keys(512)
        .read_timeout(Duration::from_millis(20))
        .retain_epochs(load.epochs as usize + 4)
        .sub_queue_epochs(load.sub_queue_epochs);
    let server = Server::start(load.num_keys, stream_cfg, serve_cfg).expect("bind loadgen server");
    let addr = server.local_addr();

    println!(
        "subscribe loadgen ({scale:?}): {} subscribers x {} epochs x {} tuples over {} keys @ {addr}",
        load.subscribers, load.epochs, load.tuples_per_epoch, load.num_keys
    );

    // Subscribers register before the first publish so delta streams
    // cover every epoch from a zero baseline.
    let t0 = Instant::now();
    let joins: Vec<_> = (0..load.subscribers)
        .map(|_| std::thread::spawn(move || run_subscriber(addr, &load)))
        .collect();

    // The driver: one epoch per SEAL, waiting for publication so seal
    // timestamps are a consistent latency baseline.
    let mut driver = ServeClient::connect(addr).expect("driver connect");
    let mut rng = SplitMix64::seed_from_u64(0x5B5C);
    let mut seal_times = Vec::with_capacity(load.epochs as usize);
    for _ in 0..load.epochs {
        let batch: Vec<(u32, u64)> = (0..load.tuples_per_epoch)
            .map(|_| (rng.u32_below(load.num_keys), rng.next_u64() >> 40))
            .collect();
        driver.update_all(&batch).expect("driver update");
        seal_times.push(Instant::now());
        let sealed = driver.seal().expect("driver seal");
        driver.wait_epoch(sealed).expect("driver wait_epoch");
    }

    let reports: Vec<SubReport> = joins
        .into_iter()
        .map(|j| j.join().expect("subscriber thread"))
        .collect();
    let elapsed = t0.elapsed();

    // Ground truth before shutdown: the server's own final snapshot.
    let (truth_epoch, _, truth) = driver
        .snapshot(load.epochs, 0, load.num_keys)
        .expect("final snapshot");
    let wire = driver.stats().expect("stats");
    drop(driver);
    let (_, _stats) = server.shutdown();

    let gaps: u64 = reports.iter().map(|r| r.gaps).sum();
    let lags: u64 = reports.iter().map(|r| r.lags).sum();
    let delivered: usize = reports.iter().map(|r| r.arrivals.len()).sum();
    let mut lat: Vec<u64> = reports
        .iter()
        .flat_map(|r| r.arrivals.iter())
        .map(|&(epoch, at)| {
            at.saturating_duration_since(seal_times[(epoch - 1) as usize])
                .as_micros() as u64
        })
        .collect();
    lat.sort_unstable();
    let p50 = percentile_us(&lat, 0.50);
    let p99 = percentile_us(&lat, 0.99);
    let epochs_per_sec = load.epochs as f64 / elapsed.as_secs_f64();

    let mut t = Table::new(
        "subscribe loadgen (push deltas)",
        &[
            "scale",
            "subs",
            "epochs",
            "keys",
            "tuples_per_epoch",
            "deltas",
            "lags",
            "gaps",
            "p50_us",
            "p99_us",
            "epochs_per_s",
            "deltas_pushed",
            "retained_epochs",
            "retained_bytes",
        ],
    );
    t.row(vec![
        format!("{scale:?}").to_lowercase(),
        load.subscribers.to_string(),
        load.epochs.to_string(),
        load.num_keys.to_string(),
        load.tuples_per_epoch.to_string(),
        delivered.to_string(),
        lags.to_string(),
        gaps.to_string(),
        p50.to_string(),
        p99.to_string(),
        report::f2(epochs_per_sec),
        wire.deltas_pushed.to_string(),
        wire.retained_epochs.to_string(),
        wire.retained_bytes.to_string(),
    ]);
    t.print();

    println!(
        "{delivered} deltas delivered, {lags} lag re-syncs, {} pushed server-side, \
         {:.1} epochs/s",
        wire.deltas_pushed, epochs_per_sec
    );

    // Correctness gates.
    let mut ok = true;
    if gaps != 0 {
        println!("DELIVERY GAPS: {gaps} deltas arrived out of per-epoch order");
        ok = false;
    } else {
        println!("zero-gap check: every delta advanced its subscriber by exactly one epoch");
    }
    if truth_epoch != load.epochs {
        println!(
            "TRUTH EPOCH MISMATCH: wanted {}, server served {truth_epoch}",
            load.epochs
        );
        ok = false;
    }
    for (i, r) in reports.iter().enumerate() {
        if r.state != truth {
            println!(
                "RECONSTRUCTION MISMATCH: subscriber {i} diverged from the server's \
                 snapshot at epoch {truth_epoch}"
            );
            ok = false;
        }
    }
    if ok {
        println!(
            "reconstruction check: {} subscribers bit-identical to SNAPSHOT{{{truth_epoch}}}",
            reports.len()
        );
    } else {
        std::process::exit(1);
    }
}
