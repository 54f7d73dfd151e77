//! Drivers shared by ladder rungs, probes and workloads: push one tuple
//! stream through one layer's public API and time it from outside. Each
//! returns what it measured plus the resulting table so the caller can
//! hold it against the scatter reference.

use crate::spans::Tracer;
use cobra_pb::bin_parallel;
use cobra_serve::{ServeClient, ServeConfig, Server, SumU64, WireStats};
use cobra_stream::{DurableConfig, EpochSnapshot, IngestPipeline, StreamConfig, StreamStats};
use std::sync::Arc;
use std::time::Instant;

/// Tuples between seals on every streaming rung and workload.
pub const EPOCH_TUPLES: usize = 1 << 18;
/// Tuples per UPDATE frame on the wire (the cluster router's default
/// batch, so serve and cluster rungs drive identical frames).
pub const FRAME_TUPLES: usize = 4096;
/// L2 size the batch bin count is anchored to (this sandbox: 4 MiB).
const L2_BYTES: u64 = 4 << 20;

/// The configuration every streaming layer runs under: two shards,
/// everything else default.
pub fn stream_cfg() -> StreamConfig {
    StreamConfig::new().shards(2)
}

/// Bins for a batch run over `num_keys` `u64` slots: one bin's slice of
/// the table fits half the L2, the Accumulate phase's operating point.
pub fn batch_bins(num_keys: u32) -> usize {
    cobra_pb::ideal_accumulate_bins(num_keys, 8, L2_BYTES)
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

pub struct BatchRun {
    pub binning_s: f64,
    pub accumulate_s: f64,
}

impl BatchRun {
    pub fn seconds(&self) -> f64 {
        self.binning_s + self.accumulate_s
    }
}

/// Batch PB: `bin_parallel` then `accumulate_into` a zeroed `table`.
pub fn batch_run(
    tuples: &[(u32, u64)],
    table: &mut [u64],
    threads: usize,
    tr: &mut Tracer,
) -> BatchRun {
    let num_keys = table.len() as u32;
    let t = Instant::now();
    tr.enter("pb.bin_parallel");
    let bins = bin_parallel(tuples.len(), num_keys, batch_bins(num_keys), threads, |i| {
        tuples[i]
    });
    tr.exit();
    let binning_s = secs(t);
    let t = Instant::now();
    tr.enter("pb.accumulate_into");
    bins.accumulate_into(table, threads, |chunk, base, k, v| {
        let slot = &mut chunk[(k - base) as usize];
        *slot = slot.wrapping_add(*v);
    });
    tr.exit();
    let accumulate_s = secs(t);
    tr.count("bins.tuples", bins.len() as f64);
    tr.span("pb.drop_bins", |_| drop(bins));
    BatchRun {
        binning_s,
        accumulate_s,
    }
}

pub struct StreamRun {
    /// First `send` until the last epoch is visible.
    pub seconds: f64,
    /// Per epoch: `seal_epoch()` call until `published_epoch() >= e`.
    pub epoch_ms: Vec<f64>,
    /// Per epoch: the `send` loop, per tuple.
    pub send_ns: Vec<f64>,
    pub seal_call_us: Vec<f64>,
    pub shutdown_ms: f64,
    pub stats: StreamStats,
    pub snapshot: Arc<EpochSnapshot<u64>>,
}

/// One producer into a fresh `IngestPipeline<SumU64>`, sealing and
/// waiting for visibility every [`EPOCH_TUPLES`] (closed loop).
pub fn stream_run(tuples: &[(u32, u64)], num_keys: u32, tr: &mut Tracer) -> StreamRun {
    let pipeline = IngestPipeline::new(num_keys, SumU64, stream_cfg());
    let mut handle = pipeline.handle();
    let mut run = StreamRun {
        seconds: 0.0,
        epoch_ms: Vec::new(),
        send_ns: Vec::new(),
        seal_call_us: Vec::new(),
        shutdown_ms: 0.0,
        stats: pipeline.stats(),
        snapshot: pipeline.snapshot(),
    };
    let t0 = Instant::now();
    for epoch in tuples.chunks(EPOCH_TUPLES) {
        tr.enter("epoch");
        let t = Instant::now();
        tr.enter("stream.send");
        for &(k, v) in epoch {
            handle.send(k, v).expect("pipeline alive");
        }
        tr.exit();
        run.send_ns.push(secs(t) * 1e9 / epoch.len() as f64);
        let sealed_at = Instant::now();
        tr.enter("stream.seal_epoch");
        let e = handle.seal_epoch().expect("pipeline alive");
        tr.exit();
        run.seal_call_us.push(secs(sealed_at) * 1e6);
        tr.enter("stream.publish_wait");
        while pipeline.published_epoch() < e {
            std::thread::yield_now();
        }
        tr.exit();
        run.epoch_ms.push(secs(sealed_at) * 1e3);
        tr.exit();
    }
    run.seconds = secs(t0);
    drop(handle);
    let t = Instant::now();
    tr.enter("stream.shutdown");
    let (snapshot, stats) = pipeline.shutdown();
    tr.exit();
    run.shutdown_ms = secs(t) * 1e3;
    run.stats = stats;
    run.snapshot = snapshot;
    run
}

pub struct ServeRun {
    /// First UPDATE sent until the last epoch's `wait_epoch` returns.
    pub seconds: f64,
    /// Per epoch: `seal()` call until `wait_epoch(e)` returns.
    pub epoch_ms: Vec<f64>,
    /// Per 4096-tuple frame: `update_all` round trip.
    pub update_rtt_us: Vec<f64>,
    pub seal_rtt_us: Vec<f64>,
    pub wait_epoch_ms: Vec<f64>,
    pub busy_rounds: u64,
    pub start_ms: f64,
    pub shutdown_ms: f64,
    /// Client calls made / that returned an error.
    pub ops: u64,
    pub errors: u64,
    pub stats: WireStats,
    pub snapshot: Arc<EpochSnapshot<u64>>,
}

#[derive(Default)]
struct WriterLog {
    update_rtt_us: Vec<f64>,
    epoch_ms: Vec<f64>,
    seal_rtt_us: Vec<f64>,
    wait_epoch_ms: Vec<f64>,
    busy_rounds: u64,
    ops: u64,
    errors: u64,
}

impl WriterLog {
    /// Seals and waits for the epoch; false on a client error.
    fn seal_and_wait(&mut self, client: &mut ServeClient, tr: &mut Tracer) -> bool {
        let sealed_at = Instant::now();
        self.ops += 2;
        tr.enter("serve.seal");
        let sealed = client.seal();
        tr.exit();
        let Ok(epoch) = sealed else {
            self.errors += 1;
            return false;
        };
        self.seal_rtt_us.push(secs(sealed_at) * 1e6);
        let t = Instant::now();
        tr.enter("serve.wait_epoch");
        let waited = client.wait_epoch(epoch);
        tr.exit();
        if waited.is_err() {
            self.errors += 1;
            return false;
        }
        self.wait_epoch_ms.push(secs(t) * 1e3);
        self.epoch_ms.push(secs(sealed_at) * 1e3);
        true
    }
}

/// A fresh loopback server fed to saturation by `writers` closed-loop
/// connections, each sending its contiguous share of `tuples` in
/// [`FRAME_TUPLES`] frames; writer 0 seals and waits every
/// [`EPOCH_TUPLES`] tuples of the whole stream. `durable` turns the WAL on.
pub fn serve_run(
    tuples: &[(u32, u64)],
    num_keys: u32,
    writers: usize,
    durable: Option<DurableConfig>,
    tr: &mut Tracer,
) -> ServeRun {
    let mut cfg = ServeConfig::new();
    if let Some(d) = durable {
        cfg = cfg.durable(d);
    }
    let t = Instant::now();
    tr.enter("serve.start");
    let server = Server::start(num_keys, stream_cfg(), cfg).expect("start loopback server");
    tr.exit();
    let start_ms = secs(t) * 1e3;
    let addr = server.local_addr();
    let mut clients: Vec<ServeClient> = (0..writers)
        .map(|_| ServeClient::connect(addr).expect("connect writer"))
        .collect();
    let share = tuples
        .len()
        .div_ceil(writers)
        .next_multiple_of(FRAME_TUPLES);
    let frames_per_epoch = (EPOCH_TUPLES / writers / FRAME_TUPLES).max(1);

    let t0 = Instant::now();
    let mut logs: Vec<WriterLog> = std::thread::scope(|s| {
        let handles: Vec<_> = tuples
            .chunks(share)
            .zip(clients.iter_mut())
            .enumerate()
            .map(|(w, (mine, client))| {
                let mut tr = tr.fork(w as u32 + 1);
                s.spawn(move || {
                    let mut log = WriterLog::default();
                    tr.enter("serve.writer");
                    'send: for epoch in mine.chunks(frames_per_epoch * FRAME_TUPLES) {
                        tr.enter("serve.update_all");
                        for frame in epoch.chunks(FRAME_TUPLES) {
                            let t = Instant::now();
                            log.ops += 1;
                            match client.update_all(frame) {
                                Ok(busy) => log.busy_rounds += busy,
                                Err(_) => {
                                    log.errors += 1;
                                    tr.exit();
                                    break 'send;
                                }
                            }
                            log.update_rtt_us.push(secs(t) * 1e6);
                        }
                        tr.exit();
                        if w == 0 && !log.seal_and_wait(client, &mut tr) {
                            break;
                        }
                    }
                    tr.exit();
                    (log, tr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("writer thread"))
            .collect::<Vec<_>>()
    })
    .into_iter()
    .map(|(log, child)| {
        tr.join(child);
        log
    })
    .collect();
    // The other writers may have sent past writer 0's last seal.
    logs[0].seal_and_wait(&mut clients[0], tr);
    let seconds = secs(t0);
    drop(clients);

    let t = Instant::now();
    tr.enter("serve.shutdown");
    let (snapshot, stats) = server.shutdown();
    tr.exit();
    let mut run = ServeRun {
        seconds,
        epoch_ms: Vec::new(),
        update_rtt_us: Vec::new(),
        seal_rtt_us: Vec::new(),
        wait_epoch_ms: Vec::new(),
        busy_rounds: 0,
        start_ms,
        shutdown_ms: secs(t) * 1e3,
        ops: 0,
        errors: 0,
        stats,
        snapshot,
    };
    for log in logs.drain(..) {
        run.epoch_ms.extend(log.epoch_ms);
        run.update_rtt_us.extend(log.update_rtt_us);
        run.seal_rtt_us.extend(log.seal_rtt_us);
        run.wait_epoch_ms.extend(log.wait_epoch_ms);
        run.busy_rounds += log.busy_rounds;
        run.ops += log.ops;
        run.errors += log.errors;
    }
    run
}
