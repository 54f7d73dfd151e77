//! The ladder: one uniform stream pushed through every rung —
//! `machine.scatter` → `pb.binner` → `pb.parallel` → `stream` → `serve`
//! → `cluster` — each verified against the scatter result, giving a rate
//! and a loss factor per rung and a roofline fraction for batch PB.

use crate::drive::{self, secs, EPOCH_TUPLES};
use crate::gen;
use crate::harness::{Checks, Params};
use crate::metrics::Metrics;
use crate::spans::Tracer;
use crate::stats::{median, p50};
use crate::workloads::{serve_counts, stream_counts};
use cobra_cluster::{ClusterConfig, ClusterRouter};
use cobra_pb::Binner;
use cobra_serve::{ServeConfig, Server};
use std::time::Instant;

pub const KEYS: usize = 1 << 22;
/// 2^22 rather than the 2^24 a longer budget would allow: the traced run
/// has to fit the ladder, every probe and the workload in one process.
pub const TUPLES: usize = 1 << 22;

/// Bytes a batch-PB update moves: the tuple is read (12), written to a
/// bin (12), read back (12), and its table slot read and written (16).
const BYTES_PER_UPDATE: f64 = 52.0;

/// The Accumulate step of a single `Bins`: `table[k] += v`.
fn add(table: &mut [u64], k: u32, v: &u64) {
    let slot = &mut table[k as usize];
    *slot = slot.wrapping_add(*v);
}

/// The stream every rung consumes and the digest every rung must reach.
pub struct Stream {
    pub tuples: Vec<(u32, u64)>,
    pub num_keys: u32,
    pub want: u64,
}

impl Stream {
    pub fn new(p: &Params) -> Stream {
        let keys = p.scale.size(KEYS);
        let tuples = gen::uniform_tuples(p.scale.size(TUPLES), keys as u32, p.seed);
        let mut table = vec![0u64; keys];
        gen::scatter(&mut table, &tuples);
        Stream {
            tuples,
            num_keys: keys as u32,
            want: gen::digest(&table),
        }
    }

    fn gate<'a>(&self, checks: &mut Checks, rung: &str, table: impl IntoIterator<Item = &'a u64>) {
        let got = gen::digest(table);
        checks.gate(
            &format!("ladder.{rung}_equals_scatter"),
            got == self.want,
            || format!("digest {got:#018x}, naive scatter {:#018x}", self.want),
        );
    }
}

/// Runs the six rungs. `copy_gbps` is the machine probe the roofline
/// fraction is read against.
pub fn run(
    s: &Stream,
    p: &Params,
    copy_gbps: f64,
    tr: &mut Tracer,
    m: &mut Metrics,
    checks: &mut Checks,
) {
    let n = s.tuples.len() as f64;
    tr.enter("ladder");

    // Rung 0: in-place scatter, the bound every other rung is a loss from.
    let mut table = vec![0u64; s.num_keys as usize];
    let scatter_rate = {
        tr.enter("machine.scatter");
        let rates: Vec<f64> = (0..3)
            .map(|_| {
                table.fill(0);
                let t = Instant::now();
                gen::scatter(&mut table, &s.tuples);
                n / secs(t)
            })
            .collect();
        tr.exit();
        m.samples("machine.scatter_updates_per_s", &rates);
        median(&rates)
    };
    s.gate(checks, "scatter", &table);

    // Rung 1: one Binner, plain and fused inserts.
    {
        tr.enter("pb.binner");
        let bins = drive::batch_bins(s.num_keys);
        let mut binner = Binner::<u64>::new(s.num_keys, bins);
        let t = Instant::now();
        tr.enter("pb.binner.insert");
        for &(k, v) in &s.tuples {
            binner.insert(k, v);
        }
        tr.exit();
        let insert_s = secs(t);
        let memory = binner.memory();
        let flushes = binner.flush_stats();
        tr.enter("pb.binner.finish");
        let filled = binner.finish();
        tr.exit();
        let binning_s = secs(t);
        table.fill(0);
        let t = Instant::now();
        tr.enter("pb.binner.accumulate");
        filled.accumulate(|k, v| add(&mut table, k, v));
        tr.exit();
        let accumulate_s = secs(t);
        s.gate(checks, "binner", &table);
        m.val("pb.binner_updates_per_s", n / (binning_s + accumulate_s));
        m.val("pb.binning_s", binning_s);
        m.val("pb.accumulate_s", accumulate_s);
        m.val("pb.binning_frac", binning_s / (binning_s + accumulate_s));
        m.val("pb.ns_per_insert", insert_s * 1e9 / n);
        m.val("pb.cbuf_occupancy", flushes.occupancy());
        m.val("bins.bytes", memory.bytes as f64);
        m.val("bins.segments", memory.segments as f64);
        m.val("bins.grow_events", filled.store().grow_events() as f64);
        drop(filled);

        // The same stream through the fusion pass with the server's own
        // merge (wrapping add): what a fusable reducer pays per insert.
        let mut fused = Binner::<u64>::new(s.num_keys, bins);
        let t = Instant::now();
        tr.enter("pb.binner.insert_fused");
        for &(k, v) in &s.tuples {
            fused.insert_fused(k, v, |a, b| {
                *a = a.wrapping_add(*b);
                true
            });
        }
        tr.exit();
        m.val("pb.fused_ns_per_insert", secs(t) * 1e9 / n);
        let fuse = fused.fuse_stats();
        m.val("pb.fuse_hit_ratio", fuse.fused_ratio());
        m.val(
            "pb.traffic_saved_frac",
            fuse.hits as f64 / fuse.attempts.max(1) as f64,
        );
        table.fill(0);
        fused.finish().accumulate(|k, v| add(&mut table, k, v));
        s.gate(checks, "binner_fused", &table);
        tr.exit();
    }

    // Rung 2: bin_parallel + accumulate_into, at 1 thread and at all.
    // Three rounds each, medians: one round is ~0.1 s and jitters.
    let parallel_rate = {
        tr.enter("pb.parallel");
        let mut rounds = |threads: usize| -> f64 {
            let times: Vec<f64> = (0..3)
                .map(|_| {
                    table.fill(0);
                    drive::batch_run(&s.tuples, &mut table, threads, tr).seconds()
                })
                .collect();
            median(&times)
        };
        let (one, all) = (rounds(1), rounds(p.threads));
        tr.exit();
        s.gate(checks, "parallel", &table);
        let rate = n / all;
        m.val("pb.parallel_updates_per_s", rate);
        m.val("pb.parallel_speedup", one / all);
        m.val("pb.loss_vs_scatter", scatter_rate / rate);
        m.val("pb.bytes_moved", BYTES_PER_UPDATE * n);
        m.val(
            "pb.roofline_frac",
            BYTES_PER_UPDATE * rate / (copy_gbps * 1e9),
        );
        rate
    };
    drop(table);

    // Rung 3: the in-process pipeline.
    let stream_rate = {
        tr.enter("stream");
        let run = drive::stream_run(&s.tuples, s.num_keys, tr);
        tr.exit();
        s.gate(checks, "stream", run.snapshot.iter());
        let rate = n / run.seconds;
        m.val("stream.ladder_updates_per_s", rate);
        m.val("stream.loss_vs_pb", parallel_rate / rate);
        m.samples("stream.send_ns", &run.send_ns);
        m.samples("stream.seal_call_us", &run.seal_call_us);
        let waits: Vec<f64> = run
            .epoch_ms
            .iter()
            .zip(&run.seal_call_us)
            .map(|(e, s)| e - s / 1e3)
            .collect();
        m.samples("stream.publish_wait_ms", &waits);
        m.val("stream.shutdown_ms", run.shutdown_ms);
        stream_counts(&run.stats, m);
        rate
    };

    // Rung 4: the same stream over loopback.
    let serve_rate = {
        tr.enter("serve");
        let run = drive::serve_run(&s.tuples, s.num_keys, p.threads, None, tr);
        tr.exit();
        s.gate(checks, "serve", run.snapshot.iter());
        checks.ops(run.ops, run.errors);
        let rate = n / run.seconds;
        m.val("serve.ladder_updates_per_s", rate);
        m.val("serve.loss_vs_stream", stream_rate / rate);
        m.put("serve.update_rtt_p50_us", p50(&run.update_rtt_us));
        m.samples("serve.seal_rtt_us", &run.seal_rtt_us);
        m.samples("serve.wait_epoch_ms", &run.wait_epoch_ms);
        m.val("serve.start_ms", run.start_ms);
        m.val("serve.shutdown_ms", run.shutdown_ms);
        serve_counts(&run.stats, run.busy_rounds, m);
        rate
    };

    // Rung 5: two in-process nodes behind one router.
    {
        tr.enter("cluster");
        let nodes: Vec<Server> = (0..2)
            .map(|_| {
                Server::start(s.num_keys, drive::stream_cfg(), ServeConfig::new())
                    .expect("start cluster node")
            })
            .collect();
        let addrs: Vec<String> = nodes.iter().map(|n| n.local_addr().to_string()).collect();
        let mut router = ClusterRouter::connect(s.num_keys, &addrs, ClusterConfig::default())
            .expect("connect cluster router");
        let mut errors = 0u64;
        let mut commit_ms = Vec::new();
        let mut epoch = 0;
        let t0 = Instant::now();
        for chunk in s.tuples.chunks(EPOCH_TUPLES) {
            tr.enter("cluster.send");
            for &(k, v) in chunk {
                errors += u64::from(router.send(k, v).is_err());
            }
            tr.exit();
            let t = Instant::now();
            tr.enter("cluster.seal_and_commit");
            match router.seal_and_commit() {
                Ok(e) => epoch = e,
                Err(_) => errors += 1,
            }
            tr.exit();
            commit_ms.push(secs(t) * 1e3);
        }
        let seconds = secs(t0);
        let t = Instant::now();
        tr.enter("cluster.cluster_snapshot");
        let snapshot = router.cluster_snapshot(epoch).unwrap_or_default();
        tr.exit();
        m.val("cluster.snapshot_ms", secs(t) * 1e3);
        s.gate(checks, "cluster", &snapshot);
        let per_node: Vec<f64> = router
            .stats()
            .map(|all| all.iter().map(|w| w.tuples_ingested as f64).collect())
            .unwrap_or_default();
        let mean = per_node.iter().sum::<f64>() / per_node.len().max(1) as f64;
        m.val(
            "cluster.node_skew",
            per_node.iter().copied().fold(0.0, f64::max) / mean.max(1.0),
        );
        drop(router);
        for node in nodes {
            node.shutdown();
        }
        tr.exit();
        checks.ops(s.tuples.len() as u64 + commit_ms.len() as u64, errors);
        let rate = n / seconds;
        m.val("cluster.ladder_updates_per_s", rate);
        m.val("cluster.loss_vs_serve", serve_rate / rate);
        m.samples("cluster.seal_commit_ms", &commit_ms);
    }
    tr.exit();
}
