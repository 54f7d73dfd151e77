//! The names this benchmark defines: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics. `BENCHMARK.json` is
//! generated from these tables (`cobra-ladder manifest`) and a unit test
//! keeps the committed file equal to them.

use crate::json::Json;
use crate::stats::{percentile_allowed, Pooled, Summary};

pub const BATCH_UNIFORM: &str = "batch_uniform";
pub const STREAM_ZIPF: &str = "stream_zipf";
pub const SERVE_INGEST: &str = "serve_ingest";
pub const SERVE_DURABLE: &str = "serve_durable";
pub const SERVE_MIXED: &str = "serve_mixed";
pub const SPGEMM_ZIPF: &str = "spgemm_zipf";

/// `(name, why it exists)`.
pub const WORKLOADS: [(&str, &str); 6] = [
    (BATCH_UNIFORM, "bin_parallel + accumulate_into on a 256 MiB table, 2 threads: bins and pb do all the work, so Binner changes must show here and serve/stream changes must not"),
    (STREAM_ZIPF, "one producer into IngestPipeline<SumU64>, Zipf(1.1) keys, seal + wait-visible every 2^18 tuples: handle batching, FIFOs, shard binners, fusion and COW publish, no socket"),
    (SERVE_INGEST, "loopback server at saturation, 2 writer connections, 4096-tuple UPDATE frames, uniform keys over 2^22: codec, reactor rounds, admission and settle; publish-bound epochs"),
    (SERVE_DURABLE, "serve_ingest byte for byte plus a data dir with fsync on seal and a restart per repeat: isolates the WAL tax and recovery time"),
    (SERVE_MIXED, "open-loop 1 Mupd/s writes beside skewed point reads and a subscriber on a small hot state: reactor tick, poll intervals and the S3-FIFO cache decide every number"),
    (SPGEMM_ZIPF, "spgemm with fusion on, uniform A times Zipf-column B, 16.8 M partial products: insert_fused with a non-trivial merge, where fusion has the most to gain"),
];

/// Run by `suite`, `trace` and `compare` but not listed for the external
/// driver, because their run-to-run spread over ten runs does not fit
/// under any bound the driver accepts (at most 0.25). `serve_durable`
/// follows the sandbox disk's fsync and 32 MiB checkpoint writes (0.10 to
/// 0.48). `spgemm_zipf` is one compute-bound thread, so it follows the
/// speed of the shared host core it happens to run on (0.13 to 0.25, at
/// any problem size and run length that fits; the driver measured 0.251).
pub const NOT_IN_MANIFEST: &[&str] = &[SERVE_DURABLE, SPGEMM_ZIPF];

pub const ALL: &[&str] = &[
    BATCH_UNIFORM,
    STREAM_ZIPF,
    SERVE_INGEST,
    SERVE_DURABLE,
    SERVE_MIXED,
    SPGEMM_ZIPF,
];
const EPOCHS: &[&str] = &[STREAM_ZIPF, SERVE_INGEST, SERVE_DURABLE];
const MIXED: &[&str] = &[SERVE_MIXED];
const DURABLE: &[&str] = &[SERVE_DURABLE];
const SPGEMM: &[&str] = &[SPGEMM_ZIPF];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}
use Better::{Higher, Lower};

/// An end-to-end metric: what a user of the system pays for.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// before `compare` calls it a regression (calibrated, see README).
    pub bound: f64,
    /// Workloads that measure it.
    pub on: &'static [&'static str],
    /// Of those, the workloads where two back-to-back run sets of one
    /// commit differ by more than half of any acceptable bound: reported
    /// there, not judged by `compare` (see README, "Calibration").
    pub unjudged_on: &'static [&'static str],
}

impl EndToEnd {
    /// Measured by every workload, hence policed by the external driver
    /// through `BENCHMARK.json`; the others are policed by `compare`.
    pub fn universal(&self) -> bool {
        self.on.len() == ALL.len()
    }
}

const fn e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    on: &'static [&'static str],
    unjudged_on: &'static [&'static str],
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        on,
        unjudged_on,
    }
}

pub const END_TO_END: &[EndToEnd] = &[
    e("setup_s", "s", Lower, 0.25, ALL, DURABLE),
    e("updates_per_s", "upd/s", Higher, 0.25, ALL, DURABLE),
    e("epoch_visible_p50_ms", "ms", Lower, 0.15, EPOCHS, DURABLE),
    e("epoch_visible_p90_ms", "ms", Lower, 0.25, EPOCHS, DURABLE),
    e("query_p50_us", "us", Lower, 0.12, MIXED, &[]),
    e("delta_p50_ms", "ms", Lower, 0.15, MIXED, &[]),
    e("recovery_s", "s", Lower, 0.20, DURABLE, &[]),
    e("peak_rss_mib", "MiB", Lower, 0.20, ALL, DURABLE),
];

/// Reported beside the metrics, never bounded relatively: any failure is
/// a failed run.
pub const FAILED_FRAC: &str = "failed_frac";

/// Where a per-layer number comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Ladder rung or layer probe: measured in every traced run.
    Probe,
    /// Counted from public stats: the traced workload's own use of the
    /// layer when it has one, the ladder rung's otherwise.
    Counted,
    /// Only the named workloads can supply it; 0 elsewhere.
    Only(&'static [&'static str]),
}
use Source::{Counted, Only, Probe};

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub source: Source,
}

const fn m(name: &'static str, unit: &'static str, better: Better, source: Source) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source,
    }
}

pub const PER_LAYER: &[PerLayer] = &[
    // machine: the in-run bounds the other layers are read against.
    m("machine.copy_gbps", "GB/s", Higher, Probe),
    m("machine.scatter_updates_per_s", "upd/s", Higher, Probe),
    m("machine.first_touch_gbps", "GB/s", Higher, Probe),
    m("machine.loopback_rtt_us", "us", Lower, Probe),
    m("machine.fsync_p50_us", "us", Lower, Probe),
    m("machine.nproc", "count", Higher, Probe),
    // bins
    m("bins.push_updates_per_s", "upd/s", Higher, Probe),
    m("bins.extend_bin_gbps", "GB/s", Higher, Probe),
    m("bins.frame_flush_ns", "ns", Lower, Probe),
    m("bins.freeze_us", "us", Lower, Probe),
    m("bins.bytes", "bytes", Lower, Counted),
    m("bins.segments", "count", Lower, Counted),
    m("bins.grow_events", "count", Lower, Counted),
    // pb
    m("pb.binner_updates_per_s", "upd/s", Higher, Probe),
    m("pb.binning_s", "s", Lower, Probe),
    m("pb.accumulate_s", "s", Lower, Probe),
    m("pb.binning_frac", "ratio", Lower, Probe),
    m("pb.ns_per_insert", "ns", Lower, Probe),
    m("pb.fused_ns_per_insert", "ns", Lower, Probe),
    m("pb.parallel_updates_per_s", "upd/s", Higher, Probe),
    m("pb.parallel_speedup", "ratio", Higher, Probe),
    m("pb.loss_vs_scatter", "ratio", Lower, Probe),
    m("pb.bytes_moved", "bytes", Lower, Probe),
    m("pb.roofline_frac", "ratio", Higher, Probe),
    m("pb.cbuf_occupancy", "ratio", Higher, Counted),
    m("pb.fuse_hit_ratio", "ratio", Higher, Counted),
    m("pb.traffic_saved_frac", "ratio", Higher, Counted),
    // stream
    m("stream.ladder_updates_per_s", "upd/s", Higher, Probe),
    m("stream.loss_vs_pb", "ratio", Lower, Probe),
    m("stream.send_ns", "ns", Lower, Probe),
    m("stream.seal_call_us", "us", Lower, Probe),
    m("stream.publish_wait_ms", "ms", Lower, Probe),
    m("stream.sparse_publish_ms", "ms", Lower, Probe),
    m("stream.dense_publish_ms", "ms", Lower, Probe),
    m("stream.shutdown_ms", "ms", Lower, Probe),
    m("stream.snapshot_get_ns", "ns", Lower, Probe),
    m("stream.stall_frac", "ratio", Lower, Counted),
    m("stream.send_blocks", "count", Lower, Counted),
    m("stream.tuples_per_batch", "count", Higher, Counted),
    m("stream.shard_skew", "ratio", Lower, Counted),
    m("stream.cbuf_occupancy", "ratio", Higher, Counted),
    m("stream.fused_ratio", "ratio", Higher, Counted),
    m("stream.bins_bytes", "bytes", Lower, Counted),
    m("stream.reduced_flush_frac", "ratio", Higher, Counted),
    // wal
    m("wal.append_mbps", "MB/s", Higher, Probe),
    m("wal.seal_flush_p50_us", "us", Lower, Probe),
    m("wal.scan_tuples_per_s", "tuples/s", Higher, Probe),
    m("wal.checkpoint_write_ms", "ms", Lower, Probe),
    m("wal.checkpoint_read_ms", "ms", Lower, Probe),
    m("wal.checkpoint_bytes", "bytes", Lower, Probe),
    m("wal.tax_frac", "ratio", Lower, Probe),
    m("wal.bytes_per_tuple", "B/tuple", Lower, Counted),
    m("wal.fsyncs", "count", Lower, Counted),
    m("wal.segments", "count", Lower, Counted),
    m("wal.replayed_records", "count", Lower, Counted),
    // mvcc
    m("mvcc.hub_fanout_us", "us", Lower, Probe),
    m("mvcc.hub_recv_wait_us", "us", Lower, Probe),
    m("mvcc.diff_range_ms", "ms", Lower, Probe),
    m("mvcc.admit_us", "us", Lower, Probe),
    m("mvcc.retained_epochs", "count", Lower, Counted),
    m("mvcc.retained_bytes", "bytes", Lower, Counted),
    m("mvcc.lag_events", "count", Lower, Counted),
    m("mvcc.delta_entries_per_epoch", "count", Lower, Counted),
    // poll
    m("poll.wait_ready_ns", "ns", Lower, Probe),
    m("poll.register_ns", "ns", Lower, Probe),
    // serve
    m("serve.encode_ns_per_tuple", "ns", Lower, Probe),
    m("serve.decode_ns_per_tuple", "ns", Lower, Probe),
    m("serve.ladder_updates_per_s", "upd/s", Higher, Probe),
    m("serve.loss_vs_stream", "ratio", Lower, Probe),
    m("serve.update_rtt_p50_us", "us", Lower, Probe),
    m("serve.query_rtt_idle_p50_us", "us", Lower, Probe),
    m("serve.seal_rtt_us", "us", Lower, Probe),
    m("serve.wait_epoch_ms", "ms", Lower, Probe),
    m("serve.snapshot_mbps", "MB/s", Higher, Probe),
    m("serve.query_at_p50_us", "us", Lower, Probe),
    m("serve.diff_ms", "ms", Lower, Probe),
    m("serve.cache_get_ns", "ns", Lower, Probe),
    m("serve.start_ms", "ms", Lower, Probe),
    m("serve.shutdown_ms", "ms", Lower, Probe),
    // Demoted from end-to-end: they need a bound above 0.25 to agree
    // between two run sets of one commit.
    m("serve.query_p90_us", "us", Lower, Only(MIXED)),
    m("serve.update_ack_p50_us", "us", Lower, Only(MIXED)),
    m("serve.query_p99_us", "us", Lower, Only(MIXED)),
    m("serve.update_ack_p99_us", "us", Lower, Only(MIXED)),
    m("serve.delta_p90_ms", "ms", Lower, Only(MIXED)),
    m("serve.late_frac", "ratio", Lower, Only(MIXED)),
    m("serve.busy_frac", "ratio", Lower, Counted),
    m("serve.busy_rounds", "count", Lower, Counted),
    m("serve.tuples_per_frame", "count", Higher, Counted),
    m("serve.frames", "count", Lower, Counted),
    m("serve.cache_hit_rate", "ratio", Higher, Counted),
    // cluster: a ladder rung only, so a cluster change has a before/after row.
    m("cluster.ladder_updates_per_s", "upd/s", Higher, Probe),
    m("cluster.loss_vs_serve", "ratio", Lower, Probe),
    m("cluster.seal_commit_ms", "ms", Lower, Probe),
    m("cluster.snapshot_ms", "ms", Lower, Probe),
    m("cluster.node_skew", "ratio", Lower, Probe),
    m("cluster.repl_round_ms", "ms", Lower, Probe),
    m("cluster.repl_bytes", "bytes", Lower, Probe),
    m("cluster.repl_lag_max", "count", Lower, Probe),
    // spgemm
    // Demoted from end-to-end (two sets of one commit differed by 14%);
    // `updates_per_s` on `spgemm_zipf` is exactly half of it and is judged.
    m("spgemm.flops_per_s", "FLOP/s", Higher, Only(SPGEMM)),
    m("spgemm.expand_s", "s", Lower, Probe),
    m("spgemm.fused_flops_per_s", "FLOP/s", Higher, Probe),
    m("spgemm.unfused_flops_per_s", "FLOP/s", Higher, Probe),
    m("spgemm.uniform_flops_per_s", "FLOP/s", Higher, Probe),
    m("spgemm.stream_flops_per_s", "FLOP/s", Higher, Probe),
    m("spgemm.bytes_per_flop", "B/FLOP", Lower, Probe),
    m("spgemm.roofline_frac", "ratio", Higher, Probe),
    m("spgemm.expand_tuples", "count", Lower, Counted),
    m("spgemm.binned_tuples", "count", Lower, Counted),
    m("spgemm.bin_traffic_bytes", "bytes", Lower, Counted),
    m("spgemm.fuse_hit_ratio", "ratio", Higher, Counted),
    m("spgemm.traffic_saved_frac", "ratio", Higher, Counted),
    m("spgemm.dense_bin_frac", "ratio", Higher, Counted),
    m("spgemm.nnz_out", "count", Lower, Counted),
    // trace
    m("trace.overhead_frac", "ratio", Lower, Probe),
    m("trace.on_off_diff_frac", "ratio", Lower, Probe),
    m("trace.spans", "count", Lower, Probe),
];

/// Named numbers collected during a run, in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    items: Vec<(String, Summary)>,
    /// Percentiles reported from too few samples (fewer than ten beyond).
    pub unbacked: Vec<String>,
}

impl Metrics {
    pub fn put(&mut self, name: &str, s: Summary) {
        match self.items.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = s,
            None => self.items.push((name.to_string(), s)),
        }
    }

    pub fn val(&mut self, name: &str, value: f64) {
        self.put(name, Summary::single(value));
    }

    pub fn samples(&mut self, name: &str, samples: &[f64]) {
        self.put(name, Summary::of(samples));
    }

    /// The `p`-th percentile of pooled latency samples, flagged when the
    /// percentile rule does not back it.
    pub fn percentile(&mut self, name: &str, pool: &Pooled, p: f64) {
        if !percentile_allowed(pool.len(), p) {
            self.unbacked.push(name.to_string());
        }
        self.put(name, pool.percentile(p));
    }

    pub fn get(&self, name: &str) -> Option<Summary> {
        self.items.iter().find(|(n, _)| n == name).map(|(_, s)| *s)
    }

    pub fn value(&self, name: &str) -> f64 {
        self.get(name).map_or(0.0, |s| s.value)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, &Summary)> {
        self.items.iter().map(|(n, s)| (n.as_str(), s))
    }
}

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|e| e.name == name)
}

pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|p| p.name == name)
}

pub fn unit_of(name: &str) -> &'static str {
    end_to_end(name)
        .map(|e| e.unit)
        .or_else(|| per_layer(name).map(|p| p.unit))
        .unwrap_or(if name == FAILED_FRAC { "ratio" } else { "" })
}

/// Seconds one driver run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

/// The contents of `/BENCHMARK.json`. The external driver wants every
/// end-to-end metric from every workload, so only the universal ones go
/// under `end_to_end`; the workload-specific ones ride in `per_layer`
/// (recorded, unbounded there) and are policed by `cobra-ladder compare`.
pub fn manifest() -> Json {
    let entry = |name: &str, unit: &str, better: Better| {
        Json::obj()
            .with("name", name)
            .with("unit", unit)
            .with("better", better.as_str())
    };
    let mut per_layer: Vec<Json> = END_TO_END
        .iter()
        .filter(|e| !e.universal())
        .map(|e| entry(e.name, e.unit, e.better))
        .collect();
    per_layer.extend(PER_LAYER.iter().map(|p| entry(p.name, p.unit, p.better)));
    Json::obj()
        .with(
            "command",
            [
                "env",
                // Keep freed bin memory mapped: first-touch page faults
                // on this class of VM cost more than the work measured.
                // (The mmap threshold must rise too, or every bin column
                // over 128 KiB is mmap'd and unmapped per repeat.)
                "MALLOC_TRIM_THRESHOLD_=17179869184",
                "MALLOC_TOP_PAD_=268435456",
                "MALLOC_MMAP_THRESHOLD_=33554432",
                // Bounded arenas: otherwise which 64 MiB thread arena a
                // server thread lands in decides peak RSS (bimodal). Two
                // per core, so the two binning threads never share one.
                "MALLOC_ARENA_MAX=4",
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "benchmarks/ladder/Cargo.toml",
                "--",
            ]
            .map(Json::from)
            .to_vec(),
        )
        .with("paths", vec![Json::from("benchmarks")])
        .with("run_seconds", RUN_SECONDS)
        .with(
            "workloads",
            WORKLOADS
                .iter()
                .filter(|(name, _)| !NOT_IN_MANIFEST.contains(name))
                .map(|(name, why)| Json::obj().with("name", *name).with("why", *why))
                .collect::<Vec<_>>(),
        )
        .with(
            "end_to_end",
            END_TO_END
                .iter()
                .filter(|e| e.universal())
                .map(|e| entry(e.name, e.unit, e.better).with("bound", e.bound))
                .collect::<Vec<_>>(),
        )
        .with("per_layer", per_layer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = BTreeSet::new();
        for (name, why) in WORKLOADS {
            assert!(name_ok(name) && seen.insert(name), "{name}");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: why has {} chars",
                why.len()
            );
        }
        for e in END_TO_END {
            assert!(name_ok(e.name) && seen.insert(e.name), "{}", e.name);
            assert!(unit_ok(e.unit), "{}: {}", e.name, e.unit);
            assert!(e.bound > 0.0 && e.bound <= 0.25, "{}", e.name);
            assert!(e.on.iter().all(|w| ALL.contains(w)));
        }
        for p in PER_LAYER {
            assert!(name_ok(p.name) && seen.insert(p.name), "{}", p.name);
            assert!(unit_ok(p.unit), "{}: {}", p.name, p.unit);
            assert!(p.name.contains('.'), "{} needs a layer prefix", p.name);
        }
        let driver_e2e = END_TO_END.iter().filter(|e| e.universal()).count();
        assert!((1..=16).contains(&driver_e2e));
        assert!(PER_LAYER.len() + END_TO_END.len() - driver_e2e <= 128);
        assert!(end_to_end("setup_s").is_some_and(|e| e.universal() && e.better == Lower));
        assert_eq!(WORKLOADS.map(|w| w.0).to_vec(), ALL.to_vec());
    }

    #[test]
    fn committed_manifest_matches_the_tables() {
        let committed =
            Json::parse(include_str!("../../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `cobra-ladder manifest > BENCHMARK.json`"
        );
        assert!(include_str!("../../../BENCHMARK.json").len() <= 64 << 10);
    }
}
