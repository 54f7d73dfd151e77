//! `serve_ingest` and `serve_durable`: a loopback server fed to
//! saturation by two closed-loop writer connections (4096-tuple UPDATE
//! frames, uniform keys over 2^22, writer 0 seals and waits every 2^18
//! tuples). The durable variant is the same bytes plus a data directory
//! with `SyncPolicy::OnSeal`, fresh per repeat, and a restart after each
//! repeat: the pair isolates the WAL tax and the recovery time.

use crate::drive;
use crate::env::Scratch;
use crate::gen;
use crate::harness::{Checks, Params, Repeat, Workload};
use crate::json::Json;
use crate::metrics::Metrics;
use crate::spans::Tracer;
use crate::stats::Pooled;
use cobra_serve::{ServeClient, ServeConfig, Server, WireStats};
use cobra_stream::{DurableConfig, SyncPolicy};
use std::path::PathBuf;
use std::time::Instant;

pub const KEYS: usize = 1 << 22;
/// 2^21 per repeat (8 epochs): the durable variant runs at a quarter of
/// the plain rate and has to fit several repeats in the same window.
pub const TUPLES: usize = 1 << 21;

pub struct ServeIngest<const DURABLE: bool> {
    tuples: Vec<(u32, u64)>,
    num_keys: u32,
    want: u64,
    writers: usize,
    data_dir: PathBuf,
    epoch_ms: Pooled,
    recovery_s: Vec<f64>,
    /// Of the last repeat, like `last_stats`.
    busy_rounds: u64,
    last_stats: Option<WireStats>,
}

pub type Ingest = ServeIngest<false>;
pub type Durable = ServeIngest<true>;

impl<const DURABLE: bool> ServeIngest<DURABLE> {
    fn durable_cfg(&self) -> DurableConfig {
        DurableConfig::new(&self.data_dir).sync(SyncPolicy::OnSeal)
    }

    /// Restarts on the populated data dir, times start → first successful
    /// query, and holds the recovered snapshot against the pre-shutdown one.
    fn restart(&mut self, before: u64, tr: &mut Tracer, checks: &mut Checks) {
        let t0 = Instant::now();
        tr.enter("serve.recover");
        let cfg = ServeConfig::new().durable(self.durable_cfg());
        let server =
            Server::start(self.num_keys, drive::stream_cfg(), cfg).expect("restart on data dir");
        let answered = ServeClient::connect(server.local_addr())
            .map_err(cobra_serve::ClientError::Io)
            .and_then(|mut c| c.query(0));
        tr.exit();
        self.recovery_s.push(t0.elapsed().as_secs_f64());
        checks.ops(1, u64::from(answered.is_err()));
        let replayed = server.recovery().map_or(0, |r| r.replayed_records);
        tr.count("wal.replayed_records", replayed as f64);
        let (snapshot, _) = server.shutdown();
        let after = gen::digest(snapshot.iter());
        checks.gate("recovered_equals_pre_shutdown", after == before, || {
            format!("recovered digest {after:#018x}, pre-shutdown {before:#018x}")
        });
    }
}

impl<const DURABLE: bool> Workload for ServeIngest<DURABLE> {
    fn setup(p: &Params, scratch: &Scratch, _: Option<Self>) -> Self {
        let keys = p.scale.size(KEYS);
        let tuples = gen::uniform_tuples(p.scale.size(TUPLES), keys as u32, p.seed);
        let mut table = vec![0u64; keys];
        gen::scatter(&mut table, &tuples);
        ServeIngest {
            tuples,
            num_keys: keys as u32,
            want: gen::digest(&table),
            writers: p.threads,
            data_dir: scratch.path().join("data"),
            epoch_ms: Pooled::default(),
            recovery_s: Vec::new(),
            busy_rounds: 0,
            last_stats: None,
        }
    }

    fn repeat(&mut self, tr: &mut Tracer, checks: &mut Checks) -> Repeat {
        let durable = DURABLE.then(|| {
            let _ = std::fs::remove_dir_all(&self.data_dir);
            self.durable_cfg()
        });
        let run = drive::serve_run(&self.tuples, self.num_keys, self.writers, durable, tr);
        self.epoch_ms.begin();
        self.epoch_ms.extend(&run.epoch_ms);
        self.busy_rounds = run.busy_rounds;
        checks.ops(run.ops, run.errors);
        let got = gen::digest(run.snapshot.iter());
        checks.gate("snapshot_equals_scatter", got == self.want, || {
            format!(
                "snapshot digest {got:#018x}, naive scatter {:#018x}",
                self.want
            )
        });
        checks.gate(
            "no_tuple_lost",
            run.stats.tuples_ingested == self.tuples.len() as u64,
            || {
                format!(
                    "server ingested {} of {} tuples",
                    run.stats.tuples_ingested,
                    self.tuples.len()
                )
            },
        );
        self.last_stats = Some(run.stats);
        if DURABLE {
            self.restart(got, tr, checks);
        }
        Repeat {
            tuples: self.tuples.len() as u64,
            seconds: run.seconds,
        }
    }

    fn clear_samples(&mut self) {
        self.epoch_ms.clear();
        self.recovery_s.clear();
    }

    fn finish(self, e2e: &mut Metrics, layers: &mut Metrics, _: &mut Checks) {
        e2e.percentile("epoch_visible_p50_ms", &self.epoch_ms, 50.0);
        e2e.percentile("epoch_visible_p90_ms", &self.epoch_ms, 90.0);
        if DURABLE {
            e2e.samples("recovery_s", &self.recovery_s);
        }
        if let Some(stats) = &self.last_stats {
            super::serve_counts(stats, self.busy_rounds, layers);
        }
        let _ = std::fs::remove_dir_all(&self.data_dir);
    }

    fn config(&self) -> Json {
        let mut serve = ServeConfig::new();
        if DURABLE {
            serve = serve.durable(DurableConfig {
                dir: "<scratch>/data".into(),
                ..self.durable_cfg()
            });
        }
        Json::obj()
            .with("keys", u64::from(self.num_keys))
            .with("tuples", self.tuples.len())
            .with("writers", self.writers)
            .with("frame_tuples", drive::FRAME_TUPLES)
            .with("epoch_tuples", drive::EPOCH_TUPLES)
            .with("stream_config", format!("{:?}", drive::stream_cfg()))
            .with("serve_config", format!("{serve:?}"))
    }
}
