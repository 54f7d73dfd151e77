//! `stream_zipf`: one producer thread into `IngestPipeline<SumU64>` (the
//! server's own fusable reducer, so stream and serve rungs run identical
//! reduction code and sums verify exactly), 2^22 keys, Zipf(1.1) tuples,
//! explicit seal + wait-visible every 2^18 tuples (closed loop).

use crate::drive;
use crate::env::Scratch;
use crate::gen;
use crate::harness::{Checks, Params, Repeat, Workload};
use crate::json::Json;
use crate::metrics::Metrics;
use crate::spans::Tracer;
use crate::stats::Pooled;
use cobra_stream::StreamStats;

pub const KEYS: usize = 1 << 22;
pub const TUPLES: usize = 1 << 23;
pub const ALPHA: f64 = 1.1;

pub struct StreamZipf {
    tuples: Vec<(u32, u64)>,
    num_keys: u32,
    want: u64,
    epoch_ms: Pooled,
    last_stats: Option<StreamStats>,
}

impl Workload for StreamZipf {
    fn setup(p: &Params, _: &Scratch, _: Option<Self>) -> Self {
        let keys = p.scale.size(KEYS);
        let tuples = gen::zipf_tuples(p.scale.size(TUPLES), keys as u32, ALPHA, p.seed);
        let mut table = vec![0u64; keys];
        gen::scatter(&mut table, &tuples);
        StreamZipf {
            tuples,
            num_keys: keys as u32,
            want: gen::digest(&table),
            epoch_ms: Pooled::default(),
            last_stats: None,
        }
    }

    fn repeat(&mut self, tr: &mut Tracer, checks: &mut Checks) -> Repeat {
        let run = drive::stream_run(&self.tuples, self.num_keys, tr);
        self.epoch_ms.begin();
        self.epoch_ms.extend(&run.epoch_ms);
        let got = gen::digest(run.snapshot.iter());
        checks.ops(self.tuples.len() as u64 + run.epoch_ms.len() as u64, 0);
        checks.gate("snapshot_equals_scatter", got == self.want, || {
            format!(
                "snapshot digest {got:#018x}, naive scatter {:#018x}",
                self.want
            )
        });
        checks.gate(
            "no_tuple_lost",
            run.stats.tuples_sent == self.tuples.len() as u64,
            || {
                format!(
                    "pipeline counted {} of {} tuples",
                    run.stats.tuples_sent,
                    self.tuples.len()
                )
            },
        );
        self.last_stats = Some(run.stats);
        Repeat {
            tuples: self.tuples.len() as u64,
            seconds: run.seconds,
        }
    }

    fn clear_samples(&mut self) {
        self.epoch_ms.clear();
    }

    fn finish(self, e2e: &mut Metrics, layers: &mut Metrics, _: &mut Checks) {
        e2e.percentile("epoch_visible_p50_ms", &self.epoch_ms, 50.0);
        e2e.percentile("epoch_visible_p90_ms", &self.epoch_ms, 90.0);
        if let Some(stats) = &self.last_stats {
            super::stream_counts(stats, layers);
        }
    }

    fn config(&self) -> Json {
        Json::obj()
            .with("keys", u64::from(self.num_keys))
            .with("tuples", self.tuples.len())
            .with("alpha", ALPHA)
            .with("epoch_tuples", drive::EPOCH_TUPLES)
            .with("reducer", "cobra_serve::SumU64")
            .with("stream_config", format!("{:?}", drive::stream_cfg()))
    }
}
