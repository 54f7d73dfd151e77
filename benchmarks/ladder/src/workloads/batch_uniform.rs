//! `batch_uniform`: HPCC RandomAccess shape. `bin_parallel` +
//! `accumulate_into` on a 2^25 × u64 table (256 MiB), 2^25 uniform
//! updates per repeat (`N_U = m`, trimmed from `4·m` for the time budget).

use crate::drive;
use crate::env::Scratch;
use crate::gen;
use crate::harness::{Checks, Params, Repeat, Workload};
use crate::json::Json;
use crate::metrics::Metrics;
use crate::spans::Tracer;

pub const KEYS: usize = 1 << 25;
pub const UPDATES: usize = 1 << 25;

pub struct BatchUniform {
    tuples: Vec<(u32, u64)>,
    table: Vec<u64>,
    /// Table digest after each repeat; held against the naive-scatter
    /// reference in `finish` (256 MiB of random writes are too slow to
    /// repeat in every set-up).
    got: Vec<u64>,
    threads: usize,
}

impl Workload for BatchUniform {
    fn setup(p: &Params, _: &Scratch, recycled: Option<Self>) -> Self {
        let keys = p.scale.size(KEYS);
        // 768 MiB of buffers: refilled, not reallocated, on a repeated
        // set-up (first touch runs anywhere from 0.3 to 2 GB/s here).
        let (mut tuples, mut table) =
            recycled.map_or_else(Default::default, |r| (r.tuples, r.table));
        tuples.clear();
        gen::uniform_tuples_into(&mut tuples, p.scale.size(UPDATES), keys as u32, p.seed);
        // Pre-faulted by the warm-up repeat's `fill`.
        table.resize(keys, 0);
        BatchUniform {
            tuples,
            table,
            got: Vec::new(),
            threads: p.threads,
        }
    }

    fn discard(self) -> Option<Self> {
        Some(self)
    }

    fn repeat(&mut self, tr: &mut Tracer, checks: &mut Checks) -> Repeat {
        self.table.fill(0);
        let run = drive::batch_run(&self.tuples, &mut self.table, self.threads, tr);
        self.got.push(gen::digest(&self.table));
        checks.ops(self.tuples.len() as u64, 0);
        Repeat {
            tuples: self.tuples.len() as u64,
            seconds: run.seconds(),
        }
    }

    // The Binning/Accumulate split of this workload is in the trace
    // (`pb.bin_parallel` vs `pb.accumulate_into` under `by_name`).
    fn finish(mut self, _: &mut Metrics, _: &mut Metrics, checks: &mut Checks) {
        self.table.fill(0);
        gen::scatter(&mut self.table, &self.tuples);
        let want = gen::digest(&self.table);
        let wrong = self.got.iter().filter(|&&g| g != want).count();
        checks.gate("table_equals_scatter", wrong == 0, || {
            format!(
                "{wrong} of {} repeats (warm-up included) differ from naive scatter {want:#018x}",
                self.got.len()
            )
        });
    }

    fn config(&self) -> Json {
        Json::obj()
            .with("keys", self.table.len())
            .with("updates", self.tuples.len())
            .with("threads", self.threads)
            .with("min_bins", drive::batch_bins(self.table.len() as u32))
    }
}
