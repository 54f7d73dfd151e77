//! `spgemm_zipf`: `spgemm(A, B, fusion = on)` with uniform `A` and
//! Zipf-column `B` — `Binner::insert_fused` with a non-trivial merge, on
//! the input where fusion has the most to gain.

use crate::env::Scratch;
use crate::harness::{Checks, Params, Repeat, Workload};
use crate::json::Json;
use crate::metrics::Metrics;
use crate::spans::Tracer;
use crate::stats::Summary;
use cobra_graph::SparseMatrix;
use cobra_spgemm::{dyadic_matrix, dyadic_skewed_matrix, spgemm, SpGemmConfig, SpGemmReport};
use std::time::Instant;

pub const ROWS: usize = 1 << 18;
pub const NNZ_PER_ROW: u32 = 8;
pub const ALPHA: f64 = 1.2;

pub struct SpgemmZipf {
    a: SparseMatrix,
    b: SparseMatrix,
    flops_per_s: Vec<f64>,
    last: Option<(SparseMatrix, SpGemmReport)>,
}

fn fused() -> SpGemmConfig {
    SpGemmConfig::default()
}

/// Bitwise equality of two canonical CSR matrices.
pub fn same_matrix(x: &SparseMatrix, y: &SparseMatrix) -> bool {
    x.row_offsets() == y.row_offsets()
        && x.col_indices() == y.col_indices()
        && x.values()
            .iter()
            .map(|v| v.to_bits())
            .eq(y.values().iter().map(|v| v.to_bits()))
}

/// Counted `spgemm.*` metrics from a multiply's report.
pub fn spgemm_counts(r: &SpGemmReport, layers: &mut Metrics) {
    let bins = (r.dense_bins + r.hash_bins).max(1) as f64;
    layers.val("spgemm.expand_tuples", r.expand_tuples as f64);
    layers.val("spgemm.binned_tuples", r.binned_tuples as f64);
    layers.val("spgemm.bin_traffic_bytes", r.bin_traffic_bytes as f64);
    layers.val("spgemm.fuse_hit_ratio", r.fuse.fused_ratio());
    layers.val(
        "spgemm.traffic_saved_frac",
        1.0 - r.binned_tuples as f64 / r.expand_tuples.max(1) as f64,
    );
    layers.val("spgemm.dense_bin_frac", r.dense_bins as f64 / bins);
    layers.val("spgemm.nnz_out", r.nnz_out as f64);
}

impl Workload for SpgemmZipf {
    fn setup(p: &Params, _: &Scratch, _: Option<Self>) -> Self {
        let n = p.scale.size(ROWS) as u32;
        SpgemmZipf {
            a: dyadic_matrix(n, n, NNZ_PER_ROW, p.seed),
            b: dyadic_skewed_matrix(n, n, NNZ_PER_ROW, ALPHA, p.seed ^ 0xB),
            flops_per_s: Vec::new(),
            last: None,
        }
    }

    fn repeat(&mut self, tr: &mut Tracer, checks: &mut Checks) -> Repeat {
        // The previous product is freed outside the timed region.
        self.last = None;
        let t = Instant::now();
        tr.enter("spgemm.spgemm");
        let (c, report) = spgemm(&self.a, &self.b, &fused());
        tr.exit();
        let seconds = t.elapsed().as_secs_f64();
        self.flops_per_s.push(report.flops as f64 / seconds);
        checks.ops(report.expand_tuples, 0);
        self.last = Some((c, report));
        Repeat {
            tuples: report.expand_tuples,
            seconds,
        }
    }

    fn clear_samples(&mut self) {
        self.flops_per_s.clear();
    }

    fn finish(self, _: &mut Metrics, layers: &mut Metrics, checks: &mut Checks) {
        layers.put("spgemm.flops_per_s", Summary::of(&self.flops_per_s));
        let (c, report) = self.last.expect("at least the warm-up ran");
        spgemm_counts(&report, layers);
        let unfused = SpGemmConfig {
            fusion: false,
            ..fused()
        };
        let (reference, _) = spgemm(&self.a, &self.b, &unfused);
        checks.gate(
            "fused_equals_unfused_bitwise",
            same_matrix(&c, &reference),
            || format!("{} nonzeros fused, {} unfused", c.nnz(), reference.nnz()),
        );
    }

    fn config(&self) -> Json {
        Json::obj()
            .with("rows", u64::from(self.a.rows()))
            .with("nnz_per_row", u64::from(NNZ_PER_ROW))
            .with("alpha", ALPHA)
            .with("spgemm_config", format!("{:?}", fused()))
    }
}
