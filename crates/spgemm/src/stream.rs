//! Streaming SpGEMM: matrix tiles through `cobra-stream` epochs.
//!
//! `A` is cut into contiguous **row tiles**; each tile's partial products
//! are ingested (key = output row), then the epoch is sealed, publishing a
//! partial-result snapshot: after epoch `t`, the snapshot holds the exact
//! final rows for every tile already sealed and empty rows for the rest.
//! Because a row of `A` never splits across tiles, every `(i, j)` cell's
//! partials fold inside one epoch in expansion-arrival order — the
//! streaming result is bit-identical to the batch path on dyadic inputs
//! even with fusion on, and to the unfused batch path always.

use crate::batch::{expand_rows, merge_same_col};
use cobra_graph::prefix::exclusive_sum;
use cobra_graph::SparseMatrix;
use cobra_stream::{IngestPipeline, Reducer, StreamConfig, StreamStats};

/// Per-output-row reducer: the accumulator is the row's live `(col, sum)`
/// cells kept sorted by column, so snapshot rows concatenate straight into
/// canonical CSR. Commutative (per-cell `+=`) and fusable (two staged
/// products for the same column pre-add in the C-Buffer frame — the batch
/// path's merge policy, [`merge_same_col`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct ColSum;

impl Reducer for ColSum {
    type Value = (u32, f64);
    type Acc = Vec<(u32, f64)>;
    const COMMUTATIVE: bool = true;
    const FUSABLE: bool = true;

    fn identity(&self) -> Vec<(u32, f64)> {
        Vec::new()
    }

    fn apply(&self, acc: &mut Vec<(u32, f64)>, value: &(u32, f64)) {
        match acc.binary_search_by_key(&value.0, |&(c, _)| c) {
            Ok(i) => acc[i].1 += value.1,
            Err(i) => acc.insert(i, *value),
        }
    }

    fn fuse_values(&self, a: &mut (u32, f64), b: &(u32, f64)) -> bool {
        merge_same_col(a, b)
    }
}

/// `C = A · B`, streamed: `A` is split into `tiles` contiguous row ranges,
/// each ingested as one epoch (sealed, snapshotted), and the final
/// snapshot is read back as CSR. Returns the product and the pipeline's
/// [`StreamStats`] (epoch counts, bin traffic, fusion counters).
///
/// # Panics
///
/// Panics if the inner dimensions disagree, or if the pipeline's ingest
/// threads die mid-stream (a bug, not an input condition).
pub fn spgemm_stream(
    a: &SparseMatrix,
    b: &SparseMatrix,
    tiles: usize,
    cfg: StreamConfig,
) -> (SparseMatrix, StreamStats) {
    assert_eq!(
        a.cols(),
        b.rows(),
        "inner dimensions must agree: A is {}x{}, B is {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let pipeline = IngestPipeline::new(a.rows().max(1), ColSum, cfg);
    let mut handle = pipeline.handle();
    let tile_rows = (a.rows() as usize).div_ceil(tiles.max(1)).max(1) as u32;
    let mut start = 0u32;
    while start < a.rows() {
        let end = (start + tile_rows).min(a.rows());
        expand_rows(a, b, start..end, |i, prod| {
            handle.send(i, prod).expect("pipeline alive");
        });
        handle.seal_epoch().expect("pipeline alive");
        start = end;
    }
    drop(handle);
    let (snapshot, stats) = pipeline.shutdown();

    let mut row_counts = vec![0u32; a.rows() as usize];
    let mut col_idx = Vec::new();
    let mut values = Vec::new();
    for i in 0..a.rows() {
        let row = snapshot.get(i);
        row_counts[i as usize] = row.len() as u32;
        for &(c, v) in row {
            col_idx.push(c);
            values.push(v);
        }
    }
    let row_offsets = exclusive_sum(&row_counts);
    (
        SparseMatrix::from_raw(a.rows(), b.cols(), row_offsets, col_idx, values),
        stats,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{spgemm, SpGemmConfig};
    use crate::{dyadic_matrix, dyadic_skewed_matrix, triplets};

    #[test]
    fn streaming_matches_batch_bitwise() {
        let a = dyadic_matrix(400, 300, 5, 21);
        let b = dyadic_skewed_matrix(300, 200, 5, 1.3, 22);
        let (batch_fused, _) = spgemm(&a, &b, &SpGemmConfig::default());
        let (batch_unfused, _) = spgemm(
            &a,
            &b,
            &SpGemmConfig {
                fusion: false,
                ..Default::default()
            },
        );
        let (streamed, stats) = spgemm_stream(&a, &b, 4, StreamConfig::default());
        assert_eq!(triplets(&streamed), triplets(&batch_fused));
        assert_eq!(triplets(&streamed), triplets(&batch_unfused));
        assert!(stats.epochs_sealed >= 4, "sealed {}", stats.epochs_sealed);
    }

    #[test]
    fn skewed_stream_produces_fusion_hits() {
        let a = dyadic_matrix(512, 256, 6, 23);
        let b = dyadic_skewed_matrix(256, 128, 8, 1.4, 24);
        let (_, stats) = spgemm_stream(&a, &b, 2, StreamConfig::default());
        assert!(stats.total_fusion_hits() > 0);
        assert!(stats.fused_ratio() > 0.0);
    }

    #[test]
    fn single_tile_and_many_tiles_agree() {
        let a = dyadic_matrix(97, 64, 4, 25);
        let b = dyadic_matrix(64, 50, 3, 26);
        let (one, _) = spgemm_stream(&a, &b, 1, StreamConfig::default());
        let (many, _) = spgemm_stream(&a, &b, 13, StreamConfig::default());
        assert_eq!(triplets(&one), triplets(&many));
    }
}
