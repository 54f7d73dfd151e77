//! Streaming drivers: the preprocessing/analytics kernels rephrased as
//! continuous ingestion over [`cobra_stream`]'s sharded pipeline.
//!
//! The batch kernels in this crate consume a fully materialized edge list.
//! These drivers instead feed the same irregular updates through a
//! long-lived [`IngestPipeline`] — edges arrive from any number of
//! producer threads, epochs seal mid-stream, and the result is read off
//! the final epoch snapshot. They are the native-execution counterparts of
//! the instrumented kernels, used by the streaming integration tests.

use cobra_graph::{Csr, EdgeList};
use cobra_stream::{Count, IngestPipeline, StreamConfig, StreamStats, Sum};

/// Streaming Degree-Count: every edge increments `degrees[dst]`.
///
/// Splits the edge list across `producers` threads, each with its own
/// [`IngestHandle`](cobra_stream::IngestHandle), and drains the pipeline.
/// The result equals [`degree_count::reference`](crate::degree_count::reference)
/// exactly — counting commutes, so producer interleaving is immaterial.
pub fn degree_count(el: &EdgeList, producers: usize, cfg: StreamConfig) -> (Vec<u32>, StreamStats) {
    assert!(producers > 0, "need at least one producer");
    let nv = el.num_vertices().max(1);
    let pipeline = IngestPipeline::new(nv, Count, cfg);
    let edges = el.edges();
    std::thread::scope(|s| {
        for chunk in edges.chunks(edges.len().div_ceil(producers).max(1)) {
            let mut handle = pipeline.handle();
            s.spawn(move || {
                for e in chunk {
                    handle.send(e.dst, ()).expect("pipeline alive");
                }
            });
        }
    });
    let (snapshot, stats) = pipeline.shutdown();
    (snapshot.to_vec(), stats)
}

/// Streaming Pagerank contribution pass: every edge `(u, v)` streams the
/// delta `rank[u] / degree[u]` to key `v`; the snapshot holds the summed
/// contributions, finalized as `(1-d)/n + d * sum` — one push iteration of
/// [`pagerank::reference`](crate::pagerank::reference) computed by
/// ingestion instead of traversal.
///
/// Contributions are summed in `f64` (addition order varies with producer
/// interleaving; the wider accumulator keeps the result stable enough to
/// compare against the batch `f32` reference).
pub fn pagerank_delta(g: &Csr, producers: usize, cfg: StreamConfig) -> (Vec<f32>, StreamStats) {
    assert!(producers > 0, "need at least one producer");
    let nv = g.num_vertices().max(1) as u32;
    let pipeline = IngestPipeline::new(nv, Sum, cfg);
    let init = 1.0 / nv as f64;
    std::thread::scope(|s| {
        for lo in (0..nv).step_by((nv as usize).div_ceil(producers).max(1)) {
            let hi = (lo + (nv as usize).div_ceil(producers).max(1) as u32).min(nv);
            let mut handle = pipeline.handle();
            s.spawn(move || {
                for u in lo..hi {
                    let deg = g.degree(u);
                    if deg == 0 {
                        continue;
                    }
                    let contrib = init / deg as f64;
                    for &v in g.neighbors(u) {
                        handle.send(v, contrib).expect("pipeline alive");
                    }
                }
            });
        }
    });
    let (snapshot, stats) = pipeline.shutdown();
    let base = (1.0 - crate::pagerank::DAMPING as f64) / nv as f64;
    let d = crate::pagerank::DAMPING as f64;
    let ranks = snapshot.iter().map(|&s| (base + d * s) as f32).collect();
    (ranks, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_graph::gen;

    #[test]
    fn streaming_degree_count_equals_reference() {
        let el = gen::rmat(12, 8, 1);
        let want = crate::degree_count::reference(&el);
        for producers in [1, 4] {
            let (got, stats) = degree_count(
                &el,
                producers,
                StreamConfig::new().shards(4).epoch_tuples(5_000),
            );
            assert_eq!(got, want, "{producers} producers");
            assert_eq!(stats.tuples_sent, el.num_edges() as u64);
            assert!(stats.epochs_sealed >= 5);
        }
    }

    #[test]
    fn streaming_pagerank_matches_batch_iteration() {
        let g = Csr::from_edgelist(&gen::rmat(11, 8, 2));
        let want = crate::pagerank::reference(&g);
        let (got, _) = pagerank_delta(&g, 4, StreamConfig::new().shards(4));
        assert_eq!(got.len(), want.len());
        for (v, (&a, &b)) in got.iter().zip(&want).enumerate() {
            assert!(
                (a - b).abs() <= 1e-5 * b.abs().max(1.0),
                "vertex {v}: streamed {a} vs batch {b}"
            );
        }
    }

    #[test]
    fn empty_graph_streams_cleanly() {
        let el = EdgeList::new(5, Vec::new());
        let (got, stats) = degree_count(&el, 2, StreamConfig::default());
        assert_eq!(got, vec![0; 5]);
        assert_eq!(stats.tuples_sent, 0);
    }
}
