//! MP workload-imbalance analysis (Table VII).
//!
//! Edges are assigned to MP units by destination node id (`dest mod
//! P_edge`), with no preprocessing — so skewed degree distributions can
//! load banks unevenly. The paper quantifies this as "the largest
//! difference in workloads between any two MP units as a percentage of the
//! total workload"; these functions reproduce that measurement. Summing
//! [`bank_workloads`] over a dataset stream before applying
//! [`imbalance_percent`] gives the stream-wide figure Table VII reports.

use flowgnn_graph::Graph;

/// Per-bank edge counts for a graph under `p_edge` destination banks.
///
/// # Panics
///
/// Panics if `p_edge == 0`.
pub fn bank_workloads(graph: &Graph, p_edge: usize) -> Vec<u64> {
    assert!(p_edge > 0, "p_edge must be positive");
    let mut counts = vec![0u64; p_edge];
    for &(_, dst) in graph.edges() {
        counts[dst as usize % p_edge] += 1;
    }
    counts
}

/// The paper's imbalance metric over a set of bank workloads:
/// `(max − min) / total × 100`. Zero when there is no work.
pub fn imbalance_percent(workloads: &[u64]) -> f64 {
    let total: u64 = workloads.iter().sum();
    if total == 0 || workloads.is_empty() {
        return 0.0;
    }
    let max = *workloads.iter().max().expect("non-empty");
    let min = *workloads.iter().min().expect("non-empty");
    (max - min) as f64 / total as f64 * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowgnn_graph::generators::{ChungLu, GraphGenerator, MoleculeLike};
    use flowgnn_graph::{FeatureSource, Graph};
    use flowgnn_tensor::Matrix;

    #[test]
    fn workloads_partition_edges() {
        let g = MoleculeLike::new(20.0, 1).generate(0);
        for p in [2, 4, 8] {
            let w = bank_workloads(&g, p);
            assert_eq!(w.iter().sum::<u64>(), g.num_edges() as u64);
        }
    }

    #[test]
    fn perfectly_balanced_is_zero() {
        assert_eq!(imbalance_percent(&[5, 5, 5, 5]), 0.0);
    }

    #[test]
    fn fully_skewed_is_hundred() {
        assert_eq!(imbalance_percent(&[10, 0]), 100.0);
    }

    #[test]
    fn empty_workload_is_zero() {
        assert_eq!(imbalance_percent(&[]), 0.0);
        assert_eq!(imbalance_percent(&[0, 0]), 0.0);
    }

    #[test]
    fn metric_is_bounded() {
        let g = ChungLu::new(500, 3000, 4, 9).generate(0);
        for p in [2, 4, 8, 16, 32, 64] {
            let pct = imbalance_percent(&bank_workloads(&g, p));
            assert!((0.0..=100.0).contains(&pct), "P_edge={p}: {pct}");
        }
    }

    #[test]
    fn large_graphs_balance_better_than_tiny_ones() {
        // Law of large numbers: a 100k-edge power-law graph modulo 4 banks
        // is far more balanced than a 10-edge graph.
        let big = ChungLu::new(5000, 100_000, 4, 2).generate(0);
        let tiny = Graph::new(
            5,
            vec![(0, 1), (2, 1), (3, 1), (4, 1), (0, 1), (3, 1)],
            FeatureSource::dense(Matrix::zeros(5, 1)),
            None,
        )
        .unwrap();
        let big_pct = imbalance_percent(&bank_workloads(&big, 4));
        let tiny_pct = imbalance_percent(&bank_workloads(&tiny, 4));
        assert!(big_pct < tiny_pct, "big {big_pct} vs tiny {tiny_pct}");
        assert!(big_pct < 5.0, "big graph imbalance {big_pct}%");
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_banks_panics() {
        bank_workloads(&MoleculeLike::new(10.0, 0).generate(0), 0);
    }
}
