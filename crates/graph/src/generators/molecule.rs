//! Molecule-like small-graph generator (MolHIV / MolPCBA stand-in).

use flowgnn_rng::Rng;

use super::{mix_seed, GraphGenerator};
use crate::{FeatureSource, Graph, NodeId};

/// Generates molecule-like graphs: a random bounded-degree tree (the
/// molecular skeleton) plus a few ring-closing bonds, with undirected bonds
/// stored as two directed edges sharing one bond-feature row — the layout
/// PyTorch Geometric uses for the OGB molecular datasets.
///
/// Statistics are tuned to the published Table IV numbers: with
/// `mean_nodes = 25.3` and `mean_rings = 2.5` the expected directed edge
/// count is `2(25.3 − 1 + 2.5) ≈ 53.6`, within a few percent of MolHIV's
/// 55.6. Node features are 9-dimensional and edge features 3-dimensional,
/// matching OGB's atom/bond encodings; values are uniform stand-ins for the
/// categorical embeddings (the architecture never interprets them).
///
/// # Example
///
/// ```
/// use flowgnn_graph::generators::{GraphGenerator, MoleculeLike};
///
/// let g = MoleculeLike::new(25.3, 42).generate(0);
/// assert!(g.num_nodes() >= MoleculeLike::MIN_NODES);
/// assert_eq!(g.node_feature_dim(), 9);
/// assert_eq!(g.edge_feature_dim(), Some(3));
/// ```
#[derive(Debug, Clone)]
pub struct MoleculeLike {
    mean_nodes: f64,
    mean_rings: f64,
    node_feat_dim: usize,
    edge_feat_dim: usize,
    max_valence: usize,
    seed: u64,
}

impl MoleculeLike {
    /// Smallest molecule generated.
    pub const MIN_NODES: usize = 4;

    /// Creates a generator with OGB-like defaults (9-d node features, 3-d
    /// edge features, valence ≤ 4, ~2.5 rings per molecule).
    ///
    /// # Panics
    ///
    /// Panics if `mean_nodes < Self::MIN_NODES as f64`.
    pub fn new(mean_nodes: f64, seed: u64) -> Self {
        assert!(
            mean_nodes >= Self::MIN_NODES as f64,
            "mean_nodes {mean_nodes} below minimum {}",
            Self::MIN_NODES
        );
        Self {
            mean_nodes,
            mean_rings: 2.5,
            node_feat_dim: 9,
            edge_feat_dim: 3,
            max_valence: 4,
            seed,
        }
    }

    /// Sets the expected number of ring-closing bonds.
    pub fn mean_rings(mut self, rings: f64) -> Self {
        self.mean_rings = rings;
        self
    }

    /// Sets the node feature dimension.
    pub fn node_feat_dim(mut self, dim: usize) -> Self {
        self.node_feat_dim = dim;
        self
    }

    /// Sets the edge (bond) feature dimension.
    pub fn edge_feat_dim(mut self, dim: usize) -> Self {
        self.edge_feat_dim = dim;
        self
    }

    /// Expected directed edge count per graph.
    pub fn expected_edges(&self) -> f64 {
        2.0 * (self.mean_nodes - 1.0 + self.mean_rings)
    }
}

impl GraphGenerator for MoleculeLike {
    fn generate(&self, index: usize) -> Graph {
        let mut rng = Rng::seed_from_u64(mix_seed(self.seed, index));
        // Node count uniform in [0.5·mean, 1.5·mean]: mean preserved,
        // molecule sizes vary like the OGB distribution does.
        let lo = (self.mean_nodes * 0.5).round().max(Self::MIN_NODES as f64) as usize;
        let hi = (self.mean_nodes * 1.5).round() as usize;
        let n = rng.gen_range(lo..=hi.max(lo));

        let mut degree = vec![0usize; n];
        // Each undirected bond (u, v) goes in as the directed pair
        // (u, v), (v, u), so `edges` holds both directions of every bond.
        let mut edges: Vec<(NodeId, NodeId)> = Vec::with_capacity(2 * (n + 4));

        // Random tree skeleton with bounded valence: attach each new atom to
        // a uniformly random earlier atom that still has a free valence slot.
        for v in 1..n {
            let mut u = rng.gen_range(0..v);
            let mut tries = 0;
            while degree[u] >= self.max_valence && tries < 4 * v {
                u = rng.gen_range(0..v);
                tries += 1;
            }
            if degree[u] >= self.max_valence {
                // Fallback: linear attach to the previous atom (its degree
                // can exceed valence only in pathological tiny cases).
                u = v - 1;
            }
            degree[u] += 1;
            degree[v] += 1;
            edges.extend([(u as NodeId, v as NodeId), (v as NodeId, u as NodeId)]);
        }

        // Ring closures: geometric draw around mean_rings additional bonds
        // between non-adjacent atoms with free valence.
        let rings = sample_poisson(&mut rng, self.mean_rings);
        let mut closed = 0;
        let mut attempts = 0;
        while closed < rings && attempts < 50 * (rings + 1) {
            attempts += 1;
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u == v || degree[u] >= self.max_valence || degree[v] >= self.max_valence {
                continue;
            }
            let (a, b) = (u.min(v) as NodeId, u.max(v) as NodeId);
            if edges.contains(&(a, b)) {
                continue;
            }
            degree[u] += 1;
            degree[v] += 1;
            edges.extend([(a, b), (b, a)]);
            closed += 1;
        }

        // Both directions of a bond share its feature row, as OGB does:
        // draw the forward row, then repeat it for the reverse edge.
        let mut edge_feat = Vec::with_capacity(edges.len() * self.edge_feat_dim);
        for _ in 0..edges.len() / 2 {
            let row = edge_feat.len();
            edge_feat.extend((0..self.edge_feat_dim).map(|_| rng.gen_range(-1.0f32..=1.0)));
            edge_feat.extend_from_within(row..);
        }

        let node_feat: Vec<f32> = (0..n * self.node_feat_dim)
            .map(|_| rng.gen_range(-1.0..=1.0))
            .collect();

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
                self.edge_feat_dim,
                edge_feat,
            )),
        )
        .expect("generator produces valid graphs")
    }
}

/// Draws from a Poisson distribution via inversion (small means only).
fn sample_poisson(rng: &mut Rng, mean: f64) -> usize {
    if mean <= 0.0 {
        return 0;
    }
    let limit = (-mean).exp();
    let mut product = rng.gen_range(0.0..1.0f64);
    let mut k = 0usize;
    while product > limit && k < 64 {
        product *= rng.gen_range(0.0..1.0f64);
        k += 1;
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism() {
        let a = MoleculeLike::new(25.3, 1).generate(5);
        let b = MoleculeLike::new(25.3, 1).generate(5);
        assert_eq!(a.edges(), b.edges());
    }

    #[test]
    fn graphs_are_connected_trees_plus_rings() {
        // Tree + extra edges is connected: BFS must reach every node.
        let g = MoleculeLike::new(25.3, 3).generate(0);
        let adj = crate::Adjacency::out_edges(&g);
        let mut seen = vec![false; g.num_nodes()];
        let mut queue = vec![0 as NodeId];
        seen[0] = true;
        while let Some(u) = queue.pop() {
            for &v in adj.neighbors(u) {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    queue.push(v);
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "molecule should be connected");
    }

    #[test]
    fn valence_is_roughly_bounded() {
        let g = MoleculeLike::new(30.0, 9).generate(2);
        // Undirected degree = directed out-degree here (both directions present).
        let max_deg = g.out_degrees().into_iter().max().unwrap();
        assert!(max_deg <= 5, "valence blew up: {max_deg}");
    }

    #[test]
    fn mean_statistics_approach_target() {
        let gen = MoleculeLike::new(25.3, 42);
        let (mut nodes, mut edges) = (0usize, 0usize);
        let count = 300;
        for i in 0..count {
            let g = gen.generate(i);
            nodes += g.num_nodes();
            edges += g.num_edges();
        }
        let mean_nodes = nodes as f64 / count as f64;
        let mean_edges = edges as f64 / count as f64;
        assert!((mean_nodes - 25.3).abs() < 2.0, "mean nodes {mean_nodes}");
        assert!(
            (mean_edges - gen.expected_edges()).abs() < 5.0,
            "mean edges {mean_edges} vs {}",
            gen.expected_edges()
        );
    }

    #[test]
    fn directed_pairs_share_bond_features() {
        let g = MoleculeLike::new(20.0, 0).generate(0);
        let edges = g.edges();
        // Edges are pushed in (u,v),(v,u) pairs.
        for i in (0..edges.len()).step_by(2) {
            assert_eq!(edges[i].0, edges[i + 1].1);
            assert_eq!(edges[i].1, edges[i + 1].0);
            assert_eq!(g.edge_feature(i), g.edge_feature(i + 1));
        }
    }

    #[test]
    fn zero_feature_dims_keep_the_structure() {
        // Features are drawn after the bonds, so dropping either feature
        // kind leaves every edge where it was.
        let gen = MoleculeLike::new(25.3, 5);
        for i in 0..8 {
            let g = gen.generate(i);
            let no_edge_feat = gen.clone().edge_feat_dim(0).generate(i);
            assert_eq!(no_edge_feat.edges(), g.edges());
            assert_eq!(no_edge_feat.edge_feature_dim(), Some(0));
            assert_eq!(no_edge_feat.node_feature_dim(), 9);
            let no_node_feat = gen.clone().node_feat_dim(0).generate(i);
            assert_eq!(no_node_feat.edges(), g.edges());
            assert_eq!(no_node_feat.node_feature_dim(), 0);
            assert_eq!(no_node_feat.edge_feature_matrix(), g.edge_feature_matrix());
        }
    }

    #[test]
    fn feature_dims_are_ogb_like() {
        let g = MoleculeLike::new(25.3, 0).generate(0);
        assert_eq!(g.node_feature_dim(), 9);
        assert_eq!(g.edge_feature_dim(), Some(3));
    }

    #[test]
    fn poisson_mean_is_close() {
        let mut rng = Rng::seed_from_u64(0);
        let n = 2000;
        let total: usize = (0..n).map(|_| sample_poisson(&mut rng, 2.5)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 2.5).abs() < 0.2, "poisson mean {mean}");
    }
}
