//! The core graph type: COO edge list plus features.

use std::fmt;

use crate::features::FeatureSource;

/// Node identifier within one graph.
///
/// `u32` keeps the Reddit-scale edge list (114.6M directed edges) at
/// 8 bytes per edge.
pub type NodeId = u32;

/// Error constructing a [`Graph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge endpoint referenced a node id `>= num_nodes`.
    EdgeOutOfBounds {
        /// Index of the offending edge in the COO list.
        edge: usize,
        /// The out-of-range node id.
        node: NodeId,
        /// The graph's node count.
        num_nodes: usize,
    },
    /// The node feature source's row count disagrees with `num_nodes`.
    NodeFeatureCount {
        /// Rows provided by the feature source.
        got: usize,
        /// Rows required (`num_nodes`).
        want: usize,
    },
    /// The edge feature matrix's row count disagrees with the edge count.
    EdgeFeatureCount {
        /// Rows provided.
        got: usize,
        /// Rows required (number of edges).
        want: usize,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::EdgeOutOfBounds {
                edge,
                node,
                num_nodes,
            } => write!(
                f,
                "edge {edge} references node {node} but the graph has {num_nodes} nodes"
            ),
            GraphError::NodeFeatureCount { got, want } => write!(
                f,
                "node feature source has {got} rows but the graph has {want} nodes"
            ),
            GraphError::EdgeFeatureCount { got, want } => write!(
                f,
                "edge feature matrix has {got} rows but the graph has {want} edges"
            ),
        }
    }
}

impl std::error::Error for GraphError {}

/// One input graph in the accelerator's native format.
///
/// A `Graph` is exactly what the paper streams onto the FPGA: a node count,
/// a *directed* COO edge list (an undirected input is stored with both
/// directions, as PyTorch Geometric does), per-node features, and optional
/// per-edge features. Nothing is precomputed — CSR/CSC views are built on
/// demand by [`Adjacency`](crate::Adjacency), matching the paper's zero-
/// preprocessing requirement.
///
/// # Example
///
/// ```
/// use flowgnn_graph::{Graph, FeatureSource};
/// use flowgnn_tensor::Matrix;
///
/// // A 3-node path: 0 -> 1 -> 2 (and reverse), 2-d node features.
/// let g = Graph::new(
///     3,
///     vec![(0, 1), (1, 0), (1, 2), (2, 1)],
///     FeatureSource::dense(Matrix::zeros(3, 2)),
///     None,
/// )?;
/// assert_eq!(g.num_edges(), 4);
/// assert_eq!(g.out_degree(1), 2);
/// # Ok::<(), flowgnn_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    num_nodes: usize,
    edges: Vec<(NodeId, NodeId)>,
    node_features: FeatureSource,
    edge_features: Option<flowgnn_tensor::Matrix>,
}

impl Graph {
    /// Creates a graph, validating edge endpoints and feature shapes.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] if any edge endpoint is out of range or a
    /// feature container's row count disagrees with the node/edge counts.
    pub fn new(
        num_nodes: usize,
        edges: Vec<(NodeId, NodeId)>,
        node_features: FeatureSource,
        edge_features: Option<flowgnn_tensor::Matrix>,
    ) -> Result<Self, GraphError> {
        for (i, &(s, d)) in edges.iter().enumerate() {
            for node in [s, d] {
                if node as usize >= num_nodes {
                    return Err(GraphError::EdgeOutOfBounds {
                        edge: i,
                        node,
                        num_nodes,
                    });
                }
            }
        }
        if node_features.rows() != num_nodes {
            return Err(GraphError::NodeFeatureCount {
                got: node_features.rows(),
                want: num_nodes,
            });
        }
        if let Some(ef) = &edge_features {
            if ef.rows() != edges.len() {
                return Err(GraphError::EdgeFeatureCount {
                    got: ef.rows(),
                    want: edges.len(),
                });
            }
        }
        Ok(Self {
            num_nodes,
            edges,
            node_features,
            edge_features,
        })
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The COO edge list, `(source, destination)` per edge.
    pub fn edges(&self) -> &[(NodeId, NodeId)] {
        &self.edges
    }

    /// The node feature source.
    pub fn node_features(&self) -> &FeatureSource {
        &self.node_features
    }

    /// Node feature dimension.
    pub fn node_feature_dim(&self) -> usize {
        self.node_features.dim()
    }

    /// Edge feature dimension, if the graph carries edge features.
    pub fn edge_feature_dim(&self) -> Option<usize> {
        self.edge_features.as_ref().map(|m| m.cols())
    }

    /// Edge feature row for edge index `e`, if edge features exist.
    ///
    /// # Panics
    ///
    /// Panics if `e >= self.num_edges()`.
    pub fn edge_feature(&self, e: usize) -> Option<&[f32]> {
        self.edge_features.as_ref().map(|m| m.row(e))
    }

    /// The full edge feature matrix, if present.
    pub fn edge_feature_matrix(&self) -> Option<&flowgnn_tensor::Matrix> {
        self.edge_features.as_ref()
    }

    /// Out-degree of `node` (counted over the COO list; O(E)).
    ///
    /// Use [`Adjacency`](crate::Adjacency) for repeated queries.
    pub fn out_degree(&self, node: NodeId) -> usize {
        self.edges.iter().filter(|&&(s, _)| s == node).count()
    }

    /// In-degree of `node` (counted over the COO list; O(E)).
    pub fn in_degree(&self, node: NodeId) -> usize {
        self.edges.iter().filter(|&&(_, d)| d == node).count()
    }

    /// In-degrees of every node in one O(N + E) pass.
    pub fn in_degrees(&self) -> Vec<u32> {
        let mut deg = vec![0u32; self.num_nodes];
        for &(_, d) in &self.edges {
            deg[d as usize] += 1;
        }
        deg
    }

    /// Out-degrees of every node in one O(N + E) pass.
    pub fn out_degrees(&self) -> Vec<u32> {
        let mut deg = vec![0u32; self.num_nodes];
        for &(s, _) in &self.edges {
            deg[s as usize] += 1;
        }
        deg
    }

    /// Appends a *virtual node* connected to every existing node in both
    /// directions (the VN technique of Gilmer et al., Sec. IV of the paper).
    ///
    /// The virtual node gets zero features; new edges get zero edge features
    /// if the graph has edge features. Returns the id of the virtual node.
    pub fn add_virtual_node(&mut self) -> NodeId {
        self.add_virtual_nodes(1)[0]
    }

    /// Appends `k` virtual nodes (the multi-VN technique of Xue et al.,
    /// cited in Sec. IV as "escalating the complexity"): real node `v`
    /// connects bidirectionally to virtual node `v mod k`, and the virtual
    /// nodes form a bidirectional clique so global information still mixes.
    ///
    /// Returns the ids of the new virtual nodes.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn add_virtual_nodes(&mut self, k: usize) -> Vec<NodeId> {
        assert!(k > 0, "need at least one virtual node");
        let old_n = self.num_nodes;
        let vns: Vec<NodeId> = (0..k).map(|i| (old_n + i) as NodeId).collect();
        self.num_nodes += k;
        for _ in 0..k {
            self.node_features.push_zero_row();
        }
        let before = self.edges.len();
        for v in 0..old_n {
            let vn = vns[v % k];
            self.edges.push((v as NodeId, vn));
            self.edges.push((vn, v as NodeId));
        }
        for (i, &a) in vns.iter().enumerate() {
            for &b in &vns[i + 1..] {
                self.edges.push((a, b));
                self.edges.push((b, a));
            }
        }
        let new_edges = self.edges.len() - before;
        if let Some(ef) = self.edge_features.take() {
            let cols = ef.cols();
            let mut data = ef.into_vec();
            data.extend(std::iter::repeat_n(0.0, new_edges * cols));
            self.edge_features = Some(flowgnn_tensor::Matrix::from_vec(
                self.edges.len(),
                cols,
                data,
            ));
        }
        vns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowgnn_tensor::Matrix;

    fn path3() -> Graph {
        Graph::new(
            3,
            vec![(0, 1), (1, 0), (1, 2), (2, 1)],
            FeatureSource::dense(Matrix::zeros(3, 2)),
            None,
        )
        .unwrap()
    }

    #[test]
    fn counts_and_degrees() {
        let g = path3();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.out_degree(1), 2);
        assert_eq!(g.in_degree(1), 2);
        assert_eq!(g.out_degree(0), 1);
        assert_eq!(g.in_degrees(), vec![1, 2, 1]);
        assert_eq!(g.out_degrees(), vec![1, 2, 1]);
    }

    #[test]
    fn rejects_out_of_bounds_edge() {
        let err = Graph::new(
            2,
            vec![(0, 5)],
            FeatureSource::dense(Matrix::zeros(2, 1)),
            None,
        )
        .unwrap_err();
        assert!(matches!(err, GraphError::EdgeOutOfBounds { node: 5, .. }));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn rejects_wrong_node_feature_rows() {
        let err =
            Graph::new(3, vec![], FeatureSource::dense(Matrix::zeros(2, 1)), None).unwrap_err();
        assert!(matches!(
            err,
            GraphError::NodeFeatureCount { got: 2, want: 3 }
        ));
    }

    #[test]
    fn rejects_wrong_edge_feature_rows() {
        let err = Graph::new(
            2,
            vec![(0, 1)],
            FeatureSource::dense(Matrix::zeros(2, 1)),
            Some(Matrix::zeros(3, 4)),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            GraphError::EdgeFeatureCount { got: 3, want: 1 }
        ));
    }

    #[test]
    fn edge_features_are_per_edge() {
        let g = Graph::new(
            2,
            vec![(0, 1), (1, 0)],
            FeatureSource::dense(Matrix::zeros(2, 1)),
            Some(Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])),
        )
        .unwrap();
        assert_eq!(g.edge_feature_dim(), Some(2));
        assert_eq!(g.edge_feature(1), Some(&[3.0, 4.0][..]));
    }

    #[test]
    fn virtual_node_connects_to_all() {
        let mut g = path3();
        let vn = g.add_virtual_node();
        assert_eq!(vn, 3);
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4 + 6);
        assert_eq!(g.out_degree(vn), 3);
        assert_eq!(g.in_degree(vn), 3);
        assert_eq!(g.node_features().rows(), 4);
    }

    #[test]
    fn virtual_node_extends_edge_features_with_zeros() {
        let mut g = Graph::new(
            2,
            vec![(0, 1)],
            FeatureSource::dense(Matrix::zeros(2, 1)),
            Some(Matrix::from_rows(&[&[7.0]])),
        )
        .unwrap();
        g.add_virtual_node();
        assert_eq!(g.num_edges(), 5);
        assert_eq!(g.edge_feature(0), Some(&[7.0][..]));
        assert_eq!(g.edge_feature(4), Some(&[0.0][..]));
    }

    #[test]
    fn multiple_virtual_nodes_partition_and_clique() {
        let mut g = path3();
        let vns = g.add_virtual_nodes(2);
        assert_eq!(vns, vec![3, 4]);
        assert_eq!(g.num_nodes(), 5);
        // Real nodes 0,2 → VN 3; node 1 → VN 4. Each real node has one VN
        // edge pair; VNs form a 2-clique (one pair).
        assert_eq!(g.num_edges(), 4 + 2 * 3 + 2);
        assert_eq!(g.out_degree(3), 2 + 1); // nodes {0,2} + clique edge
        assert_eq!(g.out_degree(4), 1 + 1); // node {1} + clique edge
    }

    #[test]
    #[should_panic(expected = "at least one virtual node")]
    fn zero_virtual_nodes_panics() {
        path3().add_virtual_nodes(0);
    }

    #[test]
    fn empty_graph_is_valid() {
        let g = Graph::new(0, vec![], FeatureSource::dense(Matrix::zeros(0, 3)), None).unwrap();
        assert_eq!((g.num_nodes(), g.num_edges()), (0, 0));
    }
}
