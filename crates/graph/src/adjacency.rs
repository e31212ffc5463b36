//! On-the-fly CSR/CSC adjacency built from a COO edge stream.

use crate::{Graph, NodeId};

/// A compressed adjacency view of a graph's COO edge list.
///
/// The paper's NT→MP dataflow requires CSR (out-edges grouped by source)
/// and the MP→NT dataflow requires CSC (in-edges grouped by destination),
/// both "built on the fly" from the raw streamed edge list (Sec. III-C).
/// Construction is a two-pass counting sort — O(N + E), one pass to count
/// and one to place — exactly what streaming hardware does while the first
/// layer's node transformations are still running.
///
/// Each adjacency entry remembers its original COO index so per-edge
/// features can be fetched.
///
/// # Example
///
/// ```
/// use flowgnn_graph::{Adjacency, Graph, FeatureSource};
/// use flowgnn_tensor::Matrix;
///
/// let g = Graph::new(3, vec![(0, 1), (0, 2), (2, 1)],
///     FeatureSource::dense(Matrix::zeros(3, 1)), None)?;
/// let csr = Adjacency::out_edges(&g);
/// assert_eq!(csr.neighbors(0), &[1, 2]);
/// let csc = Adjacency::in_edges(&g);
/// assert_eq!(csc.neighbors(1), &[0, 2]); // sources of edges into node 1
/// # Ok::<(), flowgnn_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Adjacency {
    offsets: Vec<usize>,
    /// For CSR: destination of each out-edge. For CSC: source of each in-edge.
    endpoints: Vec<NodeId>,
    /// Original COO edge index of each entry.
    edge_ids: Vec<u32>,
}

impl Adjacency {
    /// Builds the CSR view: out-edges grouped by **source** node.
    ///
    /// `neighbors(u)` are then the destinations of `u`'s out-edges — the
    /// nodes `u` scatters messages to.
    pub fn out_edges(graph: &Graph) -> Self {
        Self::build(graph, true)
    }

    /// Builds the CSC view: in-edges grouped by **destination** node.
    ///
    /// `neighbors(v)` are then the sources of `v`'s in-edges — the nodes
    /// `v` gathers messages from.
    pub fn in_edges(graph: &Graph) -> Self {
        Self::build(graph, false)
    }

    fn build(graph: &Graph, by_source: bool) -> Self {
        let n = graph.num_nodes();
        let edges = graph.edges();
        let mut counts = vec![0usize; n + 1];
        for &(s, d) in edges {
            let key = if by_source { s } else { d } as usize;
            counts[key + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let offsets = counts.clone();
        let mut cursor = counts;
        let mut endpoints = vec![0 as NodeId; edges.len()];
        let mut edge_ids = vec![0u32; edges.len()];
        for (i, &(s, d)) in edges.iter().enumerate() {
            let (key, other) = if by_source { (s, d) } else { (d, s) };
            let slot = cursor[key as usize];
            cursor[key as usize] += 1;
            endpoints[slot] = other;
            edge_ids[slot] = i as u32;
        }
        Self {
            offsets,
            endpoints,
            edge_ids,
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.endpoints.len()
    }

    /// The grouped endpoints for node `u` (see [`Adjacency::out_edges`] /
    /// [`Adjacency::in_edges`] for orientation).
    ///
    /// # Panics
    ///
    /// Panics if `u >= self.num_nodes()`.
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        let u = u as usize;
        &self.endpoints[self.offsets[u]..self.offsets[u + 1]]
    }

    /// Original COO edge indices for node `u`'s group, parallel to
    /// [`Adjacency::neighbors`].
    ///
    /// # Panics
    ///
    /// Panics if `u >= self.num_nodes()`.
    pub fn edge_ids(&self, u: NodeId) -> &[u32] {
        let u = u as usize;
        &self.edge_ids[self.offsets[u]..self.offsets[u + 1]]
    }

    /// Degree of node `u` in this orientation.
    ///
    /// # Panics
    ///
    /// Panics if `u >= self.num_nodes()`.
    pub fn degree(&self, u: NodeId) -> usize {
        self.neighbors(u).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FeatureSource;
    use flowgnn_tensor::Matrix;

    fn g(num_nodes: usize, edges: Vec<(NodeId, NodeId)>) -> Graph {
        Graph::new(
            num_nodes,
            edges,
            FeatureSource::dense(Matrix::zeros(num_nodes, 1)),
            None,
        )
        .unwrap()
    }

    #[test]
    fn csr_groups_by_source_preserving_order() {
        let graph = g(4, vec![(1, 2), (0, 3), (1, 0), (3, 3)]);
        let csr = Adjacency::out_edges(&graph);
        assert_eq!(csr.neighbors(0), &[3]);
        assert_eq!(csr.neighbors(1), &[2, 0]);
        assert_eq!(csr.neighbors(2), &[] as &[NodeId]);
        assert_eq!(csr.neighbors(3), &[3]);
        assert_eq!(csr.edge_ids(1), &[0, 2]);
    }

    #[test]
    fn csc_groups_by_destination() {
        let graph = g(4, vec![(1, 2), (0, 3), (1, 0), (3, 3)]);
        let csc = Adjacency::in_edges(&graph);
        assert_eq!(csc.neighbors(3), &[0, 3]);
        assert_eq!(csc.neighbors(2), &[1]);
        assert_eq!(csc.edge_ids(3), &[1, 3]);
    }

    #[test]
    fn counts_are_consistent() {
        let graph = g(3, vec![(0, 1), (1, 2), (2, 0), (0, 2)]);
        let csr = Adjacency::out_edges(&graph);
        assert_eq!(csr.num_nodes(), 3);
        assert_eq!(csr.num_edges(), 4);
        let total: usize = (0..3).map(|u| csr.degree(u as NodeId)).sum();
        assert_eq!(total, 4);
    }

    #[test]
    fn self_loops_appear_in_both_views() {
        let graph = g(2, vec![(1, 1)]);
        assert_eq!(Adjacency::out_edges(&graph).neighbors(1), &[1]);
        assert_eq!(Adjacency::in_edges(&graph).neighbors(1), &[1]);
    }

    #[test]
    fn empty_graph_yields_empty_adjacency() {
        let graph = g(0, vec![]);
        let csr = Adjacency::out_edges(&graph);
        assert_eq!(csr.num_nodes(), 0);
        assert_eq!(csr.num_edges(), 0);
    }

    #[test]
    fn parallel_edges_are_kept() {
        let graph = g(2, vec![(0, 1), (0, 1)]);
        let csr = Adjacency::out_edges(&graph);
        assert_eq!(csr.neighbors(0), &[1, 1]);
        assert_eq!(csr.edge_ids(0), &[0, 1]);
    }
}
