//! Per-graph derived context: degrees, PNA scalers, the DGN vector field.

use flowgnn_graph::{Graph, NodeId};

/// Quantities derived from one input graph that the models consume.
///
/// Everything here is either computable on the fly from the streamed edge
/// list in O(N + E) (degrees — the hardware counts them while building
/// CSR/CSC) or is a model *input* in the paper's formulation (DGN "accepts
/// eigenvectors of the graph Laplacian as parameters", Sec. IV): we compute
/// the field host-side with a deterministic power iteration, mirroring how
/// the paper's host prepares DGN inputs. No part of this is the graph
/// pre-processing the paper forbids — none of it reorders, partitions, or
/// analyses the graph for locality.
///
/// # Example
///
/// ```
/// use flowgnn_graph::generators::{ErdosRenyi, GraphGenerator};
/// use flowgnn_models::GraphContext;
///
/// let g = ErdosRenyi::new(10, 0.3, 1).generate(0);
/// let ctx = GraphContext::new(&g);
/// assert_eq!(ctx.in_degree(0) as usize, g.in_degree(0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GraphContext {
    in_degrees: Vec<u32>,
    /// Mean over nodes of `log(d_in + 1)` — PNA's δ̃ (computed from the
    /// graph itself; the PNA paper uses the training-set average).
    mean_log_degree: f32,
    /// Laplacian eigenvector field for DGN (lazily computed).
    field: Option<DgnField>,
}

/// The DGN directional field: eigenvector values plus per-node
/// normalisation `Σ_j |φ_j − φ_i|` over in-neighbours.
#[derive(Debug, Clone, PartialEq)]
pub struct DgnField {
    /// Per-node eigenvector value φ_i.
    pub eigvec: Vec<f32>,
    /// Per-node normaliser for the directional-derivative weights.
    pub norm: Vec<f32>,
}

impl GraphContext {
    /// Builds the context for `graph` (without the DGN field; see
    /// [`GraphContext::with_dgn_field`]).
    pub fn new(graph: &Graph) -> Self {
        let in_degrees = graph.in_degrees();
        let n = graph.num_nodes().max(1);
        let mean_log_degree = in_degrees
            .iter()
            .map(|&d| ((d + 1) as f32).ln())
            .sum::<f32>()
            / n as f32;
        Self {
            in_degrees,
            mean_log_degree,
            field: None,
        }
    }

    /// Builds the context including the DGN eigenvector field.
    pub fn with_dgn_field(graph: &Graph) -> Self {
        let mut ctx = Self::new(graph);
        ctx.field = Some(compute_dgn_field(graph));
        ctx
    }

    /// In-degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn in_degree(&self, v: NodeId) -> u32 {
        self.in_degrees[v as usize]
    }

    /// PNA's δ̃: the mean of `log(d + 1)` over nodes.
    pub fn mean_log_degree(&self) -> f32 {
        self.mean_log_degree
    }

    /// The DGN field, if built.
    pub fn dgn_field(&self) -> Option<&DgnField> {
        self.field.as_ref()
    }

    /// Number of nodes this context covers.
    pub fn num_nodes(&self) -> usize {
        self.in_degrees.len()
    }
}

/// Computes a non-trivial Laplacian eigenvector by deterministic power
/// iteration on `cI − L` (with the constant vector deflated), then the
/// per-node directional-derivative normalisers.
fn compute_dgn_field(graph: &Graph) -> DgnField {
    let n = graph.num_nodes();
    if n == 0 {
        return DgnField {
            eigvec: Vec::new(),
            norm: Vec::new(),
        };
    }
    let deg = graph.in_degrees();
    let max_deg = deg.iter().copied().max().unwrap_or(0) as f32;
    let c = max_deg + 1.0;

    // Deterministic non-constant start vector.
    let mut v: Vec<f32> = (0..n).map(|i| (i as f32 * 0.7391 + 0.313).sin()).collect();
    let mut next = vec![0.0f32; n];
    for _ in 0..120 {
        // next = (cI − L) v = (c − D) v + A v
        for i in 0..n {
            next[i] = (c - deg[i] as f32) * v[i];
        }
        for &(u, w) in graph.edges() {
            next[w as usize] += v[u as usize];
        }
        // Deflate the constant eigenvector and renormalise.
        let mean = next.iter().sum::<f32>() / n as f32;
        for x in &mut next {
            *x -= mean;
        }
        let norm = next.iter().map(|x| x * x).sum::<f32>().sqrt();
        if norm < 1e-12 {
            // Regular graph edge case: field is degenerate; use zeros.
            next.iter_mut().for_each(|x| *x = 0.0);
            std::mem::swap(&mut v, &mut next);
            break;
        }
        for x in &mut next {
            *x /= norm;
        }
        std::mem::swap(&mut v, &mut next);
    }

    // Per-node normaliser over in-neighbours: Σ_j |φ_j − φ_i|.
    let mut norm = vec![0.0f32; n];
    for &(u, w) in graph.edges() {
        norm[w as usize] += (v[u as usize] - v[w as usize]).abs();
    }
    DgnField { eigvec: v, norm }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowgnn_graph::generators::{ErdosRenyi, GraphGenerator};
    use flowgnn_graph::FeatureSource;
    use flowgnn_tensor::Matrix;

    fn path(n: usize) -> Graph {
        let mut edges = Vec::new();
        for i in 0..n - 1 {
            edges.push((i as NodeId, (i + 1) as NodeId));
            edges.push(((i + 1) as NodeId, i as NodeId));
        }
        Graph::new(n, edges, FeatureSource::dense(Matrix::zeros(n, 1)), None).unwrap()
    }

    #[test]
    fn degrees_match_graph() {
        let g = ErdosRenyi::new(20, 0.2, 3).generate(0);
        let ctx = GraphContext::new(&g);
        for v in 0..20u32 {
            assert_eq!(ctx.in_degree(v) as usize, g.in_degree(v));
        }
    }

    #[test]
    fn mean_log_degree_for_regular_graph() {
        // A cycle: every in-degree is 1, so mean log degree = ln 2.
        let n = 6;
        let mut edges = Vec::new();
        for i in 0..n {
            edges.push((i as NodeId, ((i + 1) % n) as NodeId));
        }
        let g = Graph::new(n, edges, FeatureSource::dense(Matrix::zeros(n, 1)), None).unwrap();
        let ctx = GraphContext::new(&g);
        assert!((ctx.mean_log_degree() - 2.0f32.ln()).abs() < 1e-6);
    }

    #[test]
    fn dgn_field_is_deterministic() {
        let g = path(10);
        let a = GraphContext::with_dgn_field(&g);
        let b = GraphContext::with_dgn_field(&g);
        assert_eq!(a.dgn_field(), b.dgn_field());
    }

    #[test]
    fn dgn_field_on_path_is_monotone_like() {
        // The Fiedler-like vector of a path orders the nodes: endpoints
        // should have opposite signs.
        let g = path(12);
        let ctx = GraphContext::with_dgn_field(&g);
        let f = ctx.dgn_field().unwrap();
        assert!(f.eigvec[0] * f.eigvec[11] < 0.0, "{:?}", f.eigvec);
    }

    #[test]
    fn dgn_field_is_unit_norm_and_zero_mean() {
        let g = path(9);
        let f = GraphContext::with_dgn_field(&g)
            .dgn_field()
            .unwrap()
            .clone();
        let mean: f32 = f.eigvec.iter().sum::<f32>() / 9.0;
        let norm: f32 = f.eigvec.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!(mean.abs() < 1e-4, "mean {mean}");
        assert!((norm - 1.0).abs() < 1e-4, "norm {norm}");
    }

    #[test]
    fn empty_graph_context_is_valid() {
        let g = Graph::new(0, vec![], FeatureSource::dense(Matrix::zeros(0, 1)), None).unwrap();
        let ctx = GraphContext::with_dgn_field(&g);
        assert_eq!(ctx.num_nodes(), 0);
        assert!(ctx.dgn_field().unwrap().eigvec.is_empty());
    }

    #[test]
    fn norm_accumulates_absolute_differences() {
        let g = path(3);
        let ctx = GraphContext::with_dgn_field(&g);
        let f = ctx.dgn_field().unwrap();
        let expected = (f.eigvec[0] - f.eigvec[1]).abs() + (f.eigvec[2] - f.eigvec[1]).abs();
        assert!((f.norm[1] - expected).abs() < 1e-6);
    }
}
