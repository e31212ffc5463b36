//! Model → pipeline-region lowering, and destination-banked edge lists.
//!
//! The paper's Listing 1 runs one HLS `dataflow` region per layer; each
//! region pipelines a node-transformation pass with the message passing
//! that consumes its outputs. Lowering a [`GnnModel`] rotates the
//! conventional "aggregate-then-transform" layer into those regions:
//!
//! - **NT→MP models** (GCN/GIN/PNA/DGN): region 0 encodes raw features and
//!   scatters layer 0's messages; region *r* applies γ of layer *r−1*
//!   (consuming the aggregates region *r−1* scattered) and scatters layer
//!   *r*'s messages; the final region applies the last γ with no scatter.
//! - **MP→NT models** (GAT): each layer becomes a *projection* region
//!   (NT-only: the shared head projection) followed by a *gather* region
//!   (MP units gather attention-weighted messages, NT units finalise the
//!   online softmax). Gather regions support both edge partitionings —
//!   the paper's source banking (partial aggregates, merge barrier) and
//!   the streaming destination banking this crate defaults to; see
//!   [`GatherBanking`](crate::GatherBanking).

use flowgnn_graph::{Graph, NodeId};
use flowgnn_models::{Dataflow, GnnModel};

/// What the NT units compute in a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NtOp {
    /// Region 0: encode raw node features into the hidden dimension.
    Encode,
    /// Apply γ of layer `l` to `(x, m)` from the previous region.
    Gamma(usize),
    /// Apply layer `l`'s pre-projection (GAT's `W`).
    Project(usize),
    /// Finalise layer `l`'s gathered aggregate (GAT's softmax division).
    Normalize(usize),
}

/// One pipeline region.
#[derive(Debug, Clone)]
pub(crate) struct Region {
    pub nt_op: NtOp,
    /// FC chain the NT unit runs per node, as `(in, out)` dims.
    pub nt_fc: Vec<(usize, usize)>,
    /// Dimension of the vector NT reads per node (aggregate or raw input).
    pub nt_read_dim: usize,
    /// Embedding dimension NT produces (streams through the adapter).
    pub payload_dim: usize,
    /// Layer whose φ the MP units apply in this region (scatter style).
    pub scatter_layer: Option<usize>,
    /// Layer whose φ the MP units gather in this region (gather style).
    pub gather_layer: Option<usize>,
}

/// Lowers a model into its pipeline regions.
///
/// # Panics
///
/// Panics if a gather-dataflow model has no layers (checked upstream).
pub(crate) fn lower(model: &GnnModel) -> Vec<Region> {
    let hidden = model.hidden_dim();
    let input_dim = model.input_dim();
    let encode_fc = if model.encoder().is_some() {
        vec![(input_dim, hidden)]
    } else {
        Vec::new()
    };
    let mut regions = Vec::new();
    match model.dataflow() {
        Dataflow::NtToMp => {
            let layers = model.layers();
            regions.push(Region {
                nt_op: NtOp::Encode,
                nt_fc: encode_fc,
                nt_read_dim: input_dim,
                payload_dim: hidden,
                scatter_layer: Some(0),
                gather_layer: None,
            });
            for (l, layer) in layers.iter().enumerate() {
                let scatter_layer = if l + 1 < layers.len() {
                    Some(l + 1)
                } else {
                    None
                };
                regions.push(Region {
                    nt_op: NtOp::Gamma(l),
                    nt_fc: layer.nt_fc_dims(),
                    nt_read_dim: layer.agg_dim(),
                    payload_dim: layer.out_dim(),
                    scatter_layer,
                    gather_layer: None,
                });
            }
        }
        Dataflow::MpToNt => {
            regions.push(Region {
                nt_op: NtOp::Encode,
                nt_fc: encode_fc,
                nt_read_dim: input_dim,
                payload_dim: hidden,
                scatter_layer: None,
                gather_layer: None,
            });
            for (l, layer) in model.layers().iter().enumerate() {
                let pre_fc: Vec<(usize, usize)> = layer
                    .pre()
                    .map(|p| vec![(p.in_dim(), p.out_dim())])
                    .unwrap_or_default();
                regions.push(Region {
                    nt_op: NtOp::Project(l),
                    nt_fc: pre_fc,
                    nt_read_dim: layer.in_dim(),
                    payload_dim: layer.payload_dim(),
                    scatter_layer: None,
                    gather_layer: None,
                });
                regions.push(Region {
                    nt_op: NtOp::Normalize(l),
                    nt_fc: Vec::new(),
                    nt_read_dim: layer.agg_dim(),
                    payload_dim: layer.out_dim(),
                    scatter_layer: None,
                    gather_layer: Some(l),
                });
            }
        }
    }
    regions
}

/// Out-edges of a graph partitioned by destination bank
/// (`dest mod P_edge`) and grouped by source node — exactly the layout MP
/// unit *k* sees: "each MP will process only those edges and scatter to
/// only those nodes within its own bank" (Sec. III-D1).
///
/// The storage is a CSR: edge ids live in one flat lane indexed by one
/// bank-major offset table, so an MP unit chewing through a source's
/// edges (in functional runs it appends the edge ids it completes to the
/// region's fold order) walks contiguous memory, and the structure costs
/// two allocations regardless of `P_edge`. An edge's endpoints stay in
/// the graph's COO list. The per-source multicast targets are also
/// precomputed as a CSR, so the adapter's routing decision is a slice
/// lookup rather than a per-node scan-and-collect.
#[derive(Debug, Clone)]
pub(crate) struct BankedEdges {
    p_edge: usize,
    n: usize,
    /// Bank-major CSR over sources: bank `k`, source `s` spans
    /// `offsets[k*(n+1)+s]..offsets[k*(n+1)+s+1]` of `eids` (offsets are
    /// global lane indices, so no per-bank base is needed).
    offsets: Vec<usize>,
    /// Edge-id lane, each (bank, source) span in edge-list order.
    eids: Vec<u32>,
    /// CSR of multicast targets per source: source `s` streams to banks
    /// `target_banks[target_offsets[s]..target_offsets[s+1]]`.
    target_offsets: Vec<usize>,
    target_banks: Vec<usize>,
}

impl BankedEdges {
    /// Builds the banked structure in two counting-sort passes, O(N + E) —
    /// the same on-the-fly cost as CSR construction.
    pub fn new(graph: &Graph, p_edge: usize) -> Self {
        let n = graph.num_nodes();
        let e = graph.num_edges();
        // Counting sort into the flat bank-major offset table. Slot
        // `k*(n+1) + s + 1` first holds the count for (bank k, source s);
        // the running prefix sum then turns the table into global lane
        // offsets (bank k's region starts where bank k-1's ended).
        let mut offsets = vec![0usize; p_edge * (n + 1) + 1];
        for &(src, dst) in graph.edges() {
            offsets[(dst as usize % p_edge) * (n + 1) + src as usize + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        offsets.truncate(p_edge * (n + 1));
        let mut cursor: Vec<usize> = offsets.clone();
        let mut eids = vec![0u32; e];
        for (eid, &(src, dst)) in graph.edges().iter().enumerate() {
            let k = dst as usize % p_edge;
            let slot = cursor[k * (n + 1) + src as usize];
            cursor[k * (n + 1) + src as usize] += 1;
            eids[slot] = eid as u32;
        }
        // Multicast-target CSR: for each source, the banks holding >= 1
        // of its out-edges, in bank order.
        let mut target_offsets = vec![0usize; n + 1];
        let mut target_banks = Vec::new();
        let span = |k: usize, s: usize| {
            let base = k * (n + 1) + s;
            offsets[base + 1] - offsets[base]
        };
        for s in 0..n {
            for k in 0..p_edge {
                if span(k, s) > 0 {
                    target_banks.push(k);
                }
            }
            target_offsets[s + 1] = target_banks.len();
        }
        Self {
            p_edge,
            n,
            offsets,
            eids,
            target_offsets,
            target_banks,
        }
    }

    /// Number of banks.
    pub fn p_edge(&self) -> usize {
        self.p_edge
    }

    /// Ids of the edges of source `src` landing in bank `k`, in
    /// edge-list order.
    pub fn edges(&self, k: usize, src: NodeId) -> &[u32] {
        let base = k * (self.n + 1) + src as usize;
        &self.eids[self.offsets[base]..self.offsets[base + 1]]
    }

    /// Banks that source `src` multicasts to (those holding ≥ 1 of its
    /// out-edges) — the adapter's routing decision, precomputed.
    pub fn targets(&self, src: NodeId) -> &[usize] {
        let s = src as usize;
        &self.target_banks[self.target_offsets[s]..self.target_offsets[s + 1]]
    }

    /// Total edges in bank `k`.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn bank_size(&self, k: usize) -> usize {
        let base = k * (self.n + 1);
        self.offsets[base + self.n] - self.offsets[base]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowgnn_graph::FeatureSource;
    use flowgnn_models::GnnModel;
    use flowgnn_tensor::Matrix;

    fn graph() -> Graph {
        // Edges: (0→1)(1→2)(1→3)(2→1) — the Fig. 5 example.
        Graph::new(
            4,
            vec![(0, 1), (1, 2), (1, 3), (2, 1)],
            FeatureSource::dense(Matrix::zeros(4, 2)),
            None,
        )
        .unwrap()
    }

    #[test]
    fn nt_to_mp_lowering_has_layers_plus_one_regions() {
        let m = GnnModel::gcn(9, 0);
        let regions = lower(&m);
        assert_eq!(regions.len(), 6);
        assert_eq!(regions[0].nt_op, NtOp::Encode);
        assert_eq!(regions[0].scatter_layer, Some(0));
        assert_eq!(regions[5].nt_op, NtOp::Gamma(4));
        assert_eq!(regions[5].scatter_layer, None);
        // Middle region r scatters layer r.
        assert_eq!(regions[2].scatter_layer, Some(2));
    }

    #[test]
    fn gat_lowering_alternates_project_and_gather() {
        let m = GnnModel::gat(9, 0);
        let regions = lower(&m);
        assert_eq!(regions.len(), 1 + 2 * 5);
        assert_eq!(regions[1].nt_op, NtOp::Project(0));
        assert!(regions[1].gather_layer.is_none());
        assert_eq!(regions[2].nt_op, NtOp::Normalize(0));
        assert_eq!(regions[2].gather_layer, Some(0));
        assert!(regions.iter().all(|r| r.scatter_layer.is_none()));
    }

    #[test]
    fn banked_edges_match_fig5_example() {
        // With 2 banks: bank 1 gets dests {1, 3}, bank 0 gets dest {2}.
        let be = BankedEdges::new(&graph(), 2);
        assert_eq!(be.edges(1, 0), [0]); // edge 0, 0→1, in bank 1
        assert_eq!(be.edges(0, 1), [1]); // edge 1, 1→2, in bank 0
        assert_eq!(be.edges(1, 1), [2]); // edge 2, 1→3, in bank 1
        assert_eq!(be.targets(1), &[0, 1]); // node 1 multicasts to both
        assert_eq!(be.targets(0), &[1]); // node 0 only to bank 1
        assert!(be.targets(3).is_empty()); // no out-edges
    }

    #[test]
    fn bank_sizes_partition_edges() {
        let be = BankedEdges::new(&graph(), 3);
        let total: usize = (0..3).map(|k| be.bank_size(k)).sum();
        assert_eq!(total, 4);
    }

    #[test]
    fn single_bank_holds_everything() {
        let be = BankedEdges::new(&graph(), 1);
        assert_eq!(be.bank_size(0), 4);
        assert_eq!(be.targets(1), &[0]);
    }

    #[test]
    fn region_dims_chain() {
        let m = GnnModel::pna(9, Some(3), 0);
        let regions = lower(&m);
        // γ regions read the PNA aggregate (12×80 + handled via agg_dim).
        assert_eq!(regions[1].nt_read_dim, m.layers()[0].agg_dim());
        assert_eq!(regions[1].payload_dim, 80);
    }
}
