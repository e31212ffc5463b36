//! I-GCN: islandization with redundancy removal (Geng et al., MICRO'21).
//!
//! I-GCN's contribution is *islandization*: find high-degree hubs, carve
//! the remaining graph into islands reachable without crossing hubs, and
//! within the resulting locality de-duplicate aggregations of nodes that
//! share neighbour sets. We implement the algorithm itself (hub detection,
//! island BFS, shared-neighbour grouping) and measure the redundancy it
//! finds on each input graph; the timing model then credits that saving.
//!
//! This is also where the paper's Sec. II-B argument is mechanised: with
//! edge embeddings, two edges into the same destination carry *different*
//! messages, so the shared-neighbour saving is zero —
//! [`Islandization::redundant_fraction_with_edge_features`] returns 0 and
//! the advantage disappears, which is why Table VIII is "not a fair
//! comparison" in FlowGNN's disfavour.
//!
//! [`IGcnBackend`] is the platform: I-GCN's published PE array crediting
//! the redundancy islandization finds on each graph.

use std::collections::HashMap;

use flowgnn_core::{BackendReport, InferenceBackend};
use flowgnn_graph::{Adjacency, Graph, NodeId};

use crate::pe_array::PeArrayModel;
use crate::workload::GcnWorkload;

/// The result of running islandization on a graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Islandization {
    /// Hub nodes (degree above the hub threshold).
    pub hubs: Vec<NodeId>,
    /// Islands: connected groups of non-hub nodes, bounded size.
    pub islands: Vec<Vec<NodeId>>,
    /// Fraction of aggregation work removed by shared-neighbour
    /// de-duplication (0 when the graph has edge features).
    pub redundant_fraction: f64,
}

impl Islandization {
    /// Default hub threshold: degree above `factor ×` average degree.
    pub const HUB_DEGREE_FACTOR: f64 = 4.0;
    /// Maximum island size (I-GCN bounds islands by on-chip capacity).
    pub const MAX_ISLAND: usize = 256;

    /// Runs islandization on `graph`.
    pub fn analyze(graph: &Graph) -> Self {
        let n = graph.num_nodes();
        if n == 0 {
            return Self {
                hubs: Vec::new(),
                islands: Vec::new(),
                redundant_fraction: 0.0,
            };
        }
        let in_deg = graph.in_degrees();
        let out = Adjacency::out_edges(graph);
        let into = Adjacency::in_edges(graph);
        let avg = graph.num_edges() as f64 / n as f64;
        let threshold = (avg * Self::HUB_DEGREE_FACTOR).max(1.0) as u32;

        let is_hub: Vec<bool> = in_deg.iter().map(|&d| d > threshold).collect();
        let hubs: Vec<NodeId> = (0..n as NodeId).filter(|&v| is_hub[v as usize]).collect();

        // Island construction: BFS over non-hub nodes (treating edges as
        // undirected), bounded island size.
        let mut island_of = vec![usize::MAX; n];
        let mut islands: Vec<Vec<NodeId>> = Vec::new();
        let mut queue = std::collections::VecDeque::new();
        for start in 0..n as NodeId {
            if is_hub[start as usize] || island_of[start as usize] != usize::MAX {
                continue;
            }
            let id = islands.len();
            let mut members = vec![start];
            island_of[start as usize] = id;
            queue.clear();
            queue.push_back(start);
            while let Some(v) = queue.pop_front() {
                if members.len() >= Self::MAX_ISLAND {
                    break;
                }
                for &w in out.neighbors(v).iter().chain(into.neighbors(v)) {
                    let wi = w as usize;
                    if !is_hub[wi] && island_of[wi] == usize::MAX {
                        island_of[wi] = id;
                        members.push(w);
                        queue.push_back(w);
                        if members.len() >= Self::MAX_ISLAND {
                            break;
                        }
                    }
                }
            }
            islands.push(members);
        }

        // Redundancy: nodes with identical in-neighbour sets can share one
        // partial aggregation; the extra copies are free.
        let mut groups: HashMap<Vec<NodeId>, u64> = HashMap::new();
        for v in 0..n as NodeId {
            let mut key = into.neighbors(v).to_vec();
            if key.is_empty() {
                continue;
            }
            key.sort_unstable();
            *groups.entry(key).or_insert(0) += 1;
        }
        let mut saved: u64 = 0;
        for (key, count) in &groups {
            if *count > 1 {
                saved += (count - 1) * key.len() as u64;
            }
        }
        let e = graph.num_edges() as u64;
        let redundant_fraction = if e == 0 { 0.0 } else { saved as f64 / e as f64 };

        Self {
            hubs,
            islands,
            redundant_fraction,
        }
    }

    /// The saving available when the model carries edge embeddings: none —
    /// messages into a node differ per edge, so shared-neighbour partial
    /// sums cannot be reused (paper Fig. 1(b)).
    pub fn redundant_fraction_with_edge_features(&self) -> f64 {
        0.0
    }
}

/// The I-GCN accelerator running a GCN-class workload of `hidden`
/// dimension and `layers` layers.
#[derive(Debug, Clone)]
pub struct IGcnBackend {
    hidden: usize,
    layers: usize,
    redundancy: Option<f64>,
}

impl IGcnBackend {
    /// I-GCN's published deployment: 4096 PEs; board power calibrated from
    /// the published energy-efficiency numbers.
    const ARRAY: PeArrayModel = PeArrayModel {
        name: "I-GCN",
        pes: 4096,
        freq_hz: 350e6,
        utilization: 0.85,
        mem_bw_gbps: 460.0,
        dsps: 4096,
        watts: 110.0,
    };

    /// I-GCN on a GCN of `hidden` dimension and `layers` layers.
    pub fn new(hidden: usize, layers: usize) -> Self {
        Self {
            hidden,
            layers,
            redundancy: None,
        }
    }

    /// Uses a precomputed islandization redundancy fraction instead of
    /// re-running [`Islandization::analyze`] per graph (the analysis is
    /// the expensive part on large graphs).
    pub fn with_redundancy(mut self, redundant_fraction: f64) -> Self {
        self.redundancy = Some(redundant_fraction);
        self
    }

    /// Latency in microseconds for a GCN workload once islandization has
    /// removed the `redundancy` fraction of its aggregation.
    ///
    /// # Panics
    ///
    /// Panics if `redundancy` is outside `[0, 1]`.
    pub(crate) fn latency_us(workload: &GcnWorkload, redundancy: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&redundancy),
            "redundancy {redundancy} outside [0, 1]"
        );
        let keep = 1.0 - redundancy;
        let macs = workload.combination_macs() + (workload.aggregation_macs() as f64 * keep) as u64;
        let bytes = (workload.message_bytes() as f64 * keep) as u64;
        Self::ARRAY.latency_us(macs, bytes)
    }
}

impl InferenceBackend for IGcnBackend {
    fn name(&self) -> &str {
        Self::ARRAY.name
    }

    fn run_graph(&self, graph: &Graph) -> BackendReport {
        let workload = GcnWorkload::from_graph(graph, self.hidden, self.layers);
        let redundancy = self
            .redundancy
            .unwrap_or_else(|| Islandization::analyze(graph).redundant_fraction);
        Self::ARRAY.report(Self::latency_us(&workload, redundancy))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowgnn_graph::generators::{ChungLu, GraphGenerator, MoleculeLike};
    use flowgnn_graph::{FeatureSource, Graph};
    use flowgnn_tensor::Matrix;

    fn star_plus_twins() -> Graph {
        // Node 0 is a hub (in-degree 9 vs average ~1.3); nodes 4 and 5
        // share the identical in-neighbour set {1, 2} — redundancy
        // removable.
        let mut edges = vec![(1, 4), (2, 4), (1, 5), (2, 5)];
        for v in 1..10 {
            edges.push((v, 0));
        }
        Graph::new(10, edges, FeatureSource::dense(Matrix::zeros(10, 2)), None).unwrap()
    }

    #[test]
    fn hub_detection_finds_the_star_center() {
        let isl = Islandization::analyze(&star_plus_twins());
        assert_eq!(isl.hubs, vec![0]);
    }

    #[test]
    fn twins_are_detected_as_redundant() {
        let isl = Islandization::analyze(&star_plus_twins());
        // Nodes 4 and 5 share in-neighbours {1,2}: one of the two
        // aggregations (2 edges) is saved out of 13 edges.
        assert!((isl.redundant_fraction - 2.0 / 13.0).abs() < 1e-9);
    }

    #[test]
    fn edge_features_kill_the_redundancy() {
        let isl = Islandization::analyze(&star_plus_twins());
        assert!(isl.redundant_fraction > 0.0);
        assert_eq!(isl.redundant_fraction_with_edge_features(), 0.0);
    }

    #[test]
    fn islands_cover_all_non_hub_nodes() {
        let g = ChungLu::new(500, 3000, 8, 1).generate(0);
        let isl = Islandization::analyze(&g);
        let covered: usize = isl.islands.iter().map(Vec::len).sum();
        assert_eq!(covered + isl.hubs.len(), 500);
        for island in &isl.islands {
            assert!(island.len() <= Islandization::MAX_ISLAND);
        }
    }

    #[test]
    fn random_graphs_have_little_redundancy() {
        // The paper's Sec. II-B point in reverse: redundancy removal needs
        // shared neighbour sets, which random graphs rarely have.
        let g = ChungLu::new(2000, 10_000, 8, 2).generate(0);
        let isl = Islandization::analyze(&g);
        assert!(isl.redundant_fraction < 0.25, "{}", isl.redundant_fraction);
    }

    #[test]
    fn redundancy_speeds_up_the_model() {
        let w = GcnWorkload::from_stats(1000, 50_000, 20_000, 16, 2);
        let slow = IGcnBackend::latency_us(&w, 0.0);
        let fast = IGcnBackend::latency_us(&w, 0.4);
        assert!(fast < slow);
    }

    #[test]
    fn cora_class_latency_matches_published_magnitude() {
        // I-GCN reports 1.3 µs on Cora; the model should land within ~2×.
        let w = GcnWorkload::from_stats(2708, 5429, 49_260, 16, 2);
        let l = IGcnBackend::latency_us(&w, 0.1);
        assert!((0.5..=3.0).contains(&l), "{l} µs");
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = Graph::new(0, vec![], FeatureSource::dense(Matrix::zeros(0, 1)), None).unwrap();
        let isl = Islandization::analyze(&g);
        assert!(isl.islands.is_empty());
        assert_eq!(isl.redundant_fraction, 0.0);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn invalid_redundancy_panics() {
        let w = GcnWorkload::from_stats(10, 10, 10, 16, 2);
        IGcnBackend::latency_us(&w, 1.5);
    }

    #[test]
    fn precomputed_redundancy_matches_inline_analysis() {
        let g = MoleculeLike::new(16.0, 4).generate(0);
        let inline = IGcnBackend::new(16, 2).run_graph(&g);
        let frac = Islandization::analyze(&g).redundant_fraction;
        let precomputed = IGcnBackend::new(16, 2).with_redundancy(frac).run_graph(&g);
        assert_eq!(inline.latency_us, precomputed.latency_us);
    }
}
