//! [`InferenceBackend`] adapters for the baseline platforms.
//!
//! Each adapter binds one platform cost model to a concrete deployment
//! (a GNN model for CPU/GPU, a GCN shape for the accelerators) so the
//! experiment drivers can put it in a `&dyn InferenceBackend` row next to
//! the cycle-level FlowGNN simulator.

use flowgnn_core::{graphs_per_kj, BackendReport, InferenceBackend};
use flowgnn_graph::Graph;
use flowgnn_models::GnnModel;

use crate::awbgcn::AwbGcnModel;
use crate::igcn::IGcnModel;
use crate::platform::{CpuModel, GpuModel};
use crate::workload::GcnWorkload;

/// The CPU platform (Xeon + PyTorch Geometric) deployed with one model.
#[derive(Debug, Clone)]
pub struct CpuBackend {
    model: GnnModel,
}

impl CpuBackend {
    /// Deploys `model` on the CPU cost model.
    pub fn new(model: GnnModel) -> Self {
        Self { model }
    }
}

impl InferenceBackend for CpuBackend {
    fn name(&self) -> &str {
        "CPU"
    }

    fn run_graph(&self, graph: &Graph) -> BackendReport {
        let ms = CpuModel::latency_ms(&self.model, graph);
        BackendReport::from_ms(ms, graphs_per_kj(ms / 1e3, CpuModel::WATTS))
    }

    fn run_shape(&self, nodes: usize, edges: usize) -> Option<BackendReport> {
        let ms = CpuModel::latency_ms_for_shape(&self.model, nodes, edges);
        Some(BackendReport::from_ms(
            ms,
            CpuModel::graphs_per_kj(&self.model, nodes, edges),
        ))
    }
}

/// The GPU platform (RTX A6000) deployed with one model at a fixed batch
/// size; per-graph latency is amortised over the batch.
#[derive(Debug, Clone)]
pub struct GpuBackend {
    model: GnnModel,
    batch: usize,
}

impl GpuBackend {
    /// Deploys `model` on the GPU cost model at `batch` graphs per launch.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn new(model: GnnModel, batch: usize) -> Self {
        assert!(batch > 0, "batch size must be positive");
        Self { model, batch }
    }
}

impl InferenceBackend for GpuBackend {
    fn name(&self) -> &str {
        "GPU"
    }

    fn run_graph(&self, graph: &Graph) -> BackendReport {
        self.run_shape(graph.num_nodes(), graph.num_edges())
            .expect("GPU model is shape-based")
    }

    fn run_shape(&self, nodes: usize, edges: usize) -> Option<BackendReport> {
        let ms = GpuModel::latency_per_graph_ms(&self.model, nodes, edges, self.batch);
        Some(BackendReport::from_ms(
            ms,
            GpuModel::graphs_per_kj(&self.model, nodes, edges, self.batch),
        ))
    }
}

/// The I-GCN accelerator running a 2-layer-GCN-class workload.
#[derive(Debug, Clone)]
pub struct IGcnBackend {
    model: IGcnModel,
    hidden: usize,
    layers: usize,
    redundancy: Option<f64>,
}

impl IGcnBackend {
    /// I-GCN on a GCN of `hidden` dimension and `layers` layers.
    pub fn new(hidden: usize, layers: usize) -> Self {
        Self {
            model: IGcnModel::new(),
            hidden,
            layers,
            redundancy: None,
        }
    }

    /// Uses a precomputed islandization redundancy fraction instead of
    /// re-running [`crate::Islandization::analyze`] per graph (the
    /// analysis is the expensive part on large graphs).
    pub fn with_redundancy(mut self, redundant_fraction: f64) -> Self {
        self.redundancy = Some(redundant_fraction);
        self
    }
}

impl InferenceBackend for IGcnBackend {
    fn name(&self) -> &str {
        "I-GCN"
    }

    fn run_graph(&self, graph: &Graph) -> BackendReport {
        let workload = GcnWorkload::from_graph(graph, self.hidden, self.layers);
        let us = match self.redundancy {
            Some(r) => self.model.latency_us_with_redundancy(&workload, r),
            None => self.model.latency_us(graph, &workload),
        };
        BackendReport::from_us(us, self.model.array().graphs_per_kj(us))
            .with_dsps(self.model.array().dsps)
    }
}

/// The AWB-GCN accelerator running a 2-layer-GCN-class workload.
#[derive(Debug, Clone)]
pub struct AwbGcnBackend {
    model: AwbGcnModel,
    hidden: usize,
    layers: usize,
}

impl AwbGcnBackend {
    /// AWB-GCN on a GCN of `hidden` dimension and `layers` layers.
    pub fn new(hidden: usize, layers: usize) -> Self {
        Self {
            model: AwbGcnModel::new(),
            hidden,
            layers,
        }
    }
}

impl InferenceBackend for AwbGcnBackend {
    fn name(&self) -> &str {
        "AWB-GCN"
    }

    fn run_graph(&self, graph: &Graph) -> BackendReport {
        let workload = GcnWorkload::from_graph(graph, self.hidden, self.layers);
        let us = self.model.latency_us(&workload);
        BackendReport::from_us(us, self.model.array().graphs_per_kj(us))
            .with_dsps(self.model.array().dsps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Islandization;
    use flowgnn_graph::generators::{GraphGenerator, MoleculeLike};

    fn graph() -> Graph {
        MoleculeLike::new(16.0, 4).generate(0)
    }

    #[test]
    fn cpu_graph_and_shape_paths_agree_on_magnitude() {
        let b = CpuBackend::new(GnnModel::gcn(9, 0));
        let g = graph();
        let per_graph = b.run_graph(&g);
        let shaped = b.run_shape(g.num_nodes(), g.num_edges()).unwrap();
        assert_eq!(per_graph.latency_ms, shaped.latency_ms);
        assert!(per_graph.graphs_per_kj > 0.0);
    }

    #[test]
    fn gpu_batch_amortisation_shows_through_the_trait() {
        let g = graph();
        let b1 = GpuBackend::new(GnnModel::gcn(9, 0), 1).run_graph(&g);
        let b64 = GpuBackend::new(GnnModel::gcn(9, 0), 64).run_graph(&g);
        assert!(b64.latency_ms < b1.latency_ms);
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn gpu_rejects_zero_batch() {
        GpuBackend::new(GnnModel::gcn(9, 0), 0);
    }

    #[test]
    fn accelerator_backends_report_dsp_bills() {
        let g = graph();
        let igcn = IGcnBackend::new(16, 2).run_graph(&g);
        let awb = AwbGcnBackend::new(16, 2).run_graph(&g);
        for r in [igcn, awb] {
            assert!(r.dsps.unwrap() > 0);
            assert!(r.normalized_us.unwrap() > 0.0);
            assert!(r.latency_us > 0.0);
        }
    }

    #[test]
    fn precomputed_redundancy_matches_inline_analysis() {
        let g = graph();
        let inline = IGcnBackend::new(16, 2).run_graph(&g);
        let frac = Islandization::analyze(&g).redundant_fraction;
        let precomputed = IGcnBackend::new(16, 2).with_redundancy(frac).run_graph(&g);
        assert_eq!(inline.latency_us, precomputed.latency_us);
    }
}
