//! The CPU and GPU platforms: calibrated cost models of PyTorch Geometric.
//!
//! Model form, per graph of `F` MFLOPs at batch size `B`:
//!
//! ```text
//! CPU:  L = fixed + F / gflops                      (batch 1 only)
//! GPU:  L = host + launch/B + F / (peak · u(B))     u(B) = B / (B + B_half)
//! ```
//!
//! `fixed`/`launch` are framework and kernel-launch overheads (dominant at
//! batch 1 on graphs with tens of nodes — the reason GPUs lose the
//! real-time case); `host` is per-graph host-side work that batching
//! cannot amortise (GAT's per-graph attention bookkeeping, DGN's
//! directional preprocessing — the reason those models never catch up in
//! Fig. 7); `u(B)` is the usual utilisation ramp. Constants per model are
//! calibrated against Table V (batch-1 HEP latencies) and checked by the
//! tests below.
//!
//! Both platforms are functions of a graph's `(nodes, edges)` shape only:
//! each answers [`CpuBackend::run_shape`] / [`GpuBackend::run_shape`] for
//! a dataset's mean shape, and runs a graph as its shape.

use flowgnn_core::{graphs_per_kj, BackendReport, InferenceBackend};
use flowgnn_graph::Graph;
use flowgnn_models::{GnnModel, ModelKind};

/// FLOPs per multiply–accumulate.
const FLOPS_PER_MAC: f64 = 2.0;

/// Per-graph MFLOPs for a model on a graph shape (dense execution: PyG
/// does not skip feature zeros).
fn mflops(model: &GnnModel, n: usize, e: usize) -> f64 {
    model.macs_per_graph(n, e) as f64 * FLOPS_PER_MAC / 1e6
}

/// The paper's CPU baseline: Intel Xeon Gold 6226R running PyTorch
/// Geometric at batch size 1, deployed with one model.
///
/// # Example
///
/// ```
/// use flowgnn_baselines::CpuBackend;
/// use flowgnn_core::InferenceBackend;
/// use flowgnn_graph::generators::{GraphGenerator, KnnPointCloud};
/// use flowgnn_models::GnnModel;
///
/// let g = KnnPointCloud::new(49.1, 16, 0).generate(0);
/// let cpu = CpuBackend::new(GnnModel::gin(7, Some(4), 0));
/// let ms = cpu.run_graph(&g).latency_ms;
/// assert!(ms > 1.0); // milliseconds, not microseconds: framework-bound
/// ```
#[derive(Debug, Clone)]
pub struct CpuBackend {
    model: GnnModel,
}

impl CpuBackend {
    /// Package power draw under PyG inference load (6226R, 150 W TDP).
    const WATTS: f64 = 125.0;

    /// Deploys `model` on the CPU.
    pub fn new(model: GnnModel) -> Self {
        Self { model }
    }

    /// `(fixed overhead ms, effective GFLOPS)` per model family,
    /// calibrated to Table V.
    fn params(kind: ModelKind) -> (f64, f64) {
        match kind {
            ModelKind::Gin => (2.0, 11.0),
            ModelKind::GinVn => (2.6, 11.0),
            ModelKind::Gcn => (3.3, 5.0),
            ModelKind::Gat => (1.5, 6.0),
            ModelKind::Pna => (4.0, 6.6),
            // DGN's fixed term is the per-graph directional preprocessing
            // PyG runs on the host.
            ModelKind::Dgn => (27.0, 3.0),
            // Sage/SGC behave like GCN-class kernels on PyG.
            ModelKind::GraphSage => (3.0, 6.0),
            ModelKind::Sgc => (2.5, 6.0),
            ModelKind::Custom => (2.5, 8.0),
        }
    }

    /// Batch-1 latency and energy efficiency for one graph of
    /// `nodes`/`edges` shape (a dataset's mean shape, say).
    pub fn run_shape(&self, nodes: usize, edges: usize) -> BackendReport {
        let (fixed, gflops) = Self::params(self.model.kind());
        let ms = fixed + mflops(&self.model, nodes, edges) / gflops;
        BackendReport::from_ms(ms, graphs_per_kj(ms / 1e3, Self::WATTS))
    }
}

impl InferenceBackend for CpuBackend {
    fn name(&self) -> &str {
        "CPU"
    }

    fn run_graph(&self, graph: &Graph) -> BackendReport {
        self.run_shape(graph.num_nodes(), graph.num_edges())
    }
}

/// The paper's GPU baseline: NVIDIA RTX A6000 running PyTorch Geometric,
/// deployed with one model at a fixed batch size (1 through 1024 in the
/// paper); per-graph latency is amortised over the batch.
///
/// # Example
///
/// ```
/// use flowgnn_baselines::GpuBackend;
/// use flowgnn_models::GnnModel;
///
/// let model = GnnModel::gcn(9, 0);
/// let b1 = GpuBackend::new(model.clone(), 1).run_shape(25, 55);
/// let b1024 = GpuBackend::new(model, 1024).run_shape(25, 55);
/// assert!(b1024.latency_ms < b1.latency_ms); // batching amortises launch overhead
/// ```
#[derive(Debug, Clone)]
pub struct GpuBackend {
    model: GnnModel,
    batch: usize,
}

impl GpuBackend {
    /// Batch sizes the paper sweeps in Fig. 7.
    pub const BATCH_SIZES: [usize; 6] = [1, 4, 16, 64, 256, 1024];

    /// Utilisation half-saturation batch size.
    const B_HALF: f64 = 32.0;

    /// Deploys `model` on the GPU at `batch` graphs per launch.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn new(model: GnnModel, batch: usize) -> Self {
        assert!(batch > 0, "batch size must be positive");
        Self { model, batch }
    }

    /// `(per-batch launch ms, per-graph host ms, effective peak TFLOPS)`
    /// per model family, calibrated to Table V batch-1 and the Fig. 7
    /// large-batch behaviour.
    fn params(kind: ModelKind) -> (f64, f64, f64) {
        match kind {
            ModelKind::Gin => (2.3, 0.002, 2.5),
            ModelKind::GinVn => (3.4, 0.003, 2.5),
            ModelKind::Gcn => (2.95, 0.002, 2.5),
            // GAT: per-graph attention bookkeeping the GPU cannot batch
            // away (why GAT never catches FlowGNN in Fig. 7).
            ModelKind::Gat => (1.2, 0.70, 2.0),
            ModelKind::Pna => (5.3, 0.010, 2.0),
            // DGN: enormous launch cost plus per-graph directional prep.
            ModelKind::Dgn => (60.9, 0.20, 1.0),
            ModelKind::GraphSage => (2.7, 0.002, 2.5),
            ModelKind::Sgc => (2.2, 0.002, 2.5),
            ModelKind::Custom => (2.5, 0.005, 2.0),
        }
    }

    /// Board power in watts at this batch size (ramps with utilisation;
    /// 300 W TGP).
    fn watts(&self) -> f64 {
        let b = self.batch as f64;
        80.0 + 220.0 * b / (b + Self::B_HALF)
    }

    /// Per-graph latency and energy efficiency at this batch size for
    /// graphs of `nodes`/`edges` shape (a dataset's mean shape, say).
    pub fn run_shape(&self, nodes: usize, edges: usize) -> BackendReport {
        let (launch, host, peak_tflops) = Self::params(self.model.kind());
        let b = self.batch as f64;
        let util = b / (b + Self::B_HALF);
        let compute_ms = mflops(&self.model, nodes, edges) / (peak_tflops * 1e3) / util;
        let ms = host + launch / b + compute_ms;
        BackendReport::from_ms(ms, graphs_per_kj(ms / 1e3, self.watts()))
    }
}

impl InferenceBackend for GpuBackend {
    fn name(&self) -> &str {
        "GPU"
    }

    fn run_graph(&self, graph: &Graph) -> BackendReport {
        self.run_shape(graph.num_nodes(), graph.num_edges())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowgnn_graph::generators::{GraphGenerator, MoleculeLike};

    /// HEP dataset shape (Table IV): 49.1 nodes, 785.3 edges.
    const HEP: (usize, usize) = (49, 785);

    fn preset(kind: ModelKind) -> GnnModel {
        // HEP feature dims: 7-d nodes, 4-d edges.
        GnnModel::preset(kind, 7, Some(4), 0)
    }

    fn graph() -> Graph {
        MoleculeLike::new(16.0, 4).generate(0)
    }

    #[test]
    fn cpu_matches_table_v_within_20_percent() {
        let targets = [
            (ModelKind::Gin, 4.23),
            (ModelKind::GinVn, 5.02),
            (ModelKind::Gcn, 4.59),
            (ModelKind::Gat, 2.24),
            (ModelKind::Pna, 9.66),
            (ModelKind::Dgn, 30.20),
        ];
        for (kind, want) in targets {
            let (n, e) = HEP;
            let got = CpuBackend::new(preset(kind)).run_shape(n, e).latency_ms;
            let ratio = got / want;
            assert!(
                (0.8..=1.25).contains(&ratio),
                "{kind}: CPU model {got:.2} ms vs paper {want} ms"
            );
        }
    }

    #[test]
    fn gpu_batch1_matches_table_v_within_20_percent() {
        let targets = [
            (ModelKind::Gin, 2.38),
            (ModelKind::GinVn, 3.51),
            (ModelKind::Gcn, 3.01),
            (ModelKind::Gat, 1.96),
            (ModelKind::Pna, 5.37),
            (ModelKind::Dgn, 61.26),
        ];
        for (kind, want) in targets {
            let (n, e) = HEP;
            let got = GpuBackend::new(preset(kind), 1).run_shape(n, e).latency_ms;
            let ratio = got / want;
            assert!(
                (0.8..=1.25).contains(&ratio),
                "{kind}: GPU model {got:.2} ms vs paper {want} ms"
            );
        }
    }

    #[test]
    fn gpu_per_graph_latency_decreases_with_batch() {
        let mut prev = f64::INFINITY;
        for b in GpuBackend::BATCH_SIZES {
            let l = GpuBackend::new(preset(ModelKind::Gin), b)
                .run_shape(25, 55)
                .latency_ms;
            assert!(l < prev, "batch {b}: {l} not below {prev}");
            prev = l;
        }
    }

    #[test]
    fn gat_and_dgn_floor_at_per_graph_host_cost() {
        // Even at batch 1024, GAT/DGN per-graph latency stays above their
        // host terms — the Fig. 7 "never catches up" behaviour.
        let at_1024 = |kind| {
            GpuBackend::new(preset(kind), 1024)
                .run_shape(25, 55)
                .latency_ms
        };
        let gat = at_1024(ModelKind::Gat);
        assert!(gat > 0.5, "GAT at 1024: {gat}");
        let gin = at_1024(ModelKind::Gin);
        assert!(gin < 0.05, "GIN at 1024: {gin}");
    }

    #[test]
    fn gpu_power_ramps_with_batch() {
        let watts = |batch| GpuBackend::new(preset(ModelKind::Gin), batch).watts();
        assert!(watts(1) < watts(1024));
        assert!(watts(1024) <= 300.0);
    }

    #[test]
    fn cpu_energy_efficiency_magnitude_matches_table_vi() {
        // Table VI CPU column is O(10^3) graphs/kJ on MolHIV shapes.
        let gpk = CpuBackend::new(preset(ModelKind::Gin))
            .run_shape(25, 55)
            .graphs_per_kj;
        assert!((5e2..=5e4).contains(&gpk), "{gpk}");
    }

    #[test]
    fn cpu_graph_and_shape_paths_agree_on_magnitude() {
        let b = CpuBackend::new(GnnModel::gcn(9, 0));
        let g = graph();
        let per_graph = b.run_graph(&g);
        assert_eq!(per_graph, b.run_shape(g.num_nodes(), g.num_edges()));
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
    #[should_panic(expected = "batch size must be positive")]
    fn zero_batch_panics() {
        GpuBackend::new(preset(ModelKind::Gcn), 0);
    }
}
