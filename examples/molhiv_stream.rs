//! Streaming molecular property prediction: all six paper models on the
//! MolHIV-like stream, with per-model resource and energy reporting —
//! a compact end-to-end tour of Tables III, V, and VI.
//!
//! ```text
//! cargo run --release --example molhiv_stream [graphs]
//! ```

use flowgnn::baselines::{CpuBackend, GpuBackend};
use flowgnn::core::{InferenceBackend, ResourceEstimate};
use flowgnn::graph::datasets::{DatasetKind, DatasetSpec};
use flowgnn::models::ModelKind;
use flowgnn::{Accelerator, ArchConfig, ExecutionMode, GnnModel};

fn main() {
    let graphs: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(100);
    let spec = DatasetSpec::standard(DatasetKind::MolHiv);
    let stats = spec.paper_stats();
    let (n, e) = (stats.mean_nodes as usize, stats.mean_edges as usize);
    let config = ArchConfig::default().with_execution(ExecutionMode::TimingOnly);

    println!("MolHIV stream, {graphs} graphs, batch size 1, 2 NT / 4 MP units\n");
    println!(
        "{:<8} {:>10} {:>10} {:>10} {:>8} {:>8} {:>10} {:>12}",
        "model", "FlowGNN", "CPU(ms)", "GPU(ms)", "DSPs", "BRAM", "power(W)", "graphs/kJ"
    );

    for kind in ModelKind::PAPER_MODELS {
        let model = GnnModel::preset(kind, spec.node_feat_dim(), spec.edge_feat_dim(), 3);
        let acc = Accelerator::new(model.clone(), config);
        let report = acc.run_stream(spec.stream(), graphs);
        let resources = ResourceEstimate::for_model(&model, &config);

        println!(
            "{:<8} {:>10.4} {:>10.2} {:>10.2} {:>8} {:>8} {:>10.1} {:>12.2e}",
            kind.name(),
            report.latency_ms,
            CpuBackend::new(model.clone()).run_shape(n, e).latency_ms,
            GpuBackend::new(model.clone(), 1).run_shape(n, e).latency_ms,
            resources.dsp,
            resources.bram,
            resources.board_watts(),
            report.graphs_per_kj,
        );
    }

    println!(
        "\nAll models run on the same generic skeleton — the paper's point: \
         generality did not cost the speedup."
    );
}
