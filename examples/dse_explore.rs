//! Design-space exploration (paper Sec. VI-D, Fig. 10): sweep the four
//! parallelism parameters and find the best configuration under a DSP
//! budget.
//!
//! ```text
//! cargo run --release --example dse_explore [dsp_budget]
//! ```

use flowgnn::core::{InferenceBackend, ResourceEstimate, U50_AVAILABLE};
use flowgnn::graph::datasets::{DatasetKind, DatasetSpec};
use flowgnn::{Accelerator, ArchConfig, ExecutionMode, GnnModel};

fn main() {
    let budget: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(U50_AVAILABLE.dsp);
    let spec = DatasetSpec::standard(DatasetKind::MolHiv);
    let model = GnnModel::gcn(spec.node_feat_dim(), 11);
    let graphs = 30;

    println!("DSE: GCN on MolHIV, {graphs} graphs per point, DSP budget {budget}\n");
    println!(
        "{:>6} {:>6} {:>7} {:>9} {:>12} {:>8} {:>9}",
        "P_node", "P_edge", "P_apply", "P_scatter", "latency(ms)", "DSPs", "speedup"
    );

    let base_cfg = ArchConfig::default()
        .with_parallelism(1, 1, 1, 1)
        .with_execution(ExecutionMode::TimingOnly);
    let base = Accelerator::new(model.clone(), base_cfg)
        .run_stream(spec.stream(), graphs)
        .latency_ms;

    let mut best: Option<(f64, ArchConfig, u64)> = None;
    for &p_node in &[1usize, 2, 4] {
        for &p_edge in &[1usize, 2, 4] {
            for &p_apply in &[1usize, 2, 4] {
                for &p_scatter in &[1usize, 2, 4, 8] {
                    let cfg = ArchConfig::default()
                        .with_parallelism(p_node, p_edge, p_apply, p_scatter)
                        .with_execution(ExecutionMode::TimingOnly);
                    let resources = ResourceEstimate::for_model(&model, &cfg);
                    if resources.dsp > budget {
                        continue; // over budget: skip, like a real DSE would
                    }
                    let ms = Accelerator::new(model.clone(), cfg)
                        .run_stream(spec.stream(), graphs)
                        .latency_ms;
                    let speedup = base / ms;
                    println!(
                        "{:>6} {:>6} {:>7} {:>9} {:>12.4} {:>8} {:>8.2}x",
                        p_node, p_edge, p_apply, p_scatter, ms, resources.dsp, speedup
                    );
                    if best.as_ref().is_none_or(|(b, _, _)| ms < *b) {
                        best = Some((ms, cfg, resources.dsp));
                    }
                }
            }
        }
    }

    let (ms, cfg, dsp) = best.expect("at least one point under budget");
    println!(
        "\nbest under budget: P_node={} P_edge={} P_apply={} P_scatter={} \
         -> {:.4} ms ({:.2}x) using {dsp} DSPs",
        cfg.p_node,
        cfg.p_edge,
        cfg.p_apply,
        cfg.p_scatter,
        ms,
        base / ms,
    );
    println!(
        "\nAs in the paper, speedup is sub-linear: the four parameters are \
         entangled — whichever of NT and MP is the bottleneck gates the others."
    );
}
