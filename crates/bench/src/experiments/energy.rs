//! Table VI: energy efficiency (graphs/kJ) on MolHIV at batch 1.

use flowgnn_baselines::{CpuBackend, GpuBackend};
use flowgnn_core::{Accelerator, ArchConfig, ExecutionMode, InferenceBackend};
use flowgnn_graph::datasets::{DatasetKind, DatasetSpec};
use flowgnn_models::ModelKind;

use super::{fmt_sci, fmt_x, paper_models};
use crate::{SampleSize, TextTable};

/// Published Table VI values `(model, cpu, gpu, flowgnn)` in graphs/kJ.
pub const PAPER_TABLE6: [(ModelKind, f64, f64, f64); 6] = [
    (ModelKind::Gin, 4.48e3, 4.50e3, 7.34e5),
    (ModelKind::GinVn, 3.16e3, 2.99e3, 6.46e5),
    (ModelKind::Gcn, 4.02e3, 3.50e3, 8.88e5),
    (ModelKind::Gat, 6.29e3, 5.41e3, 2.29e6),
    (ModelKind::Pna, 2.52e3, 2.33e3, 6.11e5),
    (ModelKind::Dgn, 1.40e3, 7.96e2, 1.39e6),
];

/// One model's energy-efficiency row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table6Row {
    /// The model.
    pub kind: ModelKind,
    /// CPU energy efficiency (graphs/kJ).
    pub cpu: f64,
    /// GPU energy efficiency at batch 1.
    pub gpu: f64,
    /// FlowGNN energy efficiency.
    pub flowgnn: f64,
}

/// The full Table VI reproduction.
#[derive(Debug, Clone)]
pub struct Table6 {
    /// Per-model rows (paper order).
    pub rows: Vec<Table6Row>,
}

impl Table6 {
    /// Renders the table.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(
            "Table VI: energy efficiency (graphs/kJ) on MolHIV at batch 1 (paper in parentheses)",
            &["Model", "CPU", "GPU", "FlowGNN", "vs GPU"],
        );
        for r in &self.rows {
            let paper = PAPER_TABLE6.iter().find(|(k, ..)| *k == r.kind);
            let with_paper = |got: String, p: Option<f64>| match p {
                Some(v) => format!("{got} ({v:.2e})"),
                None => got,
            };
            t.row_owned(vec![
                r.kind.name().to_string(),
                with_paper(fmt_sci(r.cpu), paper.map(|p| p.1)),
                with_paper(fmt_sci(r.gpu), paper.map(|p| p.2)),
                with_paper(fmt_sci(r.flowgnn), paper.map(|p| p.3)),
                fmt_x(r.flowgnn / r.gpu),
            ]);
        }
        t
    }
}

/// Reproduces Table VI: per-model energy efficiency on the MolHIV stream
/// at batch size 1.
pub fn table6(sample: SampleSize) -> Table6 {
    let spec = DatasetSpec::standard(DatasetKind::MolHiv);
    let graphs = sample.resolve(spec.paper_stats().graphs);
    let stats = spec.paper_stats();
    let (n, e) = (stats.mean_nodes as usize, stats.mean_edges as usize);
    let config = ArchConfig::default().with_execution(ExecutionMode::TimingOnly);
    let rows = paper_models(&spec, 7)
        .into_iter()
        .map(|model| Table6Row {
            kind: model.kind(),
            // CPU/GPU are shape-based cost models evaluated at the
            // dataset's mean shape; FlowGNN runs its native stream runner
            // (weights already on chip: no weight load is charged).
            cpu: CpuBackend::new(model.clone()).run_shape(n, e).graphs_per_kj,
            gpu: GpuBackend::new(model.clone(), 1)
                .run_shape(n, e)
                .graphs_per_kj,
            flowgnn: Accelerator::new(model, config)
                .run_stream(spec.stream(), graphs)
                .graphs_per_kj,
        })
        .collect();
    Table6 { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flowgnn_dominates_both_platforms_by_two_orders() {
        // Paper: 163–1748× over GPU. Shape check: ≥ 50× everywhere.
        for r in table6(SampleSize::Quick).rows {
            assert!(
                r.flowgnn / r.gpu > 50.0,
                "{}: {:.1}x",
                r.kind,
                r.flowgnn / r.gpu
            );
            assert!(r.flowgnn / r.cpu > 50.0);
        }
    }

    #[test]
    fn platform_magnitudes_match_paper_columns() {
        // CPU/GPU in O(10^2..10^4); FlowGNN in O(10^5..10^7).
        for r in table6(SampleSize::Quick).rows {
            assert!((1e2..=5e4).contains(&r.cpu), "{}: cpu {}", r.kind, r.cpu);
            assert!((1e2..=5e4).contains(&r.gpu), "{}: gpu {}", r.kind, r.gpu);
            assert!(
                (1e5..=5e7).contains(&r.flowgnn),
                "{}: flowgnn {}",
                r.kind,
                r.flowgnn
            );
        }
    }

    #[test]
    fn render_has_six_rows() {
        assert_eq!(table6(SampleSize::Quick).table().len(), 6);
    }
}
