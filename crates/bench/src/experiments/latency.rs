//! Table V, Fig. 7, Fig. 8: end-to-end latency against CPU and GPU.

use flowgnn_baselines::{CpuBackend, GpuBackend};
use flowgnn_core::{Accelerator, ArchConfig, ExecutionMode, InferenceBackend};
use flowgnn_graph::datasets::{DatasetKind, DatasetSpec};
use flowgnn_models::{GnnModel, ModelKind};

use super::{fmt_ms, fmt_x, paper_models};
use crate::{SampleSize, TextTable};

/// Timing-only architecture config used by the latency experiments (cycle
/// counts are identical to functional runs; functional equivalence is
/// covered by the cross-check tests).
fn timing_config() -> ArchConfig {
    ArchConfig::default().with_execution(ExecutionMode::TimingOnly)
}

/// The batch-1 platform row for one model: FlowGNN, CPU, GPU — the column
/// order of every latency experiment.
fn batch1_backends(model: &GnnModel) -> Vec<Box<dyn InferenceBackend>> {
    vec![
        Box::new(Accelerator::new(model.clone(), timing_config())),
        Box::new(CpuBackend::new(model.clone())),
        Box::new(GpuBackend::new(model.clone(), 1)),
    ]
}

// ----- Table V ------------------------------------------------------------

/// Published Table V (HEP, batch 1): `(model, cpu_ms, gpu_ms, flowgnn_ms)`.
pub const PAPER_TABLE5: [(ModelKind, f64, f64, f64); 6] = [
    (ModelKind::Gin, 4.23, 2.38, 0.1799),
    (ModelKind::GinVn, 5.02, 3.51, 0.2076),
    (ModelKind::Gcn, 4.59, 3.01, 0.1639),
    (ModelKind::Gat, 2.24, 1.96, 0.0544),
    (ModelKind::Pna, 9.66, 5.37, 0.1578),
    (ModelKind::Dgn, 30.20, 61.26, 0.1382),
];

/// One model's Table V row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table5Row {
    /// The model.
    pub kind: ModelKind,
    /// CPU batch-1 latency (ms/graph).
    pub cpu_ms: f64,
    /// GPU batch-1 latency (ms/graph).
    pub gpu_ms: f64,
    /// FlowGNN latency (ms/graph).
    pub flowgnn_ms: f64,
}

impl Table5Row {
    /// FlowGNN speedup over the GPU.
    pub fn speedup_vs_gpu(&self) -> f64 {
        self.gpu_ms / self.flowgnn_ms
    }

    /// FlowGNN speedup over the CPU.
    pub fn speedup_vs_cpu(&self) -> f64 {
        self.cpu_ms / self.flowgnn_ms
    }
}

/// The full Table V reproduction.
#[derive(Debug, Clone)]
pub struct Table5 {
    /// Per-model rows (paper order).
    pub rows: Vec<Table5Row>,
    /// Graphs sampled per model.
    pub graphs: usize,
}

impl Table5 {
    /// Renders the table.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(
            "Table V: HEP latency at batch 1 (ms, averaged; paper values in parentheses)",
            &["Model", "CPU", "GPU", "FlowGNN", "vs GPU", "vs CPU"],
        );
        for r in &self.rows {
            let paper = PAPER_TABLE5.iter().find(|(k, ..)| *k == r.kind);
            let with_paper = |got: String, p: Option<f64>| match p {
                Some(v) => format!("{got} ({v})"),
                None => got,
            };
            t.row_owned(vec![
                r.kind.name().to_string(),
                with_paper(fmt_ms(r.cpu_ms), paper.map(|p| p.1)),
                with_paper(fmt_ms(r.gpu_ms), paper.map(|p| p.2)),
                with_paper(fmt_ms(r.flowgnn_ms), paper.map(|p| p.3)),
                fmt_x(r.speedup_vs_gpu()),
                fmt_x(r.speedup_vs_cpu()),
            ]);
        }
        t
    }
}

/// Reproduces Table V: batch-1 latency of all six models on the HEP
/// stream, against the CPU and GPU models.
pub fn table5(sample: SampleSize) -> Table5 {
    let spec = DatasetSpec::standard(DatasetKind::Hep);
    let graphs = sample.resolve(spec.paper_stats().graphs);
    let rows = crate::par_map(paper_models(&spec, 7), None, |model| {
        let ms: Vec<f64> = batch1_backends(&model)
            .iter()
            .map(|b| b.run_stream(spec.stream(), graphs).latency_ms)
            .collect();
        Table5Row {
            kind: model.kind(),
            cpu_ms: ms[1],
            gpu_ms: ms[2],
            flowgnn_ms: ms[0],
        }
    });
    Table5 { rows, graphs }
}

// ----- Fig. 7 ---------------------------------------------------------------

/// One model's batch sweep on one dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchSweep {
    /// The model.
    pub kind: ModelKind,
    /// CPU latency at batch 1 (ms/graph).
    pub cpu_ms: f64,
    /// GPU per-graph latency at each batch size.
    pub gpu_ms_by_batch: Vec<(usize, f64)>,
    /// FlowGNN latency (ms/graph, always batch 1).
    pub flowgnn_ms: f64,
}

/// Fig. 7: latency-vs-batch-size curves for one molecular dataset.
#[derive(Debug, Clone)]
pub struct Fig7 {
    /// Which dataset ((a) MolHIV or (b) MolPCBA).
    pub dataset: DatasetKind,
    /// One sweep per model.
    pub series: Vec<BatchSweep>,
}

impl Fig7 {
    /// Renders the figure as a table: one row per model, one column per
    /// batch size.
    pub fn table(&self) -> TextTable {
        let batches = GpuBackend::BATCH_SIZES;
        let mut header: Vec<String> = vec!["Model".into(), "FlowGNN".into(), "CPU b1".into()];
        header.extend(batches.iter().map(|b| format!("GPU b{b}")));
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        let mut t = TextTable::new(
            &format!("Fig. 7: latency per graph (ms) on {}", self.dataset),
            &header_refs,
        );
        for s in &self.series {
            let mut row = vec![
                s.kind.name().to_string(),
                fmt_ms(s.flowgnn_ms),
                fmt_ms(s.cpu_ms),
            ];
            row.extend(s.gpu_ms_by_batch.iter().map(|&(_, ms)| fmt_ms(ms)));
            t.row_owned(row);
        }
        t
    }
}

/// Reproduces one panel of Fig. 7.
///
/// # Panics
///
/// Panics if `dataset` is not a streamed molecular dataset.
pub fn fig7(dataset: DatasetKind, sample: SampleSize) -> Fig7 {
    assert!(
        matches!(dataset, DatasetKind::MolHiv | DatasetKind::MolPcba),
        "Fig. 7 covers MolHIV and MolPCBA, not {dataset}"
    );
    let spec = DatasetSpec::standard(dataset);
    let graphs = sample.resolve(spec.paper_stats().graphs);
    let stats = spec.paper_stats();
    let (n, e) = (stats.mean_nodes as usize, stats.mean_edges as usize);
    let series = crate::par_map(paper_models(&spec, 13), None, |model| {
        let backends = batch1_backends(&model);
        let fg = backends[0].run_stream(spec.stream(), graphs).latency_ms;
        let cpu = backends[1].run_stream(spec.stream(), graphs).latency_ms;
        // GPU batching amortises the launch overhead over the dataset's
        // mean shape: one shape-based backend per batch size.
        let gpu_ms_by_batch = GpuBackend::BATCH_SIZES
            .iter()
            .map(|&b| {
                let gpu = GpuBackend::new(model.clone(), b);
                (b, gpu.run_shape(n, e).latency_ms)
            })
            .collect();
        BatchSweep {
            kind: model.kind(),
            cpu_ms: cpu,
            gpu_ms_by_batch,
            flowgnn_ms: fg,
        }
    });
    Fig7 { dataset, series }
}

// ----- Fig. 8 ---------------------------------------------------------------

/// One model's latency on one citation graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig8Row {
    /// The model.
    pub kind: ModelKind,
    /// CPU latency (ms).
    pub cpu_ms: f64,
    /// GPU latency at batch 1 (ms; single graph, so batch 1 is the only
    /// fair setting).
    pub gpu_ms: f64,
    /// FlowGNN latency (ms).
    pub flowgnn_ms: f64,
}

/// Fig. 8: single-graph latency on Cora and CiteSeer.
#[derive(Debug, Clone)]
pub struct Fig8 {
    /// Which citation graph.
    pub dataset: DatasetKind,
    /// Per-model rows.
    pub rows: Vec<Fig8Row>,
}

impl Fig8 {
    /// Renders the figure as a table.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(
            &format!("Fig. 8: latency (ms) on {}", self.dataset),
            &["Model", "CPU", "GPU", "FlowGNN", "vs GPU"],
        );
        for r in &self.rows {
            t.row_owned(vec![
                r.kind.name().to_string(),
                fmt_ms(r.cpu_ms),
                fmt_ms(r.gpu_ms),
                fmt_ms(r.flowgnn_ms),
                fmt_x(r.gpu_ms / r.flowgnn_ms),
            ]);
        }
        t
    }
}

/// Reproduces one panel of Fig. 8.
///
/// # Panics
///
/// Panics if `dataset` is not Cora or CiteSeer.
pub fn fig8(dataset: DatasetKind) -> Fig8 {
    assert!(
        matches!(dataset, DatasetKind::Cora | DatasetKind::CiteSeer),
        "Fig. 8 covers Cora and CiteSeer, not {dataset}"
    );
    let spec = DatasetSpec::standard(dataset);
    let graph = spec.stream().next().expect("single-graph dataset");
    let rows = crate::par_map(paper_models(&spec, 29), None, |model| {
        let ms: Vec<f64> = batch1_backends(&model)
            .iter()
            .map(|b| b.run_graph(&graph).latency_ms)
            .collect();
        Fig8Row {
            kind: model.kind(),
            cpu_ms: ms[1],
            gpu_ms: ms[2],
            flowgnn_ms: ms[0],
        }
    });
    Fig8 { dataset, rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_flowgnn_beats_both_platforms() {
        let t = table5(SampleSize::Quick);
        assert_eq!(t.rows.len(), 6);
        for r in &t.rows {
            assert!(
                r.speedup_vs_gpu() > 1.0 && r.speedup_vs_cpu() > 1.0,
                "{}: cpu {} gpu {} fg {}",
                r.kind,
                r.cpu_ms,
                r.gpu_ms,
                r.flowgnn_ms
            );
        }
    }

    #[test]
    fn table5_speedups_are_order_of_magnitude_like_paper() {
        // Paper: 13.3–443× vs GPU. Shape check: every model ≥ 5×, DGN the
        // largest.
        let t = table5(SampleSize::Quick);
        let dgn = t.rows.iter().find(|r| r.kind == ModelKind::Dgn).unwrap();
        for r in &t.rows {
            assert!(
                r.speedup_vs_gpu() > 5.0,
                "{}: {}",
                r.kind,
                r.speedup_vs_gpu()
            );
        }
        let max = t
            .rows
            .iter()
            .map(|r| r.speedup_vs_gpu())
            .fold(0.0, f64::max);
        assert_eq!(
            max,
            dgn.speedup_vs_gpu(),
            "DGN should show the largest speedup"
        );
    }

    #[test]
    fn fig7_gpu_catches_up_for_isotropic_models_only() {
        let f = fig7(DatasetKind::MolHiv, SampleSize::Quick);
        let gin = f.series.iter().find(|s| s.kind == ModelKind::Gin).unwrap();
        let gat = f.series.iter().find(|s| s.kind == ModelKind::Gat).unwrap();
        // GIN: the GPU eventually wins at large batch (crossover exists
        // below 1024); GAT: FlowGNN wins at every batch size.
        let gin_at_1024 = gin.gpu_ms_by_batch.last().unwrap().1;
        assert!(gin_at_1024 < gin.flowgnn_ms, "GIN GPU@1024 {gin_at_1024}");
        let gat_at_1024 = gat.gpu_ms_by_batch.last().unwrap().1;
        assert!(gat_at_1024 > gat.flowgnn_ms, "GAT GPU@1024 {gat_at_1024}");
    }

    #[test]
    fn fig8_flowgnn_wins_on_citation_graphs() {
        let f = fig8(DatasetKind::Cora);
        assert_eq!(f.rows.len(), 6);
        for r in &f.rows {
            assert!(
                r.flowgnn_ms < r.gpu_ms && r.flowgnn_ms < r.cpu_ms,
                "{}: fg {} gpu {} cpu {}",
                r.kind,
                r.flowgnn_ms,
                r.gpu_ms,
                r.cpu_ms
            );
        }
    }

    #[test]
    #[should_panic(expected = "covers MolHIV and MolPCBA")]
    fn fig7_rejects_wrong_dataset() {
        fig7(DatasetKind::Cora, SampleSize::Quick);
    }
}
