//! Fig. 9 (pipeline ablation) and Fig. 10 (design-space exploration).

use flowgnn_baselines::GpuBackend;
use flowgnn_core::{Accelerator, ArchConfig, ExecutionMode, InferenceBackend, PipelineStrategy};
use flowgnn_graph::datasets::{DatasetKind, DatasetSpec};
use flowgnn_models::GnnModel;

use super::fmt_x;
use crate::{SampleSize, TextTable};

/// Mean latency of a GCN configuration over the MolHIV sample.
fn mean_gcn_latency_ms(config: ArchConfig, spec: &DatasetSpec, graphs: usize) -> f64 {
    let model = GnnModel::gcn(spec.node_feat_dim(), 11);
    let acc = Accelerator::new(model, config.with_execution(ExecutionMode::TimingOnly));
    acc.run_stream(spec.stream(), graphs).latency_ms
}

// ----- Fig. 9 ---------------------------------------------------------------

/// One step of the Fig. 9 ablation ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig9Step {
    /// Step label (paper naming: FlowGNN-P_apply-P_scatter).
    pub label: String,
    /// Mean latency (ms/graph).
    pub latency_ms: f64,
    /// Speedup over the GPU at batch 1.
    pub speedup_vs_gpu: f64,
    /// Improvement over the previous step.
    pub step_gain: f64,
}

/// The Fig. 9 ablation: GCN on MolHIV, architecture variants in the
/// paper's order.
#[derive(Debug, Clone)]
pub struct Fig9 {
    /// Steps, least to most capable.
    pub steps: Vec<Fig9Step>,
}

impl Fig9 {
    /// Renders the figure as a table.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(
            "Fig. 9: dataflow ablation (GCN on MolHIV, speedup vs GPU batch 1)",
            &["Architecture", "Latency (ms)", "vs GPU", "step gain"],
        );
        for s in &self.steps {
            t.row_owned(vec![
                s.label.clone(),
                format!("{:.4}", s.latency_ms),
                fmt_x(s.speedup_vs_gpu),
                fmt_x(s.step_gain),
            ]);
        }
        t
    }
}

/// Reproduces Fig. 9. The ladder matches the paper: non-pipelined →
/// fixed pipeline → baseline dataflow (all single NT/MP, `P_apply =
/// P_scatter = 1`) → FlowGNN-1-1 (2 NT / 4 MP units, flit streaming) →
/// FlowGNN-1-2 (`P_scatter` 1→2) → FlowGNN-2-2 (`P_apply` 1→2).
pub fn fig9(sample: SampleSize) -> Fig9 {
    let spec = DatasetSpec::standard(DatasetKind::MolHiv);
    let graphs = sample.resolve(spec.paper_stats().graphs);
    let stats = spec.paper_stats();
    let gpu_ms = GpuBackend::new(GnnModel::gcn(spec.node_feat_dim(), 11), 1)
        .run_shape(stats.mean_nodes as usize, stats.mean_edges as usize)
        .latency_ms;

    let serial = |strategy: PipelineStrategy| {
        ArchConfig::default()
            .with_parallelism(1, 1, 1, 1)
            .with_strategy(strategy)
    };
    let flowgnn = |pa: usize, ps: usize| {
        ArchConfig::default()
            .with_strategy(PipelineStrategy::FlowGnn)
            .with_parallelism(2, 4, pa, ps)
    };
    let ladder: Vec<(String, ArchConfig)> = vec![
        (
            "non-pipelined".into(),
            serial(PipelineStrategy::NonPipelined),
        ),
        (
            "fixed-pipeline".into(),
            serial(PipelineStrategy::FixedPipeline),
        ),
        (
            "baseline dataflow".into(),
            serial(PipelineStrategy::BaselineDataflow),
        ),
        ("FlowGNN-1-1".into(), flowgnn(1, 1)),
        ("FlowGNN-1-2".into(), flowgnn(1, 2)),
        ("FlowGNN-2-2".into(), flowgnn(2, 2)),
    ];

    // Ladder points are independent simulations; only the step-gain
    // derivation is sequential, so measure in parallel and fold after.
    let measured = crate::par_map(ladder, None, |(label, config)| {
        (label, mean_gcn_latency_ms(config, &spec, graphs))
    });
    let mut steps = Vec::with_capacity(measured.len());
    let mut prev: Option<f64> = None;
    for (label, ms) in measured {
        steps.push(Fig9Step {
            label,
            latency_ms: ms,
            speedup_vs_gpu: gpu_ms / ms,
            step_gain: prev.map_or(1.0, |p| p / ms),
        });
        prev = Some(ms);
    }
    Fig9 { steps }
}

// ----- Fig. 10 --------------------------------------------------------------

/// One DSE configuration's result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DsePoint {
    /// `P_node`.
    pub p_node: usize,
    /// `P_edge`.
    pub p_edge: usize,
    /// `P_apply`.
    pub p_apply: usize,
    /// `P_scatter`.
    pub p_scatter: usize,
    /// Mean latency (ms/graph).
    pub latency_ms: f64,
    /// Speedup over the all-ones configuration.
    pub speedup: f64,
}

/// The Fig. 10 design-space exploration: 108 configurations of GCN on
/// MolHIV.
#[derive(Debug, Clone)]
pub struct Fig10 {
    /// All explored points.
    pub points: Vec<DsePoint>,
}

impl Fig10 {
    /// The best configuration found.
    ///
    /// # Panics
    ///
    /// Panics if the exploration is empty.
    pub fn best(&self) -> DsePoint {
        *self
            .points
            .iter()
            .max_by(|a, b| a.speedup.total_cmp(&b.speedup))
            .expect("non-empty DSE")
    }

    /// Renders the figure as a table (one row per point, paper's grid
    /// order).
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(
            "Fig. 10: DSE over (P_node, P_edge, P_apply, P_scatter), GCN on MolHIV",
            &[
                "P_node",
                "P_edge",
                "P_apply",
                "P_scatter",
                "Latency (ms)",
                "Speedup",
            ],
        );
        for p in &self.points {
            t.row_owned(vec![
                p.p_node.to_string(),
                p.p_edge.to_string(),
                p.p_apply.to_string(),
                p.p_scatter.to_string(),
                format!("{:.4}", p.latency_ms),
                fmt_x(p.speedup),
            ]);
        }
        t
    }
}

/// Reproduces Fig. 10: the paper's 108-point grid
/// (`P_node, P_edge ∈ {1,2,4}`, `P_apply ∈ {1,2,4}`,
/// `P_scatter ∈ {1,2,4,8}`), speedups relative to the all-ones point.
pub fn fig10(sample: SampleSize) -> Fig10 {
    let spec = DatasetSpec::standard(DatasetKind::MolHiv);
    let graphs = sample.resolve(spec.paper_stats().graphs);
    let base = mean_gcn_latency_ms(
        ArchConfig::default().with_parallelism(1, 1, 1, 1),
        &spec,
        graphs,
    );
    let mut grid = Vec::with_capacity(108);
    for &p_apply in &[1usize, 2, 4] {
        for &p_scatter in &[1usize, 2, 4, 8] {
            for &p_node in &[1usize, 2, 4] {
                for &p_edge in &[1usize, 2, 4] {
                    grid.push((p_node, p_edge, p_apply, p_scatter));
                }
            }
        }
    }
    // The DSE grid is the repro's hottest loop: 108 independent sweeps of
    // the same sample. `par_map` keeps the output in grid order, so the
    // table and CSV are identical to a sequential run.
    let points = crate::par_map(grid, None, |(p_node, p_edge, p_apply, p_scatter)| {
        let cfg = ArchConfig::default().with_parallelism(p_node, p_edge, p_apply, p_scatter);
        let ms = mean_gcn_latency_ms(cfg, &spec, graphs);
        DsePoint {
            p_node,
            p_edge,
            p_apply,
            p_scatter,
            latency_ms: ms,
            speedup: base / ms,
        }
    });
    Fig10 { points }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig9_ladder_is_monotone() {
        let f = fig9(SampleSize::Quick);
        assert_eq!(f.steps.len(), 6);
        for pair in f.steps.windows(2) {
            assert!(
                pair[1].latency_ms <= pair[0].latency_ms * 1.02,
                "{} ({}) should not regress from {} ({})",
                pair[1].label,
                pair[1].latency_ms,
                pair[0].label,
                pair[0].latency_ms
            );
        }
    }

    #[test]
    fn fig9_even_nonpipelined_beats_gpu() {
        // Paper: the non-pipelined scheme is already 4.91× faster than GPU.
        let f = fig9(SampleSize::Quick);
        assert!(
            f.steps[0].speedup_vs_gpu > 1.0,
            "{}",
            f.steps[0].speedup_vs_gpu
        );
    }

    #[test]
    fn fig10_explores_108_points_and_base_is_one() {
        let f = fig10(SampleSize::Quick);
        assert_eq!(f.points.len(), 108);
        let base = f
            .points
            .iter()
            .find(|p| (p.p_node, p.p_edge, p.p_apply, p.p_scatter) == (1, 1, 1, 1))
            .unwrap();
        assert!((base.speedup - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fig10_best_uses_elevated_parallelism() {
        // Paper: the best point is P_edge=4, P_node=2, P_apply=4,
        // P_scatter=8 at 5.76×. Shape: the best point should use the
        // maximum P_scatter and a multi-unit configuration, with speedup
        // well above 2×.
        let f = fig10(SampleSize::Quick);
        let best = f.best();
        assert!(best.speedup > 2.0, "best {best:?}");
        assert!(best.p_scatter >= 4, "best {best:?}");
        assert!(best.p_node >= 2 || best.p_edge >= 2, "best {best:?}");
    }
}
