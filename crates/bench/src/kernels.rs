//! Kernel-path study: the default and reference kernel bodies, end to end.
//!
//! Two kernels have a second body behind the run-time switch
//! ([`flowgnn_tensor::simd::set_scalar_kernels`]): `ops::dot` (the fixed
//! two-accumulator order vs. the left-to-right sum) and `Linear`'s
//! input-stationary loop (contiguous transposed rows vs. a strided column
//! walk). Every other kernel is one function, so timing it "under both
//! paths" would time it against itself. Two measurement layers,
//! serialized together as `BENCH_kernel_simd.json`:
//!
//! 1. **Kernel microbenchmarks** — `dot` and `Linear::forward` timed under
//!    each path, at the feature dimension the paper's models use.
//! 2. **Saturated functional throughput** — the saturated fixed workloads
//!    of the throughput benchmark re-run with full (functional) execution
//!    under both kernel paths, reporting graphs-per-second before/after.
//!
//! The switch is flipped around each measurement and restored afterwards,
//! so the study can run inside a `repro` invocation regardless of
//! `--scalar-kernels`.

use crate::microbench::Microbench;
use crate::{SampleSize, TextTable};
use flowgnn_core::{Accelerator, ArchConfig, EngineMode, ExecutionMode, PreparedGraph, SimScratch};
use flowgnn_graph::datasets::{DatasetKind, DatasetSpec};
use flowgnn_models::GnnModel;
use flowgnn_tensor::{ops, simd, Activation, Linear, WeightInit};
use std::time::Instant;

/// One kernel, timed under both paths.
#[derive(Debug, Clone)]
pub struct KernelRow {
    /// Kernel id, e.g. `dot_100`.
    pub kernel: String,
    /// Best per-iteration time on the scalar reference path.
    pub scalar_ns: f64,
    /// Best per-iteration time on the default (`simd`) path.
    pub simd_ns: f64,
}

impl KernelRow {
    /// Scalar-over-default speedup.
    pub fn speedup(&self) -> f64 {
        self.scalar_ns / self.simd_ns.max(1e-12)
    }
}

/// One saturated workload's functional throughput under both paths.
#[derive(Debug, Clone)]
pub struct SaturatedRow {
    /// Workload id (matches the throughput benchmark's names).
    pub workload: String,
    /// Graphs simulated per run.
    pub graphs: usize,
    /// Graphs per wall-second with scalar kernels.
    pub scalar_graphs_per_second: f64,
    /// Graphs per wall-second on the default (`simd`) path.
    pub simd_graphs_per_second: f64,
}

impl SaturatedRow {
    /// Default-over-scalar functional throughput speedup.
    pub fn speedup(&self) -> f64 {
        self.simd_graphs_per_second / self.scalar_graphs_per_second.max(1e-12)
    }
}

/// The full study.
#[derive(Debug, Clone)]
pub struct KernelStudy {
    /// Microbenchmark rows.
    pub kernels: Vec<KernelRow>,
    /// Saturated functional workload rows.
    pub saturated: Vec<SaturatedRow>,
}

/// Hidden dimension of the paper's OGB models — the dominant kernel length.
const HIDDEN: usize = 100;

/// Times `f`'s best-of-batches per-iteration cost under one kernel path.
fn time_path<R>(scalar: bool, mut f: impl FnMut() -> R) -> f64 {
    simd::set_scalar_kernels(scalar);
    let mut c = Microbench::from_env();
    c.bench_function(if scalar { "scalar" } else { "simd" }, |b| b.iter(&mut f));
    c.results()[0].best_ns
}

fn kernel_rows() -> Vec<KernelRow> {
    let xs: Vec<f32> = (0..HIDDEN).map(|i| (i as f32 * 0.37).sin()).collect();
    let ys: Vec<f32> = (0..HIDDEN).map(|i| (i as f32 * 0.61).cos()).collect();
    let mut init = WeightInit::new(7);
    let linear = Linear::from_init(HIDDEN, HIDDEN, Activation::Relu, &mut init);

    let mut rows = Vec::new();
    let mut bench = |kernel: &str, f: &mut dyn FnMut()| {
        let scalar_ns = time_path(true, &mut *f);
        let simd_ns = time_path(false, &mut *f);
        rows.push(KernelRow {
            kernel: kernel.to_string(),
            scalar_ns,
            simd_ns,
        });
    };

    bench(&format!("dot_{HIDDEN}"), &mut || {
        std::hint::black_box(ops::dot(&xs, &ys));
    });
    let mut out = Vec::new();
    bench(&format!("linear_forward_{HIDDEN}x{HIDDEN}"), &mut || {
        linear.forward_into(&xs, &mut out)
    });
    rows
}

/// The saturated fixed workloads: configurations in which the compute
/// units stream back-to-back, so the kernel arithmetic — not queue
/// traffic — is on the critical path. The OGB molecule graphs qualify
/// at default parallelism. HEP point clouds do **not** qualify at any
/// parallelism: per-graph cycle-machinery costs (event scheduling,
/// queue bookkeeping over ~10x more nodes) dominate their functional
/// runtime, capping any kernel speedup near 1.2x by Amdahl's law, so
/// they are measured in the throughput benchmark but excluded from
/// this kernel-gated set.
fn saturated_workloads() -> Vec<(String, DatasetKind, GnnModel, ArchConfig)> {
    let molhiv = DatasetSpec::standard(DatasetKind::MolHiv);
    let molpcba = DatasetSpec::standard(DatasetKind::MolPcba);
    vec![
        (
            "molhiv_gcn".into(),
            DatasetKind::MolHiv,
            GnnModel::gcn(molhiv.node_feat_dim(), 11),
            ArchConfig::default(),
        ),
        (
            "molhiv_gin".into(),
            DatasetKind::MolHiv,
            GnnModel::gin(molhiv.node_feat_dim(), molhiv.edge_feat_dim(), 7),
            ArchConfig::default(),
        ),
        (
            "molpcba_gin".into(),
            DatasetKind::MolPcba,
            GnnModel::gin(molpcba.node_feat_dim(), molpcba.edge_feat_dim(), 9),
            ArchConfig::default(),
        ),
        (
            "molhiv_gat".into(),
            DatasetKind::MolHiv,
            GnnModel::gat(molhiv.node_feat_dim(), 13),
            ArchConfig::default(),
        ),
    ]
}

/// Functional graphs/second over pre-prepared graphs, best of three
/// passes. Preparation (region lowering, edge banking, arena packing)
/// is structural work identical on both kernel paths, so it stays
/// outside the timed loop — this is a *kernel* study.
fn functional_graphs_per_second(acc: &Accelerator, prepared: &[PreparedGraph]) -> f64 {
    let mut scratch = SimScratch::default();
    let mut best = 0.0f64;
    for _pass in 0..3 {
        let start = Instant::now();
        for p in prepared {
            std::hint::black_box(acc.run_prepared(p, &mut scratch).total_cycles);
        }
        let gps = prepared.len() as f64 / start.elapsed().as_secs_f64().max(1e-12);
        best = best.max(gps);
    }
    best
}

/// Runs the study at the given sample size, restoring the kernel path the
/// process started with.
pub fn measure(sample: SampleSize) -> KernelStudy {
    let was_scalar = simd::kernel_path() == "scalar";
    let kernels = kernel_rows();
    let mut saturated = Vec::new();
    for (name, kind, model, config) in saturated_workloads() {
        let stream = DatasetSpec::standard(kind).stream();
        let count = sample.resolve(stream.len());
        let graphs: Vec<_> = stream.take_prefix(count).collect();
        let acc = Accelerator::new(
            model.clone(),
            config
                .with_execution(ExecutionMode::Full)
                .with_engine(EngineMode::FastForward),
        );
        let prepared: Vec<PreparedGraph> = graphs.iter().map(|g| acc.prepare(g)).collect();
        simd::set_scalar_kernels(true);
        let scalar_gps = functional_graphs_per_second(&acc, &prepared);
        simd::set_scalar_kernels(false);
        let simd_gps = functional_graphs_per_second(&acc, &prepared);
        saturated.push(SaturatedRow {
            workload: name,
            graphs: graphs.len(),
            scalar_graphs_per_second: scalar_gps,
            simd_graphs_per_second: simd_gps,
        });
    }
    simd::set_scalar_kernels(was_scalar);
    KernelStudy { kernels, saturated }
}

use crate::json::json_escape;

impl KernelStudy {
    /// Geometric-mean kernel speedup over the microbenchmark rows.
    pub fn geomean_kernel_speedup(&self) -> Option<f64> {
        if self.kernels.is_empty() {
            return None;
        }
        let log_sum: f64 = self.kernels.iter().map(|r| r.speedup().ln()).sum();
        Some((log_sum / self.kernels.len() as f64).exp())
    }

    /// Minimum saturated functional speedup (the acceptance-gated number).
    pub fn min_saturated_speedup(&self) -> Option<f64> {
        self.saturated
            .iter()
            .map(SaturatedRow::speedup)
            .min_by(f64::total_cmp)
    }

    /// Serializes the study as pretty-printed JSON (std-only writer).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"benchmark\": \"kernel_simd\",\n  \"kernels\": [\n");
        for (i, r) in self.kernels.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"kernel\": \"{}\", \"scalar_ns\": {:.2}, \"simd_ns\": {:.2}, \
                 \"speedup\": {:.3}}}{}\n",
                json_escape(&r.kernel),
                r.scalar_ns,
                r.simd_ns,
                r.speedup(),
                if i + 1 == self.kernels.len() { "" } else { "," },
            ));
        }
        out.push_str("  ],\n  \"saturated\": [\n");
        for (i, r) in self.saturated.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"workload\": \"{}\", \"graphs\": {}, \
                 \"scalar_graphs_per_second\": {:.2}, \"simd_graphs_per_second\": {:.2}, \
                 \"speedup\": {:.3}}}{}\n",
                json_escape(&r.workload),
                r.graphs,
                r.scalar_graphs_per_second,
                r.simd_graphs_per_second,
                r.speedup(),
                if i + 1 == self.saturated.len() {
                    ""
                } else {
                    ","
                },
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!(
            "  \"geomean_kernel_speedup\": {},\n",
            self.geomean_kernel_speedup()
                .map_or("null".to_string(), |s| format!("{s:.3}")),
        ));
        out.push_str(&format!(
            "  \"min_saturated_speedup\": {}\n}}\n",
            self.min_saturated_speedup()
                .map_or("null".to_string(), |s| format!("{s:.3}")),
        ));
        out
    }

    /// Human-readable rendering for the repro binary.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(
            "Kernel SIMD study (scalar vs. SIMD paths)",
            &["Row", "Scalar", "SIMD", "Speedup"],
        );
        for r in &self.kernels {
            t.row_owned(vec![
                r.kernel.clone(),
                format!("{:.1} ns", r.scalar_ns),
                format!("{:.1} ns", r.simd_ns),
                format!("{:.2}x", r.speedup()),
            ]);
        }
        for r in &self.saturated {
            t.row_owned(vec![
                format!("{} (functional)", r.workload),
                format!("{:.2} g/s", r.scalar_graphs_per_second),
                format!("{:.2} g/s", r.simd_graphs_per_second),
                format!("{:.2}x", r.speedup()),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn study_shape_and_json() {
        let study = KernelStudy {
            kernels: vec![KernelRow {
                kernel: "dot_100".into(),
                scalar_ns: 80.0,
                simd_ns: 20.0,
            }],
            saturated: vec![SaturatedRow {
                workload: "hep_gcn".into(),
                graphs: 4,
                scalar_graphs_per_second: 100.0,
                simd_graphs_per_second: 250.0,
            }],
        };
        assert_eq!(study.geomean_kernel_speedup(), Some(4.0));
        assert_eq!(study.min_saturated_speedup(), Some(2.5));
        let j = study.to_json();
        assert!(j.contains("\"benchmark\": \"kernel_simd\""));
        assert!(j.contains("\"kernel\": \"dot_100\""));
        assert!(j.contains("\"min_saturated_speedup\": 2.500"));
        let rendered = study.table().render();
        assert!(rendered.contains("hep_gcn (functional)"));
    }
}
