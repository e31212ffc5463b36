//! Simulator-throughput benchmark: the perf trajectory artifact.
//!
//! Runs fixed workloads (dataset × model) through the cycle engine and
//! reports simulated-cycles-per-wall-second and graphs-per-second, in both
//! engine modes (per-cycle reference vs. fast-forward) and both execution
//! modes (timing-only and full functional, where the arithmetic actually
//! runs and the compute kernels matter), serialized as
//! `BENCH_sim_throughput.json`. Future PRs compare against this file to
//! keep a perf trajectory. Each row records which kernel path
//! (`simd`/`scalar`) produced it.

use crate::SampleSize;
use flowgnn_core::{
    Accelerator, ArchConfig, EngineMode, ExecutionMode, PipelineStrategy, SimScratch,
};
use flowgnn_graph::datasets::{DatasetKind, DatasetSpec};
use flowgnn_models::GnnModel;
use std::time::Instant;

/// Throughput of one workload under one engine mode.
#[derive(Debug, Clone)]
pub struct WorkloadThroughput {
    /// Workload id, e.g. `molhiv_gcn`.
    pub name: String,
    /// Engine mode the measurement ran under.
    pub engine: EngineMode,
    /// Execution mode: timing-only or full functional.
    pub execution: ExecutionMode,
    /// Kernel path (`simd`/`scalar`) active during the measurement.
    pub kernels: &'static str,
    /// Graphs simulated.
    pub graphs: usize,
    /// Total simulated cycles across all graphs.
    pub sim_cycles: u64,
    /// Wall-clock seconds for the whole run.
    pub wall_seconds: f64,
}

impl WorkloadThroughput {
    /// Simulated cycles per wall-clock second.
    pub fn cycles_per_second(&self) -> f64 {
        self.sim_cycles as f64 / self.wall_seconds.max(1e-12)
    }

    /// Graphs simulated per wall-clock second.
    pub fn graphs_per_second(&self) -> f64 {
        self.graphs as f64 / self.wall_seconds.max(1e-12)
    }
}

/// The full benchmark: every fixed workload × both engine modes.
#[derive(Debug, Clone)]
pub struct ThroughputReport {
    /// Individual measurements, reference mode first per workload.
    pub rows: Vec<WorkloadThroughput>,
}

fn fixed_workloads() -> Vec<(String, DatasetKind, GnnModel, ArchConfig)> {
    let molhiv = DatasetSpec::standard(DatasetKind::MolHiv);
    let hep = DatasetSpec::standard(DatasetKind::Hep);
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
            "hep_gcn".into(),
            DatasetKind::Hep,
            GnnModel::gcn(hep.node_feat_dim(), 11),
            ArchConfig::default(),
        ),
        // A stall-dominated configuration: node-granularity handoff keeps
        // units idle for long stretches, which is where fast-forward wins.
        (
            "hep_gcn_baseline".into(),
            DatasetKind::Hep,
            GnnModel::gcn(hep.node_feat_dim(), 11),
            ArchConfig::default()
                .with_parallelism(1, 1, 1, 1)
                .with_strategy(PipelineStrategy::BaselineDataflow),
        ),
    ]
}

fn measure_one(
    name: &str,
    graphs: &[flowgnn_graph::Graph],
    model: &GnnModel,
    config: ArchConfig,
    engine: EngineMode,
    execution: ExecutionMode,
) -> WorkloadThroughput {
    let acc = Accelerator::new(
        model.clone(),
        config.with_execution(execution).with_engine(engine),
    );
    let mut scratch = SimScratch::default();
    let start = Instant::now();
    let mut sim_cycles = 0u64;
    for g in graphs {
        let prepared = acc.prepare(g);
        sim_cycles += acc.run_prepared(&prepared, &mut scratch).total_cycles;
    }
    WorkloadThroughput {
        name: name.to_string(),
        engine,
        execution,
        kernels: flowgnn_tensor::simd::kernel_path(),
        graphs: graphs.len(),
        sim_cycles,
        wall_seconds: start.elapsed().as_secs_f64(),
    }
}

/// Runs the benchmark at the given sample size. Graphs are generated
/// outside the timed section so the numbers isolate the simulator.
///
/// Timing-only rows cover both engine modes (the fast-forward speedup);
/// functional rows run the arithmetic under the fast-forward engine — the
/// rows where the kernel path (`simd` vs. `scalar`) moves throughput.
pub fn measure(sample: SampleSize) -> ThroughputReport {
    let mut rows = Vec::new();
    for (name, kind, model, config) in fixed_workloads() {
        let stream = DatasetSpec::standard(kind).stream();
        let count = sample.resolve(stream.len());
        let graphs: Vec<_> = stream.take_prefix(count).collect();
        for engine in [EngineMode::Reference, EngineMode::FastForward] {
            rows.push(measure_one(
                &name,
                &graphs,
                &model,
                config,
                engine,
                ExecutionMode::TimingOnly,
            ));
        }
        rows.push(measure_one(
            &name,
            &graphs,
            &model,
            config,
            EngineMode::FastForward,
            ExecutionMode::Full,
        ));
    }
    ThroughputReport { rows }
}

use crate::json::json_escape;

impl ThroughputReport {
    /// Fast-forward over reference speedup (wall-clock), aggregated over
    /// the timing-only workloads (both engine modes exist only there).
    /// `None` until both modes are present.
    pub fn aggregate_speedup(&self) -> Option<f64> {
        let total = |m: EngineMode| -> f64 {
            self.rows
                .iter()
                .filter(|r| r.engine == m && r.execution == ExecutionMode::TimingOnly)
                .map(|r| r.wall_seconds)
                .sum()
        };
        let reference = total(EngineMode::Reference);
        let fast = total(EngineMode::FastForward);
        (reference > 0.0 && fast > 0.0).then(|| reference / fast)
    }

    /// Serializes the report as pretty-printed JSON (std-only writer).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"benchmark\": \"sim_throughput\",\n  \"rows\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"workload\": \"{}\", \"engine\": \"{}\", \"execution\": \"{}\", \
                 \"kernels\": \"{}\", \"graphs\": {}, \
                 \"sim_cycles\": {}, \"wall_seconds\": {:.6}, \
                 \"cycles_per_second\": {:.1}, \"graphs_per_second\": {:.2}}}{}\n",
                json_escape(&r.name),
                r.engine.name(),
                r.execution.name(),
                r.kernels,
                r.graphs,
                r.sim_cycles,
                r.wall_seconds,
                r.cycles_per_second(),
                r.graphs_per_second(),
                if i + 1 == self.rows.len() { "" } else { "," },
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!(
            "  \"fast_forward_speedup\": {}\n}}\n",
            self.aggregate_speedup()
                .map_or("null".to_string(), |s| format!("{s:.2}")),
        ));
        out
    }

    /// Human-readable rendering for the repro binary.
    pub fn table(&self) -> String {
        let mut t = format!(
            "sim throughput (fixed workloads, {} kernels)\n\
             workload          engine        execution     graphs    Mcycles/s   graphs/s\n",
            flowgnn_tensor::simd::kernel_path(),
        );
        for r in &self.rows {
            t.push_str(&format!(
                "{:<17} {:<12} {:<12} {:>7} {:>12.2} {:>10.2}\n",
                r.name,
                r.engine.name(),
                r.execution.name(),
                r.graphs,
                r.cycles_per_second() / 1e6,
                r.graphs_per_second(),
            ));
        }
        if let Some(s) = self.aggregate_speedup() {
            t.push_str(&format!("fast-forward speedup vs reference: {s:.2}x\n"));
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_and_speedup() {
        let report = ThroughputReport {
            rows: vec![
                WorkloadThroughput {
                    name: "w".into(),
                    engine: EngineMode::Reference,
                    execution: ExecutionMode::TimingOnly,
                    kernels: "simd",
                    graphs: 10,
                    sim_cycles: 1000,
                    wall_seconds: 2.0,
                },
                WorkloadThroughput {
                    name: "w".into(),
                    engine: EngineMode::FastForward,
                    execution: ExecutionMode::TimingOnly,
                    kernels: "simd",
                    graphs: 10,
                    sim_cycles: 1000,
                    wall_seconds: 0.5,
                },
                // A functional row must not skew the engine-mode speedup.
                WorkloadThroughput {
                    name: "w".into(),
                    engine: EngineMode::FastForward,
                    execution: ExecutionMode::Full,
                    kernels: "simd",
                    graphs: 10,
                    sim_cycles: 1000,
                    wall_seconds: 100.0,
                },
            ],
        };
        assert_eq!(report.aggregate_speedup(), Some(4.0));
        let j = report.to_json();
        assert!(j.contains("\"benchmark\": \"sim_throughput\""));
        assert!(j.contains("\"engine\": \"reference\""));
        assert!(j.contains("\"execution\": \"timing-only\""));
        assert!(j.contains("\"execution\": \"full\""));
        assert!(j.contains("\"kernels\": \"simd\""));
        assert!(j.contains("\"fast_forward_speedup\": 4.00"));
        assert!(j.contains("\"cycles_per_second\": 500.0"));
    }

    #[test]
    fn measures_fixed_workloads_quickly() {
        let report = measure(SampleSize::Quick);
        // 4 workloads x (2 timing-only engine modes + 1 functional).
        assert_eq!(report.rows.len(), 12);
        assert!(report.rows.iter().all(|r| r.graphs > 0 && r.sim_cycles > 0));
        assert_eq!(
            report
                .rows
                .iter()
                .filter(|r| r.execution == ExecutionMode::Full)
                .count(),
            4
        );
        // Execution mode never changes the simulated cycle counts.
        for pair in report.rows.chunks(3) {
            assert_eq!(pair[1].sim_cycles, pair[2].sim_cycles, "{}", pair[1].name);
        }
        assert!(report.aggregate_speedup().is_some());
    }
}
