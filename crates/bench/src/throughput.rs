//! Simulator-throughput study: the wall-clock perf artifact of `repro`.
//!
//! Runs fixed workloads (dataset × model × configuration) through the
//! cycle engine in three rows each: the per-cycle reference and the
//! fast-forward engine timing-only, then fast-forward with full
//! (functional) execution. Every figure comes from [`timing::measure`], so
//! each is a median with p10 and p90; serialized as
//! `BENCH_sim_throughput.json`. Kernels are not timed on their own: an
//! isolated call reads its heap placement and code layout as much as its
//! loop, so a kernel change is measured end to end (the functional rows
//! here, `flowgnn-perf`'s workloads) or by interleaving both kernels'
//! trials in one binary.

use crate::timing::{self, Timing};
use crate::SampleSize;
use flowgnn_core::{
    Accelerator, ArchConfig, EngineMode, ExecutionMode, PipelineStrategy, SimScratch,
};
use flowgnn_graph::datasets::{DatasetKind, DatasetSpec};
use flowgnn_models::GnnModel;

/// Throughput of one workload under one engine and execution mode.
#[derive(Debug, Clone)]
pub struct WorkloadThroughput {
    /// Workload id, e.g. `molhiv_gcn`.
    pub name: String,
    /// Engine mode the measurement ran under.
    pub engine: EngineMode,
    /// Execution mode: timing-only or full functional.
    pub execution: ExecutionMode,
    /// Graphs simulated per pass.
    pub graphs: usize,
    /// Total simulated cycles across all graphs of a pass.
    pub sim_cycles: u64,
    /// Wall time of one pass: a fresh [`SimScratch`], then `prepare` +
    /// `run_prepared` per graph.
    pub pass: Timing,
}

impl WorkloadThroughput {
    /// Simulated cycles per wall-clock second, at the median pass.
    pub fn cycles_per_second(&self) -> f64 {
        self.sim_cycles as f64 / self.pass.median.max(1e-12)
    }

    /// Graphs simulated per wall-clock second, at the median pass.
    pub fn graphs_per_second(&self) -> f64 {
        self.graphs as f64 / self.pass.median.max(1e-12)
    }

    /// The row's name within its workload, e.g. `fast-forward full`.
    fn label(&self) -> String {
        format!("{} {}", self.engine.name(), self.execution.name())
    }
}

/// The full study: every fixed workload's three rows.
#[derive(Debug, Clone)]
pub struct ThroughputReport {
    /// Workload rows: per workload, reference then fast-forward
    /// timing-only, then fast-forward full.
    pub rows: Vec<WorkloadThroughput>,
}

/// Each workload's rows: engine and execution mode.
const ROWS: [(EngineMode, ExecutionMode); 3] = [
    (EngineMode::Reference, ExecutionMode::TimingOnly),
    (EngineMode::FastForward, ExecutionMode::TimingOnly),
    (EngineMode::FastForward, ExecutionMode::Full),
];

fn fixed_workloads() -> Vec<(String, DatasetKind, GnnModel, ArchConfig)> {
    let molhiv = DatasetSpec::standard(DatasetKind::MolHiv);
    let molpcba = DatasetSpec::standard(DatasetKind::MolPcba);
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

/// Runs the study at the given sample size. Graphs are generated
/// outside the timed passes so the numbers isolate the simulator;
/// `prepare` (graph context, edge banking, the CSC of gather models)
/// sits inside them, as it does for a served request.
pub fn measure(sample: SampleSize) -> ThroughputReport {
    let mut rows = Vec::new();
    for (name, kind, model, config) in fixed_workloads() {
        let stream = DatasetSpec::standard(kind).stream();
        let count = sample.resolve(stream.len());
        let graphs: Vec<_> = stream.take_prefix(count).collect();
        for (engine, execution) in ROWS {
            let acc = Accelerator::new(
                model.clone(),
                config.with_execution(execution).with_engine(engine),
            );
            let mut sim_cycles = 0;
            let pass = timing::measure(|| {
                let mut scratch = SimScratch::default();
                sim_cycles = graphs
                    .iter()
                    .map(|g| acc.run_prepared(&acc.prepare(g), &mut scratch).total_cycles)
                    .sum();
            });
            rows.push(WorkloadThroughput {
                name: name.clone(),
                engine,
                execution,
                graphs: graphs.len(),
                sim_cycles,
                pass,
            });
        }
    }
    ThroughputReport { rows }
}

use crate::json::json_escape;

/// A timing's JSON fields, in seconds per pass.
fn timing_json(t: &Timing) -> String {
    format!(
        "\"median_s\": {:.4e}, \"p10_s\": {:.4e}, \"p90_s\": {:.4e}, \"trials\": {}",
        t.median, t.p10, t.p90, t.trials
    )
}

impl ThroughputReport {
    /// The gate `repro throughput` enforces: neither engine mode nor
    /// execution mode changes simulated time, so every row of a workload
    /// must report the same `sim_cycles`.
    pub fn validate(&self) -> Result<(), String> {
        for r in &self.rows {
            let first = self
                .rows
                .iter()
                .find(|f| f.name == r.name)
                .expect("a row is its own workload's first row at worst");
            if r.sim_cycles != first.sim_cycles {
                return Err(format!(
                    "{}: {} simulated {} cycles, {} simulated {}",
                    r.name,
                    first.label(),
                    first.sim_cycles,
                    r.label(),
                    r.sim_cycles,
                ));
            }
        }
        Ok(())
    }

    /// Fast-forward over reference speedup (wall-clock, median passes),
    /// aggregated over the timing-only rows (both engine modes exist only
    /// there). `None` until both modes are present.
    pub fn aggregate_speedup(&self) -> Option<f64> {
        let total = |m: EngineMode| -> f64 {
            self.rows
                .iter()
                .filter(|r| r.engine == m && r.execution == ExecutionMode::TimingOnly)
                .map(|r| r.pass.median)
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
                 \"graphs\": {}, \"sim_cycles\": {}, {}, \
                 \"cycles_per_second\": {:.1}, \"graphs_per_second\": {:.2}}}{}\n",
                json_escape(&r.name),
                r.engine.name(),
                r.execution.name(),
                r.graphs,
                r.sim_cycles,
                timing_json(&r.pass),
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
            "sim throughput (fixed workloads; median pass of {} trials, graphs/s p10–p90)\n\
             workload          engine       execution    graphs   Mcycles/s    graphs/s    p10–p90\n",
            timing::TRIALS,
        );
        for r in &self.rows {
            t.push_str(&format!(
                "{:<17} {:<12} {:<11} {:>7} {:>11.2} {:>11.2}    {:.0}–{:.0}\n",
                r.name,
                r.engine.name(),
                r.execution.name(),
                r.graphs,
                r.cycles_per_second() / 1e6,
                r.graphs_per_second(),
                r.graphs as f64 / r.pass.p90,
                r.graphs as f64 / r.pass.p10,
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

    fn spread(median: f64) -> Timing {
        Timing {
            median,
            p10: median * 0.5,
            p90: median * 2.0,
            trials: timing::TRIALS,
            batch: 1,
        }
    }

    fn row(
        engine: EngineMode,
        execution: ExecutionMode,
        sim_cycles: u64,
        median: f64,
    ) -> WorkloadThroughput {
        WorkloadThroughput {
            name: "w".into(),
            engine,
            execution,
            graphs: 10,
            sim_cycles,
            pass: spread(median),
        }
    }

    #[test]
    fn json_shape_and_speedup() {
        let report = ThroughputReport {
            rows: vec![
                row(EngineMode::Reference, ExecutionMode::TimingOnly, 1000, 2.0),
                row(
                    EngineMode::FastForward,
                    ExecutionMode::TimingOnly,
                    1000,
                    0.5,
                ),
                // Functional rows must not skew the engine-mode speedup.
                row(EngineMode::FastForward, ExecutionMode::Full, 1000, 100.0),
            ],
        };
        assert_eq!(report.aggregate_speedup(), Some(4.0));
        let j = report.to_json();
        assert!(j.contains("\"benchmark\": \"sim_throughput\""));
        assert!(j.contains("\"engine\": \"reference\""));
        assert!(j.contains("\"execution\": \"timing-only\""));
        assert!(j.contains("\"execution\": \"full\""));
        assert!(j.contains("\"fast_forward_speedup\": 4.00"));
        assert!(j.contains("\"cycles_per_second\": 500.0"));
        assert!(j.contains(
            "\"median_s\": 2.0000e0, \"p10_s\": 1.0000e0, \"p90_s\": 4.0000e0, \"trials\": 11"
        ));
        // No kernel is timed on its own, and no row names a kernel body.
        assert!(!j.contains("kernel"));
        let rendered = report.table();
        // graphs/s p10–p90 comes from the slow and fast passes.
        assert!(rendered.contains("5.00    2–10\n"));
    }

    #[test]
    fn validate_catches_disagreeing_sim_cycles() {
        let mut report = ThroughputReport {
            rows: vec![
                row(EngineMode::Reference, ExecutionMode::TimingOnly, 1000, 2.0),
                row(
                    EngineMode::FastForward,
                    ExecutionMode::TimingOnly,
                    1000,
                    0.5,
                ),
                row(EngineMode::FastForward, ExecutionMode::Full, 1000, 1.0),
            ],
        };
        assert_eq!(report.validate(), Ok(()));
        report.rows[1].sim_cycles = 999;
        let err = report.validate().unwrap_err();
        assert!(
            err.contains("fast-forward timing-only simulated 999"),
            "{err}"
        );
        report.rows[1].sim_cycles = 1000;
        report.rows[2].sim_cycles = 998;
        let err = report.validate().unwrap_err();
        assert!(err.contains("fast-forward full simulated 998"), "{err}");
        // Another workload's rows are never compared against these.
        report.rows[2].sim_cycles = 1000;
        report.rows.push(WorkloadThroughput {
            name: "v".into(),
            sim_cycles: 7,
            ..row(EngineMode::Reference, ExecutionMode::TimingOnly, 0, 1.0)
        });
        assert_eq!(report.validate(), Ok(()));
    }

    #[test]
    fn measures_fixed_workloads_quickly() {
        let _serial = crate::wall_clock_lock();
        let report = measure(SampleSize::Quick);
        // 6 workloads x (2 timing-only engine modes + 1 functional row),
        // each with a spread over the trials.
        assert_eq!(report.rows.len(), 18);
        for (r, row) in report.rows.iter().zip(ROWS.iter().cycle()) {
            assert_eq!((r.engine, r.execution), *row);
            assert!(r.graphs > 0 && r.sim_cycles > 0);
            assert!(r.pass.p10 <= r.pass.median && r.pass.median <= r.pass.p90);
            assert!(r.pass.trials >= 10);
        }
        // Neither engine nor execution mode changes simulated cycles.
        assert_eq!(report.validate(), Ok(()));
        assert!(report.aggregate_speedup().is_some());
    }
}
