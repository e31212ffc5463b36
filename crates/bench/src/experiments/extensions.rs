//! Ablations beyond the paper's figures, for the design choices DESIGN.md
//! calls out: adapter queue sizing, and the idle-cycle accounting behind
//! the Fig. 4 pipelining argument.

use flowgnn_core::{
    Accelerator, ArchConfig, ExecutionMode, GatherBanking, InferenceBackend, PipelineStrategy,
};
use flowgnn_graph::datasets::{DatasetKind, DatasetSpec};
use flowgnn_models::GnnModel;

use crate::{SampleSize, TextTable};

// ----- queue-capacity sweep -------------------------------------------------

/// One queue-capacity point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueuePoint {
    /// Adapter queue capacity in flits.
    pub capacity: usize,
    /// Mean latency with rate-matched flits (`P_apply = P_scatter = 8`):
    /// one flit produced and consumed per cycle, so depth barely matters.
    pub matched_ms: f64,
    /// Mean latency with bursty flits (`P_apply = 8, P_scatter = 2`): NT
    /// emits four flits per cycle, so shallow queues throttle the handoff.
    pub bursty_ms: f64,
}

/// The queue-sizing ablation: latency as a function of adapter queue
/// capacity.
#[derive(Debug, Clone)]
pub struct QueueSweep {
    /// Points in increasing capacity order.
    pub points: Vec<QueuePoint>,
}

impl QueueSweep {
    /// The bursty-config capacity after which deepening the queues stops
    /// helping (first point within 2% of the best latency).
    pub fn knee(&self) -> usize {
        let best = self
            .points
            .iter()
            .map(|p| p.bursty_ms)
            .fold(f64::INFINITY, f64::min);
        self.points
            .iter()
            .find(|p| p.bursty_ms <= best * 1.02)
            .map(|p| p.capacity)
            .unwrap_or(1)
    }

    /// Renders the sweep.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(
            "Extension: adapter queue-capacity sweep (GIN on MolHIV)",
            &["Capacity (flits)", "Matched 8/8 (ms)", "Bursty 8/2 (ms)"],
        );
        for p in &self.points {
            t.row_owned(vec![
                p.capacity.to_string(),
                format!("{:.4}", p.matched_ms),
                format!("{:.4}", p.bursty_ms),
            ]);
        }
        t
    }
}

/// Sweeps the adapter queue capacity under two rate regimes.
///
/// Finding: with matched production/consumption rates, the MP units'
/// ping-pong prefetch supplies the elasticity and a depth-1 queue already
/// achieves full throughput; queues earn their area only when the adapter
/// re-batches a wide `P_apply` into a narrow `P_scatter` and flit
/// production is bursty.
pub fn queue_sweep(sample: SampleSize) -> QueueSweep {
    let spec = DatasetSpec::standard(DatasetKind::MolHiv);
    let graphs = sample.resolve(spec.paper_stats().graphs);
    let model = GnnModel::gin(spec.node_feat_dim(), spec.edge_feat_dim(), 11);
    let mean = |capacity: usize, p_apply: usize, p_scatter: usize| -> f64 {
        let config = ArchConfig::default()
            .with_parallelism(2, 4, p_apply, p_scatter)
            .with_queue_capacity(capacity)
            .with_execution(ExecutionMode::TimingOnly);
        let acc = Accelerator::new(model.clone(), config);
        acc.run_stream(spec.stream(), graphs).latency_ms
    };
    let points = crate::par_map(vec![1usize, 2, 4, 8, 16, 32, 64], None, |capacity| {
        QueuePoint {
            capacity,
            matched_ms: mean(capacity, 8, 8),
            bursty_ms: mean(capacity, 8, 2),
        }
    });
    QueueSweep { points }
}

// ----- compute-utilisation ladder -------------------------------------------

/// Utilisation of the compute units under one strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UtilizationRow {
    /// The pipeline strategy.
    pub strategy: PipelineStrategy,
    /// Mean latency (ms/graph).
    pub latency_ms: f64,
    /// Busy cycles across all units divided by `(units × total cycles)`.
    pub utilization: f64,
    /// Stalled fraction (NT backpressure + MP starvation); zero for the
    /// analytic non-pipelined/fixed schedules, measured for the dataflows.
    pub stall_fraction: f64,
}

/// The idle-cycle ladder behind Fig. 4.
#[derive(Debug, Clone)]
pub struct UtilizationLadder {
    /// Rows in ablation order.
    pub rows: Vec<UtilizationRow>,
}

impl UtilizationLadder {
    /// Renders the ladder.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(
            "Extension: compute-unit utilisation per strategy (Fig. 4's idle cycles, GCN on MolHIV)",
            &["Strategy", "Latency (ms)", "Utilisation", "Stalled"],
        );
        for r in &self.rows {
            t.row_owned(vec![
                r.strategy.name().to_string(),
                format!("{:.4}", r.latency_ms),
                format!("{:.1}%", r.utilization * 100.0),
                format!("{:.1}%", r.stall_fraction * 100.0),
            ]);
        }
        t
    }
}

/// Measures compute-unit utilisation under each pipeline strategy at equal
/// per-unit parallelism: each rung of the Fig. 4 ladder removes a class of
/// idle cycles, so busy fraction rises as latency falls.
pub fn utilization_ladder(sample: SampleSize) -> UtilizationLadder {
    let spec = DatasetSpec::standard(DatasetKind::MolHiv);
    let graphs = sample.resolve(spec.paper_stats().graphs);
    let model = GnnModel::gcn(spec.node_feat_dim(), 11);
    let rows = crate::par_map(
        PipelineStrategy::ABLATION_ORDER.to_vec(),
        None,
        |strategy| {
            let config = ArchConfig::default()
                .with_parallelism(1, 1, 2, 2)
                .with_strategy(strategy)
                .with_execution(ExecutionMode::TimingOnly);
            let acc = Accelerator::new(model.clone(), config);
            let mut total_ms = 0.0;
            let mut util = 0.0;
            let mut stall = 0.0;
            let stream = spec.stream().take_prefix(graphs);
            let mut count = 0;
            for g in stream {
                let report = acc.run(&g);
                total_ms += report.latency_ms();
                util += report.utilization();
                stall += report.stalled_fraction();
                count += 1;
            }
            UtilizationRow {
                strategy,
                latency_ms: total_ms / count as f64,
                utilization: util / count as f64,
                stall_fraction: stall / count as f64,
            }
        },
    );
    UtilizationLadder { rows }
}

// ----- gather-banking ablation ------------------------------------------------

/// One gather-banking comparison point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BankingPoint {
    /// Number of MP units.
    pub p_edge: usize,
    /// Mean GAT latency with destination banking (streaming; ms/graph).
    pub destination_ms: f64,
    /// Mean GAT latency with source banking (the paper's description:
    /// partial aggregates + merge barrier; ms/graph).
    pub source_ms: f64,
}

/// The gather-banking ablation.
#[derive(Debug, Clone)]
pub struct BankingStudy {
    /// Points by increasing `P_edge`.
    pub points: Vec<BankingPoint>,
}

impl BankingStudy {
    /// Renders the study.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(
            "Extension: gather banking for MP-to-NT models (GAT on MolHIV)",
            &[
                "P_edge",
                "Destination (ms)",
                "Source+barrier (ms)",
                "dest. advantage",
            ],
        );
        for p in &self.points {
            t.row_owned(vec![
                p.p_edge.to_string(),
                format!("{:.4}", p.destination_ms),
                format!("{:.4}", p.source_ms),
                format!("{:.2}x", p.source_ms / p.destination_ms),
            ]);
        }
        t
    }
}

/// Compares the two gather-edge partitionings on GAT: the paper's
/// source-banked partial aggregation (merge barrier before NT) against
/// the destination-banked streaming this implementation defaults to.
pub fn gather_banking(sample: SampleSize) -> BankingStudy {
    let spec = DatasetSpec::standard(DatasetKind::MolHiv);
    let graphs = sample.resolve(spec.paper_stats().graphs);
    let model = GnnModel::gat(spec.node_feat_dim(), 11);
    let mean = |p_edge: usize, banking: GatherBanking| -> f64 {
        let config = ArchConfig::default()
            .with_parallelism(2, p_edge, 8, 8)
            .with_gather_banking(banking)
            .with_execution(ExecutionMode::TimingOnly);
        Accelerator::new(model.clone(), config)
            .run_stream(spec.stream(), graphs)
            .latency_ms
    };
    let points = [2usize, 4, 8]
        .iter()
        .map(|&p_edge| BankingPoint {
            p_edge,
            destination_ms: mean(p_edge, GatherBanking::Destination),
            source_ms: mean(p_edge, GatherBanking::Source),
        })
        .collect();
    BankingStudy { points }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gather_banking_study_has_three_points() {
        let study = gather_banking(SampleSize::Quick);
        assert_eq!(study.points.len(), 3);
        for p in &study.points {
            assert!(p.destination_ms > 0.0 && p.source_ms > 0.0);
        }
    }

    #[test]
    fn deeper_queues_never_hurt_and_knee_exists() {
        let sweep = queue_sweep(SampleSize::Quick);
        assert_eq!(sweep.points.len(), 7);
        let first = sweep.points.first().unwrap();
        let last = sweep.points.last().unwrap();
        assert!(
            last.matched_ms <= first.matched_ms * 1.01,
            "matched: capacity 64 ({}) vs 1 ({})",
            last.matched_ms,
            first.matched_ms
        );
        assert!(
            last.bursty_ms <= first.bursty_ms * 1.01,
            "bursty: capacity 64 ({}) vs 1 ({})",
            last.bursty_ms,
            first.bursty_ms
        );
        let knee = sweep.knee();
        assert!(knee <= 64, "knee at {knee} — inside the swept range");
        // The bursty regime actually benefits from depth.
        assert!(
            last.bursty_ms < first.bursty_ms,
            "bursty latency should improve with depth: {} vs {}",
            last.bursty_ms,
            first.bursty_ms
        );
    }

    #[test]
    fn matched_rates_make_depth_irrelevant() {
        // The finding: prefetch ping-pong provides the elasticity; a
        // depth-1 queue is within a few percent of depth-64 when
        // production and consumption rates match.
        let sweep = queue_sweep(SampleSize::Quick);
        let first = sweep.points.first().unwrap().matched_ms;
        let best = sweep
            .points
            .iter()
            .map(|p| p.matched_ms)
            .fold(f64::INFINITY, f64::min);
        assert!(first <= best * 1.05, "depth-1 {first} vs best {best}");
    }

    #[test]
    fn utilisation_rises_down_the_ladder() {
        let ladder = utilization_ladder(SampleSize::Quick);
        assert_eq!(ladder.rows.len(), 4);
        let first = ladder.rows.first().unwrap();
        let last = ladder.rows.last().unwrap();
        assert!(
            last.utilization > first.utilization,
            "FlowGNN {:.3} should beat non-pipelined {:.3}",
            last.utilization,
            first.utilization
        );
        assert!(last.latency_ms < first.latency_ms);
    }

    #[test]
    fn utilisation_is_a_fraction() {
        for r in utilization_ladder(SampleSize::Quick).rows {
            assert!((0.0..=1.0).contains(&r.utilization), "{r:?}");
        }
    }
}
