//! The accelerator front-end: compilation, preparation, and reporting.
//!
//! One [`Accelerator`] binds a [`GnnModel`] to an [`ArchConfig`] and runs
//! graphs through the lowered pipeline regions. The per-region simulation
//! lives in `crate::pipeline` (the region scheduler) driving the unit
//! models in `crate::units`; this module owns the run lifecycle — graph
//! preparation, the region walk, load/readout costing, and the
//! [`RunReport`] the caller gets back.
//!
//! [`Accelerator::new`] compiles each lowered region once into its timing
//! (`crate::pipeline::RegionTiming`), the only description of a region any
//! schedule receives. The region walk simulates each region in order,
//! except that an untraced [`EngineMode::FastForward`] run copies a twin
//! region's stats from the earlier region with the same timing instead of
//! stepping it again (DESIGN.md §3b): every preset model stacks identical
//! hidden layers, so most regions are twins. After each region's stats
//! are known, stepped or copied, the region's arithmetic runs in one pass
//! (`ExecState::run_region`); a copied twin folds over the edge order its
//! source region recorded. Reports and outputs are bit-identical either
//! way.

use flowgnn_desim::{cycles_to_ms, cycles_to_us, Cycle};
use flowgnn_graph::{Adjacency, Graph};
use flowgnn_models::reference::ReferenceOutput;
use flowgnn_models::{Dataflow, GnnModel, GraphContext};

use crate::cache::ServiceTraceCache;
use crate::config::{ArchConfig, EngineMode, ExecutionMode};
use crate::exec::{ExecState, SimScratch};
use crate::pipeline::{twin_map, RegionTiming};
use crate::regions::{lower, BankedEdges, Region};
use crate::trace::Trace;
use crate::units::RegionStats;

use std::borrow::Cow;

/// A graph pre-processed for one [`Accelerator`]: the virtual node added
/// (if the model needs one) and the per-graph index structures — graph
/// context, destination-banked edges, and the CSC adjacency for gather
/// models — built exactly once. Node features are not copied: a
/// functional run's Encode region reads each raw row from the graph
/// itself, in place for a dense source.
///
/// [`Accelerator::run`] builds one of these internally per call; callers
/// that run the *same* graph repeatedly (DSE sweeps, batch experiments)
/// or stream many graphs (as [`Accelerator::service_trace`] does) use
/// [`Accelerator::prepare`] / [`Accelerator::prepare_owned`] +
/// [`Accelerator::run_prepared`] so nothing is cloned or re-indexed per
/// run.
#[derive(Debug, Clone)]
pub struct PreparedGraph<'g> {
    g: Cow<'g, Graph>,
    pool_nodes: usize,
    ctx: GraphContext,
    pub(crate) banked: BankedEdges,
    pub(crate) csc: Option<Adjacency>,
}

impl PreparedGraph<'_> {
    /// The (possibly virtual-node-augmented) graph that will be simulated.
    pub fn graph(&self) -> &Graph {
        &self.g
    }
}

/// Timing and (optionally) functional results of running one graph.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// End-to-end cycles, including graph loading and readout.
    pub total_cycles: Cycle,
    /// Cycles spent streaming the graph (edge list + features) on-chip.
    pub load_cycles: Cycle,
    /// Cycles per pipeline region, in execution order.
    pub region_cycles: Vec<Cycle>,
    /// Cycles spent in the graph-level readout.
    pub readout_cycles: Cycle,
    /// Total busy cycles across all NT units.
    pub nt_busy_cycles: Cycle,
    /// Total busy cycles across all MP units.
    pub mp_busy_cycles: Cycle,
    /// NT cycles lost to output backpressure (full adapter queues).
    pub nt_stall_cycles: Cycle,
    /// MP cycles lost waiting for flits (starved input).
    pub mp_stall_cycles: Cycle,
    /// Number of deployed compute units (NT + MP) for the run that
    /// produced this report, recorded at construction so utilisation and
    /// stall fractions cannot be computed against a mismatched count.
    pub num_units: usize,
    /// Functional output (in [`ExecutionMode::Full`] runs).
    pub output: Option<ReferenceOutput>,
    /// Per-cycle pipeline trace (when [`ArchConfig::with_trace`] is set).
    pub trace: Option<Trace>,
}

impl RunReport {
    /// End-to-end latency in milliseconds at the 300 MHz clock.
    pub fn latency_ms(&self) -> f64 {
        cycles_to_ms(self.total_cycles)
    }

    /// End-to-end latency in microseconds.
    pub fn latency_us(&self) -> f64 {
        cycles_to_us(self.total_cycles)
    }

    /// Mean utilisation of the compute units over the run: busy cycles
    /// divided by `(units × total cycles)`, using the unit count recorded
    /// in [`RunReport::num_units`].
    pub fn utilization(&self) -> f64 {
        self.utilization_for(self.num_units)
    }

    /// Fraction of unit-cycles lost to stalls (NT backpressure plus MP
    /// starvation) — the idle-cycle classes Fig. 4's refinements remove —
    /// using the unit count recorded in [`RunReport::num_units`].
    pub fn stalled_fraction(&self) -> f64 {
        self.stall_fraction_for(self.num_units)
    }

    fn utilization_for(&self, num_units: usize) -> f64 {
        if self.total_cycles == 0 || num_units == 0 {
            return 0.0;
        }
        (self.nt_busy_cycles + self.mp_busy_cycles) as f64
            / (num_units as f64 * self.total_cycles as f64)
    }

    fn stall_fraction_for(&self, num_units: usize) -> f64 {
        if self.total_cycles == 0 || num_units == 0 {
            return 0.0;
        }
        (self.nt_stall_cycles + self.mp_stall_cycles) as f64
            / (num_units as f64 * self.total_cycles as f64)
    }
}

/// A FlowGNN accelerator instance: one model compiled onto one
/// configuration (the paper compiles one kernel per GNN, Sec. V).
#[derive(Debug, Clone)]
pub struct Accelerator {
    model: GnnModel,
    config: ArchConfig,
    regions: Vec<Region>,
    /// Per region, its compiled timing.
    timings: Vec<RegionTiming>,
    /// Per region, the earlier region with the same timing whose stats and
    /// fold order an untraced fast-forward run copies (see `twin_map`).
    pub(crate) twins: Vec<Option<usize>>,
    trace_cache: Option<ServiceTraceCache>,
    metrics: Option<crate::metrics::EngineMetrics>,
}

impl Accelerator {
    /// Compiles `model` onto `config`.
    pub fn new(model: GnnModel, config: ArchConfig) -> Self {
        let regions = lower(&model);
        let timings: Vec<_> = regions
            .iter()
            .map(|r| RegionTiming::new(r, &model, &config))
            .collect();
        Self {
            model,
            config,
            regions,
            twins: twin_map(&timings),
            timings,
            trace_cache: None,
            metrics: None,
        }
    }

    /// Attaches a [`ServiceTraceCache`]: subsequent
    /// [`Accelerator::service_trace`] calls (and everything built on them
    /// — the accelerator's [`crate::InferenceBackend::run_stream`] and
    /// its simulated [`crate::InferenceBackend::serve_on`]) answer
    /// repeated graphs from the cache instead of re-simulating, and the
    /// cache's [`ServiceTraceCache::stats`] count the hits and misses.
    /// Cached cycles are the exact values a fresh simulation produces, so
    /// results are bit-identical either way.
    ///
    /// The handle is shared: cloning a cache and attaching it to several
    /// accelerator instances of the *same* model and configuration family
    /// lets sweep drivers reuse traces across instances. Never share one
    /// cache across different models — the key covers only the graph and
    /// the [`ArchConfig`].
    pub fn with_trace_cache(mut self, cache: ServiceTraceCache) -> Self {
        self.trace_cache = Some(cache);
        self
    }

    /// The attached service-trace cache, if any.
    pub fn trace_cache(&self) -> Option<&ServiceTraceCache> {
        self.trace_cache.as_ref()
    }

    /// Attaches an [`crate::metrics::EngineMetrics`] bundle: every
    /// subsequent engine run counts graphs and simulated cycles into it,
    /// and [`Accelerator::service_trace`] counts trace-cache hits and
    /// misses as they happen. Cloning the accelerator shares the handle
    /// (the counters are atomic), so one registry observes a whole
    /// replica pool. Observation only: reports are bit-identical with or
    /// without metrics attached.
    pub fn with_metrics(mut self, metrics: crate::metrics::EngineMetrics) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// The attached engine-metrics bundle, if any.
    pub fn engine_metrics(&self) -> Option<&crate::metrics::EngineMetrics> {
        self.metrics.as_ref()
    }

    /// The deployed model.
    pub fn model(&self) -> &GnnModel {
        &self.model
    }

    /// The architecture configuration.
    pub fn config(&self) -> &ArchConfig {
        &self.config
    }

    /// The lowered pipeline regions, in execution order.
    pub(crate) fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Runs one graph end-to-end, returning the timing report (and the
    /// functional output in [`ExecutionMode::Full`]).
    ///
    /// # Panics
    ///
    /// In [`ExecutionMode::Full`], panics if the graph's node-feature
    /// dimension does not match the model's input dimension; timing-only
    /// runs accept any feature width.
    pub fn run(&self, graph: &Graph) -> RunReport {
        self.run_prepared(&self.prepare(graph), &mut SimScratch::default())
    }

    /// Prepares `graph` for repeated runs on this accelerator: adds the
    /// virtual node if the model uses one (cloning the graph only in that
    /// case) and builds the per-graph index structures once.
    pub fn prepare<'g>(&self, graph: &'g Graph) -> PreparedGraph<'g> {
        let pool_nodes = graph.num_nodes();
        if self.model.uses_virtual_node() {
            let mut owned = graph.clone();
            owned.add_virtual_node();
            self.finish_prepare(Cow::Owned(owned), pool_nodes)
        } else {
            self.finish_prepare(Cow::Borrowed(graph), pool_nodes)
        }
    }

    /// Like [`Accelerator::prepare`] but takes ownership, so virtual-node
    /// models augment the graph in place with **zero** clones. This is the
    /// path the stream runners use: a 10k-graph stream performs 10k
    /// in-place preparations, not 10k graph clones.
    pub fn prepare_owned(&self, mut graph: Graph) -> PreparedGraph<'static> {
        let pool_nodes = graph.num_nodes();
        if self.model.uses_virtual_node() {
            graph.add_virtual_node();
        }
        self.finish_prepare(Cow::Owned(graph), pool_nodes)
    }

    fn finish_prepare<'g>(&self, g: Cow<'g, Graph>, pool_nodes: usize) -> PreparedGraph<'g> {
        let ctx = if self.model.needs_dgn_field() {
            GraphContext::with_dgn_field(&g)
        } else {
            GraphContext::new(&g)
        };
        let banked = BankedEdges::new(&g, self.config.effective_p_edge());
        let csc = if self.model.dataflow() == Dataflow::MpToNt {
            Some(Adjacency::in_edges(&g))
        } else {
            None
        };
        PreparedGraph {
            g,
            pool_nodes,
            ctx,
            banked,
            csc,
        }
    }

    /// Runs one prepared graph, reusing `scratch`'s buffers across the
    /// run (and, when the caller loops, across runs).
    ///
    /// # Panics
    ///
    /// In [`ExecutionMode::Full`], panics if the graph's node-feature
    /// dimension does not match the model's input dimension; timing-only
    /// runs accept any feature width.
    pub fn run_prepared(
        &self,
        prepared: &PreparedGraph<'_>,
        scratch: &mut SimScratch,
    ) -> RunReport {
        let g: &Graph = &prepared.g;
        let pool_nodes = prepared.pool_nodes;
        let csc = prepared.csc.as_ref();
        let functional = self.config.execution == ExecutionMode::Full;
        if functional {
            assert_eq!(
                g.node_feature_dim(),
                self.model.input_dim(),
                "graph features ({}) do not match model input dim ({})",
                g.node_feature_dim(),
                self.model.input_dim()
            );
        }
        let n = g.num_nodes();

        let mut exec = ExecState::new(g, &prepared.ctx, functional, self.regions.len(), scratch);
        let mut region_cycles = Vec::with_capacity(self.regions.len());
        let mut region_stats = Vec::with_capacity(self.regions.len());
        let mut totals = RegionStats::default();
        let mut trace = self.config.trace.then(Trace::default);
        // A fast-forward run simulates each distinct region once: a twin
        // steps through exactly its earlier region's cycles, so it also
        // completes that region's edges in the same order, and its
        // arithmetic folds over that recorded order (DESIGN.md §3b). The
        // reference engine and the tracer step every region, each
        // recording its own order.
        let copy_twins = trace.is_none() && self.config.engine == EngineMode::FastForward;

        for (i, region) in self.regions.iter().enumerate() {
            exec.begin_region(i, region.payload_dim);
            let copied = self.twins[i].filter(|_| copy_twins);
            let stats = match copied {
                // A copied twin steps and skips nothing.
                Some(j) => RegionStats {
                    stepped: 0,
                    skipped: 0,
                    ..region_stats[j]
                },
                None => self.simulate_region(
                    region,
                    &self.timings[i],
                    prepared,
                    &mut exec,
                    trace.as_mut(),
                ),
            };
            exec.run_region(&self.model, region, csc, copied);
            region_stats.push(stats);
            region_cycles.push(stats.cycles + REGION_OVERHEAD + NT_PIPELINE_DEPTH);
            totals += stats;
            exec.advance_region();
        }

        let load_cycles = self.load_cycles(g);
        let readout_cycles = self.readout_cycles(n);
        let total_cycles: Cycle =
            load_cycles + region_cycles.iter().sum::<Cycle>() + readout_cycles;

        let output = functional.then(|| {
            let node_embeddings = exec.into_embeddings();
            let graph_output = self
                .model
                .readout()
                .map(|r| r.apply(&node_embeddings, pool_nodes.min(n)));
            ReferenceOutput {
                node_embeddings,
                graph_output,
            }
        });

        if let Some(m) = &self.metrics {
            m.graphs.inc();
            m.cycles.add(total_cycles);
            m.stepped_cycles.add(totals.stepped);
            m.skipped_cycles.add(totals.skipped);
        }

        RunReport {
            total_cycles,
            load_cycles,
            region_cycles,
            readout_cycles,
            nt_busy_cycles: totals.nt_busy,
            mp_busy_cycles: totals.mp_busy,
            nt_stall_cycles: totals.nt_stall,
            mp_stall_cycles: totals.mp_stall,
            num_units: self.config.effective_p_node() + self.config.effective_p_edge(),
            output,
            trace,
        }
    }

    /// Cycles to stream the raw graph on-chip (COO edges + features) over
    /// the HBM interface. Sparse feature matrices stream in compressed
    /// (index, value) form, so only nonzeros plus one row pointer per node
    /// are transferred.
    fn load_cycles(&self, g: &Graph) -> Cycle {
        let nnz = (g.node_features().expected_nnz_per_row() * g.num_nodes() as f64) as u64;
        let feat_words =
            if g.node_features().expected_nnz_per_row() < g.node_feature_dim() as f64 * 0.5 {
                2 * nnz + g.num_nodes() as u64
            } else {
                (g.num_nodes() * g.node_feature_dim()) as u64
            };
        let edge_words = (g.num_edges() * 2) as u64;
        let ef_words = g
            .edge_feature_dim()
            .map_or(0, |d| (g.num_edges() * d) as u64);
        (feat_words + edge_words + ef_words).div_ceil(MEM_WORDS_PER_CYCLE)
    }

    /// Cycles for global pooling plus the prediction head.
    fn readout_cycles(&self, n: usize) -> Cycle {
        let Some(readout) = self.model.readout() else {
            return 0;
        };
        let dim = readout.head().in_dim();
        let pool = (n as u64).div_ceil(self.config.effective_p_node() as u64)
            * (dim as u64).div_ceil(self.config.p_apply as u64);
        let head: u64 = readout
            .head()
            .layers()
            .iter()
            .map(|l| (l.in_dim() as u64).div_ceil(self.config.p_apply as u64))
            .sum();
        pool + head + NT_PIPELINE_DEPTH
    }
}

const MEM_WORDS_PER_CYCLE: u64 = 64; // multi-channel HBM: 2048 bits/cycle of 32-bit words

/// Fill/drain latency of the NT accumulate pipeline. An II=1 pipeline
/// pays its depth once per pass, not per node: it is charged once per
/// region and once more in the readout.
pub(crate) const NT_PIPELINE_DEPTH: Cycle = 4;

/// Fixed fill/drain overhead of one dataflow region, charged once per
/// region.
pub(crate) const REGION_OVERHEAD: Cycle = 8;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineStrategy;
    use crate::regions::NtOp;
    use crate::trace::LaneSymbol;
    use flowgnn_graph::generators::{GraphGenerator, MoleculeLike};
    use flowgnn_models::reference;

    fn mol(i: usize) -> Graph {
        MoleculeLike::new(14.0, 21).generate(i)
    }

    fn assert_outputs_close(a: &ReferenceOutput, b: &ReferenceOutput, tol: f32) {
        let (ga, gb) = (
            a.graph_output.as_ref().unwrap(),
            b.graph_output.as_ref().unwrap(),
        );
        for (x, y) in ga.iter().zip(gb) {
            let scale = x.abs().max(y.abs()).max(1.0);
            assert!(
                (x - y).abs() / scale < tol,
                "graph outputs diverge: {x} vs {y}"
            );
        }
    }

    #[test]
    fn gcn_matches_reference() {
        let g = mol(0);
        let model = GnnModel::gcn(9, 5);
        let acc = Accelerator::new(model.clone(), ArchConfig::default());
        let report = acc.run(&g);
        let reference = reference::run(&model, &g);
        assert_outputs_close(report.output.as_ref().unwrap(), &reference, 1e-3);
        assert!(report.total_cycles > 0);
    }

    #[test]
    fn gin_with_edges_matches_reference() {
        let g = mol(1);
        let model = GnnModel::gin(9, Some(3), 6);
        let acc = Accelerator::new(model.clone(), ArchConfig::default());
        let report = acc.run(&g);
        let reference = reference::run(&model, &g);
        assert_outputs_close(report.output.as_ref().unwrap(), &reference, 1e-3);
    }

    #[test]
    fn all_strategies_produce_identical_functional_output() {
        let g = mol(2);
        let model = GnnModel::gcn(9, 7);
        let mut outs = Vec::new();
        for strategy in PipelineStrategy::ABLATION_ORDER {
            let acc =
                Accelerator::new(model.clone(), ArchConfig::default().with_strategy(strategy));
            outs.push(acc.run(&g));
        }
        for pair in outs.windows(2) {
            assert_outputs_close(
                pair[0].output.as_ref().unwrap(),
                pair[1].output.as_ref().unwrap(),
                1e-3,
            );
        }
    }

    #[test]
    fn ablation_strategies_strictly_improve() {
        let g = mol(3);
        let model = GnnModel::gcn(9, 7);
        let cycles: Vec<Cycle> = PipelineStrategy::ABLATION_ORDER
            .iter()
            .map(|&s| {
                Accelerator::new(model.clone(), ArchConfig::default().with_strategy(s))
                    .run(&g)
                    .total_cycles
            })
            .collect();
        assert!(
            cycles[0] > cycles[1] && cycles[1] > cycles[2] && cycles[2] > cycles[3],
            "ablation did not monotonically improve: {cycles:?}"
        );
    }

    #[test]
    fn timing_only_matches_full_timing() {
        let g = mol(4);
        let model = GnnModel::gcn(9, 7);
        let full = Accelerator::new(model.clone(), ArchConfig::default()).run(&g);
        let timing = Accelerator::new(
            model,
            ArchConfig::default().with_execution(ExecutionMode::TimingOnly),
        )
        .run(&g);
        assert_eq!(full.total_cycles, timing.total_cycles);
        assert!(timing.output.is_none());
    }

    #[test]
    fn gat_gather_matches_reference() {
        let g = mol(5);
        let model = GnnModel::gat(9, 8);
        let acc = Accelerator::new(model.clone(), ArchConfig::default());
        let report = acc.run(&g);
        let reference = reference::run(&model, &g);
        assert_outputs_close(report.output.as_ref().unwrap(), &reference, 2e-3);
    }

    #[test]
    fn gin_vn_matches_reference() {
        let g = mol(6);
        let model = GnnModel::gin_vn(9, Some(3), 9);
        let acc = Accelerator::new(model.clone(), ArchConfig::default());
        let report = acc.run(&g);
        let reference = reference::run(&model, &g);
        assert_outputs_close(report.output.as_ref().unwrap(), &reference, 2e-3);
    }

    #[test]
    fn more_parallelism_is_not_slower() {
        let g = mol(7);
        let model = GnnModel::gcn(9, 7);
        let slow = Accelerator::new(
            model.clone(),
            ArchConfig::default().with_parallelism(1, 1, 1, 1),
        )
        .run(&g);
        let fast =
            Accelerator::new(model, ArchConfig::default().with_parallelism(4, 4, 4, 8)).run(&g);
        assert!(fast.total_cycles < slow.total_cycles);
    }

    #[test]
    fn trace_is_recorded_when_enabled() {
        let g = mol(10);
        let model = GnnModel::gcn(9, 7);
        let report = Accelerator::new(model.clone(), ArchConfig::default().with_trace()).run(&g);
        let trace = report.trace.expect("trace enabled");
        assert_eq!(trace.regions.len(), 6); // encode + 5 layers
        assert!(trace.busy_fraction() > 0.0);
        // Lanes: 2 NT always; +4 MP in scatter regions.
        assert_eq!(trace.regions[0].lane_names.len(), 6);
        assert_eq!(trace.regions[5].lane_names.len(), 2); // final region: no MP
        let rendered = trace.render(80);
        assert!(rendered.contains("NT0"));
        assert!(rendered.contains('#'));

        let untraced = Accelerator::new(model, ArchConfig::default()).run(&g);
        assert!(untraced.trace.is_none());
    }

    #[test]
    fn trace_covers_all_strategies_and_gat() {
        let g = mol(11);
        for model in [GnnModel::gcn(9, 3), GnnModel::gat(9, 3)] {
            for strategy in PipelineStrategy::ABLATION_ORDER {
                let report = Accelerator::new(
                    model.clone(),
                    ArchConfig::default().with_strategy(strategy).with_trace(),
                )
                .run(&g);
                let trace = report.trace.expect("trace enabled");
                assert!(
                    trace.busy_fraction() > 0.0,
                    "{} under {strategy}: empty trace",
                    model.name()
                );
            }
        }
    }

    #[test]
    fn traced_and_untraced_timing_agree() {
        let g = mol(12);
        let model = GnnModel::gin(9, Some(3), 4);
        let plain = Accelerator::new(model.clone(), ArchConfig::default()).run(&g);
        let traced = Accelerator::new(model, ArchConfig::default().with_trace()).run(&g);
        assert_eq!(plain.total_cycles, traced.total_cycles);
    }

    #[test]
    fn source_banked_nt_units_wait_at_the_merge_barrier() {
        // GAT on a 26-node molecule at the default configuration: each
        // gather region's MP phase takes 160 cycles, then each of the two
        // NT units finalises 13 nodes at II 9 plus a 17-cycle fill. Both
        // NT units stall through the MP phase.
        let g = MoleculeLike::new(25.3, 2023).generate(0);
        let config = ArchConfig::default()
            .with_gather_banking(crate::GatherBanking::Source)
            .with_execution(ExecutionMode::TimingOnly)
            .with_trace();
        let r = Accelerator::new(GnnModel::gat(9, 8), config).run(&g);
        let trace = r.trace.expect("traced run");
        let gathers: Vec<_> = trace
            .regions
            .iter()
            .filter(|t| t.label.starts_with("gather"))
            .collect();
        assert_eq!(gathers.len(), 5);
        for region in gathers {
            let nt = |symbol: LaneSymbol| {
                let lanes = region.lane_names.iter().zip(&region.lanes);
                lanes
                    .filter(|(name, _)| name.starts_with("NT"))
                    .map(|(_, lane)| lane.iter().filter(|&&s| s == symbol).count())
                    .sum::<usize>()
            };
            assert_eq!(region.cycles(), 294);
            assert_eq!(
                (nt(LaneSymbol::Busy), nt(LaneSymbol::StallEmpty)),
                (268, 320)
            );
        }
    }

    #[test]
    fn source_and_destination_banking_agree_functionally() {
        let g = mol(13);
        let model = GnnModel::gat(9, 8);
        let dest = Accelerator::new(model.clone(), ArchConfig::default()).run(&g);
        let src = Accelerator::new(
            model,
            ArchConfig::default().with_gather_banking(crate::GatherBanking::Source),
        )
        .run(&g);
        let a = dest.output.unwrap().graph_output.unwrap();
        let b = src.output.unwrap().graph_output.unwrap();
        for (x, y) in a.iter().zip(&b) {
            let scale = x.abs().max(y.abs()).max(1.0);
            assert!((x - y).abs() / scale < 1e-4, "{x} vs {y}");
        }
        // Both produce sane cycle counts; the barrier makes source banking
        // no faster than streaming destination banking here.
        assert!(src.total_cycles > 0 && dest.total_cycles > 0);
        assert!(
            src.total_cycles as f64 >= dest.total_cycles as f64 * 0.8,
            "source {} vs dest {}",
            src.total_cycles,
            dest.total_cycles
        );
    }

    #[test]
    fn stall_accounting_is_bounded_and_present() {
        let g = mol(9);
        let model = GnnModel::gcn(9, 7);
        let units = 6; // 2 NT + 4 MP
        let report = Accelerator::new(model, ArchConfig::default()).run(&g);
        assert_eq!(report.num_units, units, "recorded unit count");
        let busy = report.nt_busy_cycles + report.mp_busy_cycles;
        let stall = report.nt_stall_cycles + report.mp_stall_cycles;
        let region_total: Cycle = report.region_cycles.iter().sum();
        assert!(
            busy + stall <= units as u64 * region_total,
            "busy {busy} + stall {stall} exceed {units} x {region_total}"
        );
        assert!(report.stalled_fraction() >= 0.0);
        assert!(report.stalled_fraction() < 1.0);
    }

    /// The twin map of `regions` compiled for `acc`'s model and
    /// configuration.
    fn twins_of(acc: &Accelerator, regions: &[Region]) -> Vec<Option<usize>> {
        let timings: Vec<_> = regions
            .iter()
            .map(|r| RegionTiming::new(r, acc.model(), acc.config()))
            .collect();
        twin_map(&timings)
    }

    #[test]
    fn gcn_hidden_regions_twin_the_first_one() {
        let acc = Accelerator::new(GnnModel::gcn(9, 0), ArchConfig::default());
        // Encode, then γ(L0..L3) each scattering, then γ(L4) NT-only.
        assert_eq!(acc.twins, [None, None, Some(1), Some(1), Some(1), None]);
    }

    #[test]
    fn gat_layers_twin_layer_zero_project_and_gather() {
        let acc = Accelerator::new(GnnModel::gat(9, 0), ArchConfig::default());
        // Encode, then project(Lk) and gather(Lk) + normalize(Lk) per layer.
        let mut expected = vec![None, None, None];
        for _ in 1..acc.model().layers().len() {
            expected.extend([Some(1), Some(2)]);
        }
        assert_eq!(acc.twins, expected);
    }

    /// Layers that share their dimensions twin whatever their arithmetic:
    /// the timing reads dimensions only. In fast-forward runs regions 2 and
    /// 3 then fold their own weighting, aggregator and γ over region 1's
    /// recorded order (`tests/differential.rs` runs a model of this shape
    /// bit for bit against the reference engine).
    #[test]
    fn layers_differing_only_in_arithmetic_twin() {
        use flowgnn_models::{
            AggregatorKind, Combine, EdgeWeighting, GnnLayer, MessageTransform, NodeTransform,
        };
        use flowgnn_tensor::{Activation, Linear};

        let arithmetic = [
            (
                EdgeWeighting::GcnNorm,
                AggregatorKind::Sum,
                Activation::Relu,
            ),
            (EdgeWeighting::One, AggregatorKind::Mean, Activation::Tanh),
            (
                EdgeWeighting::One,
                AggregatorKind::Max,
                Activation::LeakyRelu,
            ),
            (
                EdgeWeighting::GcnNorm,
                AggregatorKind::Min,
                Activation::Sigmoid,
            ),
        ];
        let layers = arithmetic
            .into_iter()
            .enumerate()
            .map(|(i, (weighting, agg, activation))| {
                let gamma = NodeTransform::Linear {
                    layer: Linear::seeded(16, 16, activation, i as u64),
                    combine: Combine::GcnSelfLoop,
                };
                GnnLayer::new(
                    16,
                    16,
                    MessageTransform::WeightedCopy,
                    weighting,
                    agg,
                    gamma,
                )
            })
            .collect();
        let model = GnnModel::custom(
            "mixed-arithmetic",
            Dataflow::NtToMp,
            Some(Linear::seeded(9, 16, Activation::Relu, 9)),
            layers,
            None,
        );
        let acc = Accelerator::new(model, ArchConfig::default());
        // Encode, then γ(L0..L2) each scattering, then γ(L3) NT-only.
        assert_eq!(acc.twins, [None, None, Some(1), Some(1), None]);
    }

    #[test]
    fn encode_never_twins() {
        for model in [
            GnnModel::gcn(9, 0),
            GnnModel::gin(9, Some(3), 0),
            GnnModel::gin_vn(9, Some(3), 0),
            GnnModel::gat(9, 0),
            GnnModel::pna(9, Some(3), 0),
            GnnModel::dgn(9, 0),
        ] {
            let acc = Accelerator::new(model, ArchConfig::default());
            let encode = &acc.regions()[0];
            assert_eq!(encode.nt_op, NtOp::Encode);
            assert_eq!(acc.twins[0], None, "{}", acc.model().name());
            assert!(!acc.twins.contains(&Some(0)), "{}", acc.model().name());
            // Not even an identical Encode region: its cost is per node.
            assert_eq!(
                twins_of(&acc, &[encode.clone(), encode.clone()]),
                [None, None]
            );
        }
    }

    #[test]
    fn regions_differing_in_one_signature_field_do_not_twin() {
        let config = ArchConfig::default().with_parallelism(2, 4, 8, 8);
        let acc = Accelerator::new(GnnModel::gcn(9, 0), config);
        let base = Region {
            nt_op: NtOp::Gamma(0),
            nt_fc: vec![(100, 100)],
            nt_read_dim: 100,
            payload_dim: 100,
            scatter_layer: None,
            gather_layer: None,
        };
        assert_eq!(
            twins_of(&acc, &[base.clone(), base.clone()]),
            [None, Some(0)]
        );
        // 100 and 104 elements both take 13 output cycles and 13 flits at
        // P_apply = P_scatter = 8, but the payload itself is signed.
        assert_eq!(100usize.div_ceil(8), 104usize.div_ceil(8));
        let wider = Region {
            nt_fc: vec![(100, 104)],
            payload_dim: 104,
            ..base.clone()
        };
        let slower = Region {
            nt_fc: vec![(200, 100)],
            ..base.clone()
        };
        let scatter = Region {
            scatter_layer: Some(1),
            ..base.clone()
        };
        for other in [wider, slower, scatter] {
            assert_eq!(twins_of(&acc, &[base.clone(), other]), [None, None]);
        }
    }

    #[test]
    fn report_latency_conversions() {
        let g = mol(8);
        let report = Accelerator::new(GnnModel::gcn(9, 0), ArchConfig::default()).run(&g);
        assert!(report.latency_ms() > 0.0);
        assert!((report.latency_us() / report.latency_ms() - 1000.0).abs() < 1e-6);
    }
}
