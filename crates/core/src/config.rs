//! Architecture configuration: the paper's four parallelism knobs.

/// Pipeline strategy (Fig. 4 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PipelineStrategy {
    /// Fig. 4(a): NT and MP never overlap — NT finishes every node of a
    /// region, then MP processes every edge.
    NonPipelined,
    /// Fig. 4(b): lockstep pipeline — while NT processes node *i*, MP
    /// processes node *i−1*; each step takes the max of the two.
    FixedPipeline,
    /// Fig. 4(c): one NT and one MP unit decoupled by a node queue; MP
    /// starts a node only after its *entire* embedding is queued.
    BaselineDataflow,
    /// Fig. 4(d): the full FlowGNN architecture — `P_node` NT units,
    /// `P_edge` MP units, flit-granular streaming so MP starts before NT
    /// finishes a node.
    FlowGnn,
}

impl PipelineStrategy {
    /// All strategies in ablation order (Fig. 9, left to right).
    pub const ABLATION_ORDER: [PipelineStrategy; 4] = [
        PipelineStrategy::NonPipelined,
        PipelineStrategy::FixedPipeline,
        PipelineStrategy::BaselineDataflow,
        PipelineStrategy::FlowGnn,
    ];

    /// Display name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            PipelineStrategy::NonPipelined => "non-pipelined",
            PipelineStrategy::FixedPipeline => "fixed-pipeline",
            PipelineStrategy::BaselineDataflow => "baseline-dataflow",
            PipelineStrategy::FlowGnn => "FlowGNN",
        }
    }
}

impl std::fmt::Display for PipelineStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How gather-dataflow (MP→NT) regions partition edges across MP units.
///
/// The paper assigns each MP unit "a subset of *source* nodes, gathering
/// partial messages along edges from nodes within the assigned subset"
/// (Sec. III-D2). Partial aggregates per destination can only be merged
/// once every unit has finished, so source banking implies a barrier
/// before the node transformation. Destination banking (each unit owns a
/// destination subset and produces *complete* aggregates) streams
/// per-node aggregates to NT with no barrier; the `gather_banking`
/// extension experiment quantifies the difference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum GatherBanking {
    /// Each MP unit owns a destination subset (streaming, no barrier).
    #[default]
    Destination,
    /// Each MP unit owns a source subset (the paper's description;
    /// partial aggregates merge at a barrier).
    Source,
}

/// Whether the simulator also computes embeddings or only timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecutionMode {
    /// Execute the model's arithmetic alongside timing (enables functional
    /// cross-checks against the reference executor).
    #[default]
    Full,
    /// Timing only: cycle counts are identical to [`ExecutionMode::Full`]
    /// (all costs are structural), but no arithmetic runs — used for
    /// full-scale Reddit-class graphs.
    TimingOnly,
}

impl ExecutionMode {
    /// Display name used in reports and the throughput benchmark.
    pub fn name(self) -> &'static str {
        match self {
            ExecutionMode::Full => "full",
            ExecutionMode::TimingOnly => "timing-only",
        }
    }
}

/// How the dataflow simulation loop advances time.
///
/// Both modes are cycle-exact and produce byte-identical [`crate::RunReport`]s;
/// the reference mode exists as the oracle for differential tests and as a
/// debugging fallback.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineMode {
    /// Event-horizon fast-forward: when every unit's next state change is
    /// provably more than one cycle away, the engine advances all
    /// counters and meters by the minimum horizon in one step instead of
    /// ticking idle cycles one by one. Cycle-exact by construction — every
    /// cycle on which any unit's state can change is still executed by
    /// the ordinary per-cycle code.
    ///
    /// In a saturated scatter region, where MP units pop flits every cycle
    /// and the blocked NT units refill the freed slots, it also jumps that
    /// producer–queue–consumer chain in bulk up to the next edge, node or
    /// job boundary on either side (the coupled jump, when
    /// `P_apply ≤ P_scatter`).
    ///
    /// In runs without a trace it also fast-forwards whole regions: a
    /// region whose compiled timing (shape, NT accumulate cycles, payload,
    /// output cycles, flits, MP chunks per edge) equals an earlier
    /// region's copies that region's stats instead of stepping its cycles
    /// again. The
    /// identical hidden layers of every preset model are such twins. In
    /// [`ExecutionMode::Full`] a copied twin's layer folds its messages in
    /// the order the earlier region recorded, which is the order stepping
    /// it would record. Traced runs step every region.
    #[default]
    FastForward,
    /// Naive per-cycle stepping: every cycle runs every unit.
    Reference,
}

impl EngineMode {
    /// Display name used in reports and the throughput benchmark.
    pub fn name(self) -> &'static str {
        match self {
            EngineMode::FastForward => "fast-forward",
            EngineMode::Reference => "reference",
        }
    }
}

/// The architecture configuration (Sec. III-D).
///
/// The four parallelisation parameters are exactly the paper's:
/// `P_node` (simultaneous nodes in NT), `P_edge` (simultaneous edges in
/// MP), `P_apply` (embedding elements per cycle per NT unit), `P_scatter`
/// (edge-embedding elements per cycle per MP unit). The default matches
/// the paper's deployed configuration: 2 NT units, 4 MP units (Sec. VI-A),
/// with `P_apply = P_scatter = 8`.
///
/// # Example
///
/// ```
/// use flowgnn_core::ArchConfig;
///
/// let cfg = ArchConfig::default().with_parallelism(4, 4, 4, 8);
/// assert_eq!(cfg.p_edge, 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArchConfig {
    /// Number of NT units (node parallelism).
    pub p_node: usize,
    /// Number of MP units / destination banks (edge parallelism).
    pub p_edge: usize,
    /// Embedding elements processed per cycle by one NT unit.
    pub p_apply: usize,
    /// Edge-embedding elements processed per cycle by one MP unit.
    pub p_scatter: usize,
    /// Capacity of each adapter data queue, in flits.
    pub queue_capacity: usize,
    /// Pipeline strategy under test.
    pub strategy: PipelineStrategy,
    /// Functional or timing-only execution.
    pub execution: ExecutionMode,
    /// Record a per-cycle pipeline trace (see [`crate::Trace`]).
    pub trace: bool,
    /// Edge partitioning for gather-dataflow regions.
    pub gather_banking: GatherBanking,
    /// Simulation-loop time-advance mode (fast-forward vs. per-cycle).
    pub engine: EngineMode,
}

impl Default for ArchConfig {
    fn default() -> Self {
        Self {
            p_node: 2,
            p_edge: 4,
            p_apply: 8,
            p_scatter: 8,
            queue_capacity: 16,
            strategy: PipelineStrategy::FlowGnn,
            execution: ExecutionMode::Full,
            trace: false,
            gather_banking: GatherBanking::Destination,
            engine: EngineMode::FastForward,
        }
    }
}

impl ArchConfig {
    /// Sets the four parallelism parameters.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero.
    pub fn with_parallelism(
        mut self,
        p_node: usize,
        p_edge: usize,
        p_apply: usize,
        p_scatter: usize,
    ) -> Self {
        assert!(
            p_node > 0 && p_edge > 0 && p_apply > 0 && p_scatter > 0,
            "parallelism parameters must be positive"
        );
        self.p_node = p_node;
        self.p_edge = p_edge;
        self.p_apply = p_apply;
        self.p_scatter = p_scatter;
        self
    }

    /// Sets the pipeline strategy.
    pub fn with_strategy(mut self, strategy: PipelineStrategy) -> Self {
        self.strategy = strategy;
        // Pre-FlowGNN strategies model the single-NT/single-MP baseline
        // architecture of Sec. III-C.
        if strategy != PipelineStrategy::FlowGnn {
            self.p_node = 1;
            self.p_edge = 1;
        }
        self
    }

    /// Sets the execution mode.
    pub fn with_execution(mut self, execution: ExecutionMode) -> Self {
        self.execution = execution;
        self
    }

    /// Sets the gather-region banking scheme.
    pub fn with_gather_banking(mut self, banking: GatherBanking) -> Self {
        self.gather_banking = banking;
        self
    }

    /// Sets the simulation-loop engine mode.
    pub fn with_engine(mut self, engine: EngineMode) -> Self {
        self.engine = engine;
        self
    }

    /// Enables per-cycle pipeline tracing (adds memory proportional to
    /// simulated cycles; intended for visualisation and debugging).
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Sets the adapter queue capacity (flits).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        self.queue_capacity = capacity;
        self
    }

    /// Effective number of NT units for the configured strategy (the
    /// pre-FlowGNN strategies are single-unit by definition).
    pub fn effective_p_node(&self) -> usize {
        if self.strategy == PipelineStrategy::FlowGnn {
            self.p_node
        } else {
            1
        }
    }

    /// Effective number of MP units for the configured strategy.
    pub fn effective_p_edge(&self) -> usize {
        if self.strategy == PipelineStrategy::FlowGnn {
            self.p_edge
        } else {
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_deployment() {
        let cfg = ArchConfig::default();
        assert_eq!(cfg.p_node, 2);
        assert_eq!(cfg.p_edge, 4);
        assert_eq!(cfg.strategy, PipelineStrategy::FlowGnn);
    }

    #[test]
    fn with_parallelism_sets_all_four() {
        let cfg = ArchConfig::default().with_parallelism(1, 2, 3, 4);
        assert_eq!(
            (cfg.p_node, cfg.p_edge, cfg.p_apply, cfg.p_scatter),
            (1, 2, 3, 4)
        );
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_parallelism_panics() {
        ArchConfig::default().with_parallelism(0, 1, 1, 1);
    }

    #[test]
    fn pre_flowgnn_strategies_are_single_unit() {
        let cfg = ArchConfig::default().with_strategy(PipelineStrategy::BaselineDataflow);
        assert_eq!(cfg.effective_p_node(), 1);
        assert_eq!(cfg.effective_p_edge(), 1);
        let fg = ArchConfig::default();
        assert_eq!(fg.effective_p_node(), 2);
    }

    #[test]
    fn ablation_order_is_the_figure_order() {
        assert_eq!(
            PipelineStrategy::ABLATION_ORDER[0],
            PipelineStrategy::NonPipelined
        );
        assert_eq!(
            PipelineStrategy::ABLATION_ORDER[3],
            PipelineStrategy::FlowGnn
        );
    }

    #[test]
    fn strategy_names_are_distinct() {
        let names: std::collections::HashSet<_> = PipelineStrategy::ABLATION_ORDER
            .iter()
            .map(|s| s.name())
            .collect();
        assert_eq!(names.len(), 4);
    }
}
