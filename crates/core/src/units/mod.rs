//! Cycle-stepped models of the paper's architectural blocks (Fig. 3).
//!
//! One file per hardware block:
//!
//! - [`nt`] — the node-transformation (NT) unit: accumulate/output
//!   ping-pong, `P_apply` elements per cycle.
//! - [`mp`] — the message-passing (MP) unit: destination-banked edge
//!   processing, `P_scatter`-element chunks.
//! - [`adapter`] — the NT-to-MP multicast adapter: the `P_node × P_edge`
//!   grid of registered queues flits travel through, plus the scatter
//!   region context the units share.
//! - [`gather`] — the gather-path units and banking (GAT-style MP→NT
//!   regions).
//!
//! Every unit implements one small interface, [`UnitStep`], over its
//! region's context ([`DataflowCtx`]: the units, the queue fabric and the
//! coupled jump), and a single region scheduler (`crate::pipeline`) drives
//! all of them: the same unit code backs the per-cycle reference mode, the
//! event-horizon fast-forward mode, and the ASCII tracer. A unit's
//! activity in a cycle is a [`LaneSymbol`]: the one value a step returns,
//! a pure horizon classifies and a fast-forward takes, and
//! [`RegionStats`] the one place that charges it to the NT or MP busy and
//! stall meters. Units model timing only and see no execution state. The
//! one functional fact a schedule decides is the order in which MP units
//! complete edges: a scatter MP unit appends each completed edge to the
//! fold order its region context holds (`None` in timing-only runs), and
//! the region's arithmetic runs after it (`ExecState::run_region`).

pub(crate) mod adapter;
pub(crate) mod gather;
pub(crate) mod mp;
pub(crate) mod nt;

use flowgnn_desim::Cycle;
use flowgnn_graph::NodeId;

use crate::trace::LaneSymbol;

/// Sentinel horizon: the unit's state cannot change until *another* unit
/// moves (a stalled or drained steady state).
pub(crate) const HORIZON_INF: u64 = u64::MAX;

/// Upper bound on the fast-forward scan backoff. When the pipeline is
/// saturated (an event on every cycle) the horizon scan is pure overhead,
/// so after each failed attempt the engine runs plain per-cycle steps for
/// an exponentially growing stretch before rescanning. An attempt whose
/// pure scan finds no span also tries the region's coupled jump
/// ([`DataflowCtx::coupled_jump`]); it fails only when both find nothing, and a
/// successful jump of either kind resets the backoff. Skipped attempts
/// never affect exactness — fast-forwarding is opportunistic — they only
/// bound the scan cost at ~1/32 per cycle in the worst case while still
/// catching long stall/drain phases quickly.
pub(crate) const FF_BACKOFF_MAX: u64 = 32;

/// Per-region simulation statistics.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RegionStats {
    pub(crate) cycles: Cycle,
    pub(crate) nt_busy: u64,
    pub(crate) mp_busy: u64,
    pub(crate) nt_stall: u64,
    pub(crate) mp_stall: u64,
    /// Cycles the region scheduler ran through the per-cycle unit code;
    /// zero in analytic schedules, which step nothing.
    pub(crate) stepped: Cycle,
    /// Cycles the region scheduler advanced in bulk (pure or coupled
    /// jumps); `stepped + skipped == cycles` in cycle-stepped regions.
    pub(crate) skipped: Cycle,
}

impl RegionStats {
    /// Charges `cycles` cycles of an NT unit's `activity` to the NT meters.
    pub(crate) fn charge_nt(&mut self, activity: LaneSymbol, cycles: u64) {
        charge(&mut self.nt_busy, &mut self.nt_stall, activity, cycles);
    }

    /// Charges `cycles` cycles of an MP unit's `activity` to the MP meters.
    pub(crate) fn charge_mp(&mut self, activity: LaneSymbol, cycles: u64) {
        charge(&mut self.mp_busy, &mut self.mp_stall, activity, cycles);
    }
}

/// The one map from a unit's activity onto its busy and stall meters: a
/// busy cycle counts as busy, a stall of either kind as stalled, and an
/// idle cycle as neither. Trace lanes show the same activity, so they sum
/// to the meters.
fn charge(busy: &mut u64, stall: &mut u64, activity: LaneSymbol, cycles: u64) {
    match activity {
        LaneSymbol::Busy => *busy += cycles,
        LaneSymbol::StallFull | LaneSymbol::StallEmpty => *stall += cycles,
        LaneSymbol::Idle => {}
    }
}

/// A run's totals: every meter and cycle count summed over its regions.
impl std::ops::AddAssign for RegionStats {
    fn add_assign(&mut self, region: Self) {
        self.cycles += region.cycles;
        self.nt_busy += region.nt_busy;
        self.mp_busy += region.mp_busy;
        self.nt_stall += region.nt_stall;
        self.mp_stall += region.mp_stall;
        self.stepped += region.stepped;
        self.skipped += region.skipped;
    }
}

/// NT accumulate cost: uniform across nodes, or per node (Encode regions,
/// where sparse input features make the cost data-dependent).
#[derive(Debug, Clone)]
pub(crate) enum AccCost {
    Uniform(u64),
    PerNode(Vec<u64>),
}

impl AccCost {
    pub(crate) fn get(&self, v: NodeId) -> u64 {
        match self {
            AccCost::Uniform(c) => *c,
            AccCost::PerNode(per) => per[v as usize],
        }
    }
}

/// One architectural block driven by the region scheduler.
///
/// `C` is the region context the block shares with its peers (queues plus
/// the region's static parameters). The scheduler calls these four methods
/// and nothing else, which is what lets the per-cycle reference mode, the
/// fast-forward mode, and the tracer all run the same unit code.
pub(crate) trait UnitStep<C> {
    /// Executes one cycle: moves flits/tokens, advances counters, appends
    /// the edges a scatter MP unit completes to the fold order in `ctx`,
    /// charges the cycle's activity to `stats`, and returns that activity
    /// (the cycle's trace symbol).
    fn step(&mut self, ctx: &mut C, stats: &mut RegionStats) -> LaneSymbol;

    /// How many upcoming cycles this unit is guaranteed to spend purely
    /// counting (no queue traffic, no job transition), assuming every
    /// queue stays frozen — plus its activity in those cycles. A *pure*
    /// cycle's only effects are one counter decrement and one meter
    /// charge (plus, for an MP unit, appending the edges it completes to
    /// the fold order). A horizon of zero means "something can happen
    /// this cycle; run [`UnitStep::step`] exactly"; [`HORIZON_INF`] means
    /// the unit is frozen until another unit moves.
    fn pure_horizon(&self, ctx: &C) -> (u64, LaneSymbol);

    /// Advances this unit through `delta` pure cycles of `activity` at
    /// once, recording the edges completed on the way in order.
    /// `activity` must come from [`UnitStep::pure_horizon`] and `delta`
    /// must not exceed the returned horizon.
    fn fast_forward(
        &mut self,
        delta: u64,
        activity: LaneSymbol,
        ctx: &mut C,
        stats: &mut RegionStats,
    );

    /// Whether this unit has fully drained (used for region termination).
    fn done(&self, ctx: &C) -> bool;
}

/// A region's shared context as the region scheduler sees it: the units
/// it steps, the queue fabric they communicate through (registered queues
/// that must be committed once per cycle, and a global emptiness test for
/// termination) and its coupled jump.
pub(crate) trait DataflowCtx: Sized {
    /// The units stepped first each cycle: the consumers, so they pop
    /// what was committed on the previous cycle.
    type Front: UnitStep<Self> + std::fmt::Debug;
    /// The units stepped after them: the producers.
    type Back: UnitStep<Self> + std::fmt::Debug;
    /// Commits every queue (pushes become visible to next cycle's pops).
    fn commit_queues(&mut self);
    /// True when every queue in the region is empty.
    fn queues_empty(&self) -> bool;
    /// Dumps queue occupancy to stderr (runaway/deadlock diagnostics).
    fn dump_queues(&self);
    /// Advances the `front` and `back` units and the queues in bulk when
    /// the pure scan finds no span (DESIGN.md §3b, "coupled jump"), at
    /// most `cap` cycles, committing the queues, and returns the window's
    /// length; returns 0 and changes nothing when no window of at least
    /// two cycles exists. Scatter regions override it; gather regions
    /// stream whole-node tokens, not flits, and keep this default, which
    /// never jumps.
    fn coupled_jump(
        &mut self,
        _front: &mut [Self::Front],
        _back: &mut [Self::Back],
        _cap: u64,
        _stats: &mut RegionStats,
    ) -> u64 {
        0
    }
}
