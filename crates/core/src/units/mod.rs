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
//! Every unit implements one small interface, [`UnitStep`], and a single
//! region scheduler (`crate::pipeline`) drives all of them: the same unit
//! code backs the per-cycle reference mode, the event-horizon fast-forward
//! mode, and the ASCII tracer. Units model timing only. The one functional
//! fact a schedule decides is the order in which MP units complete edges,
//! and a scatter MP unit appends each completed edge to the region's fold
//! order through `ExecState`; the region's arithmetic runs after it
//! (`ExecState::run_region`).

pub(crate) mod adapter;
pub(crate) mod gather;
pub(crate) mod mp;
pub(crate) mod nt;

use flowgnn_desim::Cycle;
use flowgnn_graph::NodeId;

use crate::exec::ExecState;
use crate::trace::LaneSymbol;

/// What a unit did in one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StepOutcome {
    /// Performed useful work.
    Busy,
    /// Blocked on output backpressure (a full queue downstream).
    StallFull,
    /// Starved for input (waiting on flits or jobs).
    StallEmpty,
    /// Nothing to do (not yet started or already drained).
    Idle,
}

/// Sentinel horizon: the unit's state cannot change until *another* unit
/// moves (a stalled or drained steady state).
pub(crate) const HORIZON_INF: u64 = u64::MAX;

/// Upper bound on the fast-forward scan backoff. When the pipeline is
/// saturated (an event on every cycle) the horizon scan is pure overhead,
/// so after each failed attempt the engine runs plain per-cycle steps for
/// an exponentially growing stretch before rescanning. An attempt whose
/// pure scan finds no span also tries the region's coupled jump
/// ([`CoupledJump`]); it fails only when both find nothing, and a
/// successful jump of either kind resets the backoff. Skipped attempts
/// never affect exactness — fast-forwarding is opportunistic — they only
/// bound the scan cost at ~1/32 per cycle in the worst case while still
/// catching long stall/drain phases quickly.
pub(crate) const FF_BACKOFF_MAX: u64 = 32;

/// Meter class a unit accrues during a run of *pure* cycles — cycles whose
/// only effects are one counter decrement and one meter increment (plus,
/// for an MP unit, appending the edges it completes to the fold order),
/// with no queue traffic or job transitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PureClass {
    /// Counting down an accumulate/output/gather counter.
    Busy,
    /// Held by a full downstream queue.
    StallFull,
    /// Starved for input.
    StallEmpty,
    /// Drained (no meter accrues).
    Idle,
}

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

/// Maps a unit outcome to its trace symbol.
pub(crate) fn outcome_symbol(outcome: StepOutcome) -> LaneSymbol {
    match outcome {
        StepOutcome::Busy => LaneSymbol::Busy,
        StepOutcome::StallFull => LaneSymbol::StallFull,
        StepOutcome::StallEmpty => LaneSymbol::StallEmpty,
        StepOutcome::Idle => LaneSymbol::Idle,
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
    /// the edges a scatter MP unit completes to the region's fold order
    /// through `exec`, updates the busy/stall meters in `stats`, and
    /// reports the cycle's trace symbol.
    fn step(
        &mut self,
        ctx: &mut C,
        exec: &mut ExecState<'_>,
        stats: &mut RegionStats,
    ) -> LaneSymbol;

    /// How many upcoming cycles this unit is guaranteed to spend purely
    /// counting (no queue traffic, no job transition), assuming every
    /// queue stays frozen — plus the meter class those cycles accrue.
    /// A horizon of zero means "something can happen this cycle; run
    /// [`UnitStep::step`] exactly"; [`HORIZON_INF`] means the unit is
    /// frozen until another unit moves.
    fn pure_horizon(&self, ctx: &C) -> (u64, PureClass);

    /// Advances this unit through `delta` pure cycles at once, recording
    /// the edges completed on the way in order. `class` must come from
    /// [`UnitStep::pure_horizon`] and `delta` must not exceed the returned
    /// horizon.
    fn fast_forward(
        &mut self,
        delta: u64,
        class: PureClass,
        ctx: &C,
        exec: &mut ExecState<'_>,
        stats: &mut RegionStats,
    );

    /// Whether this unit has fully drained (used for region termination).
    fn done(&self, ctx: &C) -> bool;
}

/// A region whose producer–queue–consumer chain can advance in bulk when
/// the pure scan finds no span (DESIGN.md §3b, "coupled jump"). Scatter
/// regions implement it; gather regions keep the default, which never
/// jumps.
pub(crate) trait CoupledJump<F, B>: DataflowCtx {
    /// Advances the `front` and `back` units and the queues through the
    /// coupled window, at most `cap` cycles, committing the queues, and
    /// returns its length; returns 0 and changes nothing when no window of
    /// at least two cycles exists.
    fn coupled_jump(
        &mut self,
        _front: &mut [F],
        _back: &mut [B],
        _cap: u64,
        _exec: &mut ExecState<'_>,
        _stats: &mut RegionStats,
    ) -> u64 {
        0
    }
}

/// The queue fabric a region's units communicate through, as seen by the
/// region scheduler: registered queues that must be committed once per
/// cycle, and a global emptiness test for termination.
pub(crate) trait DataflowCtx {
    /// Commits every queue (pushes become visible to next cycle's pops).
    fn commit_queues(&mut self);
    /// True when every queue in the region is empty.
    fn queues_empty(&self) -> bool;
    /// Dumps queue occupancy to stderr (runaway/deadlock diagnostics).
    fn dump_queues(&self);
}
