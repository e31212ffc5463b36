//! Gather-path units (paper Sec. III-D, GAT-style MP→NT regions):
//! destination-banked MP units walk each destination's in-edges (CSC
//! adjacency) and produce whole-node aggregate tokens; NT units consume
//! the tokens and finalise. The units model timing only: every gather
//! region folds each destination's in-edges in CSC order whatever the
//! schedule, so its arithmetic runs after the region
//! (`ExecState::run_region`) and nothing is recorded. Tokens are whole
//! nodes, not flits, so the region keeps `DataflowCtx`'s default coupled
//! jump, which never jumps. The source-banked alternative (Sec. III-D2)
//! is an analytic schedule and lives in the scheduler module.

use flowgnn_desim::Fifo;
use flowgnn_graph::{Adjacency, NodeId};

use crate::trace::LaneSymbol;
use crate::units::{DataflowCtx, RegionStats, UnitStep, HORIZON_INF};

/// Shared context of one gather region: the aggregate-token queue grid
/// (one queue per (MP, NT) pair) plus the region's static parameters.
pub(crate) struct GatherCtx<'a> {
    /// One queue per (MP, NT) pair, holding whole-node aggregate tokens;
    /// indexed by [`GatherCtx::qid`].
    pub(crate) queues: &'a mut [Fifo<NodeId>],
    pub(crate) p_node: usize,
    pub(crate) p_edge: usize,
    /// MP cycles per edge.
    pub(crate) chunks: u64,
    /// NT cycles per node (accumulate + output).
    pub(crate) nt_time: u64,
    pub(crate) csc: &'a Adjacency,
}

impl GatherCtx<'_> {
    /// Queue index for the (MP unit, NT unit) pair.
    pub(crate) fn qid(&self, mp: usize, nt: usize) -> usize {
        mp * self.p_node + nt
    }
}

impl DataflowCtx for GatherCtx<'_> {
    type Front = GatherNt;
    type Back = GatherMp;

    fn commit_queues(&mut self) {
        for q in self.queues.iter_mut() {
            q.commit();
        }
    }

    fn queues_empty(&self) -> bool {
        self.queues.iter().all(Fifo::is_empty)
    }

    fn dump_queues(&self) {
        for (i, q) in self.queues.iter().enumerate() {
            eprintln!("Q{i}: len={} ready={}", q.len(), q.ready_len());
        }
    }
}

/// Gather-path MP unit: owns destinations `v ≡ index (mod P_edge)`,
/// enumerated arithmetically (`index + j·P_edge`, no materialised list),
/// and walks each one's in-edges, emitting one aggregate token per node.
#[derive(Debug)]
pub(crate) struct GatherMp {
    index: usize,
    p_edge: usize,
    /// Number of owned destinations.
    count: usize,
    next: usize,
    remaining: u64,
}

impl GatherMp {
    pub(crate) fn new(index: usize, n: usize, p_edge: usize) -> Self {
        Self {
            index,
            p_edge,
            count: if n > index {
                (n - index).div_ceil(p_edge)
            } else {
                0
            },
            next: 0,
            remaining: 0,
        }
    }

    /// The `j`-th destination this unit owns.
    fn dest_at(&self, j: usize) -> NodeId {
        (self.index + j * self.p_edge) as NodeId
    }
}

impl<'a> UnitStep<GatherCtx<'a>> for GatherMp {
    fn step(&mut self, ctx: &mut GatherCtx<'a>, stats: &mut RegionStats) -> LaneSymbol {
        if self.next >= self.count {
            return LaneSymbol::Idle;
        }
        let mut activity = LaneSymbol::Busy;
        let v = self.dest_at(self.next);
        if self.remaining == 0 {
            // Start this destination's gather.
            self.remaining = ctx.csc.degree(v) as u64 * ctx.chunks + 1;
        }
        self.remaining -= 1;
        if self.remaining == 0 {
            // Finished: produce the aggregate token if there is room,
            // else retry next cycle (backpressure).
            let q_index = ctx.qid(self.index, v as usize % ctx.p_node);
            if ctx.queues[q_index].is_full() {
                self.remaining = 1; // stall: retry the push
                activity = LaneSymbol::StallFull;
            } else {
                ctx.queues[q_index].push(v);
                self.next += 1;
            }
        }
        stats.charge_mp(activity, 1);
        activity
    }

    /// Pure-cycle horizon (see the NT unit's variant): cycles where only
    /// `remaining` counts down, or a frozen stall/idle.
    fn pure_horizon(&self, ctx: &GatherCtx<'a>) -> (u64, LaneSymbol) {
        if self.next >= self.count {
            return (HORIZON_INF, LaneSymbol::Idle);
        }
        match self.remaining {
            // Starts (or retries) a destination this cycle.
            0 => (0, LaneSymbol::Busy),
            1 => {
                let v = self.dest_at(self.next) as usize;
                if ctx.queues[ctx.qid(self.index, v % ctx.p_node)].is_full() {
                    // The retry loop leaves `remaining == 1` and
                    // accrues a stall until the queue drains.
                    (HORIZON_INF, LaneSymbol::StallFull)
                } else {
                    (0, LaneSymbol::Busy) // produces the token
                }
            }
            rem => (rem - 1, LaneSymbol::Busy),
        }
    }

    fn fast_forward(
        &mut self,
        delta: u64,
        activity: LaneSymbol,
        _ctx: &mut GatherCtx<'a>,
        stats: &mut RegionStats,
    ) {
        if activity == LaneSymbol::Busy {
            self.remaining -= delta;
        }
        stats.charge_mp(activity, delta);
    }

    fn done(&self, _ctx: &GatherCtx<'a>) -> bool {
        self.next >= self.count
    }
}

/// Gather-path NT unit: consumes aggregate tokens for nodes
/// `v ≡ index (mod P_node)` round-robin across the MP banks and runs the
/// node transformation.
#[derive(Debug)]
pub(crate) struct GatherNt {
    index: usize,
    /// Cycles left on the current node's transformation.
    job: Option<u64>,
    rr: usize,
    completed: usize,
    expected: usize,
}

impl GatherNt {
    pub(crate) fn new(index: usize, n: usize, p_node: usize) -> Self {
        Self {
            index,
            job: None,
            rr: 0,
            completed: 0,
            expected: if n > index {
                (n - index).div_ceil(p_node)
            } else {
                0
            },
        }
    }
}

impl<'a> UnitStep<GatherCtx<'a>> for GatherNt {
    fn step(&mut self, ctx: &mut GatherCtx<'a>, stats: &mut RegionStats) -> LaneSymbol {
        let activity = match &mut self.job {
            Some(rem) => {
                *rem -= 1;
                if *rem == 0 {
                    self.completed += 1;
                    self.job = None;
                }
                LaneSymbol::Busy
            }
            None => {
                // Round-robin over this NT's input queues.
                let mut found = false;
                for off in 0..ctx.p_edge {
                    let k = (self.rr + off) % ctx.p_edge;
                    let q_index = ctx.qid(k, self.index);
                    if ctx.queues[q_index].pop().is_some() {
                        self.rr = (k + 1) % ctx.p_edge;
                        self.job = Some(ctx.nt_time);
                        found = true;
                        break;
                    }
                }
                if found {
                    LaneSymbol::Busy
                } else if self.completed < self.expected {
                    LaneSymbol::StallEmpty
                } else {
                    LaneSymbol::Idle
                }
            }
        };
        stats.charge_nt(activity, 1);
        activity
    }

    /// Pure-cycle horizon (see the scatter NT unit's variant).
    fn pure_horizon(&self, ctx: &GatherCtx<'a>) -> (u64, LaneSymbol) {
        match self.job {
            Some(rem) => (rem.saturating_sub(1), LaneSymbol::Busy),
            None => {
                let any_input =
                    (0..ctx.p_edge).any(|k| !ctx.queues[ctx.qid(k, self.index)].is_empty());
                if any_input {
                    (0, LaneSymbol::Busy) // pops a token this cycle
                } else if self.completed < self.expected {
                    (HORIZON_INF, LaneSymbol::StallEmpty)
                } else {
                    (HORIZON_INF, LaneSymbol::Idle)
                }
            }
        }
    }

    fn fast_forward(
        &mut self,
        delta: u64,
        activity: LaneSymbol,
        _ctx: &mut GatherCtx<'a>,
        stats: &mut RegionStats,
    ) {
        if let (LaneSymbol::Busy, Some(rem)) = (activity, &mut self.job) {
            *rem -= delta;
        }
        stats.charge_nt(activity, delta);
    }

    fn done(&self, _ctx: &GatherCtx<'a>) -> bool {
        self.job.is_none() && self.completed == self.expected
    }
}
