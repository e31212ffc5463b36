//! Message-passing (MP) unit for scatter regions (paper Sec. III-B/C,
//! Fig. 3 "MP unit"): destination-banked edge processing — unit `k` owns
//! edges whose destination is `≡ k (mod P_edge)` — consuming flits from
//! the multicast adapter and processing one `P_scatter`-element message
//! chunk per cycle. A completed edge is appended to the fold order the
//! region context holds; the arithmetic runs after the region
//! (`ExecState::run_region`).

use flowgnn_graph::NodeId;

use crate::trace::LaneSymbol;
use crate::units::adapter::{ChainRole, ScatterCtx};
use crate::units::{RegionStats, UnitStep, HORIZON_INF};

/// One MP unit (edge bank `index`).
#[derive(Debug)]
pub(crate) struct MpUnit {
    index: usize,
    rr: usize,
    /// Active job (slot 0) plus at most one prefetching job (slot 1): the
    /// MP unit's local embedding buffer is ping-ponged, so the next
    /// node's flits are received while the current node's edges are still
    /// processing. Two inline slots — the hardware has exactly two
    /// buffers, and the simulator allocates nothing per unit.
    jobs: [Option<MpJob>; 2],
}

#[derive(Debug)]
struct MpJob {
    node: NodeId,
    queue: usize,
    flits_recv: usize,
    /// The node's edges in this unit's bank, counted when the job opens.
    edges: usize,
    edge_cursor: usize,
    chunk: u64,
}

impl MpJob {
    /// Chunks left until the job's last edge completes.
    fn chunks_left(&self, chunks_per_edge: u64) -> u64 {
        (self.edges - self.edge_cursor) as u64 * chunks_per_edge - self.chunk
    }

    /// Completes the job's next `count` edges in edge bank `bank`: appends
    /// them to the region's fold order (functional runs only) and moves
    /// the cursor past them.
    fn complete_edges(&mut self, count: usize, bank: usize, ctx: &mut ScatterCtx<'_>) {
        if let Some(order) = ctx.order.as_deref_mut() {
            let eids = ctx.banked.edges(bank, self.node);
            order.extend_from_slice(&eids[self.edge_cursor..self.edge_cursor + count]);
        }
        self.edge_cursor += count;
    }
}

impl MpUnit {
    /// Local-buffer ping-pong depth: one active + one prefetching node.
    const MAX_JOBS: usize = 2;

    pub(crate) fn new(index: usize) -> Self {
        Self {
            index,
            rr: 0,
            jobs: [None, None],
        }
    }

    fn job_count(&self) -> usize {
        self.jobs.iter().filter(|j| j.is_some()).count()
    }

    /// The youngest job (the one still receiving flits).
    fn back_mut(&mut self) -> Option<&mut MpJob> {
        let slot = if self.jobs[1].is_some() { 1 } else { 0 };
        self.jobs[slot].as_mut()
    }

    fn back(&self) -> Option<&MpJob> {
        let slot = if self.jobs[1].is_some() { 1 } else { 0 };
        self.jobs[slot].as_ref()
    }

    /// Appends a job (caller checks `job_count() < MAX_JOBS`).
    fn push_back(&mut self, job: MpJob) {
        let slot = if self.jobs[0].is_some() { 1 } else { 0 };
        debug_assert!(self.jobs[slot].is_none(), "job slots full");
        self.jobs[slot] = Some(job);
    }

    /// Retires the front job; the prefetching job becomes active.
    fn pop_front(&mut self) {
        self.jobs[0] = self.jobs[1].take();
    }

    fn is_drained(&self, ctx: &ScatterCtx<'_>) -> bool {
        self.jobs[0].is_none()
            && (0..ctx.p_node).all(|nt| ctx.queues[nt * ctx.p_edge + self.index].is_empty())
    }

    /// Runs one cycle and returns the unit's activity in it.
    fn advance(&mut self, ctx: &mut ScatterCtx<'_>) -> LaneSymbol {
        let chunks_per_edge = ctx.chunks.expect("MP unit in a region without chunks");
        let flits_total = ctx.flits_total;
        let p_node = ctx.p_node;
        // Flit intake, up to `intake` pops per cycle. Receives into the
        // youngest job until its embedding is complete, then opens a
        // prefetch job from any non-empty queue.
        for _ in 0..ctx.intake {
            let receiving = self.back_mut().filter(|j| j.flits_recv < flits_total);
            match receiving {
                Some(job) => match ctx.queues[job.queue].pop() {
                    Some(flit) => {
                        debug_assert_eq!(flit.node, job.node, "interleaved node flits in queue");
                        job.flits_recv += 1;
                    }
                    None => break,
                },
                None => {
                    if self.job_count() >= Self::MAX_JOBS {
                        break;
                    }
                    let mut started = false;
                    for off in 0..p_node {
                        let nt = (self.rr + off) % p_node;
                        let q = nt * ctx.p_edge + self.index;
                        if let Some(flit) = ctx.queues[q].pop() {
                            self.rr = (nt + 1) % p_node;
                            self.push_back(MpJob {
                                node: flit.node,
                                queue: q,
                                flits_recv: 1,
                                edges: ctx.banked.edges(self.index, flit.node).len(),
                                edge_cursor: 0,
                                chunk: 0,
                            });
                            started = true;
                            break;
                        }
                    }
                    if !started {
                        break;
                    }
                }
            }
        }

        // Processing: one message chunk per cycle on the front job, once
        // the chunk's share of the payload flits has arrived.
        let mut active = false;
        let mut retire = false;
        if let Some(job) = self.jobs[0].as_mut() {
            if job.edge_cursor < job.edges && job.flits_recv >= ctx.flits_needed[job.chunk as usize]
            {
                job.chunk += 1;
                active = true;
                if job.chunk == chunks_per_edge {
                    job.complete_edges(1, self.index, ctx);
                    job.chunk = 0;
                }
            }
            if job.edge_cursor == job.edges && job.flits_recv == flits_total {
                retire = true;
            }
        }
        if retire {
            self.pop_front();
        }
        if active {
            LaneSymbol::Busy
        } else if self.jobs[0].is_none() {
            LaneSymbol::Idle
        } else {
            // A job exists but no chunk advanced: starved for flits.
            LaneSymbol::StallEmpty
        }
    }

    /// This unit's part in a coupled jump (`ScatterCtx`'s
    /// `coupled_jump`): its bound on the window and its role, or `None`
    /// when it has an event this cycle the jump does not model.
    ///
    /// The unit *receives* when it holds two jobs, the back job still
    /// lacks flits and its queue holds ready ones, and the front job holds
    /// all its flits: each cycle it then pops one flit (one pop per cycle
    /// when `P_apply ≤ P_scatter`) and processes one chunk. The bound keeps
    /// the back job short of its last flit, the front job short of its
    /// last chunk (which retires it), and the pops within the flits
    /// already ready. Any other unit takes part only with a positive pure
    /// horizon.
    pub(crate) fn chain_role(&self, ctx: &ScatterCtx<'_>) -> Option<(u64, ChainRole)> {
        if let [Some(front), Some(back)] = &self.jobs {
            let ready = ctx.queues[back.queue].ready_len();
            if back.flits_recv < ctx.flits_total && ready > 0 {
                debug_assert_eq!(
                    front.flits_recv, ctx.flits_total,
                    "a back job opens only once the front job holds every flit"
                );
                let chunks_per_edge = ctx.chunks.expect("MP unit in a region without chunks");
                let bound = ((ctx.flits_total - back.flits_recv - 1) as u64)
                    .min(front.chunks_left(chunks_per_edge).saturating_sub(1))
                    .min(ready as u64);
                return Some((bound, ChainRole::Receive(back.queue)));
            }
        }
        let (horizon, activity) = self.pure_horizon(ctx);
        (horizon > 0).then_some((horizon, ChainRole::Pure(activity)))
    }

    /// Runs `window` receiving cycles of a coupled jump: pops `window`
    /// flits into the back job and advances the front job `window`
    /// chunks, recording its completed edges in order.
    pub(crate) fn receive_for(
        &mut self,
        window: u64,
        ctx: &mut ScatterCtx<'_>,
        stats: &mut RegionStats,
    ) {
        let back = self.jobs[1]
            .as_mut()
            .expect("a receiving unit holds two jobs");
        let queue = &mut ctx.queues[back.queue];
        for _ in 0..window {
            let flit = queue.pop().expect("the window pops only ready flits");
            debug_assert_eq!(flit.node, back.node, "interleaved node flits in queue");
        }
        back.flits_recv += window as usize;
        self.fast_forward(window, LaneSymbol::Busy, ctx, stats);
    }
}

impl<'a> UnitStep<ScatterCtx<'a>> for MpUnit {
    fn step(&mut self, ctx: &mut ScatterCtx<'a>, stats: &mut RegionStats) -> LaneSymbol {
        let activity = self.advance(ctx);
        stats.charge_mp(activity, 1);
        activity
    }

    /// Pure-cycle horizon for this unit (see `NtUnit`'s variant): cycles
    /// where neither intake nor edge completion can occur and only the
    /// front job's chunk counter advances — or a frozen stall/idle.
    fn pure_horizon(&self, ctx: &ScatterCtx<'a>) -> (u64, LaneSymbol) {
        let flits_total = ctx.flits_total;
        let chunks_per_edge = ctx.chunks.expect("MP unit in a region without chunks");
        let owned_nonempty =
            (0..ctx.p_node).any(|nt| !ctx.queues[nt * ctx.p_edge + self.index].is_empty());
        let Some(front) = self.jobs[0].as_ref() else {
            return if owned_nonempty {
                (0, LaneSymbol::Busy) // would open a job this cycle
            } else {
                (HORIZON_INF, LaneSymbol::Idle)
            };
        };
        // Intake: any possible pop this cycle pins the horizon at zero.
        let back = self.back().expect("front exists");
        if back.flits_recv < flits_total {
            if !ctx.queues[back.queue].is_empty() {
                return (0, LaneSymbol::Busy);
            }
        } else if self.job_count() < Self::MAX_JOBS && owned_nonempty {
            return (0, LaneSymbol::Busy);
        }
        // No intake possible (queues are frozen while every unit is pure),
        // so only the front job's chunk counter can move.
        if front.edge_cursor >= front.edges {
            return if front.flits_recv == flits_total {
                (0, LaneSymbol::Busy) // retires the job this cycle
            } else {
                (HORIZON_INF, LaneSymbol::StallEmpty)
            };
        }
        let f = front.flits_recv;
        if f >= flits_total {
            // The whole embedding has arrived: this job deterministically
            // chews through its remaining edges with no queue interaction
            // until the retire cycle. Edge completions inside that span
            // are per-unit deterministic work (each MP bank folds into a
            // disjoint destination set), so `fast_forward` records them in
            // order; only the cycle that completes the *last* edge stays
            // live, because it also retires the job.
            return (front.chunks_left(chunks_per_edge) - 1, LaneSymbol::Busy);
        }
        // Chunk c can advance once `flits_needed[c] <= f`; the table
        // never decreases, so the chunks below `reachable` are exactly
        // those. With f below flits_total the last chunk's share (every
        // flit) has not arrived, so no edge can complete inside this span.
        let reachable = ctx.flits_needed.partition_point(|&need| need <= f) as u64;
        if reachable <= front.chunk {
            (HORIZON_INF, LaneSymbol::StallEmpty)
        } else {
            (reachable - front.chunk, LaneSymbol::Busy)
        }
    }

    fn fast_forward(
        &mut self,
        delta: u64,
        activity: LaneSymbol,
        ctx: &mut ScatterCtx<'a>,
        stats: &mut RegionStats,
    ) {
        if activity == LaneSymbol::Busy {
            if let Some(job) = self.jobs[0].as_mut() {
                let chunks_per_edge = ctx.chunks.expect("MP unit in a region without chunks");
                // Replay the per-cycle recurrence in closed form: `delta`
                // chunk advances, one edge completing per
                // `chunks_per_edge` of them. The horizon guarantees the
                // cursor stays short of the final edge.
                let progress = job.chunk + delta;
                job.chunk = progress % chunks_per_edge;
                let completed = (progress / chunks_per_edge) as usize;
                if completed > 0 {
                    job.complete_edges(completed, self.index, ctx);
                }
            }
        }
        stats.charge_mp(activity, delta);
    }

    fn done(&self, ctx: &ScatterCtx<'a>) -> bool {
        self.is_drained(ctx)
    }
}
