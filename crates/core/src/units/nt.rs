//! Node-transformation (NT) unit for scatter-style regions (paper
//! Sec. III-B, Fig. 3 "NT unit"): a two-stage accumulate/output ping-pong
//! processing `P_apply` embedding elements per cycle, streaming finished
//! embeddings into the multicast adapter flit by flit.

use flowgnn_graph::NodeId;

use crate::trace::LaneSymbol;
use crate::units::adapter::{qindex, ChainRole, Flit, ScatterCtx};
use crate::units::{RegionStats, UnitStep, HORIZON_INF};

/// One NT unit: owns nodes `v ≡ index (mod P_node)`, enumerated
/// arithmetically (`index + j·P_node`) so no per-region node list is ever
/// materialised.
#[derive(Debug)]
pub(crate) struct NtUnit {
    index: usize,
    p_node: usize,
    /// Number of owned nodes.
    count: usize,
    next: usize,
    /// Accumulate stage: `(node, cycles remaining)`; 0 remaining = waiting
    /// to move into the output stage.
    acc: Option<(NodeId, u64)>,
    out: Option<OutJob>,
    /// Flits delivered to each of the current job's target queues
    /// (independent progress per queue — atomic multicast would deadlock:
    /// two MP units each waiting on a different NT's flits can fill the
    /// cross queues). Unit-owned and reused across nodes; the target
    /// banks themselves are the precomputed `BankedEdges::targets` slice.
    pushed: Vec<usize>,
    finished_nodes: usize,
}

#[derive(Debug)]
struct OutJob {
    node: NodeId,
    /// Whether the job multicasts into the adapter (scatter regions) or
    /// only spends output cycles (NT-only regions).
    has_targets: bool,
    /// Embedding elements produced so far (`P_apply` per cycle).
    elems_produced: usize,
}

impl NtUnit {
    pub(crate) fn new(index: usize, n: usize, p_node: usize) -> Self {
        Self {
            index,
            p_node,
            count: if n > index {
                (n - index).div_ceil(p_node)
            } else {
                0
            },
            next: 0,
            acc: None,
            out: None,
            pushed: Vec::new(),
            finished_nodes: 0,
        }
    }

    /// The `j`-th node this unit owns.
    fn node_at(&self, j: usize) -> NodeId {
        (self.index + j * self.p_node) as NodeId
    }

    /// The current job's multicast targets (empty for NT-only jobs).
    fn targets<'b>(job: &OutJob, ctx: &ScatterCtx<'b>) -> &'b [usize] {
        if job.has_targets {
            ctx.banked.targets(job.node)
        } else {
            &[]
        }
    }

    fn is_done(&self) -> bool {
        self.finished_nodes == self.count
    }

    /// Runs one cycle and returns the unit's activity in it.
    fn advance(&mut self, ctx: &mut ScatterCtx<'_>) -> LaneSymbol {
        let mut active = false;
        let mut blocked_output = false;
        let unit = self.index;
        let payload = ctx.payload;

        // OUTPUT stage: stream the current node's embedding, flit by flit.
        // Each target queue makes progress independently; a full queue
        // backpressures only its own copy of the multicast.
        if let Some(job) = &mut self.out {
            let targets = Self::targets(job, ctx);
            if job.elems_produced < payload {
                job.elems_produced = (job.elems_produced + ctx.p_apply).min(payload);
                active = true;
            }
            let flits_avail = if job.elems_produced == payload {
                ctx.flits_total
            } else {
                job.elems_produced / ctx.p_scatter
            };
            let mut all_delivered = true;
            for (pushed, &k) in self.pushed.iter_mut().zip(targets) {
                let q = &mut ctx.queues[qindex(unit, k, ctx.p_edge)];
                let mut budget = ctx.push_budget;
                while *pushed < flits_avail && budget > 0 && q.try_push(Flit { node: job.node }) {
                    *pushed += 1;
                    budget -= 1;
                    active = true;
                }
                if *pushed < ctx.flits_total {
                    all_delivered = false;
                }
            }
            if all_delivered && job.elems_produced == payload {
                self.out = None;
                self.finished_nodes += 1;
            } else if !active {
                // Fully produced but undelivered: downstream backpressure.
                blocked_output = true;
            }
        }

        // ACCUMULATE stage.
        match &mut self.acc {
            Some((v, rem)) => {
                if *rem > 0 {
                    *rem -= 1;
                    active = true;
                }
                if *rem == 0 && self.out.is_some() {
                    // Head-of-line: accumulate finished but the output
                    // stage still holds the previous node.
                    blocked_output = true;
                }
                if *rem == 0 && self.out.is_none() {
                    // The node's γ runs after the region (`ExecState::run_region`).
                    let v = *v;
                    let has_targets = ctx.chunks.is_some();
                    let n_targets = if has_targets {
                        ctx.banked.targets(v).len()
                    } else {
                        0
                    };
                    if n_targets == 0 && has_targets {
                        // No out-edges in any bank: nothing to stream.
                        self.finished_nodes += 1;
                    } else {
                        // NT-only regions stream to no queues: the output
                        // cycles still elapse (embedding-buffer write).
                        self.pushed.clear();
                        self.pushed.resize(n_targets, 0);
                        self.out = Some(OutJob {
                            node: v,
                            has_targets,
                            elems_produced: 0,
                        });
                    }
                    self.acc = None;
                }
            }
            None => {
                if self.next < self.count {
                    let v = self.node_at(self.next);
                    self.next += 1;
                    self.acc = Some((v, ctx.acc.get(v).max(1)));
                    active = true;
                }
            }
        }
        if active {
            LaneSymbol::Busy
        } else if blocked_output {
            LaneSymbol::StallFull
        } else {
            LaneSymbol::Idle
        }
    }

    /// This unit's part in a coupled jump (`ScatterCtx`'s
    /// `coupled_jump`) once every MP unit's role is known: its bound on the
    /// window and its role, or `None` when it has an event this cycle the
    /// jump does not model.
    ///
    /// Every unit needs a positive pure horizon, so this cycle it neither
    /// fetches nor finalises a node nor pushes into a queue with room. A
    /// unit whose job has an undelivered target being popped *refills*:
    /// that job must be fully produced, and when every undelivered target
    /// is popped the window stops one cycle short of the push that
    /// completes delivery and retires the job. Any other unit is pure.
    pub(crate) fn chain_role(
        &self,
        mp_roles: &[ChainRole],
        ctx: &ScatterCtx<'_>,
    ) -> Option<(u64, ChainRole)> {
        let (horizon, activity) = self.pure_horizon(ctx);
        if horizon == 0 {
            return None;
        }
        let Some(job) = &self.out else {
            return Some((horizon, ChainRole::Pure(activity)));
        };
        let (mut refills, mut all_popped, mut most_left) = (false, true, 0);
        for (&pushed, &k) in self.pushed.iter().zip(Self::targets(job, ctx)) {
            if pushed == ctx.flits_total {
                continue;
            }
            if mp_roles[k] == ChainRole::Receive(qindex(self.index, k, ctx.p_edge)) {
                refills = true;
                most_left = most_left.max(ctx.flits_total - pushed);
            } else {
                all_popped = false;
            }
        }
        if !refills {
            return Some((horizon, ChainRole::Pure(activity)));
        }
        if job.elems_produced < ctx.payload {
            return None;
        }
        let bound = if all_popped {
            most_left as u64 - 1
        } else {
            HORIZON_INF
        };
        Some((bound, ChainRole::Refill))
    }

    /// Runs `window` refilling cycles of a coupled jump: each popped,
    /// undelivered target gets one flit per cycle until delivered, and the
    /// accumulate counter keeps counting down. The unit is busy while it
    /// still pushes or counts, and stalled on the full queues after.
    pub(crate) fn refill_for(
        &mut self,
        window: u64,
        mp_roles: &[ChainRole],
        ctx: &mut ScatterCtx<'_>,
        stats: &mut RegionStats,
    ) {
        let job = self
            .out
            .as_ref()
            .expect("a refilling unit holds an output job");
        let mut most_pushed = 0;
        for (pushed, &k) in self.pushed.iter_mut().zip(Self::targets(job, ctx)) {
            let q = qindex(self.index, k, ctx.p_edge);
            if *pushed == ctx.flits_total || mp_roles[k] != ChainRole::Receive(q) {
                continue;
            }
            let refill = (ctx.flits_total - *pushed).min(window as usize);
            for _ in 0..refill {
                ctx.queues[q].push(Flit { node: job.node });
            }
            *pushed += refill;
            most_pushed = most_pushed.max(refill as u64);
        }
        let counted = self.acc.as_mut().map_or(0, |(_, rem)| {
            let counted = (*rem).min(window);
            *rem -= counted;
            counted
        });
        let busy = most_pushed.max(counted);
        stats.charge_nt(LaneSymbol::Busy, busy);
        stats.charge_nt(LaneSymbol::StallFull, window - busy);
    }
}

impl<'a> UnitStep<ScatterCtx<'a>> for NtUnit {
    fn step(&mut self, ctx: &mut ScatterCtx<'a>, stats: &mut RegionStats) -> LaneSymbol {
        let activity = self.advance(ctx);
        stats.charge_nt(activity, 1);
        activity
    }

    /// How many upcoming cycles this unit is guaranteed to spend purely
    /// counting (accumulate countdown, backpressured or target-less
    /// element production) or holding a constant stall/idle state,
    /// assuming no queue changes — plus its activity in those cycles. Any cycle that could push a flit, finalise a node, retire
    /// an output job, or fetch the next node pins the horizon at zero so
    /// `step` executes it exactly.
    fn pure_horizon(&self, ctx: &ScatterCtx<'a>) -> (u64, LaneSymbol) {
        let Some(job) = &self.out else {
            return match &self.acc {
                Some((_, rem)) => (rem.saturating_sub(1), LaneSymbol::Busy),
                None if self.next < self.count => (0, LaneSymbol::Busy),
                None => (HORIZON_INF, LaneSymbol::Idle),
            };
        };
        // A push happens whenever some undelivered target queue has room
        // (for a no-target NT-only job, `all` is vacuously true).
        let targets = Self::targets(job, ctx);
        let blocked = self.pushed.iter().zip(targets).all(|(&pushed, &k)| {
            pushed >= ctx.flits_total || ctx.queues[qindex(self.index, k, ctx.p_edge)].is_full()
        });
        if !blocked {
            return (0, LaneSymbol::Busy);
        }
        if job.elems_produced < ctx.payload {
            // Producing into a backpressured (or target-less) output: pure
            // Busy until the cycle on which production completes, which
            // can retire the job. The accumulate counter runs alongside
            // and sits at zero if it finishes first — no constraint.
            if self.acc.is_none() && self.next < self.count {
                return (0, LaneSymbol::Busy); // fetches a node this cycle
            }
            let remaining_elems = (ctx.payload - job.elems_produced) as u64;
            return (
                remaining_elems.div_ceil(ctx.p_apply as u64) - 1,
                LaneSymbol::Busy,
            );
        }
        // Fully produced, all undelivered targets backpressured: only the
        // accumulate counter moves.
        match &self.acc {
            Some((_, rem)) if *rem >= 1 => (*rem, LaneSymbol::Busy),
            Some(_) => (HORIZON_INF, LaneSymbol::StallFull),
            None if self.next < self.count => (0, LaneSymbol::Busy),
            None => (HORIZON_INF, LaneSymbol::StallFull),
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
            if let Some(job) = &mut self.out {
                if job.elems_produced < ctx.payload {
                    // Horizon guarantees this stays strictly below
                    // payload, so the retire cycle remains live.
                    job.elems_produced += delta as usize * ctx.p_apply;
                }
            }
            if let Some((_, rem)) = &mut self.acc {
                *rem = rem.saturating_sub(delta);
            }
        }
        stats.charge_nt(activity, delta);
    }

    fn done(&self, _ctx: &ScatterCtx<'a>) -> bool {
        self.is_done()
    }
}
