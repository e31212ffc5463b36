//! Region scheduler: the single per-cycle loop (with event-horizon
//! fast-forward) that drives every dataflow region, plus the one analytic
//! Fig. 4(a)/(b) schedule (non-pipelined and lockstep) that every region
//! shape runs under the two baseline strategies.
//!
//! All four pipeline strategies and both engine modes funnel through this
//! module, and [`Accelerator::simulate_region`] picks a region's schedule
//! in one place from the strategy and the region's [`Shape`]. The
//! cycle-stepped strategies build the unit vectors from
//! `crate::units` and hand them to [`run_dataflow`], which owns the
//! per-cycle loop, the fast-forward scan, and the trace emission — so the
//! reference mode, the fast-forward mode, and the tracer all execute the
//! same unit code. When the scan finds a unit with an event this cycle,
//! the loop offers the region's coupled jump
//! (`DataflowCtx::coupled_jump`), which scatter regions implement next to
//! their context in `crate::units::adapter`. The loop counts the cycles it
//! stepped and the cycles it jumped in the region's `RegionStats`.
//!
//! This module also owns what a region's timing depends on. The
//! accelerator compiles each region once into a [`RegionTiming`] (shape,
//! uniform NT accumulate cycles, payload, output cycles, flits, MP chunks
//! per edge and the per-chunk flit table), and that value is the only
//! description of a region any schedule receives. The twin map compares
//! these values: it names for each region the first earlier region that
//! steps through the same cycles on any graph, and the engine uses it to
//! fast-forward whole regions in untraced fast-forward runs (DESIGN.md
//! §3b).
//!
//! No schedule here runs arithmetic: a scatter region's schedule appends
//! the edges it completes to the region's fold order (the MP units in the
//! dataflows, the source-major walk under the baseline strategies), and
//! the engine runs the region's arithmetic afterwards
//! (`ExecState::run_region`).

use flowgnn_desim::Cycle;
use flowgnn_graph::{Adjacency, Graph, NodeId};
use flowgnn_models::GnnModel;

use crate::config::{ArchConfig, EngineMode, GatherBanking, PipelineStrategy};
use crate::engine::{Accelerator, PreparedGraph};
use crate::exec::ExecState;
use crate::regions::{BankedEdges, NtOp, Region};
use crate::trace::{LaneSymbol, RegionTrace, Trace};
use crate::units::adapter::ScatterCtx;
use crate::units::gather::{GatherCtx, GatherMp, GatherNt};
use crate::units::mp::MpUnit;
use crate::units::nt::NtUnit;
use crate::units::{AccCost, DataflowCtx, RegionStats, UnitStep, FF_BACKOFF_MAX, HORIZON_INF};

/// Which units a region deploys. It picks the region's schedule, orders
/// its trace lanes (NT lanes first), names the units in its runaway
/// diagnostics and is part of its [`RegionTiming`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// NT units feeding MP units through the adapter (the dataflow steps
    /// MP units in front of NT units).
    Scatter,
    /// NT units only.
    NtOnly,
    /// MP units feeding NT units with aggregate tokens (the dataflow
    /// steps NT units in front of MP units).
    Gather,
}

/// One region's timing, compiled once per accelerator: every per-region
/// value its schedules read besides the graph (the [`ArchConfig`] is
/// fixed per accelerator). Two regions with equal timings step through
/// the same cycles on any graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RegionTiming {
    shape: Shape,
    /// Uniform NT accumulate cycles per node (the initiation interval; the
    /// pipeline fill `NT_PIPELINE_DEPTH` is charged once per region by the
    /// caller, as an II=1 hardware pipeline amortises it). `None` marks
    /// Encode, whose cost is per node: the input-stationary accumulate
    /// skips zero inputs, which is what makes sparse bag-of-words features
    /// (Cora at 1.27% density) cheap — the same property AWB-GCN's
    /// zero-skipping SpMM exploits.
    acc: Option<u64>,
    /// NT output (payload) dimension.
    payload: usize,
    /// NT output cycles per node.
    out: u64,
    /// Flits per node embedding through the adapter.
    flits: usize,
    /// MP cycles per edge (`None` in NT-only regions).
    chunks: Option<u64>,
    /// Per chunk `c` of an edge split into `chunks`, the flits that must
    /// have arrived before it advances: every flit under node granularity
    /// (BaselineDataflow), else the proportional share
    /// `⌈(c+1)·flits / chunks⌉`. Empty in NT-only regions.
    flits_needed: Vec<usize>,
}

impl RegionTiming {
    /// Compiles `region` of `model` on `config`.
    pub(crate) fn new(region: &Region, model: &GnnModel, config: &ArchConfig) -> Self {
        let (p_apply, p_scatter) = (config.p_apply, config.p_scatter);
        let acc = (region.nt_op != NtOp::Encode).then(|| {
            let compute: usize = if region.nt_fc.is_empty() {
                region.nt_read_dim.div_ceil(p_apply)
            } else {
                region.nt_fc.iter().map(|&(i, _)| i.div_ceil(p_apply)).sum()
            };
            compute.max(1) as u64
        });
        let flits = region.payload_dim.div_ceil(p_scatter);
        let layer = region.scatter_layer.or(region.gather_layer);
        let chunks = layer.map_or(0, |l| model.layers()[l].message_dim().div_ceil(p_scatter));
        let node_granularity = config.strategy == PipelineStrategy::BaselineDataflow;
        let flits_needed = (1..=chunks)
            .map(|c| {
                if node_granularity {
                    flits
                } else {
                    (c * flits).div_ceil(chunks)
                }
            })
            .collect();
        Self {
            shape: match (region.scatter_layer, region.gather_layer) {
                (Some(_), _) => Shape::Scatter,
                (None, Some(_)) => Shape::Gather,
                (None, None) => Shape::NtOnly,
            },
            acc,
            payload: region.payload_dim,
            out: region.payload_dim.div_ceil(p_apply) as u64,
            flits,
            chunks: layer.map(|_| chunks as u64),
            flits_needed,
        }
    }

    /// A gather region's MP cycles per edge and NT accumulate cycles per
    /// node.
    fn gather(&self) -> (u64, u64) {
        self.chunks
            .zip(self.acc)
            .expect("a gather region has MP chunks and is never Encode")
    }
}

/// The twin map of a model's compiled regions: entry `i` names the first
/// earlier region with the same [`RegionTiming`], or is `None` when
/// region `i` is the first of its timing or is Encode, whose cost depends
/// on the graph. The named region is never a twin itself, so a run
/// always simulates it first.
pub(crate) fn twin_map(timings: &[RegionTiming]) -> Vec<Option<usize>> {
    timings
        .iter()
        .enumerate()
        .map(|(i, t)| t.acc.and_then(|_| timings[..i].iter().position(|s| s == t)))
        .collect()
}

/// The per-cycle loop shared by every cycle-stepped region.
///
/// `front` units step before `back` units each cycle (consumers step
/// first so they pop flits committed on the previous cycle). The
/// fast-forward scan also runs front-then-back, early-exiting as soon as
/// any unit's horizon pins the cycle at zero (see DESIGN.md,
/// "fast-forward invariant"); the region's coupled jump then gets its
/// chance.
fn run_dataflow<C: DataflowCtx>(
    front: &mut [C::Front],
    back: &mut [C::Back],
    ctx: &mut C,
    mut trace: Option<&mut RegionTrace>,
    max_cycles: Cycle,
    fast_forward: bool,
    shape: Shape,
) -> RegionStats {
    let mut cycle: Cycle = 0;
    let mut stats = RegionStats::default();
    let mut front_syms: Vec<LaneSymbol> = Vec::new();
    let mut back_syms: Vec<LaneSymbol> = Vec::new();
    let mut front_hz: Vec<(u64, LaneSymbol)> = Vec::with_capacity(front.len());
    let mut back_hz: Vec<(u64, LaneSymbol)> = Vec::with_capacity(back.len());
    let (mut ff_skip, mut ff_penalty) = (0u64, 0u64);
    loop {
        // Event-horizon fast-forward: when every unit's next event (queue
        // push/pop, node finalise, job transition) is provably at least
        // `delta` cycles away, advance all counters, meters, and per-unit
        // deterministic work by `delta` at once; the first cycle on which
        // anything cross-unit *can* happen still runs through the
        // unmodified per-cycle code below, so the engine stays
        // cycle-exact.
        if fast_forward && ff_skip == 0 {
            front_hz.clear();
            back_hz.clear();
            // Scanning costs one pass over the units; when any unit
            // already has an event this cycle (horizon 0) the scan is
            // wasted, so bail out early and back off exponentially —
            // skipping attempts never affects exactness, it only trades
            // scan overhead against missed spans.
            let mut delta = HORIZON_INF;
            for u in front.iter() {
                let hz = u.pure_horizon(ctx);
                delta = delta.min(hz.0);
                if delta == 0 {
                    break;
                }
                front_hz.push(hz);
            }
            if delta > 0 {
                for u in back.iter() {
                    let hz = u.pure_horizon(ctx);
                    delta = delta.min(hz.0);
                    if delta == 0 {
                        break;
                    }
                    back_hz.push(hz);
                }
            }
            // Never jump past the runaway tripwire: a deadlocked (all-
            // infinite) region lands just below the limit, then the
            // per-cycle step trips the same panic the reference engine
            // would reach.
            let cap = (max_cycles - 1).saturating_sub(cycle);
            delta = delta.min(cap);
            if delta == 0 {
                // No unit is pure: try the saturated producer–queue–
                // consumer chain instead (DESIGN.md §3b, "coupled jump").
                let jumped = ctx.coupled_jump(front, back, cap, &mut stats);
                if jumped == 0 {
                    ff_penalty = (ff_penalty * 2).clamp(1, FF_BACKOFF_MAX);
                    ff_skip = ff_penalty;
                } else {
                    ff_penalty = 0;
                    cycle += jumped;
                    stats.skipped += jumped;
                }
            } else {
                ff_penalty = 0;
                for (u, &(_, activity)) in front.iter_mut().zip(&front_hz) {
                    u.fast_forward(delta, activity, ctx, &mut stats);
                }
                for (u, &(_, activity)) in back.iter_mut().zip(&back_hz) {
                    u.fast_forward(delta, activity, ctx, &mut stats);
                }
                cycle += delta;
                stats.skipped += delta;
            }
        } else {
            ff_skip = ff_skip.saturating_sub(1);
        }

        let mut all_idle = true;
        front_syms.clear();
        back_syms.clear();
        let tracing = trace.is_some();
        for u in front.iter_mut() {
            let sym = u.step(ctx, &mut stats);
            if !(sym == LaneSymbol::Idle && u.done(ctx)) {
                all_idle = false;
            }
            if tracing {
                front_syms.push(sym);
            }
        }
        for u in back.iter_mut() {
            let sym = u.step(ctx, &mut stats);
            if !(sym == LaneSymbol::Idle && u.done(ctx)) {
                all_idle = false;
            }
            if tracing {
                back_syms.push(sym);
            }
        }
        if let Some(rt) = trace.as_deref_mut() {
            // NT lanes render first: gather NTs are the front units, the
            // others the back units.
            let (nt_syms, mp_syms) = if shape == Shape::Gather {
                (&mut front_syms, &back_syms)
            } else {
                (&mut back_syms, &front_syms)
            };
            nt_syms.extend_from_slice(mp_syms);
            rt.push_cycle(nt_syms);
        }

        ctx.commit_queues();
        cycle += 1;

        let front_done = front.iter().all(|u| u.done(ctx));
        let back_done = back.iter().all(|u| u.done(ctx));
        if front_done && back_done && ctx.queues_empty() {
            break;
        }
        if cycle >= max_cycles {
            // Gather regions step their NT units in front.
            let (front_name, back_name) = if shape == Shape::Gather {
                ("NT", "MP")
            } else {
                ("MP", "NT")
            };
            for (i, u) in front.iter().enumerate() {
                eprintln!("{front_name}{i}: {u:?}");
            }
            for (i, u) in back.iter().enumerate() {
                eprintln!("{back_name}{i}: {u:?}");
            }
            ctx.dump_queues();
            panic!("simulation exceeded {max_cycles} cycles — deadlock? (idle={all_idle})");
        }
    }
    stats.cycles = cycle;
    stats.stepped = cycle - stats.skipped;
    stats
}

/// Fig. 4(a)/(b): the non-pipelined and lockstep schedules of a region of
/// `n` nodes, for every region shape. Node `v` takes `first(v)` cycles on
/// one unit and then `second(v)` on the other: NT then MP in scatter
/// regions (an NT-only region's second phase is empty), MP then NT in
/// gather regions. The non-pipelined schedule runs every first phase,
/// then every second phase. The lockstep schedule runs
/// `first(v) ∥ second(v − 1)` in step `v`, each step lasting the longer
/// of the two, and then the last second phase. Returns the cycles and the
/// busy meters; the schedule is analytic, so a traced run's lanes are
/// synthesised from it.
fn baseline_schedule(
    n: usize,
    first: impl Fn(NodeId) -> u64,
    second: impl Fn(NodeId) -> u64,
    lockstep: bool,
    shape: Shape,
    mut trace: Option<&mut RegionTrace>,
) -> RegionStats {
    let mut stats = RegionStats::default();
    // NT lane first; an NT-only region has no MP lane.
    let width = if shape == Shape::NtOnly { 1 } else { 2 };
    let symbol = |busy| {
        if busy {
            LaneSymbol::Busy
        } else {
            LaneSymbol::Idle
        }
    };
    // One step: the first phase's unit busy for `a` cycles beside the
    // second phase's unit busy for `b`.
    let mut step = |a: u64, b: u64| {
        let (nt, mp) = if shape == Shape::Gather {
            (b, a)
        } else {
            (a, b)
        };
        stats.cycles += nt.max(mp);
        stats.charge_nt(LaneSymbol::Busy, nt);
        stats.charge_mp(LaneSymbol::Busy, mp);
        if let Some(rt) = trace.as_deref_mut() {
            for c in 0..nt.max(mp) {
                rt.push_cycle(&[symbol(c < nt), symbol(c < mp)][..width]);
            }
        }
    };
    let nodes = 0..n as NodeId;
    if lockstep {
        let mut carried = 0;
        for v in nodes {
            step(first(v), carried);
            carried = second(v);
        }
        step(0, carried);
    } else {
        nodes.clone().for_each(|v| step(first(v), 0));
        nodes.for_each(|v| step(0, second(v)));
    }
    stats
}

/// Human-readable label for a pipeline region (used by traces).
fn region_label(region: &Region) -> String {
    let nt = match region.nt_op {
        NtOp::Encode => "encode".to_string(),
        NtOp::Gamma(l) => format!("gamma(L{l})"),
        NtOp::Project(l) => format!("project(L{l})"),
        NtOp::Normalize(l) => format!("normalize(L{l})"),
    };
    match (region.scatter_layer, region.gather_layer) {
        (Some(s), _) => format!("{nt} + scatter(L{s})"),
        (_, Some(gl)) => format!("gather(L{gl}) + {nt}"),
        _ => nt,
    }
}

impl Accelerator {
    /// NT accumulate cycles per node in a region on `g`: uniform, or per
    /// node on the *nonzero* feature count in Encode regions.
    fn acc_cycles(&self, t: &RegionTiming, g: &Graph) -> AccCost {
        if let Some(c) = t.acc {
            return AccCost::Uniform(c);
        }
        let pa = self.config().p_apply as u64;
        let feats = g.node_features();
        let per_node: Vec<u64> = (0..g.num_nodes())
            .map(|v| (feats.row_nnz(v) as u64).max(1).div_ceil(pa))
            .collect();
        AccCost::PerNode(per_node)
    }

    /// Generous upper bound on region cycles, used as a deadlock tripwire.
    fn runaway_limit(&self, g: &Graph) -> Cycle {
        let n = g.num_nodes() as u64 + 1;
        let e = g.num_edges() as u64 + 1;
        let dim = self
            .regions()
            .iter()
            .map(|r| r.nt_read_dim.max(r.payload_dim))
            .max()
            .unwrap_or(1) as u64
            + 1;
        1_000 + 64 * (n + e) * dim
    }

    /// Simulates one region of a run on `prepared`, appending its lanes to
    /// `trace` when the run is traced; `region` names the lanes, and
    /// `timing` is all the schedule reads of the region. The one place a
    /// region's schedule is chosen: the baseline strategies run
    /// [`baseline_schedule`] on every shape; the dataflow strategies step
    /// scatter and NT-only regions through
    /// [`Accelerator::scatter_dataflow`] and gather regions through
    /// [`Accelerator::gather_dataflow`], or the analytic source-banked
    /// gather.
    pub(crate) fn simulate_region(
        &self,
        region: &Region,
        timing: &RegionTiming,
        prepared: &PreparedGraph<'_>,
        exec: &mut ExecState<'_>,
        trace: Option<&mut Trace>,
    ) -> RegionStats {
        use PipelineStrategy::{FixedPipeline, NonPipelined};
        let (g, banked) = (prepared.graph(), &prepared.banked);
        let shape = timing.shape;
        let mut region_trace = trace.as_ref().map(|_| {
            let p_node = self.config().effective_p_node();
            let p_edge = self.config().effective_p_edge();
            let mut names: Vec<String> = (0..p_node).map(|i| format!("NT{i}")).collect();
            if shape != Shape::NtOnly {
                names.extend((0..p_edge).map(|k| format!("MP{k}")));
            }
            RegionTrace::new(region_label(region), names)
        });
        let rt = region_trace.as_mut();
        let csc = || prepared.csc.as_ref().expect("gather models build a CSC");
        let strategy = self.config().strategy;
        let lockstep = strategy == FixedPipeline;
        let stats = match (strategy, shape, self.config().gather_banking) {
            (NonPipelined | FixedPipeline, Shape::Gather, _) => {
                self.gather_sequential(timing, g, csc(), lockstep, rt)
            }
            (NonPipelined | FixedPipeline, _, _) => {
                self.scatter_sequential(timing, g, banked, exec, lockstep, rt)
            }
            (_, Shape::Gather, GatherBanking::Destination) => {
                self.gather_dataflow(timing, g, csc(), exec, rt)
            }
            (_, Shape::Gather, GatherBanking::Source) => self.gather_source_banked(timing, g, rt),
            (_, Shape::Scatter | Shape::NtOnly, _) => {
                self.scatter_dataflow(timing, g, banked, exec, rt)
            }
        };
        if let (Some(trace), Some(rt)) = (trace, region_trace) {
            trace.regions.push(rt);
        }
        stats
    }

    // ----- scatter-style regions (NT→MP and NT-only) --------------------

    /// Fig. 4(a)/(b) on a scatter or NT-only region: node `v`'s NT phase,
    /// then its MP phase over its out-edges in every bank. Both schedules
    /// record the same fold order.
    fn scatter_sequential(
        &self,
        t: &RegionTiming,
        g: &Graph,
        banked: &BankedEdges,
        exec: &mut ExecState<'_>,
        lockstep: bool,
        trace: Option<&mut RegionTrace>,
    ) -> RegionStats {
        let acc = self.acc_cycles(t, g);

        // Fold order: source by source, bank by bank.
        if let (Some(order), Some(_)) = (exec.fold_order(), t.chunks) {
            for v in 0..g.num_nodes() as NodeId {
                for k in 0..banked.p_edge() {
                    order.extend_from_slice(banked.edges(k, v));
                }
            }
        }

        let mp_time = |v: NodeId| {
            let edges: usize = (0..banked.p_edge()).map(|k| banked.edges(k, v).len()).sum();
            match t.chunks {
                Some(c) if edges > 0 => edges as u64 * c + 1,
                _ => 0,
            }
        };
        baseline_schedule(
            g.num_nodes(),
            |v| acc.get(v) + t.out,
            mp_time,
            lockstep,
            t.shape,
            trace,
        )
    }

    /// Fig. 4(c)/(d): the queue-decoupled dataflow, cycle-stepped through
    /// [`run_dataflow`] over [`NtUnit`]/[`MpUnit`] sharing a
    /// [`ScatterCtx`].
    fn scatter_dataflow(
        &self,
        t: &RegionTiming,
        g: &Graph,
        banked: &BankedEdges,
        exec: &mut ExecState<'_>,
        trace: Option<&mut RegionTrace>,
    ) -> RegionStats {
        let n = g.num_nodes();
        let p_node = self.config().effective_p_node();
        let p_edge = self.config().effective_p_edge();
        let (p_apply, p_scatter) = (self.config().p_apply, self.config().p_scatter);
        // One queue per (NT, MP) pair, borrowed from the scratch so the
        // ring allocations persist across regions and runs.
        let (queues, order) = exec.scatter_queues(p_node * p_edge, self.config().queue_capacity);
        let mut ctx = ScatterCtx {
            queues,
            p_node,
            p_edge,
            intake: (p_apply / p_scatter).max(1),
            push_budget: p_apply.div_ceil(p_scatter),
            flits_total: t.flits,
            chunks: t.chunks,
            flits_needed: &t.flits_needed,
            p_apply,
            p_scatter,
            payload: t.payload,
            acc: self.acc_cycles(t, g),
            banked,
            order,
            roles: Vec::with_capacity(p_node + p_edge),
        };
        let mut nts: Vec<NtUnit> = (0..p_node).map(|i| NtUnit::new(i, n, p_node)).collect();
        // NT-only regions deploy no MP units (nothing ever stepped them).
        let mut mps: Vec<MpUnit> = if t.chunks.is_some() {
            (0..p_edge).map(MpUnit::new).collect()
        } else {
            Vec::new()
        };
        let fast_forward = self.config().engine == EngineMode::FastForward && trace.is_none();
        run_dataflow(
            &mut mps,
            &mut nts,
            &mut ctx,
            trace,
            self.runaway_limit(g),
            fast_forward,
            t.shape,
        )
    }

    // ----- gather-style regions (MP→NT models) ---------------------------

    /// The paper's source-banked gather (Sec. III-D2): MP unit *k* owns
    /// sources `s ≡ k (mod P_edge)` and accumulates *partial* aggregates
    /// per destination. Destinations' aggregates are only final once every
    /// unit has drained its edges, so the node transformations run after a
    /// barrier. Timing: `max_k(unit k edge work) + NT phase`. The
    /// arithmetic is destination banking's: every gather region folds each
    /// destination's in-edges in CSC order (`ExecState::run_region`). The
    /// schedule is analytic, so a traced run's lanes are synthesised from
    /// it, and the meters are charged from the same activity.
    fn gather_source_banked(
        &self,
        t: &RegionTiming,
        g: &Graph,
        trace: Option<&mut RegionTrace>,
    ) -> RegionStats {
        use LaneSymbol::{Busy, Idle, StallEmpty};
        let n = g.num_nodes();
        let p_edge = self.config().effective_p_edge();
        let p_node = self.config().effective_p_node();
        let (chunks, acc) = t.gather();
        let out = t.out;

        // Timing: per-unit edge work by *source* bank; the slowest unit
        // sets the MP phase (plus one header cycle per owned source).
        let out_deg = g.out_degrees();
        let mut unit_work = vec![0u64; p_edge];
        for s in 0..n {
            unit_work[s % p_edge] += out_deg[s] as u64 * chunks + 1;
        }
        let mp_phase = unit_work.iter().copied().max().unwrap_or(0);

        // NT phase after the merge barrier: nodes distributed over P_node
        // units, II = max(acc, out) with ping-pong, plus one fill.
        let nt_ii = acc.max(out).max(1);
        let nt_phase = (n as u64).div_ceil(p_node as u64) * nt_ii + acc + out;
        let cycles = mp_phase + nt_phase;

        // Each unit's activity as consecutive runs, charged to its meters
        // and appended to its lane (NT lanes first).
        let mut stats = RegionStats {
            cycles,
            ..Default::default()
        };
        let mut lanes = trace.map(|rt| rt.lanes.iter_mut());
        let mut unit = |charge: fn(&mut RegionStats, LaneSymbol, u64),
                        runs: &[(LaneSymbol, u64)]| {
            let mut lane = lanes.as_mut().and_then(Iterator::next);
            for &(activity, len) in runs {
                charge(&mut stats, activity, len);
                if let Some(lane) = &mut lane {
                    lane.resize(lane.len() + len as usize, activity);
                }
            }
        };
        for j in 0..p_node {
            // NT unit j owns nodes j, j + P_node, …: it waits at the
            // barrier through the MP phase, then finalises them. A unit
            // that owns none idles throughout.
            let owned = n.saturating_sub(j).div_ceil(p_node) as u64;
            let (wait, busy) = match owned {
                0 => (0, 0),
                _ => (mp_phase, owned * nt_ii + acc + out),
            };
            let idle = cycles - wait - busy;
            unit(
                RegionStats::charge_nt,
                &[(StallEmpty, wait), (Busy, busy), (Idle, idle)],
            );
        }
        for &work in &unit_work {
            // MP unit k drains its bank, then idles to the region's end.
            unit(
                RegionStats::charge_mp,
                &[(Busy, work), (Idle, cycles - work)],
            );
        }
        stats
    }

    /// Fig. 4(a)/(b) on a gather region: node `v`'s MP phase over its
    /// in-edges, then its NT phase.
    fn gather_sequential(
        &self,
        t: &RegionTiming,
        g: &Graph,
        csc: &Adjacency,
        lockstep: bool,
        trace: Option<&mut RegionTrace>,
    ) -> RegionStats {
        let (chunks, acc) = t.gather();
        baseline_schedule(
            g.num_nodes(),
            |v| csc.degree(v) as u64 * chunks + 1,
            |_| acc + t.out,
            lockstep,
            Shape::Gather,
            trace,
        )
    }

    /// Gather dataflow: MP units (destination-banked) produce whole-node
    /// aggregates into queues; NT units consume and finalise — both
    /// cycle-stepped through [`run_dataflow`] over
    /// [`GatherNt`]/[`GatherMp`] sharing a [`GatherCtx`].
    fn gather_dataflow(
        &self,
        t: &RegionTiming,
        g: &Graph,
        csc: &Adjacency,
        exec: &mut ExecState<'_>,
        trace: Option<&mut RegionTrace>,
    ) -> RegionStats {
        let n = g.num_nodes();
        let p_node = self.config().effective_p_node();
        let p_edge = self.config().effective_p_edge();
        let (chunks, acc) = t.gather();
        let mut ctx = GatherCtx {
            queues: exec.gather_queues(p_edge * p_node, self.config().queue_capacity),
            p_node,
            p_edge,
            chunks,
            nt_time: acc + t.out,
            csc,
        };
        let mut nts: Vec<GatherNt> = (0..p_node).map(|i| GatherNt::new(i, n, p_node)).collect();
        let mut mps: Vec<GatherMp> = (0..p_edge).map(|k| GatherMp::new(k, n, p_edge)).collect();
        let fast_forward = self.config().engine == EngineMode::FastForward && trace.is_none();
        run_dataflow(
            &mut nts,
            &mut mps,
            &mut ctx,
            trace,
            self.runaway_limit(g),
            fast_forward,
            Shape::Gather,
        )
    }
}
