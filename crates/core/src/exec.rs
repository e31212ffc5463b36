//! Shared functional execution state.
//!
//! Every simulation schedule — the sequential/lockstep baselines, the
//! cycle-stepped dataflows, and the fast-forward replays — performs the
//! model's arithmetic through one [`ExecState`], and none of them does it
//! while it steps cycles. Functionally, the only thing the dataflow
//! decides is the order in which each destination's aggregator receives
//! its messages, so a scatter region's schedule only records the edge ids
//! in the order its MP units complete them ([`ExecState::record_edges`]).
//! Once the region's stats are known, stepped or copied from a twin,
//! [`ExecState::run_region`] runs its arithmetic in one pass: γ for every
//! node (after that node's gather, in gather regions), then φ and the fold
//! over the recorded order. [`ExecState::advance_region`] then swaps the
//! buffers. Centralising the arithmetic here is what guarantees that every
//! strategy, engine mode, and unit schedule computes the *same* function;
//! only the timing and the recorded fold order differ.

use flowgnn_desim::Fifo;
use flowgnn_graph::{Adjacency, FeatureArena, Graph, NodeId};
use flowgnn_models::{
    AggState, AggregatorKind, GnnLayer, GnnModel, GraphContext, MessageCtx, NodeCtx, NtScratch,
};

use crate::regions::{NtOp, Region};
use crate::units::adapter::Flit;

/// Reusable simulation buffers, carried across regions and across graphs
/// in a stream so the per-run allocation cost is amortised away.
///
/// A fresh default `SimScratch` is always valid; reusing one across runs
/// (of any graph, any accelerator) is equally valid — every run fully
/// re-initialises the state it reads.
#[derive(Debug, Default)]
pub struct SimScratch {
    x_cur: FeatureArena,
    x_next: FeatureArena,
    prev_states: Vec<Option<AggState>>,
    next_states: Vec<Option<AggState>>,
    msg_buf: Vec<f32>,
    out_buf: Vec<f32>,
    m_buf: Vec<f32>,
    raw_buf: Vec<f32>,
    phi_scratch: Vec<f32>,
    nt_scratch: NtScratch,
    /// The scatter adapter's queue grid, reused across regions and runs
    /// (ring buffers keep their backing stores through `reset`).
    scatter_queues: Vec<Fifo<Flit>>,
    /// The gather path's aggregate-token queue grid.
    gather_queues: Vec<Fifo<NodeId>>,
    /// Retired aggregation states, reused via `AggregatorKind::reinit`
    /// so the per-node hot path never allocates fresh accumulators.
    state_pool: Vec<AggState>,
    /// Per region, the fold order its schedule recorded (functional runs).
    orders: Vec<Vec<u32>>,
}

/// Reshapes a reusable queue grid: keeps the ring allocations when the
/// capacity matches, rebuilds them when it doesn't, and resets every
/// retained queue to empty.
fn prepare_queue_grid<T: Default>(queues: &mut Vec<Fifo<T>>, count: usize, capacity: usize) {
    if queues.first().is_some_and(|q| q.capacity() != capacity) {
        queues.clear();
    }
    queues.truncate(count);
    for q in queues.iter_mut() {
        q.reset();
    }
    queues.resize_with(count, || Fifo::new(capacity));
}

/// The functional execution state of one run: embeddings, aggregation
/// states, and scratch buffers, advanced region by region.
pub(crate) struct ExecState<'a> {
    graph: &'a Graph,
    ctx: &'a GraphContext,
    /// Raw input features packed into a lane-padded arena by
    /// [`crate::Accelerator::prepare`] (functional runs only); when absent,
    /// γ materialises rows on demand via `raw_buf`.
    feats: Option<&'a FeatureArena>,
    functional: bool,
    /// Embeddings at region start.
    pub(crate) x_cur: FeatureArena,
    /// Embeddings produced by this region's NT.
    x_next: FeatureArena,
    /// Aggregation states written by the previous region's MP (read by
    /// this region's γ).
    prev_states: Vec<Option<AggState>>,
    /// Aggregation states being written by this region's MP.
    next_states: Vec<Option<AggState>>,
    /// Scratch buffers.
    msg_buf: Vec<f32>,
    out_buf: Vec<f32>,
    m_buf: Vec<f32>,
    raw_buf: Vec<f32>,
    phi_scratch: Vec<f32>,
    nt_scratch: NtScratch,
    /// Queue grids parked here between regions (the region scheduler
    /// borrows them for the duration of one dataflow region).
    scatter_queues: Vec<Fifo<Flit>>,
    gather_queues: Vec<Fifo<NodeId>>,
    /// Retired aggregation states awaiting reuse (see `fresh_state`).
    state_pool: Vec<AggState>,
    /// Per region, the edge ids in the order its MP units completed them
    /// (functional runs only); a copied twin folds over its source's.
    orders: Vec<Vec<u32>>,
    /// The region whose schedule is recording into `orders`.
    region: usize,
}

impl<'a> ExecState<'a> {
    pub(crate) fn new(
        graph: &'a Graph,
        ctx: &'a GraphContext,
        feats: Option<&'a FeatureArena>,
        functional: bool,
        scratch: &mut SimScratch,
    ) -> Self {
        let n = graph.num_nodes();
        let mut x_cur = std::mem::take(&mut scratch.x_cur);
        let mut x_next = std::mem::take(&mut scratch.x_next);
        // Region dims are installed by `begin_region`; starting at dim 0
        // keeps timing-only runs free of feature-slab traffic.
        x_cur.reset(n, 0);
        x_next.reset(n, 0);
        let mut prev_states = std::mem::take(&mut scratch.prev_states);
        let mut next_states = std::mem::take(&mut scratch.next_states);
        for buf in [&mut prev_states, &mut next_states] {
            buf.clear();
            buf.resize(n, None);
        }
        Self {
            graph,
            ctx,
            feats,
            functional,
            x_cur,
            x_next,
            prev_states,
            next_states,
            msg_buf: std::mem::take(&mut scratch.msg_buf),
            out_buf: std::mem::take(&mut scratch.out_buf),
            m_buf: std::mem::take(&mut scratch.m_buf),
            raw_buf: std::mem::take(&mut scratch.raw_buf),
            phi_scratch: std::mem::take(&mut scratch.phi_scratch),
            nt_scratch: std::mem::take(&mut scratch.nt_scratch),
            scatter_queues: std::mem::take(&mut scratch.scatter_queues),
            gather_queues: std::mem::take(&mut scratch.gather_queues),
            state_pool: std::mem::take(&mut scratch.state_pool),
            orders: std::mem::take(&mut scratch.orders),
            region: 0,
        }
    }

    /// Hands the buffers back to `scratch` so the next run reuses them.
    pub(crate) fn finish(self, scratch: &mut SimScratch) {
        scratch.x_cur = self.x_cur;
        scratch.x_next = self.x_next;
        scratch.prev_states = self.prev_states;
        scratch.next_states = self.next_states;
        scratch.msg_buf = self.msg_buf;
        scratch.out_buf = self.out_buf;
        scratch.m_buf = self.m_buf;
        scratch.raw_buf = self.raw_buf;
        scratch.phi_scratch = self.phi_scratch;
        scratch.nt_scratch = self.nt_scratch;
        scratch.scatter_queues = self.scatter_queues;
        scratch.gather_queues = self.gather_queues;
        scratch.state_pool = self.state_pool;
        scratch.orders = self.orders;
    }

    /// An aggregation state for `agg` at `msg_dim`: a pooled one,
    /// reinitialised in place, when available; a fresh allocation only
    /// while the pool warms up.
    fn fresh_state(pool: &mut Vec<AggState>, agg: AggregatorKind, msg_dim: usize) -> AggState {
        match pool.pop() {
            Some(mut s) => {
                agg.reinit(&mut s, msg_dim);
                s
            }
            None => agg.init(msg_dim),
        }
    }

    /// Starts region `index`: sizes its output arena to `payload_dim`
    /// columns and empties its fold order.
    ///
    /// A no-op in timing-only runs, so large graphs never pay for zeroed
    /// feature slabs they would not read.
    pub(crate) fn begin_region(&mut self, index: usize, payload_dim: usize) {
        if !self.functional {
            return;
        }
        // Every row is fully written by γ (`set_row`) before anything
        // reads it, so the reset skips the slab memset.
        self.x_next
            .reset_for_overwrite(self.graph.num_nodes(), payload_dim);
        if self.orders.len() <= index {
            self.orders.resize_with(index + 1, Vec::new);
        }
        self.orders[index].clear();
        self.region = index;
    }

    /// Appends edges an MP unit just completed to the region's fold order
    /// (functional runs only).
    #[inline]
    pub(crate) fn record_edges(&mut self, eids: &[u32]) {
        if self.functional {
            self.orders[self.region].extend_from_slice(eids);
        }
    }

    /// Borrows the scatter adapter's queue grid for one region, reshaped
    /// to `count` queues of `capacity` (backing stores are reused).
    pub(crate) fn take_scatter_queues(&mut self, count: usize, capacity: usize) -> Vec<Fifo<Flit>> {
        let mut queues = std::mem::take(&mut self.scatter_queues);
        prepare_queue_grid(&mut queues, count, capacity);
        queues
    }

    /// Returns the scatter queue grid after the region completes.
    pub(crate) fn put_scatter_queues(&mut self, queues: Vec<Fifo<Flit>>) {
        self.scatter_queues = queues;
    }

    /// Borrows the gather path's queue grid for one region (see
    /// [`ExecState::take_scatter_queues`]).
    pub(crate) fn take_gather_queues(
        &mut self,
        count: usize,
        capacity: usize,
    ) -> Vec<Fifo<NodeId>> {
        let mut queues = std::mem::take(&mut self.gather_queues);
        prepare_queue_grid(&mut queues, count, capacity);
        queues
    }

    /// Returns the gather queue grid after the region completes.
    pub(crate) fn put_gather_queues(&mut self, queues: Vec<Fifo<NodeId>>) {
        self.gather_queues = queues;
    }

    fn node_ctx(&self, v: NodeId) -> NodeCtx {
        NodeCtx {
            degree: self.ctx.in_degree(v),
            mean_log_degree: self.ctx.mean_log_degree(),
        }
    }

    /// Runs the current region's arithmetic once its schedule is known:
    /// per node, the gather (gather regions) and γ; then, in scatter
    /// regions, φ and the fold over the fold order the region recorded,
    /// or over its source's when the region is a copy of `twin`. A twin
    /// steps through its source's cycles, so it completes the same edges
    /// in the same order.
    ///
    /// Running every γ before any fold changes no bit: γ reads only
    /// `x_cur` and the previous region's aggregates, both complete when
    /// the region starts, and a fold reads `x_next[src]`, which γ has then
    /// written. Each destination receives its messages in the recorded
    /// order, which is all the dataflow decides.
    pub(crate) fn run_region(
        &mut self,
        model: &GnnModel,
        region: &Region,
        csc: Option<&Adjacency>,
        twin: Option<usize>,
    ) {
        if !self.functional {
            return;
        }
        let gather = region.gather_layer.map(|l| {
            let csc = csc.expect("gather models build a CSC");
            (&model.layers()[l], csc)
        });
        for v in 0..self.graph.num_nodes() as NodeId {
            if let Some((layer, csc)) = gather {
                self.gather_node(layer, v, csc);
            }
            self.gamma(model, region, v);
        }
        if let Some(l) = region.scatter_layer {
            let source = twin.unwrap_or(self.region);
            let order = std::mem::take(&mut self.orders[source]);
            self.fold(&model.layers()[l], &order);
            self.orders[source] = order;
        }
    }

    /// γ for node `v`: computes its new embedding.
    fn gamma(&mut self, model: &GnnModel, region: &Region, v: NodeId) {
        let vi = v as usize;
        let node = self.node_ctx(v);
        match region.nt_op {
            NtOp::Encode => {
                let raw: &[f32] = match self.feats {
                    Some(feats) => feats.row(vi),
                    None => {
                        self.raw_buf.resize(self.graph.node_feature_dim(), 0.0);
                        self.graph.node_features().row_into(vi, &mut self.raw_buf);
                        &self.raw_buf
                    }
                };
                match model.encoder() {
                    Some(enc) => {
                        enc.forward_into(raw, &mut self.out_buf);
                        self.x_next.set_row(vi, &self.out_buf);
                    }
                    None => self.x_next.set_row(vi, raw),
                }
            }
            NtOp::Gamma(l) | NtOp::Normalize(l) => {
                let layer = &model.layers()[l];
                match self.prev_states[vi].take() {
                    Some(state) => {
                        layer.agg().finish_into(&state, &node, &mut self.m_buf);
                        self.state_pool.push(state);
                    }
                    None => {
                        self.m_buf.clear();
                        self.m_buf.resize(layer.agg_dim(), 0.0);
                    }
                }
                layer.gamma().apply_with_scratch(
                    self.x_cur.row(vi),
                    &self.m_buf,
                    &node,
                    &mut self.out_buf,
                    &mut self.nt_scratch,
                );
                self.x_next.set_row(vi, &self.out_buf);
            }
            NtOp::Project(l) => {
                let layer = &model.layers()[l];
                match layer.pre() {
                    Some(pre) => {
                        pre.forward_into(self.x_cur.row(vi), &mut self.out_buf);
                        self.x_next.set_row(vi, &self.out_buf);
                    }
                    None => {
                        let (cur, next) = (&self.x_cur, &mut self.x_next);
                        next.set_row(vi, cur.row(vi));
                    }
                }
            }
        }
    }

    /// φ and the fold for every edge of a scatter region, in `order`:
    /// each message is computed on its source's *new* embedding and folded
    /// into its destination's aggregate.
    fn fold(&mut self, layer: &GnnLayer, order: &[u32]) {
        let (weighting, phi, agg) = (layer.weighting(), layer.phi(), layer.agg());
        let edges = self.graph.edges();
        for &eid in order {
            let (src, dst) = edges[eid as usize];
            let mctx = MessageCtx {
                x_src: self.x_next.row(src as usize),
                x_dst: None,
                edge_feat: self.graph.edge_feature(eid as usize),
                edge_weight: weighting.weight(self.ctx, src, dst),
            };
            phi.apply_with_scratch(&mctx, &mut self.msg_buf, &mut self.phi_scratch);
            let state = self.next_states[dst as usize].get_or_insert_with(|| {
                Self::fresh_state(&mut self.state_pool, agg, layer.message_dim())
            });
            agg.push(state, &self.msg_buf);
        }
    }

    /// Full gather for destination `v` in a gather region (GAT): folds all
    /// in-edges, in CSC order, into `prev_states[v]`, which γ consumes.
    fn gather_node(&mut self, layer: &GnnLayer, v: NodeId, csc: &Adjacency) {
        let mut state = Self::fresh_state(&mut self.state_pool, layer.agg(), layer.message_dim());
        for (&u, &eid) in csc.neighbors(v).iter().zip(csc.edge_ids(v)) {
            let mctx = MessageCtx {
                x_src: self.x_cur.row(u as usize),
                x_dst: Some(self.x_cur.row(v as usize)),
                edge_feat: self.graph.edge_feature(eid as usize),
                edge_weight: layer.weighting().weight(self.ctx, u, v),
            };
            layer
                .phi()
                .apply_with_scratch(&mctx, &mut self.msg_buf, &mut self.phi_scratch);
            layer.agg().push(&mut state, &self.msg_buf);
        }
        self.prev_states[v as usize] = Some(state);
    }

    /// Region boundary: new embeddings become current; this region's
    /// aggregates become the next region's inputs.
    pub(crate) fn advance_region(&mut self) {
        std::mem::swap(&mut self.x_cur, &mut self.x_next);
        std::mem::swap(&mut self.prev_states, &mut self.next_states);
        for s in &mut self.next_states {
            if let Some(state) = s.take() {
                self.state_pool.push(state);
            }
        }
    }
}
