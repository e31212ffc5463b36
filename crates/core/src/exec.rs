//! Shared functional execution state.
//!
//! Every simulation schedule — the sequential/lockstep baselines, the
//! cycle-stepped dataflows, and the fast-forward replays — performs the
//! model's arithmetic through one [`ExecState`], and none of them does it
//! while it steps cycles. Functionally, the only thing the dataflow
//! decides is the order in which each destination's aggregator receives
//! its messages, so a scatter region's schedule only appends the edge ids,
//! in the order its MP units complete them, to the region's fold order
//! ([`ExecState::fold_order`]; the dataflow's MP units append through the
//! scatter context, which borrows it with the adapter's queue grid,
//! [`ExecState::scatter_queues`]). The units themselves never see this
//! state. Once the region's stats are known, stepped or copied from a twin,
//! [`ExecState::run_region`] runs its arithmetic in one pass: γ for every
//! node (after that node's gather, in gather regions), then φ and the fold
//! over the recorded order. [`ExecState::advance_region`] then swaps the
//! buffers. Centralising the arithmetic here is what guarantees that every
//! strategy, engine mode, and unit schedule computes the *same* function;
//! only the timing and the recorded fold order differ.

use flowgnn_desim::Fifo;
use flowgnn_graph::{Adjacency, Graph, NodeId};
use flowgnn_models::{
    AggState, AggregatorKind, GnnLayer, GnnModel, GraphContext, MessageCtx, NodeCtx, NtScratch,
};
use flowgnn_tensor::Matrix;

use crate::regions::{NtOp, Region};
use crate::units::adapter::Flit;

/// Every buffer a run needs, carried across regions and across graphs in
/// a stream so the per-run allocation cost is amortised away. A run
/// borrows it whole for its duration, and a functional run moves its
/// final embeddings out into its output.
///
/// A fresh default `SimScratch` is always valid; reusing one across runs
/// (of any graph, any accelerator) is equally valid — every run fully
/// re-initialises the state it reads. A warm run (one that reuses a
/// scratch on the same accelerator) allocates the same number of times
/// whatever the graph; only the bytes of its report and output grow.
#[derive(Debug, Default)]
pub struct SimScratch {
    /// Embeddings at region start.
    x_cur: Matrix,
    /// Embeddings produced by this region's NT.
    x_next: Matrix,
    /// Aggregation states written by the previous region's MP (read by
    /// this region's γ).
    prev_states: Vec<Option<AggState>>,
    /// Aggregation states being written by this region's MP.
    next_states: Vec<Option<AggState>>,
    msg_buf: Vec<f32>,
    out_buf: Vec<f32>,
    m_buf: Vec<f32>,
    /// A procedural source's raw feature row, generated for Encode (a
    /// dense source's rows are read in place).
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
    /// Per region, the edge ids in the order its MP units completed them
    /// (functional runs only); a copied twin folds over its source's.
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

/// The functional execution state of one run: the graph, its context,
/// and the borrowed [`SimScratch`] whose embeddings, aggregation states
/// and scratch buffers it advances region by region.
pub(crate) struct ExecState<'a> {
    graph: &'a Graph,
    ctx: &'a GraphContext,
    functional: bool,
    scratch: &'a mut SimScratch,
    /// The region whose schedule is recording into `orders`.
    region: usize,
}

impl<'a> ExecState<'a> {
    /// Starts a run of `regions` regions on `graph`.
    pub(crate) fn new(
        graph: &'a Graph,
        ctx: &'a GraphContext,
        functional: bool,
        regions: usize,
        scratch: &'a mut SimScratch,
    ) -> Self {
        let n = graph.num_nodes();
        for buf in [&mut scratch.prev_states, &mut scratch.next_states] {
            buf.clear();
            buf.resize(n, None);
        }
        // The final region's embeddings leave with the output, and the
        // previous output left `x_cur` empty. With an odd region count the
        // final region writes the buffer the run starts in `x_next`, so
        // swapping makes it the empty one: the buffer that stays in the
        // scratch is then written by every run and never grows once warm.
        if functional && regions % 2 == 1 {
            std::mem::swap(&mut scratch.x_cur, &mut scratch.x_next);
        }
        Self {
            graph,
            ctx,
            functional,
            scratch,
            region: 0,
        }
    }

    /// Ends a functional run, moving its final embeddings out of the
    /// scratch.
    pub(crate) fn into_embeddings(self) -> Matrix {
        std::mem::take(&mut self.scratch.x_cur)
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

    /// Starts region `index`: sizes its output embeddings to
    /// `payload_dim` columns and empties its fold order.
    ///
    /// A no-op in timing-only runs, so large graphs never pay for
    /// embeddings they would not read.
    pub(crate) fn begin_region(&mut self, index: usize, payload_dim: usize) {
        if !self.functional {
            return;
        }
        let s = &mut *self.scratch;
        // Every row is fully written by γ (`set_row`) before anything
        // reads it, so the reshape fills nothing it keeps.
        s.x_next.reshape(self.graph.num_nodes(), payload_dim);
        if s.orders.len() <= index {
            s.orders.resize_with(index + 1, Vec::new);
        }
        s.orders[index].clear();
        self.region = index;
    }

    /// The current region's fold order, which its scatter schedule
    /// appends each completed edge to; `None` in timing-only runs.
    pub(crate) fn fold_order(&mut self) -> Option<&mut Vec<u32>> {
        self.functional
            .then(|| &mut self.scratch.orders[self.region])
    }

    /// Borrows the scatter adapter's queue grid for the current region,
    /// reshaped to `count` queues of `capacity` (the ring allocations
    /// persist across regions and runs), beside the region's fold order.
    pub(crate) fn scatter_queues(
        &mut self,
        count: usize,
        capacity: usize,
    ) -> (&mut [Fifo<Flit>], Option<&mut Vec<u32>>) {
        let s = &mut *self.scratch;
        prepare_queue_grid(&mut s.scatter_queues, count, capacity);
        let order = self.functional.then(|| &mut s.orders[self.region]);
        (&mut s.scatter_queues, order)
    }

    /// Borrows the gather path's queue grid for the current region (see
    /// [`ExecState::scatter_queues`]).
    pub(crate) fn gather_queues(&mut self, count: usize, capacity: usize) -> &mut [Fifo<NodeId>] {
        prepare_queue_grid(&mut self.scratch.gather_queues, count, capacity);
        &mut self.scratch.gather_queues
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
            let order = std::mem::take(&mut self.scratch.orders[source]);
            self.fold(&model.layers()[l], &order);
            self.scratch.orders[source] = order;
        }
    }

    /// γ for node `v`: computes its new embedding.
    fn gamma(&mut self, model: &GnnModel, region: &Region, v: NodeId) {
        let vi = v as usize;
        let node = self.node_ctx(v);
        let s = &mut *self.scratch;
        match region.nt_op {
            NtOp::Encode => {
                let raw = self.graph.node_features().row_ref(vi, &mut s.raw_buf);
                match model.encoder() {
                    Some(enc) => {
                        enc.forward_into(raw, &mut s.out_buf);
                        s.x_next.set_row(vi, &s.out_buf);
                    }
                    None => s.x_next.set_row(vi, raw),
                }
            }
            NtOp::Gamma(l) | NtOp::Normalize(l) => {
                let layer = &model.layers()[l];
                match s.prev_states[vi].take() {
                    Some(state) => {
                        layer.agg().finish_into(&state, &node, &mut s.m_buf);
                        s.state_pool.push(state);
                    }
                    None => {
                        s.m_buf.clear();
                        s.m_buf.resize(layer.agg_dim(), 0.0);
                    }
                }
                layer.gamma().apply_with_scratch(
                    s.x_cur.row(vi),
                    &s.m_buf,
                    &node,
                    &mut s.out_buf,
                    &mut s.nt_scratch,
                );
                s.x_next.set_row(vi, &s.out_buf);
            }
            NtOp::Project(l) => match model.layers()[l].pre() {
                Some(pre) => {
                    pre.forward_into(s.x_cur.row(vi), &mut s.out_buf);
                    s.x_next.set_row(vi, &s.out_buf);
                }
                None => s.x_next.set_row(vi, s.x_cur.row(vi)),
            },
        }
    }

    /// φ and the fold for every edge of a scatter region, in `order`:
    /// each message is computed on its source's *new* embedding and folded
    /// into its destination's aggregate.
    fn fold(&mut self, layer: &GnnLayer, order: &[u32]) {
        let (weighting, phi, agg) = (layer.weighting(), layer.phi(), layer.agg());
        let edges = self.graph.edges();
        let s = &mut *self.scratch;
        for &eid in order {
            let (src, dst) = edges[eid as usize];
            let mctx = MessageCtx {
                x_src: s.x_next.row(src as usize),
                x_dst: None,
                edge_feat: self.graph.edge_feature(eid as usize),
                edge_weight: weighting.weight(self.ctx, src, dst),
            };
            phi.apply_with_scratch(&mctx, &mut s.msg_buf, &mut s.phi_scratch);
            let state = s.next_states[dst as usize].get_or_insert_with(|| {
                Self::fresh_state(&mut s.state_pool, agg, layer.message_dim())
            });
            agg.push(state, &s.msg_buf);
        }
    }

    /// Full gather for destination `v` in a gather region (GAT): folds all
    /// in-edges, in CSC order, into `prev_states[v]`, which γ consumes.
    fn gather_node(&mut self, layer: &GnnLayer, v: NodeId, csc: &Adjacency) {
        let s = &mut *self.scratch;
        let mut state = Self::fresh_state(&mut s.state_pool, layer.agg(), layer.message_dim());
        for (&u, &eid) in csc.neighbors(v).iter().zip(csc.edge_ids(v)) {
            let mctx = MessageCtx {
                x_src: s.x_cur.row(u as usize),
                x_dst: Some(s.x_cur.row(v as usize)),
                edge_feat: self.graph.edge_feature(eid as usize),
                edge_weight: layer.weighting().weight(self.ctx, u, v),
            };
            layer
                .phi()
                .apply_with_scratch(&mctx, &mut s.msg_buf, &mut s.phi_scratch);
            layer.agg().push(&mut state, &s.msg_buf);
        }
        s.prev_states[v as usize] = Some(state);
    }

    /// Region boundary: new embeddings become current; this region's
    /// aggregates become the next region's inputs.
    pub(crate) fn advance_region(&mut self) {
        let s = &mut *self.scratch;
        std::mem::swap(&mut s.x_cur, &mut s.x_next);
        std::mem::swap(&mut s.prev_states, &mut s.next_states);
        for slot in &mut s.next_states {
            if let Some(state) = slot.take() {
                s.state_pool.push(state);
            }
        }
    }
}
