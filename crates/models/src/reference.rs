//! Reference functional executor — the PyTorch-cross-check stand-in.
//!
//! The paper guarantees end-to-end functionality by cross-checking the
//! FPGA output against PyTorch implementations. This module plays the
//! PyTorch role: it executes a [`GnnModel`] on a [`Graph`] with plain
//! layer-by-layer semantics (gather along in-edges, then transform), using
//! the *same* φ/𝒜/γ component objects as the cycle-level simulator in
//! `flowgnn-core`. Tests assert that the simulator's functional output
//! matches this executor within floating-point-reordering tolerance.

use flowgnn_graph::{Adjacency, Graph, NodeId};
use flowgnn_tensor::Matrix;

use crate::{GnnModel, GraphContext, MessageCtx, NodeCtx, NtScratch};

/// The result of running a model on one graph.
#[derive(Debug, Clone, PartialEq)]
pub struct ReferenceOutput {
    /// Final per-node embeddings (`num_nodes × out_dim`, including any
    /// virtual node as the last row).
    pub node_embeddings: Matrix,
    /// Graph-level prediction, if the model has a readout.
    pub graph_output: Option<Vec<f32>>,
}

/// Runs `model` on `graph` and returns final embeddings plus the optional
/// graph-level prediction.
///
/// The graph is augmented with a virtual node first if the model requires
/// one; the virtual node is excluded from readout pooling.
///
/// # Panics
///
/// Panics if the graph's feature dimensions do not match the model's
/// expectations.
pub fn run(model: &GnnModel, graph: &Graph) -> ReferenceOutput {
    let mut owned;
    let g = if model.uses_virtual_node() {
        owned = graph.clone();
        owned.add_virtual_node();
        &owned
    } else {
        graph
    };
    let original_nodes = graph.num_nodes();
    run_prepared(model, g, original_nodes)
}

/// Runs `model` on an already-prepared graph (virtual node, if any,
/// already added). `pool_nodes` is how many leading nodes participate in
/// readout pooling.
fn run_prepared(model: &GnnModel, g: &Graph, pool_nodes: usize) -> ReferenceOutput {
    assert_eq!(
        g.node_feature_dim(),
        model.input_dim(),
        "graph features ({}) do not match model input dim ({})",
        g.node_feature_dim(),
        model.input_dim()
    );
    let n = g.num_nodes();
    let ctx = if model.needs_dgn_field() {
        GraphContext::with_dgn_field(g)
    } else {
        GraphContext::new(g)
    };
    let csc = Adjacency::in_edges(g);

    // Region 0: encode raw features into the hidden dimension. All layer
    // activations live in row-major `Matrix` buffers, so the kernels
    // stream contiguous rows instead of chasing per-node `Vec`s.
    let mut x = Matrix::zeros(n, model.hidden_dim());
    {
        let feats = g.node_features();
        let mut raw_buf = Vec::new();
        let mut buf = Vec::new();
        for v in 0..n {
            let raw = feats.row_ref(v, &mut raw_buf);
            match model.encoder() {
                Some(enc) => {
                    enc.forward_into(raw, &mut buf);
                    x.set_row(v, &buf);
                }
                None => x.set_row(v, raw),
            }
        }
    }

    // Message-passing layers: gather along in-edges, then transform. All
    // per-message/per-node buffers are hoisted out of the loops.
    let mut z = Matrix::default();
    let mut next = Matrix::default();
    let mut msg = Vec::new();
    let mut msg_scratch = Vec::new();
    let mut m = Vec::new();
    let mut out = Vec::new();
    let mut nt_scratch = NtScratch::default();
    for layer in model.layers() {
        // Optional pre-projection (GAT's shared head projection).
        let z_ref = match layer.pre() {
            Some(pre) => {
                z.reshape(n, pre.out_dim());
                for v in 0..n {
                    pre.forward_into(x.row(v), &mut out);
                    z.set_row(v, &out);
                }
                &z
            }
            None => &x,
        };

        let msg_dim = layer.message_dim();
        next.reshape(n, layer.out_dim());
        let mut state = layer.agg().init(msg_dim);
        for v in 0..n as NodeId {
            layer.agg().reinit(&mut state, msg_dim);
            for (&u, &eid) in csc.neighbors(v).iter().zip(csc.edge_ids(v)) {
                let mctx = MessageCtx {
                    x_src: z_ref.row(u as usize),
                    x_dst: Some(z_ref.row(v as usize)),
                    edge_feat: g.edge_feature(eid as usize),
                    edge_weight: layer.weighting().weight(&ctx, u, v),
                };
                layer
                    .phi()
                    .apply_with_scratch(&mctx, &mut msg, &mut msg_scratch);
                layer.agg().push(&mut state, &msg);
            }
            let node_ctx = NodeCtx {
                degree: ctx.in_degree(v),
                mean_log_degree: ctx.mean_log_degree(),
            };
            layer.agg().finish_into(&state, &node_ctx, &mut m);
            layer.gamma().apply_with_scratch(
                z_ref.row(v as usize),
                &m,
                &node_ctx,
                &mut out,
                &mut nt_scratch,
            );
            next.set_row(v as usize, &out);
        }
        std::mem::swap(&mut x, &mut next);
    }

    let graph_output = model.readout().map(|r| r.apply(&x, pool_nodes.min(n)));
    ReferenceOutput {
        node_embeddings: x,
        graph_output,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelKind;
    use flowgnn_graph::generators::{ErdosRenyi, GraphGenerator, MoleculeLike};

    fn mol() -> Graph {
        MoleculeLike::new(12.0, 5).generate(0)
    }

    #[test]
    fn all_presets_run_end_to_end() {
        let g = mol();
        for kind in ModelKind::PAPER_MODELS {
            let model = GnnModel::preset(kind, 9, Some(3), 11);
            let out = run(&model, &g);
            assert!(
                out.graph_output
                    .as_ref()
                    .unwrap()
                    .iter()
                    .all(|v| v.is_finite()),
                "{kind} produced non-finite output"
            );
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let g = mol();
        let model = GnnModel::gin(9, Some(3), 3);
        assert_eq!(run(&model, &g), run(&model, &g));
    }

    #[test]
    fn virtual_node_adds_one_embedding_row() {
        let g = mol();
        let vn = GnnModel::gin_vn(9, Some(3), 3);
        let out = run(&vn, &g);
        assert_eq!(out.node_embeddings.rows(), g.num_nodes() + 1);
    }

    #[test]
    fn virtual_node_changes_the_prediction() {
        let g = mol();
        let base = run(&GnnModel::gin(9, Some(3), 3), &g);
        let vn = run(&GnnModel::gin_vn(9, Some(3), 3), &g);
        assert_ne!(base.graph_output, vn.graph_output);
    }

    #[test]
    fn isolated_nodes_are_handled() {
        let g = ErdosRenyi::new(6, 0.0, 0).node_feat_dim(9).generate(0);
        let model = GnnModel::gcn(9, 1);
        let out = run(&model, &g);
        assert!(out.graph_output.unwrap()[0].is_finite());
    }

    #[test]
    fn embeddings_depend_on_structure() {
        // Same features, different edges → different embeddings.
        let g1 = ErdosRenyi::new(10, 0.2, 4).node_feat_dim(9).generate(0);
        let g2 = ErdosRenyi::new(10, 0.8, 4).node_feat_dim(9).generate(0);
        let model = GnnModel::gcn(9, 1);
        assert_ne!(run(&model, &g1).graph_output, run(&model, &g2).graph_output);
    }

    #[test]
    fn gat_attention_weights_sum_effects() {
        // GAT output must be a convex combination of neighbour projections
        // per head: with identical neighbours, output equals that value.
        let g = mol();
        let model = GnnModel::gat(9, 2);
        let out = run(&model, &g);
        assert!(out.node_embeddings.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    #[should_panic(expected = "do not match model input dim")]
    fn wrong_feature_dim_panics() {
        let g = ErdosRenyi::new(5, 0.5, 0).node_feat_dim(4).generate(0);
        run(&GnnModel::gcn(9, 0), &g);
    }
}
