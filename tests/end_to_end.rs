//! End-to-end integration: every paper model, both dataflows, all four
//! pipeline strategies — the simulated accelerator must match the
//! reference executor (the paper's "guaranteed end-to-end functionality").

use flowgnn::core::InferenceBackend;
use flowgnn::graph::generators::{ErdosRenyi, GraphGenerator, KnnPointCloud, MoleculeLike};
use flowgnn::models::reference;
use flowgnn::{Accelerator, ArchConfig, GnnModel, ModelKind, PipelineStrategy};

fn assert_close(a: &[f32], b: &[f32], tol: f32, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (x, y) in a.iter().zip(b) {
        let scale = x.abs().max(y.abs()).max(1.0);
        assert!((x - y).abs() / scale < tol, "{what}: {x} vs {y}");
    }
}

#[test]
fn every_model_matches_reference_on_molecules() {
    let graph = MoleculeLike::new(18.0, 77).generate(0);
    for kind in ModelKind::PAPER_MODELS {
        let model = GnnModel::preset(kind, 9, Some(3), 17);
        let acc = Accelerator::new(model.clone(), ArchConfig::default());
        let sim = acc.run(&graph);
        let reference = reference::run(&model, &graph);
        assert_close(
            sim.output.as_ref().unwrap().graph_output.as_ref().unwrap(),
            reference.graph_output.as_ref().unwrap(),
            2e-3,
            kind.name(),
        );
    }
}

#[test]
fn every_model_matches_reference_on_hep_pointclouds() {
    let graph = KnnPointCloud::new(30.0, 8, 3).generate(0);
    for kind in ModelKind::PAPER_MODELS {
        let model = GnnModel::preset(kind, 7, Some(4), 23);
        let acc = Accelerator::new(model.clone(), ArchConfig::default());
        let sim = acc.run(&graph);
        let reference = reference::run(&model, &graph);
        assert_close(
            sim.output.as_ref().unwrap().graph_output.as_ref().unwrap(),
            reference.graph_output.as_ref().unwrap(),
            2e-3,
            kind.name(),
        );
    }
}

#[test]
fn all_strategies_agree_functionally_for_every_model() {
    let graph = MoleculeLike::new(14.0, 5).generate(1);
    for kind in ModelKind::PAPER_MODELS {
        let model = GnnModel::preset(kind, 9, Some(3), 31);
        let mut outputs: Vec<Vec<f32>> = Vec::new();
        for strategy in PipelineStrategy::ABLATION_ORDER {
            let acc =
                Accelerator::new(model.clone(), ArchConfig::default().with_strategy(strategy));
            let out = acc.run(&graph);
            outputs.push(out.output.unwrap().graph_output.unwrap());
        }
        for pair in outputs.windows(2) {
            assert_close(&pair[0], &pair[1], 2e-3, kind.name());
        }
    }
}

#[test]
fn node_embeddings_match_not_just_graph_outputs() {
    let graph = ErdosRenyi::new(12, 0.25, 9).node_feat_dim(9).generate(0);
    let model = GnnModel::gcn(9, 41);
    let acc = Accelerator::new(model.clone(), ArchConfig::default());
    let sim = acc.run(&graph).output.unwrap();
    let reference = reference::run(&model, &graph);
    for v in 0..graph.num_nodes() {
        assert_close(
            sim.node_embeddings.row(v),
            reference.node_embeddings.row(v),
            2e-3,
            &format!("node {v}"),
        );
    }
}

#[test]
fn empty_and_tiny_graphs_run_cleanly() {
    // A single node with no edges, and a two-node single-edge graph.
    for g in [
        ErdosRenyi::new(1, 0.0, 0).node_feat_dim(9).generate(0),
        ErdosRenyi::new(2, 1.0, 0).node_feat_dim(9).generate(0),
    ] {
        for kind in ModelKind::PAPER_MODELS {
            let model = GnnModel::preset(kind, 9, None, 3);
            let acc = Accelerator::new(model, ArchConfig::default());
            let report = acc.run(&g);
            assert!(report.total_cycles > 0, "{kind}: zero cycles");
            let out = report.output.unwrap().graph_output.unwrap();
            assert!(out.iter().all(|v| v.is_finite()), "{kind}: {out:?}");
        }
    }
}

#[test]
fn dense_parallelism_never_slows_a_stream() {
    let stream = || MoleculeLike::new(16.0, 2).stream(8);
    let model = GnnModel::gin(9, Some(3), 4);
    let slow = Accelerator::new(
        model.clone(),
        ArchConfig::default().with_parallelism(1, 1, 1, 1),
    );
    let fast = Accelerator::new(model, ArchConfig::default().with_parallelism(4, 4, 8, 8));
    let total = |acc: &Accelerator| acc.service_trace(stream(), 8).iter().sum::<u64>();
    assert!(total(&fast) < total(&slow));
    assert!(fast.run_stream(stream(), 8).latency_ms < slow.run_stream(stream(), 8).latency_ms);
}

#[test]
fn virtual_node_graphs_run_on_all_strategies() {
    let graph = MoleculeLike::new(15.0, 8).generate(2);
    let model = GnnModel::gin_vn(9, Some(3), 6);
    let reference = reference::run(&model, &graph);
    for strategy in PipelineStrategy::ABLATION_ORDER {
        let acc = Accelerator::new(model.clone(), ArchConfig::default().with_strategy(strategy));
        let sim = acc.run(&graph);
        assert_close(
            sim.output.unwrap().graph_output.as_ref().unwrap(),
            reference.graph_output.as_ref().unwrap(),
            2e-3,
            &format!("GIN+VN under {strategy}"),
        );
    }
}

#[test]
fn workload_agnostic_same_kernel_many_structures() {
    // The same compiled accelerator must process structurally different
    // graphs back to back with no reconfiguration — the paper's
    // workload-agnostic claim.
    let model = GnnModel::gcn(9, 12);
    let acc = Accelerator::new(model.clone(), ArchConfig::default());
    let graphs = [
        MoleculeLike::new(10.0, 0).generate(0),
        ErdosRenyi::new(40, 0.2, 1).node_feat_dim(9).generate(0),
        KnnPointCloud::new(20.0, 4, 2).node_feat_dim(9).generate(0),
        ErdosRenyi::new(3, 0.0, 3).node_feat_dim(9).generate(0),
    ];
    for g in graphs {
        let sim = acc.run(&g);
        let reference = reference::run(&model, &g);
        assert_close(
            sim.output.unwrap().graph_output.as_ref().unwrap(),
            reference.graph_output.as_ref().unwrap(),
            2e-3,
            "mixed-structure stream",
        );
    }
}
