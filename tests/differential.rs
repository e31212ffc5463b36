//! Differential tests for the fast-forward cycle engine.
//!
//! [`EngineMode::FastForward`] claims to be cycle-exact *by construction*:
//! it only skips cycles on which no unit can touch a queue, execute
//! arithmetic, or change jobs, so every observable of a run must be
//! **byte-identical** to the retained per-cycle reference mode — cycle
//! counts, stall/busy meters, and functional outputs alike. This suite
//! pins that equivalence over the full cross-product of preset models,
//! workload-zoo graph families, and pipeline strategies. Any divergence,
//! even one cycle or one ULP, is a bug in the horizon computation.

mod common;

use common::{assert_matches, capacity, old_pool_scan, old_scan, run_pool};
use flowgnn::graph::generators::{
    ChungLu, ErdosRenyi, GraphGenerator, GridMesh, KnnPointCloud, MoleculeLike, SmallWorld,
};
use flowgnn::prelude::*;

fn zoo() -> Vec<(&'static str, Graph)> {
    vec![
        (
            "molecule",
            MoleculeLike::new(18.0, 1).node_feat_dim(9).generate(0),
        ),
        (
            "point-cloud",
            KnnPointCloud::new(24.0, 6, 2).node_feat_dim(9).generate(0),
        ),
        (
            "grid-mesh",
            GridMesh::new(5, 6, 3).node_feat_dim(9).generate(0),
        ),
        (
            "small-world",
            SmallWorld::new(30, 4, 0.15, 4).node_feat_dim(9).generate(0),
        ),
        ("power-law", ChungLu::new(40, 160, 9, 5).generate(0)),
        (
            "random",
            ErdosRenyi::new(25, 0.15, 6).node_feat_dim(9).generate(0),
        ),
    ]
}

fn models() -> Vec<GnnModel> {
    vec![
        GnnModel::gcn(9, 11),
        GnnModel::gin(9, None, 12),
        GnnModel::gin_vn(9, None, 13),
        GnnModel::gat(9, 14),
        GnnModel::pna(9, None, 15),
        GnnModel::dgn(9, 16),
    ]
}

/// Asserts every observable of the two reports is byte-identical.
fn assert_reports_identical(fast: &RunReport, reference: &RunReport, what: &str) {
    assert_eq!(
        fast.total_cycles, reference.total_cycles,
        "{what}: total_cycles"
    );
    assert_eq!(
        fast.load_cycles, reference.load_cycles,
        "{what}: load_cycles"
    );
    assert_eq!(
        fast.region_cycles, reference.region_cycles,
        "{what}: region_cycles"
    );
    assert_eq!(
        fast.readout_cycles, reference.readout_cycles,
        "{what}: readout_cycles"
    );
    assert_eq!(
        fast.nt_busy_cycles, reference.nt_busy_cycles,
        "{what}: nt_busy"
    );
    assert_eq!(
        fast.mp_busy_cycles, reference.mp_busy_cycles,
        "{what}: mp_busy"
    );
    assert_eq!(
        fast.nt_stall_cycles, reference.nt_stall_cycles,
        "{what}: nt_stall"
    );
    assert_eq!(
        fast.mp_stall_cycles, reference.mp_stall_cycles,
        "{what}: mp_stall"
    );
    // Timing-only runs carry no output on either side.
    let (Some(a), Some(b)) = (&fast.output, &reference.output) else {
        assert!(
            fast.output.is_none() && reference.output.is_none(),
            "{what}: only one report carries a functional output"
        );
        return;
    };
    // Bitwise float equality: fast-forward must not reorder any arithmetic.
    assert_eq!(
        a.node_embeddings.as_slice(),
        b.node_embeddings.as_slice(),
        "{what}: node embeddings diverge"
    );
    assert_eq!(
        a.graph_output, b.graph_output,
        "{what}: graph output diverges"
    );
}

#[test]
fn fast_forward_is_cycle_exact_everywhere() {
    let graphs = zoo();
    // Timing-only fast-forward runs also copy twin regions' stats instead
    // of stepping them; the reference engine steps every region.
    for execution in [ExecutionMode::Full, ExecutionMode::TimingOnly] {
        for banking in [GatherBanking::Destination, GatherBanking::Source] {
            for model in models() {
                for (family, g) in &graphs {
                    for strategy in PipelineStrategy::ABLATION_ORDER {
                        let config = ArchConfig::default()
                            .with_strategy(strategy)
                            .with_execution(execution)
                            .with_gather_banking(banking);
                        let fast = Accelerator::new(
                            model.clone(),
                            config.with_engine(EngineMode::FastForward),
                        )
                        .run(g);
                        let reference = Accelerator::new(
                            model.clone(),
                            config.with_engine(EngineMode::Reference),
                        )
                        .run(g);
                        let what = format!(
                            "{} / {family} / {strategy} / {} / {banking:?}",
                            model.name(),
                            execution.name()
                        );
                        assert_reports_identical(&fast, &reference, &what);
                    }
                }
            }
        }
    }
}

#[test]
fn fast_forward_is_exact_across_parallelism_corners() {
    // Queue pressure is where horizon bugs hide: tiny queues force the
    // StallFull paths, wide units force multi-unit interleavings. The
    // dense HEP-shaped point cloud (36 nodes, 576 edges) keeps the
    // adapter saturated, which is where the coupled jump fires.
    let graphs = [
        (
            "molecule",
            MoleculeLike::new(22.0, 7).node_feat_dim(9).generate(3),
        ),
        (
            "dense-knn",
            KnnPointCloud::new(30.0, 16, 0).node_feat_dim(9).generate(1),
        ),
    ];
    for execution in [ExecutionMode::Full, ExecutionMode::TimingOnly] {
        for model in models() {
            for (family, g) in &graphs {
                for (pn, pe, pa, ps) in [
                    (1, 1, 1, 1),
                    (1, 4, 2, 8),
                    (4, 1, 8, 2),
                    (4, 8, 8, 8),
                    (2, 4, 16, 4),
                    (2, 4, 8, 8),
                    (2, 4, 1, 1),
                ] {
                    for cap in [1, 2, 16] {
                        let cfg = ArchConfig::default()
                            .with_parallelism(pn, pe, pa, ps)
                            .with_queue_capacity(cap)
                            .with_execution(execution);
                        let fast = Accelerator::new(
                            model.clone(),
                            cfg.with_engine(EngineMode::FastForward),
                        )
                        .run(g);
                        let reference =
                            Accelerator::new(model.clone(), cfg.with_engine(EngineMode::Reference))
                                .run(g);
                        let what = format!(
                            "{} / {family} / {} / P=({pn},{pe},{pa},{ps}) cap={cap}",
                            model.name(),
                            execution.name()
                        );
                        assert_reports_identical(&fast, &reference, &what);
                    }
                }
            }
        }
    }
}

#[test]
fn fast_forward_matches_traced_per_cycle_run() {
    // Tracing forces the per-cycle path (and every region) even under
    // FastForward; the timing must agree with the untraced fast-forwarded
    // run, whose timing-only variant also copies twin regions.
    let g = KnnPointCloud::new(30.0, 5, 9).node_feat_dim(9).generate(1);
    for execution in [ExecutionMode::Full, ExecutionMode::TimingOnly] {
        for model in [GnnModel::gcn(9, 31), GnnModel::gat(9, 32)] {
            let config = ArchConfig::default().with_execution(execution);
            let fast = Accelerator::new(model.clone(), config).run(&g);
            let traced = Accelerator::new(model, config.with_trace()).run(&g);
            assert_eq!(fast.total_cycles, traced.total_cycles);
            assert_eq!(fast.region_cycles, traced.region_cycles);
            assert_eq!(fast.nt_busy_cycles, traced.nt_busy_cycles);
            assert_eq!(fast.mp_busy_cycles, traced.mp_busy_cycles);
            assert_eq!(fast.nt_stall_cycles, traced.nt_stall_cycles);
            assert_eq!(fast.mp_stall_cycles, traced.mp_stall_cycles);
        }
    }
}

#[test]
fn closed_loop_serve_is_bit_identical_to_run_stream() {
    // The serving-layer refactor claims closed-loop streaming is the
    // degenerate point of the open-loop server (gap-0 fixed arrivals,
    // unbounded queue). Pin that on three datasets against an
    // *independent* reference: a plain per-graph `run()` loop computing
    // the pre-refactor StreamReport aggregates directly.
    use flowgnn::desim::cycles_to_ms;

    let limit = 12;
    for kind in [DatasetKind::MolHiv, DatasetKind::MolPcba, DatasetKind::Hep] {
        let spec = DatasetSpec::standard(kind);
        let model = GnnModel::gcn(spec.node_feat_dim(), 57);
        let acc = Accelerator::new(model, ArchConfig::default());

        // Independent reference: the pre-refactor direct loop.
        let mut per_graph = Vec::new();
        let mut total = 0u64;
        let mut min_ms = f64::INFINITY;
        let mut max_ms: f64 = 0.0;
        for g in spec.stream().take_prefix(limit) {
            let r = acc.run(&g);
            per_graph.push(r.total_cycles);
            total += r.total_cycles;
            let ms = r.latency_ms();
            min_ms = min_ms.min(ms);
            max_ms = max_ms.max(ms);
        }
        let n = per_graph.len();
        assert_eq!(n, limit, "{kind:?}: stream shorter than limit");

        // The closed-loop wrapper must reproduce the direct loop exactly.
        let stream = acc.run_stream(spec.stream(), limit);
        assert_eq!(stream.graphs, n, "{kind:?}: graphs");
        assert_eq!(stream.total_cycles, total, "{kind:?}: total_cycles");
        assert_eq!(stream.latency.min_ms, min_ms, "{kind:?}: min_ms");
        assert_eq!(stream.latency.max_ms, max_ms, "{kind:?}: max_ms");
        assert_eq!(
            stream.latency.mean_ms,
            cycles_to_ms(total) / n as f64,
            "{kind:?}: mean_ms"
        );

        // And the explicit gap-0 serve must be the same schedule: every
        // request back-to-back, zero drops, makespan = sum of services.
        let closed_loop = FleetConfig::pool(1).build().unwrap();
        let served = acc
            .serve_on(spec.stream(), limit, &closed_loop, Runtime::Sim, None)
            .unwrap()
            .sim()
            .unwrap();
        assert_eq!(served.completed, n, "{kind:?}: served count");
        assert_eq!(served.dropped, 0, "{kind:?}: drops");
        assert_eq!(served.makespan_cycles, total, "{kind:?}: makespan");
        let mut finish = 0u64;
        for (i, (rec, &cycles)) in served.records.iter().zip(&per_graph).enumerate() {
            assert_eq!(rec.arrival, 0, "{kind:?}[{i}]: arrival");
            assert_eq!(rec.start, finish, "{kind:?}[{i}]: back-to-back start");
            assert_eq!(rec.service_cycles(), cycles, "{kind:?}[{i}]: service");
            finish = rec.finish;
        }
    }
}

#[test]
fn single_replica_pool_is_bit_identical_to_the_pre_pool_scan() {
    // The replica-pool generalisation claims the old single-server FIFO
    // is its R = 1 / round-robin special case. Pin that
    // against an *independent* reference: the shared inline copy of the
    // pre-pool single-server scan, over cycle-exact accelerator service
    // traces and a matrix of arrival processes and queue bounds.
    let spec = DatasetSpec::standard(DatasetKind::MolHiv);
    let acc = Accelerator::new(
        GnnModel::gcn(spec.node_feat_dim(), 57),
        ArchConfig::default(),
    );
    let service = acc.service_trace(spec.stream(), 40);
    let mean = service.iter().sum::<u64>() / service.len() as u64;

    let processes = [
        ArrivalProcess::Fixed { gap: 0 },
        ArrivalProcess::Fixed { gap: mean / 2 },
        ArrivalProcess::Fixed { gap: mean * 2 },
        ArrivalProcess::Poisson {
            mean_gap: mean as f64,
            seed: 11,
        },
        ArrivalProcess::OnOff {
            mean_burst: 6.0,
            burst_gap: mean / 8,
            mean_idle_gap: mean as f64 * 4.0,
            seed: 12,
        },
    ];
    for arrivals_proc in processes {
        for queue in [
            QueuePolicy::Unbounded,
            QueuePolicy::Bounded(0),
            QueuePolicy::Bounded(2),
            QueuePolicy::Bounded(64),
        ] {
            let config = FleetConfig::pool(1)
                .arrivals(arrivals_proc)
                .queue(queue)
                .build()
                .unwrap();
            assert_eq!(config.policy, DispatchPolicy::RoundRobin);
            let report = run_pool(&service, &config);
            let arrivals = arrivals_proc.arrivals(service.len());
            let reference = old_scan(&service, &arrivals, capacity(queue));
            let what = format!("{arrivals_proc:?} / {queue:?}");
            assert_eq!(report.records.len(), reference.len(), "{what}: count");
            for (i, (rec, &(arr, start, finish, dropped))) in
                report.records.iter().zip(&reference).enumerate()
            {
                assert_eq!(rec.arrival, arr, "{what}[{i}]: arrival");
                assert_eq!(rec.start, start, "{what}[{i}]: start");
                assert_eq!(rec.finish, finish, "{what}[{i}]: finish");
                assert_eq!(rec.dropped, dropped, "{what}[{i}]: dropped");
                assert_eq!(rec.replica, 0, "{what}[{i}]: replica");
            }
        }
    }
}

#[test]
fn fast_forward_is_exact_on_streams() {
    // The stream runner reuses one SimScratch across graphs; reuse must
    // not leak state between runs.
    let model = GnnModel::gin_vn(9, Some(3), 41);
    let fast = Accelerator::new(
        model.clone(),
        ArchConfig::default().with_engine(EngineMode::FastForward),
    )
    .run_stream(MoleculeLike::new(16.0, 11).stream(8), 8);
    let reference = Accelerator::new(
        model,
        ArchConfig::default().with_engine(EngineMode::Reference),
    )
    .run_stream(MoleculeLike::new(16.0, 11).stream(8), 8);
    assert_eq!(fast, reference);
}

/// The serve-module split (`serve.rs` → `serve/{arrivals,queue,dispatch,
/// report,sim,live}`) and the fleet refactor claim the pool scan is the
/// pre-split monolith, verbatim. Pin the fleet scan on the plain pool
/// against the *independent* shared copy of the pre-split replica-pool
/// scan — `ReplicaSim` semantics, dispatch tie-breaks, p2c's
/// two-draws-per-request RNG discipline, least-work-left cost routing,
/// and bounded-admission drops included — over multi-replica pools,
/// every policy, bounded and unbounded queues, and Poisson/on-off
/// arrivals. Bit-identical records and per-replica accounting, or the
/// refactor changed behavior.
#[test]
fn split_serve_trace_is_bit_identical_to_the_pre_split_pool_scan() {
    let spec = DatasetSpec::standard(DatasetKind::MolHiv);
    let acc = Accelerator::new(
        GnnModel::gcn(spec.node_feat_dim(), 57),
        ArchConfig::default(),
    );
    let service = acc.service_trace(spec.stream(), 40);
    let mean = service.iter().sum::<u64>() / service.len() as u64;

    let processes = [
        ArrivalProcess::Poisson {
            mean_gap: mean as f64 / 2.0,
            seed: 11,
        },
        ArrivalProcess::OnOff {
            mean_burst: 6.0,
            burst_gap: mean / 8,
            mean_idle_gap: mean as f64 * 4.0,
            seed: 12,
        },
    ];
    let policies = [
        DispatchPolicy::RoundRobin,
        DispatchPolicy::JoinShortestQueue,
        DispatchPolicy::PowerOfTwoChoices { seed: 21 },
        DispatchPolicy::CostBased,
    ];
    let queues = [
        QueuePolicy::Unbounded,
        QueuePolicy::Bounded(0),
        QueuePolicy::Bounded(2),
        QueuePolicy::Bounded(64),
    ];

    for process in processes {
        for policy in policies {
            for queue in queues {
                for replicas in [1usize, 2, 3, 5] {
                    let config = FleetConfig::pool(replicas)
                        .arrivals(process)
                        .queue(queue)
                        .policy(policy)
                        .build()
                        .unwrap();
                    let report = run_pool(&service, &config);

                    let arrivals = process.arrivals(service.len());
                    let (reference, stats) =
                        old_pool_scan(&service, &arrivals, capacity(queue), replicas, policy);
                    let what = format!("{process:?} / {policy:?} / {queue:?} / R={replicas}");
                    assert_matches(&report, &reference, &stats, &what);
                }
            }
        }
    }
}

/// The fleet refactor claims the degenerate fleet — one endpoint, one
/// request class, FIFO admission, as [`FleetConfig::pool`] builds it — is
/// the pre-refactor replica-pool scan, verbatim. Pin the fleet scan
/// against the shared pre-split pool scan over the exact `repro scale`
/// recipe: the cycle-exact MolHIV GCN service trace (timing-only engine,
/// model seed 11), rate = load x replicas x service rate, arrival seed
/// `0x5CA1E + (p*1000 + r*100 + l)`, p2c dispatch seed
/// `0x2C401CE + (p*1000 + r*100 + l)`, 64-deep bounded queues, and the
/// full `(process, policy, replicas, load)` grid the sweep emits.
/// Bit-identical records and per-replica accounting (from which the one
/// shared summary derives every tail statistic), or the fleet path would
/// perturb `results/scale_out.csv`.
#[test]
fn degenerate_fleet_is_bit_identical_to_the_scale_recipe() {
    use flowgnn::desim::cycles_to_ms;

    const QUEUE_CAPACITY: usize = 64; // repro scale's per-replica depth
    let spec = DatasetSpec::standard(DatasetKind::MolHiv);
    let acc = Accelerator::new(
        GnnModel::gcn(spec.node_feat_dim(), 11),
        ArchConfig::default().with_execution(ExecutionMode::TimingOnly),
    );
    let requests = 48; // a prefix of the sweep's stream, same recipe
    let service = acc.service_trace(spec.stream(), requests);
    let mean_service_ms = cycles_to_ms(service.iter().sum::<u64>()) / service.len() as f64;
    let service_rate_per_s = 1e3 / mean_service_ms;

    let processes = ["fixed", "poisson"];
    let policies = ["rr", "jsq", "p2c"];
    let replica_counts = [1usize, 2, 4, 8];
    let loads = [0.4, 0.6, 0.8, 0.9, 1.0, 1.1];

    for (p, process) in processes.iter().enumerate() {
        for policy_name in policies {
            for (r, &replicas) in replica_counts.iter().enumerate() {
                for (l, &load) in loads.iter().enumerate() {
                    let rate = load * replicas as f64 * service_rate_per_s;
                    let arrival_seed = 0x5CA1E + (p * 1000 + r * 100 + l) as u64;
                    let arrivals = match *process {
                        "fixed" => ArrivalProcess::fixed_rate(rate),
                        _ => ArrivalProcess::poisson_rate(rate, arrival_seed),
                    };
                    let policy = match policy_name {
                        "rr" => DispatchPolicy::RoundRobin,
                        "jsq" => DispatchPolicy::JoinShortestQueue,
                        _ => DispatchPolicy::PowerOfTwoChoices {
                            seed: 0x2C401CE + (p * 1000 + r * 100 + l) as u64,
                        },
                    };

                    let config = FleetConfig::pool(replicas)
                        .arrivals(arrivals)
                        .queue_capacity(QUEUE_CAPACITY)
                        .policy(policy)
                        .build()
                        .expect("valid scale-recipe config");
                    let fleet = run_pool(&service, &config);

                    let (reference, stats) = old_pool_scan(
                        &service,
                        &arrivals.arrivals(service.len()),
                        QUEUE_CAPACITY,
                        replicas,
                        policy,
                    );
                    let what = format!("{process}/{policy_name}/x{replicas}/load {load}");
                    assert_eq!(fleet.per_class.len(), 1, "{what}: one class view");
                    assert_eq!(fleet.per_endpoint.len(), 1, "{what}: one endpoint view");
                    assert_matches(&fleet, &reference, &stats, &what);
                }
            }
        }
    }
}
