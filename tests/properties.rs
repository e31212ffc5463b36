//! Cross-crate randomized tests: the architectural invariants the paper's
//! claims rest on, checked over deterministic pseudo-random graphs and
//! configurations (seeded in-tree PRNG, so every run covers the same cases).

mod common;

use common::{assert_matches, capacity, old_pool_scan, old_scan, run_pool, run_sim};
use flowgnn::core::{bank_workloads, imbalance_percent};
use flowgnn::graph::generators::{ErdosRenyi, GraphGenerator};
use flowgnn::models::reference;
use flowgnn::prelude::*;
use flowgnn_rng::Rng;

fn random_arch(rng: &mut Rng) -> ArchConfig {
    let pn = [1usize, 2, 4][rng.gen_range(0usize..3)];
    let pe = [1usize, 2, 4][rng.gen_range(0usize..3)];
    let pa = [1usize, 2, 4, 8][rng.gen_range(0usize..4)];
    let ps = [1usize, 2, 4, 8][rng.gen_range(0usize..4)];
    let strategy = [
        PipelineStrategy::NonPipelined,
        PipelineStrategy::FixedPipeline,
        PipelineStrategy::BaselineDataflow,
        PipelineStrategy::FlowGnn,
    ][rng.gen_range(0usize..4)];
    ArchConfig::default()
        .with_strategy(strategy)
        .with_parallelism(pn, pe, pa, ps)
}

/// The simulator's functional output equals the reference executor's for
/// random graphs and random architecture configurations.
#[test]
fn simulator_matches_reference_everywhere() {
    let mut rng = Rng::seed_from_u64(0xF10_0001);
    for _ in 0..24 {
        let n = rng.gen_range(2usize..25);
        let p = rng.gen_range(0.05f64..0.5);
        let seed = rng.gen_range(0u64..500);
        let config = random_arch(&mut rng);
        let graph = ErdosRenyi::new(n, p, seed).node_feat_dim(9).generate(0);
        let model = GnnModel::gcn_with(9, 16, 2, true, seed);
        let acc = Accelerator::new(model.clone(), config);
        let sim = acc.run(&graph);
        let reference = reference::run(&model, &graph);
        let a = sim.output.unwrap().graph_output.unwrap();
        let b = reference.graph_output.unwrap();
        for (x, y) in a.iter().zip(&b) {
            let scale = x.abs().max(y.abs()).max(1.0);
            assert!((x - y).abs() / scale < 2e-3, "{x} vs {y} under {config:?}");
        }
    }
}

/// Timing is independent of whether arithmetic runs: the cost model is
/// purely structural.
#[test]
fn timing_only_equals_full_cycles() {
    let mut rng = Rng::seed_from_u64(0xF10_0002);
    for _ in 0..24 {
        let n = rng.gen_range(2usize..20);
        let p = rng.gen_range(0.05f64..0.5);
        let seed = rng.gen_range(0u64..200);
        let config = random_arch(&mut rng);
        let graph = ErdosRenyi::new(n, p, seed).node_feat_dim(9).generate(0);
        let model = GnnModel::gcn_with(9, 16, 2, true, seed);
        let full = Accelerator::new(model.clone(), config).run(&graph);
        let timing =
            Accelerator::new(model, config.with_execution(ExecutionMode::TimingOnly)).run(&graph);
        assert_eq!(full.total_cycles, timing.total_cycles);
    }
}

/// On models deep enough to have twin regions, a `Full` fast-forward run,
/// which copies each twin's stats and folds its layer over its source
/// region's recorded order, is bit-identical to the reference engine,
/// which steps every region and records each order itself.
#[test]
fn functional_twin_copies_match_the_reference_engine() {
    let mut rng = Rng::seed_from_u64(0xF10_0009);
    for case in 0..24 {
        let n = rng.gen_range(2usize..25);
        let p = rng.gen_range(0.05f64..0.5);
        let seed = rng.gen_range(0u64..500);
        let config = random_arch(&mut rng);
        let graph = ErdosRenyi::new(n, p, seed).node_feat_dim(9).generate(0);
        let model = if case % 2 == 0 {
            GnnModel::gcn_with(9, 16, rng.gen_range(4usize..7), true, seed)
        } else {
            GnnModel::gin(9, None, seed)
        };
        let run = |engine| Accelerator::new(model.clone(), config.with_engine(engine)).run(&graph);
        let (fast, reference) = (run(EngineMode::FastForward), run(EngineMode::Reference));
        let what = format!("{} under {config:?}", model.name());
        let timing = |r: &RunReport| {
            (
                r.total_cycles,
                r.load_cycles,
                r.region_cycles.clone(),
                r.readout_cycles,
                (r.nt_busy_cycles, r.nt_stall_cycles),
                (r.mp_busy_cycles, r.mp_stall_cycles),
                r.num_units,
            )
        };
        assert_eq!(timing(&fast), timing(&reference), "{what}");
        let (a, b) = (fast.output.unwrap(), reference.output.unwrap());
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(a.node_embeddings.as_slice()),
            bits(b.node_embeddings.as_slice()),
            "{what}: node embeddings"
        );
        assert_eq!(
            bits(&a.graph_output.unwrap()),
            bits(&b.graph_output.unwrap()),
            "{what}: graph output"
        );
    }
}

/// Bank workloads always partition the edge set, and the imbalance metric
/// is a percentage.
#[test]
fn bank_partition_invariants() {
    let mut rng = Rng::seed_from_u64(0xF10_0003);
    for _ in 0..64 {
        let n = rng.gen_range(2usize..60);
        let p = rng.gen_range(0.02f64..0.4);
        let seed = rng.gen_range(0u64..500);
        let p_edge = rng.gen_range(1usize..16);
        let graph = ErdosRenyi::new(n, p, seed).generate(0);
        let w = bank_workloads(&graph, p_edge);
        assert_eq!(w.iter().sum::<u64>(), graph.num_edges() as u64);
        let pct = imbalance_percent(&w);
        assert!((0.0..=100.0).contains(&pct));
    }
}

/// The FlowGNN strategy never loses to the baseline dataflow at equal
/// per-unit parallelism (it strictly generalises it).
#[test]
fn flowgnn_dominates_baseline_dataflow() {
    let mut rng = Rng::seed_from_u64(0xF10_0004);
    for _ in 0..24 {
        let n = rng.gen_range(3usize..20);
        let p = rng.gen_range(0.1f64..0.5);
        let seed = rng.gen_range(0u64..200);
        let graph = ErdosRenyi::new(n, p, seed).node_feat_dim(9).generate(0);
        let model = GnnModel::gcn_with(9, 16, 2, true, seed);
        let baseline = Accelerator::new(
            model.clone(),
            ArchConfig::default()
                .with_strategy(PipelineStrategy::BaselineDataflow)
                .with_parallelism(1, 1, 2, 2),
        )
        .run(&graph);
        let flowgnn = Accelerator::new(
            model,
            ArchConfig::default()
                .with_strategy(PipelineStrategy::FlowGnn)
                .with_parallelism(2, 4, 2, 2),
        )
        .run(&graph);
        assert!(
            flowgnn.total_cycles <= baseline.total_cycles,
            "FlowGNN {} vs baseline {}",
            flowgnn.total_cycles,
            baseline.total_cycles
        );
    }
}

/// A traced run's lanes account for its timing report: each region's
/// lanes last its cycles less the fixed region overhead and NT pipeline
/// fill (8 + 4 cycles), and the busy and stall symbols on the NT (MP)
/// lanes sum to the NT (MP) busy and stall meters. Checked for every
/// strategy and preset on molecules, HEP point clouds, and edgeless,
/// one-node and zero-node graphs at three parallelism corners, under both
/// gather bankings.
#[test]
fn busy_and_stall_meters_equal_the_traced_lanes() {
    use flowgnn::core::LaneSymbol;
    use flowgnn::graph::generators::{KnnPointCloud, MoleculeLike};
    use flowgnn::graph::FeatureSource;

    let plain = |n: usize| Graph::new(n, vec![], FeatureSource::procedural(n, 9, 7), None).unwrap();
    let molecules: Vec<Graph> = (0..2)
        .map(|i| MoleculeLike::new(13.0, 2023).generate(i))
        .collect();
    let clouds: Vec<Graph> = (0..2)
        .map(|i| KnnPointCloud::new(20.0, 8, 2023).generate(i))
        .collect();
    let presets = |g: &Graph| {
        let (dim, edge_dim) = (g.node_feature_dim(), g.edge_feature_dim());
        [
            GnnModel::gcn(dim, 51),
            GnnModel::gin(dim, edge_dim, 52),
            GnnModel::gin_vn(dim, edge_dim, 53),
            GnnModel::gat(dim, 54),
            GnnModel::pna(dim, edge_dim, 55),
            GnnModel::dgn(dim, 56),
        ]
    };
    let groups = [
        (presets(&molecules[0]), molecules),
        (presets(&clouds[0]), clouds),
        (presets(&plain(1)), vec![plain(6), plain(1), plain(0)]),
    ];
    let (mut runs, mut failures) = (0, Vec::new());
    let bankings = [GatherBanking::Destination, GatherBanking::Source];
    let schedules = PipelineStrategy::ABLATION_ORDER
        .into_iter()
        .flat_map(|strategy| bankings.map(|banking| (strategy, banking)));
    for (strategy, banking) in schedules {
        for (p_node, p_edge, p_apply, p_scatter) in [(1, 1, 1, 1), (2, 4, 8, 8), (4, 2, 16, 4)] {
            let config = ArchConfig::default()
                .with_strategy(strategy)
                .with_gather_banking(banking)
                .with_parallelism(p_node, p_edge, p_apply, p_scatter)
                .with_execution(ExecutionMode::TimingOnly)
                .with_trace();
            for (models, graphs) in &groups {
                for model in models {
                    let acc = Accelerator::new(model.clone(), config);
                    for g in graphs {
                        runs += 1;
                        let r = acc.run(g);
                        let trace = r.trace.as_ref().expect("traced run");
                        let lanes: Vec<u64> = trace
                            .regions
                            .iter()
                            .map(|t| t.cycles() as u64 + 12)
                            .collect();
                        let (mut nt, mut mp) = ([0u64; 2], [0u64; 2]);
                        for region in &trace.regions {
                            for (name, lane) in region.lane_names.iter().zip(&region.lanes) {
                                let meter = if name.starts_with("NT") {
                                    &mut nt
                                } else {
                                    &mut mp
                                };
                                for &s in lane {
                                    match s {
                                        LaneSymbol::Busy => meter[0] += 1,
                                        LaneSymbol::StallFull | LaneSymbol::StallEmpty => {
                                            meter[1] += 1
                                        }
                                        LaneSymbol::Idle => {}
                                    }
                                }
                            }
                        }
                        let metered = (
                            [r.nt_busy_cycles, r.nt_stall_cycles],
                            [r.mp_busy_cycles, r.mp_stall_cycles],
                        );
                        if lanes != r.region_cycles || (nt, mp) != metered {
                            failures.push(format!(
                                "{} on {} nodes under {strategy}, {banking:?} banking \
                                 ({p_node}, {p_edge}, {p_apply}, {p_scatter}): lanes {lanes:?} \
                                 vs regions {:?}, \
                                 traced NT/MP {:?} vs metered {metered:?}",
                                model.name(),
                                g.num_nodes(),
                                r.region_cycles,
                                (nt, mp),
                            ));
                        }
                    }
                }
            }
        }
    }
    assert_eq!(runs, 1_008);
    assert!(
        failures.is_empty(),
        "{} of {runs} runs disagree:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// An `R`-replica round-robin pool is exactly `R` interleaved independent
/// single servers: replica `r` of a pool fed `Fixed { gap }` arrivals
/// sees requests `r, r+R, r+2R, …` at cycles `(r + kR)·gap`, which is the
/// single-server run over the subsampled service trace with `Fixed { gap:
/// R·gap }` arrivals, time-shifted by `r·gap`. The single servers are the
/// independent pre-pool reference scan; checked over random pool sizes,
/// gaps, queue bounds, and service traces — including bounded queues,
/// where the drop *pattern* must also shift-match.
#[test]
fn round_robin_pool_is_r_interleaved_single_servers() {
    let mut rng = Rng::seed_from_u64(0xF10_0007);
    for _ in 0..32 {
        let replicas = rng.gen_range(1usize..6);
        let gap = rng.gen_range(1u64..2000);
        let n = rng.gen_range(1usize..120);
        let queue = if rng.gen_bool(0.5) {
            QueuePolicy::Unbounded
        } else {
            QueuePolicy::Bounded(rng.gen_range(0usize..4))
        };
        let service: Vec<u64> = (0..n).map(|_| rng.gen_range(1u64..5000)).collect();

        let config = FleetConfig::pool(replicas)
            .arrivals(ArrivalProcess::Fixed { gap })
            .queue(queue)
            .build()
            .unwrap();
        let pool = run_pool(&service, &config);

        for r in 0..replicas {
            let sub: Vec<u64> = service.iter().skip(r).step_by(replicas).copied().collect();
            if sub.is_empty() {
                continue;
            }
            let sub_gap = gap * replicas as u64;
            let arrivals = ArrivalProcess::Fixed { gap: sub_gap }.arrivals(sub.len());
            let single = old_scan(&sub, &arrivals, capacity(queue));
            let shift = r as u64 * gap;
            for (k, &(arrival, start, finish, dropped)) in single.iter().enumerate() {
                let pool_rec = &pool.records[r + k * replicas];
                let what = format!("R={replicas} gap={gap} {queue:?} r={r} k={k}");
                assert_eq!(pool_rec.replica, r, "{what}: replica");
                assert_eq!(pool_rec.dropped, dropped, "{what}: dropped");
                assert_eq!(pool_rec.arrival, arrival + shift, "{what}: arrival");
                assert_eq!(pool_rec.start, start + shift, "{what}: start");
                assert_eq!(pool_rec.finish, finish + shift, "{what}: finish");
            }
            // Per-replica accounting matches the single server's totals.
            let served: Vec<_> = single.iter().filter(|rec| !rec.3).collect();
            let busy: u64 = served.iter().map(|rec| rec.2 - rec.1).sum();
            assert_eq!(
                pool.per_replica[r].completed,
                served.len(),
                "R={replicas} r={r}: completed"
            );
            assert_eq!(
                pool.per_replica[r].busy_cycles, busy,
                "R={replicas} r={r}: busy"
            );
        }
    }
}

/// Graph-structure permutations of the node ids leave the *functional*
/// prediction invariant (workload-agnosticism sanity: the architecture may
/// schedule differently, the answer may not change).
#[test]
fn node_relabeling_preserves_prediction() {
    use flowgnn::graph::{FeatureSource, Graph};
    let mut rng = Rng::seed_from_u64(0xF10_0005);
    for _ in 0..24 {
        let n = rng.gen_range(3usize..15);
        let p = rng.gen_range(0.2f64..0.6);
        let seed = rng.gen_range(0u64..100);
        let g = ErdosRenyi::new(n, p, seed).node_feat_dim(9).generate(0);
        // Reverse-relabel nodes: v → n-1-v.
        let n_id = g.num_nodes() as u32;
        let edges: Vec<(u32, u32)> = g
            .edges()
            .iter()
            .map(|&(u, v)| (n_id - 1 - u, n_id - 1 - v))
            .collect();
        let feats = g.node_features().materialize();
        let mut rev_rows: Vec<&[f32]> = (0..g.num_nodes()).map(|v| feats.row(v)).collect();
        rev_rows.reverse();
        let rev_feats = flowgnn::tensor::Matrix::from_rows(&rev_rows);
        let permuted =
            Graph::new(g.num_nodes(), edges, FeatureSource::dense(rev_feats), None).unwrap();

        let model = GnnModel::gcn_with(9, 16, 2, true, seed);
        let acc = Accelerator::new(model, ArchConfig::default());
        let a = acc.run(&g).output.unwrap().graph_output.unwrap();
        let b = acc.run(&permuted).output.unwrap().graph_output.unwrap();
        for (x, y) in a.iter().zip(&b) {
            let scale = x.abs().max(y.abs()).max(1.0);
            assert!((x - y).abs() / scale < 2e-3, "{x} vs {y}");
        }
    }
}

/// One seed pins one request stream in *both* serving domains: the live
/// runtime's wall-clock pacing schedule is the simulator's cycle schedule
/// converted stamp-for-stamp at the simulated clock, for every arrival
/// process over random parameters. This is the contract that makes the
/// dual-domain `repro live` grid apples-to-apples.
#[test]
fn arrival_schedules_agree_across_sim_and_live_pacing() {
    use std::time::Duration;
    let clock = flowgnn::desim::CLOCK_HZ;
    let mut rng = Rng::seed_from_u64(0xF10_0006);
    for _ in 0..40 {
        let seed = rng.gen_range(0u64..10_000);
        let n = rng.gen_range(1usize..400);
        let process = match rng.gen_range(0usize..3) {
            0 => ArrivalProcess::Fixed {
                gap: rng.gen_range(0u64..50_000),
            },
            1 => ArrivalProcess::Poisson {
                mean_gap: rng.gen_range(1u64..100_000) as f64,
                seed,
            },
            _ => ArrivalProcess::OnOff {
                mean_burst: rng.gen_range(1u64..12) as f64,
                burst_gap: rng.gen_range(1u64..5_000),
                mean_idle_gap: rng.gen_range(1_000u64..200_000) as f64,
                seed,
            },
        };
        // Same process, same seed: the two domains' schedules are the
        // same stamps (regenerated independently, as sim and live do).
        let cycles = process.arrivals(n);
        let wall = process.wall_schedule(n);
        assert_eq!(cycles, process.arrivals(n), "{process:?}: cycle replay");
        assert_eq!(wall, process.wall_schedule(n), "{process:?}: wall replay");
        assert_eq!(cycles.len(), wall.len());
        for (i, (&c, w)) in cycles.iter().zip(&wall).enumerate() {
            let expect = Duration::from_nanos((c as f64 / clock * 1e9).round() as u64);
            assert_eq!(*w, expect, "{process:?}[{i}]: cycle {c} at {clock} Hz");
        }
        // Both schedules are non-decreasing (open-loop generators rely
        // on it to pace forward only).
        assert!(cycles.windows(2).all(|p| p[0] <= p[1]), "{process:?}");
        assert!(wall.windows(2).all(|p| p[0] <= p[1]), "{process:?}");
    }
}

/// Both serving runtimes route through one `Dispatcher`; given the same
/// per-replica queue-depth observations, every policy makes the same
/// per-request decision no matter which domain asks — and each decision
/// obeys its policy's defining invariant (round-robin ignores the
/// observations entirely, JSQ picks the first minimum, power-of-two picks
/// the less-loaded of its two seeded draws).
#[test]
fn dispatch_policies_route_identically_for_identical_observations() {
    let mut rng = Rng::seed_from_u64(0xF10_0007);
    for _ in 0..40 {
        let replicas = rng.gen_range(1usize..9);
        let n = rng.gen_range(1usize..200);
        let seed = rng.gen_range(0u64..10_000);
        for policy in [
            DispatchPolicy::RoundRobin,
            DispatchPolicy::JoinShortestQueue,
            DispatchPolicy::CostBased,
            DispatchPolicy::PowerOfTwoChoices { seed },
        ] {
            // One shared observation sequence, two independent dispatcher
            // instances standing in for the sim scan and the live
            // scheduler.
            let observations: Vec<Vec<usize>> = (0..n)
                .map(|_| (0..replicas).map(|_| rng.gen_range(0usize..20)).collect())
                .collect();
            let mut sim = Dispatcher::new(policy);
            let mut live = Dispatcher::new(policy);
            for (i, depths) in observations.iter().enumerate() {
                let a = sim.route(i, replicas, |r| depths[r], |r| depths[r] as u64);
                let b = live.route(i, replicas, |r| depths[r], |r| depths[r] as u64);
                assert_eq!(a, b, "{policy:?} req {i}: domains disagree");
                assert!(a < replicas, "{policy:?} req {i}: route in range");
                match policy {
                    DispatchPolicy::RoundRobin => {
                        assert_eq!(a, i % replicas, "{policy:?} req {i}")
                    }
                    // Cost-based routing here observes costs equal to the
                    // depths, so it shares JSQ's argmin invariant.
                    DispatchPolicy::JoinShortestQueue | DispatchPolicy::CostBased => {
                        let min = *depths.iter().min().unwrap();
                        assert_eq!(depths[a], min, "{policy:?} req {i}: not a minimum");
                        assert!(
                            depths[..a].iter().all(|&d| d > min),
                            "{policy:?} req {i}: ties must break to the first minimum"
                        );
                    }
                    DispatchPolicy::PowerOfTwoChoices { .. } => {
                        // Replaying the same seed reproduces the choice.
                        let mut replay = Dispatcher::new(policy);
                        for (j, earlier) in observations[..=i].iter().enumerate() {
                            let c = replay.route(j, replicas, |r| earlier[r], |_| 0);
                            if j == i {
                                assert_eq!(c, a, "{policy:?} req {i}: seeded replay");
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Generates a random per-endpoint cost table and class assignment for a
/// fleet property run: `endpoints` rows of `n` service costs each, plus a
/// random class index per request.
fn random_fleet_workload(
    rng: &mut Rng,
    endpoints: usize,
    classes: usize,
    n: usize,
) -> (Vec<Vec<u64>>, Vec<usize>) {
    let costs = (0..endpoints)
        .map(|_| (0..n).map(|_| rng.gen_range(200u64..4000)).collect())
        .collect();
    let class_of = (0..n).map(|_| rng.gen_range(0usize..classes)).collect();
    (costs, class_of)
}

/// Fleet admission is work-conserving under both policies: a replica never
/// idles while an admitted request is waiting in its queue. A replica
/// serves one request per service event, so the observable form is exact
/// — order a replica's served records by start and each must begin at
/// `max(previous finish, own arrival)`: immediately when the server frees
/// if the request was queued, on arrival if the server sat idle. Priority
/// admission only changes *which* requests survive a full queue, never
/// when surviving work runs, so the invariant holds for both policies over
/// random fleets, class mixes, and queue bounds. Each fleet also runs
/// under cost-based routing, which reads the replicas' outstanding work
/// while displacements change it.
///
/// Service accounting is exact too: each served request occupies its
/// replica for exactly its cost on that replica's endpoint, and a
/// replica's `busy_cycles` and `completed` are the sum and count of the
/// requests it served.
#[test]
fn fleet_admission_is_work_conserving() {
    let mut rng = Rng::seed_from_u64(0x000F_1EE7_0001);
    for _ in 0..32 {
        let endpoints = rng.gen_range(1usize..3);
        let n = rng.gen_range(10usize..120);
        let capacity = rng.gen_range(0usize..5);
        let gap = rng.gen_range(100u64..3000);
        let admission = if rng.gen_bool(0.5) {
            AdmissionPolicy::Fifo
        } else {
            AdmissionPolicy::Priority
        };
        let (costs, class_of) = random_fleet_workload(&mut rng, endpoints, 2, n);

        let mut builder = FleetConfig::builder()
            .arrivals(ArrivalProcess::Fixed { gap })
            .queue_capacity(capacity)
            .admission(admission)
            .class(RequestClass::new("lo", 0))
            .class(RequestClass::new("hi", 2));
        let mut endpoint_of = Vec::new();
        for e in 0..endpoints {
            let replicas = rng.gen_range(1usize..4);
            endpoint_of.extend(std::iter::repeat_n(e, replicas));
            builder = builder.endpoint(ModelEndpoint::new(format!("e{e}"), replicas));
        }
        for policy in [DispatchPolicy::RoundRobin, DispatchPolicy::CostBased] {
            let config = builder.clone().policy(policy).build().unwrap();
            let report = run_sim(&costs, &class_of, &config);

            for (replica, &e) in endpoint_of.iter().enumerate() {
                let mut served: Vec<_> = report
                    .records
                    .iter()
                    .enumerate()
                    .filter(|(_, rec)| !rec.dropped && rec.replica == replica)
                    .collect();
                served.sort_by_key(|(_, rec)| rec.start);
                let mut prev_finish = 0u64;
                let mut busy = 0u64;
                for (k, &(i, rec)) in served.iter().enumerate() {
                    let what = format!(
                        "{admission:?} {policy:?} cap={capacity} gap={gap} replica {replica} job {k}"
                    );
                    assert!(rec.finish > rec.start, "{what}: zero-length service");
                    assert_eq!(
                        rec.start,
                        prev_finish.max(rec.arrival),
                        "{what}: replica idled with admitted work waiting"
                    );
                    assert_eq!(rec.service_cycles(), costs[e][i], "{what}: service cost");
                    prev_finish = rec.finish;
                    busy += costs[e][i];
                }
                let stats = &report.per_replica[replica];
                let what = format!("{admission:?} {policy:?} replica {replica}");
                assert_eq!(stats.busy_cycles, busy, "{what}: busy cycles");
                assert_eq!(stats.completed, served.len(), "{what}: completed");
            }
        }
    }
}

/// Priority admission never starves the high-priority class: against the
/// byte-identical arrival stream, switching FIFO admission to priority
/// admission never increases high-class drops (a full queue prefers
/// evicting a strictly-lower-priority waiter over rejecting a high
/// arrival), and under sustained overload the high class never drops at a
/// higher rate than the low class it preempts. Checked over random
/// overloaded fleets — rates 1.3–2× capacity, random class mixes, shallow
/// random queues — where admission pressure is constant.
#[test]
fn priority_admission_never_starves_high_priority() {
    let mut rng = Rng::seed_from_u64(0x000F_1EE7_0002);
    for _ in 0..24 {
        let replicas = rng.gen_range(1usize..3);
        let n = rng.gen_range(60usize..160);
        let capacity = rng.gen_range(1usize..4);
        let (costs, _) = random_fleet_workload(&mut rng, 1, 2, n);
        // ~30% high-priority traffic, the rest preemptible.
        let class_of: Vec<usize> = (0..n).map(|_| usize::from(rng.gen_bool(0.3))).collect();
        // Offered load 1.3–2x the pool's service rate: the queue is full
        // most of the run, so admission decides who survives.
        let mean_cost = costs[0].iter().sum::<u64>() / n as u64;
        let overload = 1.3 + rng.gen_range(0u64..8) as f64 / 10.0;
        let gap = (mean_cost as f64 / (replicas as f64 * overload)).max(1.0) as u64;

        let run = |admission: AdmissionPolicy| {
            let config = FleetConfig::builder()
                .arrivals(ArrivalProcess::Fixed { gap })
                .queue_capacity(capacity)
                .admission(admission)
                .policy(DispatchPolicy::JoinShortestQueue)
                .endpoint(ModelEndpoint::new("pool", replicas))
                .class(RequestClass::new("lo", 0))
                .class(RequestClass::new("hi", 2))
                .build()
                .unwrap();
            run_sim(&costs, &class_of, &config)
        };
        let fifo = run(AdmissionPolicy::Fifo);
        let prio = run(AdmissionPolicy::Priority);

        let class = |report: &ServeReport, name: &str| {
            report
                .per_class
                .iter()
                .find(|c| c.name == name)
                .cloned()
                .unwrap()
        };
        let what = format!("R={replicas} cap={capacity} gap={gap} n={n}");
        let (fifo_hi, prio_hi) = (class(&fifo, "hi"), class(&prio, "hi"));
        let (prio_lo,) = (class(&prio, "lo"),);
        assert_eq!(fifo_hi.requests, prio_hi.requests, "{what}: offered");
        assert!(
            prio_hi.dropped <= fifo_hi.dropped,
            "{what}: priority admission increased hi drops \
             ({} vs {} under FIFO)",
            prio_hi.dropped,
            fifo_hi.dropped
        );
        if prio_hi.requests > 0 && prio_lo.requests > 0 {
            let hi_rate = prio_hi.dropped as f64 / prio_hi.requests as f64;
            let lo_rate = prio_lo.dropped as f64 / prio_lo.requests as f64;
            assert!(
                hi_rate <= lo_rate,
                "{what}: hi class starved (drop rate {hi_rate:.3} vs lo {lo_rate:.3})"
            );
        }
    }
}

/// A fleet of one endpoint and one class under FIFO admission *is* the
/// replica-pool scan: the fleet scan on `FleetConfig::pool` must
/// reproduce the independent pre-split pool scan bitwise — records and
/// per-replica accounting, from which the one shared summary derives
/// every statistic — over random service traces, arrival processes,
/// dispatch policies, queue bounds, and pool sizes. This is the
/// randomized counterpart of the scale-recipe pin in `differential.rs`:
/// the fleet layer adds class and endpoint views on top of the scan, it
/// never perturbs it.
#[test]
fn degenerate_fleet_equals_the_replica_pool_scan() {
    let mut rng = Rng::seed_from_u64(0x000F_1EE7_0003);
    for _ in 0..40 {
        let replicas = rng.gen_range(1usize..6);
        let n = rng.gen_range(1usize..150);
        let seed = rng.gen_range(0u64..10_000);
        let service: Vec<u64> = (0..n).map(|_| rng.gen_range(1u64..5000)).collect();
        let queue = if rng.gen_bool(0.4) {
            QueuePolicy::Unbounded
        } else {
            QueuePolicy::Bounded(rng.gen_range(0usize..6))
        };
        let policy = match rng.gen_range(0usize..4) {
            0 => DispatchPolicy::RoundRobin,
            1 => DispatchPolicy::JoinShortestQueue,
            2 => DispatchPolicy::CostBased,
            _ => DispatchPolicy::PowerOfTwoChoices { seed },
        };
        let arrivals = match rng.gen_range(0usize..3) {
            0 => ArrivalProcess::Fixed {
                gap: rng.gen_range(0u64..4000),
            },
            1 => ArrivalProcess::Poisson {
                mean_gap: rng.gen_range(1u64..6000) as f64,
                seed,
            },
            _ => ArrivalProcess::OnOff {
                mean_burst: rng.gen_range(1u64..8) as f64,
                burst_gap: rng.gen_range(1u64..500),
                mean_idle_gap: rng.gen_range(500u64..20_000) as f64,
                seed,
            },
        };

        let config = FleetConfig::pool(replicas)
            .arrivals(arrivals)
            .queue(queue)
            .policy(policy)
            .build()
            .unwrap();
        let fleet = run_pool(&service, &config);
        let (reference, stats) = old_pool_scan(
            &service,
            &arrivals.arrivals(n),
            capacity(queue),
            replicas,
            policy,
        );

        let what = format!("{arrivals:?} / {policy:?} / {queue:?} / R={replicas}");
        assert_eq!(fleet.per_class.len(), 1, "{what}");
        assert_eq!(fleet.per_endpoint.len(), 1, "{what}");
        assert_eq!(
            fleet.per_class[0].completed + fleet.per_class[0].dropped,
            n,
            "{what}: class view covers every request"
        );
        assert_matches(&fleet, &reference, &stats, &what);
    }
}

/// One replica of [`priority_pool_scan`]: when it frees, who waits (in
/// arrival order), and what it served.
#[derive(Clone, Default)]
struct PriorityRep {
    free_at: u64,
    waiting: Vec<usize>,
    completed: usize,
    busy: u64,
}

impl PriorityRep {
    /// Serves a request that arrived at `arrival` from `start` for
    /// `cost` cycles; `replica` is this replica's index.
    fn serve(&mut self, replica: usize, arrival: u64, start: u64, cost: u64) -> common::OldRecord {
        self.free_at = start + cost;
        self.completed += 1;
        self.busy += cost;
        (arrival, start, start + cost, false, replica)
    }
}

/// An independent reference for the fleet scan with request classes:
/// replica `g` serves at `costs[endpoint_of[g]]`, and a full waiting room
/// is resolved by priority. Written in the pre-fleet pool scan's style
/// (an idle replica serves on arrival; a queued request starts when its
/// replica frees), plus displacement: with `displace` set, a full-queue
/// arrival evicts the rightmost lowest-priority waiter, recorded dropped
/// at its own arrival, only when the arrival's priority is strictly
/// higher; otherwise the arrival drops. Routing is the four dispatch
/// policies spelled out: cost-based picks the least outstanding work plus
/// the request's own cost there. Returns the records and per-replica
/// `(completed, busy)`.
fn priority_pool_scan(
    costs: &[Vec<u64>],
    endpoint_of: &[usize],
    arrivals: &[u64],
    priority: &[u8],
    capacity: usize,
    displace: bool,
    policy: DispatchPolicy,
) -> (Vec<common::OldRecord>, Vec<(usize, u64)>) {
    let replicas = endpoint_of.len();
    let cost = |g: usize, i: usize| costs[endpoint_of[g]][i];
    let mut pool = vec![PriorityRep::default(); replicas];
    let mut records = vec![(0, 0, 0, true, 0); arrivals.len()];
    let mut rng = match policy {
        DispatchPolicy::PowerOfTwoChoices { seed } => Some(Rng::seed_from_u64(seed)),
        _ => None,
    };
    let start_due = |pool: &mut [PriorityRep], records: &mut [_], now: Option<u64>| {
        for (g, rep) in pool.iter_mut().enumerate() {
            while !rep.waiting.is_empty() && now.is_none_or(|t| rep.free_at <= t) {
                let j = rep.waiting.remove(0);
                records[j] = rep.serve(g, arrivals[j], rep.free_at, cost(g, j));
            }
        }
    };
    for (i, &t) in arrivals.iter().enumerate() {
        start_due(&mut pool, &mut records, Some(t));
        let backlog = |g: usize| pool[g].waiting.len() + usize::from(pool[g].free_at > t);
        let work = |g: usize| {
            let queued: u64 = pool[g].waiting.iter().map(|&j| cost(g, j)).sum();
            pool[g].free_at.saturating_sub(t) + queued
        };
        let target = match policy {
            DispatchPolicy::RoundRobin => i % replicas,
            DispatchPolicy::JoinShortestQueue => (0..replicas).min_by_key(|&g| backlog(g)).unwrap(),
            DispatchPolicy::CostBased => {
                (0..replicas).min_by_key(|&g| work(g) + cost(g, i)).unwrap()
            }
            DispatchPolicy::PowerOfTwoChoices { .. } => {
                let rng = rng.as_mut().unwrap();
                let a = rng.bounded_u64(replicas as u64) as usize;
                let b = rng.bounded_u64(replicas as u64) as usize;
                let (lo, hi) = (a.min(b), a.max(b));
                if backlog(hi) < backlog(lo) {
                    hi
                } else {
                    lo
                }
            }
        };
        let rep = &mut pool[target];
        if rep.free_at <= t {
            // Idle: serve on arrival.
            records[i] = rep.serve(target, t, t, cost(target, i));
        } else if rep.waiting.len() < capacity {
            rep.waiting.push(i);
        } else {
            // Full. Scanning from the back, the first lowest priority met
            // is the rightmost one.
            let victim = (0..rep.waiting.len())
                .rev()
                .min_by_key(|&p| priority[rep.waiting[p]])
                .filter(|&p| displace && priority[rep.waiting[p]] < priority[i]);
            match victim {
                Some(p) => {
                    let v = rep.waiting.remove(p);
                    records[v] = (arrivals[v], arrivals[v], arrivals[v], true, target);
                    rep.waiting.push(i);
                }
                None => records[i] = (t, t, t, true, target),
            }
        }
    }
    start_due(&mut pool, &mut records, None);
    let stats = pool.iter().map(|r| (r.completed, r.busy)).collect();
    (records, stats)
}

/// The fleet scan with request classes reproduces the independent
/// priority reference bit for bit — records and per-replica accounting —
/// under both admission policies, all four dispatch policies, queue
/// bounds 0–5, and random class mixes (priorities drawn with ties, so
/// the incumbent-wins rule is exercised), over one- and two-endpoint
/// fleets at loads from light to several times overload.
#[test]
fn priority_fleet_equals_the_priority_reference_scan() {
    let mut rng = Rng::seed_from_u64(0x000F_1EE7_0004);
    for _ in 0..24 {
        let endpoints = rng.gen_range(1usize..3);
        let classes = rng.gen_range(1usize..4);
        let n = rng.gen_range(1usize..120);
        let seed = rng.gen_range(0u64..10_000);
        let (costs, class_of) = random_fleet_workload(&mut rng, endpoints, classes, n);
        let priorities: Vec<u8> = (0..classes).map(|_| rng.gen_range(0u32..3) as u8).collect();
        let priority: Vec<u8> = class_of.iter().map(|&c| priorities[c]).collect();
        let mut endpoint_of = Vec::new();
        let mut builder = FleetConfig::builder();
        for e in 0..endpoints {
            let replicas = rng.gen_range(1usize..4);
            endpoint_of.extend(std::iter::repeat_n(e, replicas));
            builder = builder.endpoint(ModelEndpoint::new(format!("e{e}"), replicas));
        }
        for (c, &p) in priorities.iter().enumerate() {
            builder = builder.class(RequestClass::new(format!("c{c}"), p));
        }
        // Service costs average about 2,100 cycles; mean gaps from 30 to
        // 3,000 spread the offered load from light to heavy overload.
        let mean_gap = rng.gen_range(30u64..3000);
        let arrivals = match rng.gen_range(0usize..3) {
            0 => ArrivalProcess::Fixed { gap: mean_gap },
            1 => ArrivalProcess::Poisson {
                mean_gap: mean_gap as f64,
                seed,
            },
            _ => ArrivalProcess::OnOff {
                mean_burst: rng.gen_range(1u64..8) as f64,
                burst_gap: mean_gap / 4,
                mean_idle_gap: (mean_gap * 4) as f64,
                seed,
            },
        };
        let stamps = arrivals.arrivals(n);
        for admission in [AdmissionPolicy::Fifo, AdmissionPolicy::Priority] {
            for policy in [
                DispatchPolicy::RoundRobin,
                DispatchPolicy::JoinShortestQueue,
                DispatchPolicy::CostBased,
                DispatchPolicy::PowerOfTwoChoices { seed },
            ] {
                for capacity in 0..=5 {
                    let config = builder
                        .clone()
                        .arrivals(arrivals)
                        .queue_capacity(capacity)
                        .admission(admission)
                        .policy(policy)
                        .build()
                        .unwrap();
                    let report = run_sim(&costs, &class_of, &config);
                    let (reference, stats) = priority_pool_scan(
                        &costs,
                        &endpoint_of,
                        &stamps,
                        &priority,
                        capacity,
                        admission == AdmissionPolicy::Priority,
                        policy,
                    );
                    let what = format!(
                        "{arrivals:?} / {admission:?} / {policy:?} / cap={capacity} / \
                         endpoints={endpoint_of:?} / priorities={priorities:?}"
                    );
                    assert_matches(&report, &reference, &stats, &what);
                }
            }
        }
    }
}
