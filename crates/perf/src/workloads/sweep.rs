//! `molhiv_gcn_sweep`: the serving sweeps once their trace cache is warm,
//! so the engine never runs in the timed passes.
//!
//! - Phase A is the `repro serve`/`scale` shape: a grid of
//!   `serve_on(Runtime::Sim)` calls over replicas × dispatch policy ×
//!   offered load on one shared cache. Each call regenerates its graphs
//!   and looks every one up, so it measures graph generation and the
//!   cache's hit path.
//! - Phase B is the `repro fleet` shape: the warm trace replayed through
//!   `run_fleet` on a two-endpoint, two-class fleet under FIFO and
//!   priority admission and JSQ and cost routing. It is almost entirely
//!   the fleet scan.

use std::time::Instant;

use flowgnn_core::{
    graph_fingerprint, run_fleet, Accelerator, AdmissionPolicy, ArchConfig, ArrivalProcess,
    DispatchPolicy, ExecutionMode, FleetConfig, FleetError, FleetRuntime, InferenceBackend,
    ModelEndpoint, ModelWorker, QueuePolicy, RequestClass, Runtime, RuntimeReport,
    ServiceTraceCache,
};
use flowgnn_desim::{cycles_to_ms, Cycle};
use flowgnn_graph::datasets::{DatasetKind, DatasetSpec};
use flowgnn_graph::Graph;
use flowgnn_models::GnnModel;
use flowgnn_rng::Rng;

use super::{run_passes, setup_timer, Opts, Report};
use crate::stats::per_item_fast;

const REPLICAS: [usize; 4] = [1, 2, 4, 8];
const POLICIES: [&str; 3] = ["rr", "jsq", "p2c"];
const LOADS: [f64; 7] = [0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1];

/// Admission queue per replica in phase A (the `repro serve` value).
const QUEUE: usize = 64;

/// A p99 within this multiple of the mean service time meets the SLO.
const SLO_FACTOR: f64 = 4.0;

/// Phase B fleet: accelerator and edge replicas, and how much slower an
/// edge replica serves the same graph.
const ACCEL_REPLICAS: usize = 2;
const EDGE_REPLICAS: usize = 4;
const EDGE_SLOWDOWN: u64 = 6;

/// Phase B loads, relative to the fleet's aggregate capacity.
const FLEET_LOADS: [f64; 12] = [0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2];

/// Phase B tenant mixes: the share of requests in the interactive class.
const INTERACTIVE_SHARES: [f64; 3] = [0.3, 0.6, 0.9];

/// One tenant mix's request stream: each request's class and its cost on
/// each endpoint.
struct Mix {
    class_of: Vec<usize>,
    costs: Vec<Vec<Cycle>>,
}

struct Point {
    replicas: usize,
    policy: &'static str,
    load: f64,
    rate: f64,
    config: FleetConfig,
}

/// What the checks and metrics need from one serving report; its
/// per-request records are dropped at once.
#[derive(Clone, Copy)]
struct Served {
    balanced: bool,
    dropped: usize,
    p99_ms: f64,
}

impl Served {
    fn of(report: Result<RuntimeReport, FleetError>) -> Option<Self> {
        let r = report.ok()?.sim()?;
        Some(Self {
            balanced: r.completed + r.dropped == r.requests,
            dropped: r.dropped,
            p99_ms: r.p99_ms,
        })
    }
}

struct Pass {
    a_wall_s: f64,
    b_wall_s: f64,
    point_ms: Vec<f64>,
    fleet_point_ms: Vec<f64>,
    a_served: Vec<Option<Served>>,
    b_served: Vec<Option<Served>>,
    hits: u64,
    misses: u64,
}

fn policy(name: &str, seed: u64) -> DispatchPolicy {
    match name {
        "rr" => DispatchPolicy::RoundRobin,
        "jsq" => DispatchPolicy::JoinShortestQueue,
        _ => DispatchPolicy::PowerOfTwoChoices { seed },
    }
}

pub fn run(opts: &Opts) -> Report {
    let mut report = Report::default();
    let n = opts.size(800, 24);
    let m = opts.size(5_000, 20);
    let spec = DatasetSpec::standard(DatasetKind::MolHiv)
        .seed(opts.derive(4))
        .num_graphs(n);
    let model = GnnModel::gcn(spec.node_feat_dim(), 11);
    let config = ArchConfig::default().with_execution(ExecutionMode::TimingOnly);

    // Set-up: the cold pass that fills the shared cache.
    let ((acc, trace), setup) = setup_timer(|| {
        let acc =
            Accelerator::new(model.clone(), config).with_trace_cache(ServiceTraceCache::new(n));
        let trace = acc.service_trace(spec.stream(), n);
        (acc, trace)
    });
    let mean_ms = cycles_to_ms(trace.iter().sum::<Cycle>()) / n as f64;

    let mut points = Vec::new();
    for (r, &replicas) in REPLICAS.iter().enumerate() {
        for (d, &policy_name) in POLICIES.iter().enumerate() {
            for (l, &load) in LOADS.iter().enumerate() {
                // The arrival seed is policy-blind: every policy at one
                // (replicas, load) faces the same request stream.
                let rate = load * replicas as f64 * 1e3 / mean_ms;
                let config = FleetConfig::builder()
                    .arrivals(ArrivalProcess::poisson_rate(
                        rate,
                        opts.derive(0xA000 + (r * LOADS.len() + l) as u64),
                    ))
                    .queue(QueuePolicy::Bounded(QUEUE))
                    .policy(policy(
                        policy_name,
                        opts.derive(0xA200 + ((r * POLICIES.len() + d) * LOADS.len() + l) as u64),
                    ))
                    .endpoint(ModelEndpoint::new("pool", replicas))
                    .class(RequestClass::new("default", 0))
                    .build()
                    .expect("valid sweep config");
                points.push(Point {
                    replicas,
                    policy: policy_name,
                    load,
                    rate,
                    config,
                });
            }
        }
    }

    // Phase B's request streams: the warm trace, resampled into two tenant
    // classes at each mix, priced on both endpoint kinds.
    let mixes: Vec<Mix> = INTERACTIVE_SHARES
        .iter()
        .enumerate()
        .map(|(k, &share)| {
            let mut rng = Rng::seed_from_u64(opts.derive(0xB000 + k as u64));
            let (mut class_of, mut accel) = (Vec::with_capacity(m), Vec::with_capacity(m));
            for _ in 0..m {
                class_of.push(usize::from(!rng.gen_bool(share)));
                accel.push(trace[rng.gen_range(0..n)]);
            }
            let edge = accel.iter().map(|c| c * EDGE_SLOWDOWN).collect();
            Mix {
                class_of,
                costs: vec![accel, edge],
            }
        })
        .collect();
    let capacity = ACCEL_REPLICAS as f64 + EDGE_REPLICAS as f64 / EDGE_SLOWDOWN as f64;
    let mut fleet_points: Vec<(&Mix, FleetConfig)> = Vec::new();
    for (k, mix) in mixes.iter().enumerate() {
        for admission in [AdmissionPolicy::Fifo, AdmissionPolicy::Priority] {
            for routing in [DispatchPolicy::JoinShortestQueue, DispatchPolicy::CostBased] {
                for (l, &load) in FLEET_LOADS.iter().enumerate() {
                    let rate = load * capacity * 1e3 / mean_ms;
                    let arrival_seed = opts.derive(0xB100 + (k * FLEET_LOADS.len() + l) as u64);
                    let config = FleetConfig::builder()
                        .arrivals(ArrivalProcess::poisson_rate(rate, arrival_seed))
                        .queue(QueuePolicy::Bounded(16))
                        .admission(admission)
                        .policy(routing)
                        .endpoint(ModelEndpoint::new("accel", ACCEL_REPLICAS))
                        .endpoint(ModelEndpoint::new("edge", EDGE_REPLICAS))
                        .class(
                            RequestClass::new("interactive", 2).with_slo_ms(mean_ms * SLO_FACTOR),
                        )
                        .class(RequestClass::new("analytics", 0))
                        .build()
                        .expect("valid fleet config");
                    fleet_points.push((mix, config));
                }
            }
        }
    }

    let cache = acc.trace_cache().expect("attached").clone();
    let pool_class = vec![0usize; n];
    let (untraced, traced) = run_passes(opts, &mut report, setup, |rec| {
        let before = cache.stats();
        let mut point_ms = Vec::with_capacity(points.len());
        let mut a_served = Vec::with_capacity(points.len());
        let mut roots = Vec::with_capacity(points.len());
        let start = Instant::now();
        for (p, point) in points.iter().enumerate() {
            let t = Instant::now();
            let span = rec.begin("cache", None, p as u64);
            let served = acc.serve_on(spec.stream(), n, &point.config, Runtime::Sim, None);
            rec.end(span);
            point_ms.push(t.elapsed().as_secs_f64() * 1e3);
            a_served.push(Served::of(served));
            roots.push(span);
        }
        let a_wall_s = start.elapsed().as_secs_f64();
        let after = cache.stats();

        let mut b_served = Vec::with_capacity(fleet_points.len());
        let mut fleet_point_ms = Vec::with_capacity(fleet_points.len());
        let start = Instant::now();
        for (p, (mix, config)) in fleet_points.iter().enumerate() {
            let t = Instant::now();
            let span = rec.begin("serve_sim", None, (points.len() + p) as u64);
            let served = run_fleet::<ModelWorker>(
                &mix.costs,
                &mix.class_of,
                config,
                FleetRuntime::Sim,
                None,
            );
            rec.end(span);
            fleet_point_ms.push(t.elapsed().as_secs_f64() * 1e3);
            b_served.push(Served::of(served));
        }
        let b_wall_s = start.elapsed().as_secs_f64();

        if rec.on() {
            // Attribution: what serve_on does inside, called piecewise on
            // the same inputs — generate, fingerprint, scan.
            for (p, (point, root)) in points.iter().zip(&roots).enumerate() {
                let span = rec.begin("graph", *root, p as u64);
                let graphs: Vec<Graph> = spec.stream().collect();
                rec.end(span);
                let span = rec.begin("cache.fingerprint", *root, p as u64);
                graphs.iter().for_each(|g| {
                    std::hint::black_box(graph_fingerprint(g));
                });
                rec.end(span);
                let span = rec.begin("serve_sim", *root, p as u64);
                let costs = vec![trace.clone(); point.config.endpoints.len()];
                std::hint::black_box(
                    run_fleet::<ModelWorker>(
                        &costs,
                        &pool_class,
                        &point.config,
                        FleetRuntime::Sim,
                        None,
                    )
                    .is_ok(),
                );
                rec.end(span);
            }
        }
        Pass {
            a_wall_s,
            b_wall_s,
            point_ms,
            fleet_point_ms,
            a_served,
            b_served,
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
        }
    });

    // Correctness: every call returned a report that accounts for every
    // request, and the cache serves exactly the uncached engine's trace.
    let a_requests = (points.len() * n) as u64;
    let b_requests = (fleet_points.len() * m) as u64;
    let mut mismatches = 0u64;
    for t in untraced.iter().chain(&traced) {
        report.attempted += a_requests + b_requests;
        let bad = t
            .a_served
            .iter()
            .chain(&t.b_served)
            .filter(|s| !s.is_some_and(|s| s.balanced))
            .count();
        mismatches += bad as u64 + t.misses;
    }
    let uncached = Accelerator::new(model, config).service_trace(spec.stream(), n);
    let cached = acc.service_trace(spec.stream(), n);
    let trace_mismatch = u64::from(uncached != cached || cached != trace);
    report.add_check(n as u64, mismatches + trace_mismatch);
    report.set("check.graphs", n as f64);
    report.set("check.cycle_mismatches", trace_mismatch as f64);

    let first = &untraced[0];
    let r4_jsq: Vec<(&Point, Served)> = points
        .iter()
        .zip(&first.a_served)
        .filter(|(p, _)| p.replicas == 4 && p.policy == "jsq")
        .filter_map(|(p, s)| Some((p, (*s)?)))
        .collect();
    let sim_p99_us = r4_jsq
        .iter()
        .find(|(p, _)| (p.load - 0.9).abs() < 1e-9)
        .map_or(0.0, |(_, r)| r.p99_ms * 1e3);
    let sim_max_rate = r4_jsq
        .iter()
        .filter(|(_, r)| r.p99_ms <= mean_ms * SLO_FACTOR && r.dropped == 0)
        .map(|(p, _)| p.rate)
        .fold(0.0, f64::max);

    // Each point's fast-decile host time over the passes.
    let a_ms = report.set_latency(
        &untraced
            .iter()
            .map(|t| t.point_ms.clone())
            .collect::<Vec<_>>(),
    );
    let b_ms = per_item_fast(
        &untraced
            .iter()
            .map(|t| t.fleet_point_ms.clone())
            .collect::<Vec<_>>(),
    );
    let a_walls: Vec<f64> = untraced.iter().map(|t| t.a_wall_s).collect();
    let b_walls: Vec<f64> = untraced.iter().map(|t| t.b_wall_s).collect();
    let walls: Vec<f64> = a_walls.iter().zip(&b_walls).map(|(a, b)| a + b).collect();
    report.set_rate(
        "graphs_per_s",
        (a_requests + b_requests) as f64,
        &[a_ms.as_slice(), &b_ms].concat(),
        &walls,
    );
    report.set_rate("points_per_s", points.len() as f64, &a_ms, &a_walls);
    report.set_rate("replay_requests_per_s", b_requests as f64, &b_ms, &b_walls);
    report.set("sim_latency_us", mean_ms * 1e3);

    if opts.trace {
        let trials = traced.len();
        let walls = |ts: &[Pass]| {
            ts.iter()
                .map(|t| t.a_wall_s + t.b_wall_s)
                .collect::<Vec<_>>()
        };
        report.set_trace_cost(&walls(&untraced), &walls(&traced));
        report.set_layer("cache", trials);
        report.set_layer("serve_sim", trials);
        let hits: u64 = traced.iter().map(|t| t.hits).sum::<u64>() / trials as u64;
        let misses: u64 = traced.iter().map(|t| t.misses).sum::<u64>() / trials as u64;
        report.set("cache.lookups", (hits + misses) as f64);
        report.set("cache.hits", hits as f64);
        report.set("cache.misses", misses as f64);
        report.set("cache.evictions", cache.stats().evictions as f64);
        report.set(
            "cache.hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        report.set(
            "cache.fingerprint_s",
            report.tracer.self_secs("cache.fingerprint") / trials as f64,
        );
        let generate_s = report.tracer.self_secs("graph") / trials as f64;
        report.set("graph.generate_s", generate_s);
        report.set("graph.graphs", a_requests as f64);
        let serve_s = report.tracer.self_secs("serve_sim") / trials as f64;
        report.set(
            "serve_sim.calls",
            (points.len() + fleet_points.len()) as f64,
        );
        report.set("serve_sim.requests", (a_requests + b_requests) as f64);
        report.set(
            "serve_sim.ns_per_request",
            serve_s * 1e9 / (a_requests + b_requests) as f64,
        );
        let drops: usize = traced[0]
            .a_served
            .iter()
            .chain(&traced[0].b_served)
            .flatten()
            .map(|s| s.dropped)
            .sum();
        report.set("serve_sim.drops", drops as f64);
        report.set("sim_p99_us", sim_p99_us);
        report.set("sim_max_rate_rps", sim_max_rate);
    }
    report
}
