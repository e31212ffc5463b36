//! `hep_gcn_timing`: HEP point clouds through a timing-only GCN in a
//! closed loop of `service_trace` calls, each pass on a fresh trace
//! cache sized to hold every graph. The cycle engine does almost all the
//! work, the kernels none, and the cache sees only misses and inserts —
//! the cold pass of every sweep.

use std::time::Instant;

use flowgnn_core::{
    graph_fingerprint, Accelerator, ArchConfig, EngineMode, ExecutionMode, ServiceTraceCache,
    SimScratch,
};
use flowgnn_desim::cycles_to_us;
use flowgnn_graph::datasets::{DatasetKind, DatasetSpec};
use flowgnn_graph::GraphStream;
use flowgnn_models::GnnModel;

use super::{run_passes, setup_timer, Opts, Report, SimTotals};

/// Every this many graphs is re-run on the per-cycle reference engine.
const CHECK_EVERY: usize = 64;

struct Pass {
    wall_s: f64,
    latency_ms: Vec<f64>,
    cycles: Vec<u64>,
    cache_misses: u64,
}

pub fn run(opts: &Opts) -> Report {
    let mut report = Report::default();
    let n = opts.size(400, 6);
    let spec = DatasetSpec::standard(DatasetKind::Hep)
        .seed(opts.derive(1))
        .num_graphs(n);
    let model = GnnModel::gcn(spec.node_feat_dim(), 11);
    let config = ArchConfig::default().with_execution(ExecutionMode::TimingOnly);

    // One single-graph stream per request, so the timed loop is a closed
    // loop of one `service_trace` call per graph.
    let ((streams, acc), setup) = setup_timer(|| {
        let streams: Vec<GraphStream> = spec
            .stream()
            .map(|g| GraphStream::from_graphs(vec![g]))
            .collect();
        (streams, Accelerator::new(model.clone(), config))
    });
    let graph = |i: usize| streams[i].get(0);

    let mut sim = SimTotals::default();
    let (untraced, traced) = run_passes(opts, &mut report, setup, |rec| {
        let pass_acc = acc.clone().with_trace_cache(ServiceTraceCache::new(n));
        let mut latency_ms = Vec::with_capacity(n);
        let mut cycles = Vec::with_capacity(n);
        let mut roots = Vec::with_capacity(n);
        let start = Instant::now();
        for (i, stream) in streams.iter().enumerate() {
            let t = Instant::now();
            let span = rec.begin("cache", None, i as u64);
            let trace = pass_acc.service_trace(stream.clone(), 1);
            rec.end(span);
            latency_ms.push(t.elapsed().as_secs_f64() * 1e3);
            cycles.push(trace[0]);
            roots.push(span);
        }
        let wall_s = start.elapsed().as_secs_f64();
        if rec.on() {
            // Attribution: the layers service_trace runs on a miss,
            // called on the same graphs.
            let mut scratch = SimScratch::default();
            sim = SimTotals::default();
            for (i, root) in roots.iter().enumerate() {
                let g = graph(i);
                let span = rec.begin("cache.fingerprint", *root, i as u64);
                std::hint::black_box(graph_fingerprint(&g));
                rec.end(span);
                let span = rec.begin("prepare", *root, i as u64);
                let prepared = acc.prepare(&g);
                rec.end(span);
                let span = rec.begin("engine", *root, i as u64);
                let run = acc.run_prepared(&prepared, &mut scratch);
                rec.end(span);
                sim.add(&run);
            }
        }
        let stats = pass_acc.trace_cache().expect("attached").stats();
        Pass {
            wall_s,
            latency_ms,
            cycles,
            cache_misses: stats.misses,
        }
    });

    // Correctness: every pass saw the same cycles, every lookup missed,
    // and sampled graphs match the per-cycle reference engine exactly.
    let first = &untraced[0].cycles;
    let mut mismatches = untraced
        .iter()
        .chain(&traced)
        .filter(|t| &t.cycles != first || t.cache_misses != n as u64)
        .count() as u64;
    let reference = Accelerator::new(model, config.with_engine(EngineMode::Reference));
    let checked: Vec<usize> = (0..n).step_by(CHECK_EVERY).collect();
    let cycle_mismatches = checked
        .iter()
        .filter(|&&i| reference.run(&graph(i)).total_cycles != first[i])
        .count() as u64;
    mismatches += cycle_mismatches;
    report.attempted = ((untraced.len() + traced.len()) * n) as u64;
    report.add_check(checked.len() as u64, mismatches);
    report.set("check.graphs", checked.len() as f64);
    report.set("check.cycle_mismatches", cycle_mismatches as f64);

    let latency = report.set_latency(
        &untraced
            .iter()
            .map(|t| t.latency_ms.clone())
            .collect::<Vec<_>>(),
    );
    let walls: Vec<f64> = untraced.iter().map(|t| t.wall_s).collect();
    report.set_rate("graphs_per_s", n as f64, &latency, &walls);
    report.set(
        "sim_latency_us",
        first.iter().map(|&c| cycles_to_us(c)).sum::<f64>() / n as f64,
    );
    report.set_generation(&spec);

    if opts.trace {
        let trials = traced.len();
        let walls = |ts: &[Pass]| ts.iter().map(|t| t.wall_s).collect::<Vec<_>>();
        report.set_trace_cost(&walls(&untraced), &walls(&traced));
        report.set_layer("prepare", trials);
        report.set_layer("engine", trials);
        report.set_layer("cache", trials);
        let engine_s = report.tracer.self_secs("engine") / trials as f64;
        report.set("prepare.calls", n as f64);
        report.set("engine.calls", n as f64);
        report.set(
            "engine.ns_per_sim_cycle",
            engine_s * 1e9 / sim.cycles as f64,
        );
        report.set("cache.lookups", n as f64);
        report.set("cache.misses", n as f64);
        report.set(
            "cache.fingerprint_s",
            report.tracer.self_secs("cache.fingerprint") / trials as f64,
        );
        let mut us: Vec<f64> = first.iter().map(|&c| cycles_to_us(c)).collect();
        us.sort_by(f64::total_cmp);
        report.set("sim_p99_us", crate::stats::percentile(&us, 99.0));
        sim.report(&mut report);
    }
    report
}
