//! `molpcba_gin_functional`: MolPCBA molecules with edge features through
//! a GIN that executes its arithmetic (`ExecutionMode::Full`), in a
//! closed loop of `prepare` + `run_prepared` per graph. The functional
//! kernels dominate, so a kernel change shows here and not on
//! `hep_gcn_timing`.

use std::time::Instant;

use flowgnn_core::{Accelerator, ArchConfig, ExecutionMode, SimScratch};
use flowgnn_desim::cycles_to_us;
use flowgnn_graph::datasets::{DatasetKind, DatasetSpec};
use flowgnn_graph::Graph;
use flowgnn_models::{reference, GnnModel};

use super::{run_passes, setup_timer, Opts, Report, SimTotals};

/// Every this many graphs is compared with the reference executor.
const CHECK_EVERY: usize = 16;

/// Relative tolerance of the engine's own functional tests.
const REL_TOL: f64 = 2e-3;

struct Pass {
    wall_s: f64,
    latency_ms: Vec<f64>,
}

pub fn run(opts: &Opts) -> Report {
    let mut report = Report::default();
    let n = opts.size(500, 16);
    let spec = DatasetSpec::standard(DatasetKind::MolPcba)
        .seed(opts.derive(2))
        .num_graphs(n);
    let model = GnnModel::gin(spec.node_feat_dim(), spec.edge_feat_dim(), 7);
    let config = ArchConfig::default();

    let ((graphs, acc), setup) = setup_timer(|| {
        let graphs: Vec<Graph> = spec.stream().collect();
        (graphs, Accelerator::new(model.clone(), config))
    });
    let timing = Accelerator::new(
        model.clone(),
        config.with_execution(ExecutionMode::TimingOnly),
    );

    let mut sim = SimTotals::default();
    let (untraced, traced) = run_passes(opts, &mut report, setup, |rec| {
        let mut scratch = SimScratch::default();
        let mut latency_ms = Vec::with_capacity(n);
        let mut kernel_spans = Vec::with_capacity(n);
        let start = Instant::now();
        for (i, g) in graphs.iter().enumerate() {
            let t = Instant::now();
            let root = rec.begin("request", None, i as u64);
            let span = rec.begin("prepare", root, i as u64);
            let prepared = acc.prepare(g);
            rec.end(span);
            let span = rec.begin("kernels", root, i as u64);
            std::hint::black_box(acc.run_prepared(&prepared, &mut scratch));
            rec.end(span);
            rec.end(root);
            latency_ms.push(t.elapsed().as_secs_f64() * 1e3);
            kernel_spans.push(span);
        }
        let wall_s = start.elapsed().as_secs_f64();
        if rec.on() {
            // Attribution: the same graphs through the timing-only
            // engine; the functional run's remaining self time is the
            // kernels'.
            sim = SimTotals::default();
            for (i, (g, parent)) in graphs.iter().zip(&kernel_spans).enumerate() {
                let prepared = timing.prepare(g);
                let span = rec.begin("engine", *parent, i as u64);
                let run = timing.run_prepared(&prepared, &mut scratch);
                rec.end(span);
                sim.add(&run);
            }
        }
        Pass { wall_s, latency_ms }
    });

    // Correctness, outside the timed loop: sampled graph outputs against
    // the reference executor, and timing cycles against the
    // functional run's.
    let mut scratch = SimScratch::default();
    let cycles: Vec<u64> = graphs.iter().map(|g| timing.run(g).total_cycles).collect();
    let mut cycles_us: Vec<f64> = cycles.iter().map(|&c| cycles_to_us(c)).collect();
    let (mut output_mismatches, mut cycle_mismatches, mut worst) = (0u64, 0u64, 0.0f64);
    let checked: Vec<usize> = (0..n).step_by(CHECK_EVERY).collect();
    for &i in &checked {
        let run = acc.run_prepared(&acc.prepare(&graphs[i]), &mut scratch);
        cycle_mismatches += u64::from(run.total_cycles != cycles[i]);
        let expected = reference::run(&model, &graphs[i]).graph_output;
        let err = match (run.output.and_then(|o| o.graph_output), expected) {
            (Some(a), Some(b)) => max_rel_err(&a, &b),
            _ => f64::INFINITY,
        };
        worst = worst.max(err);
        output_mismatches += u64::from(err > REL_TOL);
    }
    report.attempted = ((untraced.len() + traced.len()) * n) as u64;
    report.add_check(checked.len() as u64, output_mismatches + cycle_mismatches);
    report.set("check.graphs", checked.len() as f64);
    report.set("check.output_mismatches", output_mismatches as f64);
    report.set("check.cycle_mismatches", cycle_mismatches as f64);
    report.set("check.max_rel_err", worst);

    let latency = report.set_latency(
        &untraced
            .iter()
            .map(|t| t.latency_ms.clone())
            .collect::<Vec<_>>(),
    );
    let walls: Vec<f64> = untraced.iter().map(|t| t.wall_s).collect();
    report.set_rate("graphs_per_s", n as f64, &latency, &walls);
    report.set("sim_latency_us", cycles_us.iter().sum::<f64>() / n as f64);
    report.set_generation(&spec);

    if opts.trace {
        let trials = traced.len();
        let walls = |ts: &[Pass]| ts.iter().map(|t| t.wall_s).collect::<Vec<_>>();
        report.set_trace_cost(&walls(&untraced), &walls(&traced));
        report.set_layer("prepare", trials);
        report.set_layer("engine", trials);
        report.set_layer("kernels", trials);
        let engine_s = report.tracer.self_secs("engine") / trials as f64;
        report.set("prepare.calls", n as f64);
        report.set("engine.calls", n as f64);
        report.set(
            "engine.ns_per_sim_cycle",
            engine_s * 1e9 / sim.cycles as f64,
        );
        cycles_us.sort_by(f64::total_cmp);
        report.set("sim_p99_us", crate::stats::percentile(&cycles_us, 99.0));
        sim.report(&mut report);
    }
    report
}

/// Largest relative difference between two graph outputs, with the
/// engine tests' scale floor of 1.
fn max_rel_err(a: &[f32], b: &[f32]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    a.iter()
        .zip(b)
        .map(|(x, y)| f64::from((x - y).abs() / x.abs().max(y.abs()).max(1.0)))
        .fold(0.0, f64::max)
}
