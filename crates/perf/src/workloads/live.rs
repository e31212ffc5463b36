//! `molpcba_gcn_live`: the wall-clock serving runtime, one replica thread
//! plus the calling thread as load generator. Two open-loop Poisson
//! phases at fixed rates and one closed-loop saturation phase. Engine work
//! per request is small, so admission, hand-off and wake-up costs show.

use std::sync::Arc;
use std::time::Instant;

use flowgnn_core::{
    Accelerator, AdmissionPolicy, ArchConfig, ArrivalProcess, DispatchPolicy, ExecutionMode,
    FleetConfig, InferenceBackend, ModelEndpoint, QueuePolicy, RequestClass, Runtime,
    ServiceTraceCache,
};
use flowgnn_desim::cycles_to_us;
use flowgnn_graph::datasets::{DatasetKind, DatasetSpec};
use flowgnn_graph::{Graph, GraphStream};
use flowgnn_models::GnnModel;

use super::{Opts, Report};
use crate::host::CpuSteer;
use crate::stats::{
    due_sojourn_ms, fast, fast_rate, generator_lateness_ms, percentile, services_ms, sorted,
    waits_ms, wakeups_ms,
};

/// Per-replica admission queue of the open-loop phases.
const QUEUE: usize = 64;

/// A serving phase: name, arrival rate (`None` = closed loop) and
/// requests per burst. The open-loop rates are about 0.2 and 0.4 of one
/// replica's open-loop capacity on the reference host (about 0.2 ms per
/// request): the gated phase is the light one, where queueing does not
/// amplify a shared host's slow spells, and neither fills the queue past
/// its bound during one.
const PHASES: [(&str, Option<f64>, usize); 3] = [
    ("r1000", Some(1_000.0), 100),
    ("r2000", Some(2_000.0), 100),
    ("sat", None, 250),
];

/// Molecules the requests cycle through.
const POOL: usize = 400;

/// One phase's samples, pooled over its bursts, and its per-burst values.
#[derive(Default)]
struct Pooled {
    p50s: Vec<f64>,
    rates: Vec<f64>,
    sojourn: Vec<f64>,
    sojourn_by_graph: Vec<Vec<f64>>,
    late: Vec<f64>,
    waits: Vec<f64>,
    services: Vec<f64>,
    wakeups: Vec<f64>,
    completed: usize,
    dropped: usize,
    busy_s: f64,
    makespan_s: f64,
}

/// Percentile `p` of an unsorted sample, 0 when it is empty.
fn pct(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        percentile(&sorted(v.to_vec()), p)
    }
}

impl Pooled {
    fn report(&self, report: &mut Report, phase: &str) {
        for (metric, value) in [
            ("sojourn_p50_ms", pct(&self.sojourn, 50.0)),
            ("sojourn_p99_ms", pct(&self.sojourn, 99.0)),
            ("gen_late_p50_ms", pct(&self.late, 50.0)),
            ("gen_late_p99_ms", pct(&self.late, 99.0)),
            ("wait_p50_ms", pct(&self.waits, 50.0)),
            ("wait_p99_ms", pct(&self.waits, 99.0)),
            ("wakeup_p50_ms", pct(&self.wakeups, 50.0)),
            ("service_p50_ms", pct(&self.services, 50.0)),
            ("service_p99_ms", pct(&self.services, 99.0)),
            (
                "utilization",
                self.busy_s / self.makespan_s.max(f64::MIN_POSITIVE),
            ),
            ("completed", self.completed as f64),
            ("dropped", self.dropped as f64),
        ] {
            report.set(&format!("live.{metric}.{phase}"), value);
        }
    }

    /// Median over molecules of each one's fast-decile sojourn.
    fn fast_sojourn_p50(&self) -> f64 {
        let per_graph: Vec<f64> = self
            .sojourn_by_graph
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| fast(s))
            .collect();
        pct(&per_graph, 50.0)
    }
}

/// Live phase names, for the metric catalogue.
pub const PHASE_NAMES: [&str; 3] = [PHASES[0].0, PHASES[1].0, PHASES[2].0];

pub fn run(opts: &Opts) -> Report {
    let mut report = Report::default();
    // Requests cycle through a pool of distinct molecules; the trace
    // cache, warmed here, answers the per-burst cost pass for them.
    let pool_size = opts.size(POOL, 16);
    let spec = DatasetSpec::standard(DatasetKind::MolPcba)
        .seed(opts.derive(3))
        .num_graphs(pool_size);
    let pool: Arc<Vec<Graph>> = Arc::new(spec.stream().collect());
    report.set_generation(&spec);
    let acc = Accelerator::new(
        GnnModel::gcn(spec.node_feat_dim(), 11),
        ArchConfig::default().with_execution(ExecutionMode::TimingOnly),
    )
    .with_trace_cache(ServiceTraceCache::new(pool_size));
    let pool_cycles = acc.service_trace(GraphStream::from_graphs(pool.to_vec()), pool_size);
    let pool_us = sorted(pool_cycles.iter().map(|&c| cycles_to_us(c)).collect());
    report.set(
        "sim_latency_us",
        pool_us.iter().sum::<f64>() / pool_size as f64,
    );

    let mut setups = Vec::new();
    let (mut engine_s, mut completed, mut prepare_s, mut prepared) = (0.0, 0u64, 0.0, 0u64);
    let mut phases: Vec<Pooled> = PHASES
        .iter()
        .map(|_| Pooled {
            sojourn_by_graph: vec![Vec::new(); pool_size],
            ..Pooled::default()
        })
        .collect();
    // Each phase is served in short bursts (about 0.05 s, one `serve_on`
    // call each), one burst of every phase per round, and rounds repeat
    // until `--seconds` have passed. A burst that short samples one speed
    // of a shared host, and interleaving spreads every phase over the
    // run. `graphs_per_s` is the fast decile of the saturation bursts'
    // rates, `latency_p50_ms` the median over molecules of each one's
    // fast-decile sojourn at 1,000/s (see `stats::FAST_DECILE`).
    //
    // Where each phase's next burst starts in the pool, so every molecule
    // is served alike.
    let mut offsets = [0usize; PHASES.len()];
    let steer = CpuSteer::new();
    let live_start = Instant::now();
    let mut round = 0;
    while opts.another_pass(live_start, round) {
        for (p, &(_, rate, per_burst)) in PHASES.iter().enumerate() {
            // The replica thread the serve_on call spawns inherits the
            // pin, so it and this thread, the generator, share the
            // fastest CPU. (Leaving the generator on the slower CPU, or
            // not steering at all, spread graphs_per_s 3 to 4 times more
            // over runs interleaved on the reference host.)
            report.add_probe(steer.pin_fastest());
            let n = opts.size(per_burst, 2);
            let pooled = &mut phases[p];
            let burst = (round * PHASES.len() + p) as u64;
            let (arrivals, queue) = match rate {
                Some(r) => (
                    ArrivalProcess::poisson_rate(r, opts.derive(0x30 + burst)),
                    QueuePolicy::Bounded(QUEUE),
                ),
                None => (ArrivalProcess::closed_loop(), QueuePolicy::Unbounded),
            };
            let config = FleetConfig::builder()
                .arrivals(arrivals)
                .queue(queue)
                .admission(AdmissionPolicy::Fifo)
                .policy(DispatchPolicy::RoundRobin)
                .endpoint(ModelEndpoint::new("accel", 1))
                .class(RequestClass::new("default", 0))
                .build()
                .expect("valid live config");
            let offset = offsets[p];
            offsets[p] = (offset + n) % pool_size;
            let graphs = Arc::clone(&pool);
            let stream =
                GraphStream::generated(n, move |i| graphs[(offset + i) % graphs.len()].clone());

            let span = opts.trace.then(|| report.tracer.begin("live", None, burst));
            let t = Instant::now();
            let served = acc.serve_on(stream, n, &config, Runtime::Live, None);
            let wall_s = t.elapsed().as_secs_f64();
            if let Some(id) = span {
                report.tracer.end(id);
            }
            report.attempted += n as u64;
            let Some(live) = served.ok().and_then(|r| r.live()) else {
                report.add_check(0, n as u64);
                continue;
            };
            // Set-up inside serve_on: the cost pass, per-worker
            // preparation and thread spawn — everything before the
            // serving timeline starts.
            let makespan_s = live.makespan_cycles as f64 / 1e9;
            setups.push(wall_s - makespan_s);
            // Drops are a result (`live.dropped.<phase>`), not a failure: a
            // slow spell of a shared host can fill the queue.
            if live.completed + live.dropped != n {
                report.add_check(0, 1);
            }

            let schedule = config.arrivals.wall_schedule(n);
            let mut sojourn = Vec::with_capacity(n);
            for (i, (r, due)) in live.records.iter().zip(&schedule).enumerate() {
                if let Some(ms) = due_sojourn_ms(r, *due) {
                    pooled.sojourn_by_graph[(offset + i) % pool_size].push(ms);
                    sojourn.push(ms);
                }
            }
            if !sojourn.is_empty() {
                pooled.p50s.push(pct(&sojourn, 50.0));
            }
            pooled.rates.push(live.completed as f64 / makespan_s);
            pooled.sojourn.extend(sojourn);
            pooled
                .late
                .extend(generator_lateness_ms(&live.records, &schedule));
            pooled.waits.extend(waits_ms(&live.records));
            pooled.services.extend(services_ms(&live.records));
            pooled.wakeups.extend(wakeups_ms(&live.records));
            pooled.completed += live.completed;
            pooled.dropped += live.dropped;
            pooled.busy_s +=
                live.per_replica.iter().map(|r| r.busy_cycles).sum::<u64>() as f64 / 1e9;
            pooled.makespan_s += makespan_s;

            if let Some(parent) = span {
                // Attribution: the worker prepares every request graph
                // inside serve_on; prepare the same graphs here.
                let id = report.tracer.begin("prepare", Some(parent), burst);
                for i in 0..n {
                    std::hint::black_box(acc.prepare(&pool[(offset + i) % pool_size]));
                }
                report.tracer.end(id);
                prepare_s += report.tracer.spans[id].secs();
                prepared += n as u64;
            }
        }
        round += 1;
    }
    let live_wall_s = live_start.elapsed().as_secs_f64();
    for (pooled, &(name, _, _)) in phases.into_iter().zip(&PHASES) {
        match name {
            "r1000" => {
                let p50 = pooled.fast_sojourn_p50();
                report.set_over("latency_p50_ms", p50, pooled.p50s.clone());
                report.set("latency_p90_ms", pct(&pooled.sojourn, 90.0));
                report.set_tail(pooled.sojourn.clone());
            }
            "sat" => {
                let rate = fast_rate(&pooled.rates);
                report.set_over("graphs_per_s", rate, pooled.rates.clone());
            }
            _ => {}
        }
        engine_s += pooled.services.iter().sum::<f64>() / 1e3;
        completed += pooled.completed as u64;
        pooled.report(&mut report, name);
    }
    report.set_setup(setups);

    if opts.trace {
        let top = report.tracer.top_level_secs();
        report.set("trace.coverage", top / (live_wall_s - prepare_s));
        // The only spans sit around whole serve_on calls: their cost is nil.
        report.set("trace.overhead", 0.0);
        report.set("prepare.calls", prepared as f64);
        report.set("prepare.self_s", prepare_s);
        report.set("prepare.share", prepare_s / top);
        report.set("engine.calls", completed as f64);
        report.set("engine.self_s", engine_s);
        report.set("engine.share", engine_s / top);
        report.set("sim_p99_us", percentile(&pool_us, 99.0));
    }
    report
}
