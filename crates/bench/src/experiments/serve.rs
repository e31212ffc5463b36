//! Open-loop serving sweep: tail latency vs. arrival rate per platform.
//!
//! The paper's tables report closed-loop service latency; this extension
//! measures the *open-loop* regime the real-time claim implies — MolHIV
//! inference requests arriving on their own schedule, queueing in a
//! bounded admission queue in front of each platform, and experiencing
//! `wait + service` sojourn times. Each platform is swept across offered
//! loads (arrival rate as a fraction of its own service rate) and three
//! arrival processes (fixed-rate, Poisson, bursty on-off), so the
//! resulting curves show where each platform's p99 leaves the SLO and
//! its admission queue starts dropping — the per-platform *sustainable
//! rate*.

use flowgnn_baselines::{AwbGcnBackend, CpuBackend, GpuBackend, IGcnBackend};
use flowgnn_core::prelude::*;
use flowgnn_core::ServiceTraceCache;
use flowgnn_graph::datasets::{DatasetKind, DatasetSpec};
use flowgnn_models::GnnModel;

use crate::json::json_escape;
use crate::{SampleSize, TextTable};

/// Admission-queue capacity used throughout the sweep: requests beyond
/// this many waiting are dropped.
pub const QUEUE_CAPACITY: usize = 64;

/// The p99 service-level objective, as a multiple of each platform's own
/// mean service time: queueing may at most triple the service latency.
pub const SLO_FACTOR: f64 = 4.0;

/// Offered loads swept per platform (arrival rate / service rate).
pub const OFFERED_LOADS: [f64; 6] = [0.25, 0.5, 0.75, 0.9, 1.0, 1.25];

/// Arrival-process shapes swept per offered load.
pub const PROCESSES: [&str; 3] = ["fixed", "poisson", "onoff"];

/// One `(platform, process, offered load)` measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct ServePoint {
    /// Platform name.
    pub backend: String,
    /// Arrival-process shape (`fixed`, `poisson`, or `onoff`).
    pub process: &'static str,
    /// Offered load: arrival rate as a fraction of the service rate.
    pub offered_load: f64,
    /// Absolute arrival rate in requests per second.
    pub rate_per_s: f64,
    /// Requests offered.
    pub requests: usize,
    /// Median sojourn (wait + service) in milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile sojourn in milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile sojourn in milliseconds.
    pub p99_ms: f64,
    /// Worst-case sojourn in milliseconds.
    pub max_ms: f64,
    /// Mean queueing wait in milliseconds.
    pub mean_wait_ms: f64,
    /// The platform's mean service time in milliseconds.
    pub mean_service_ms: f64,
    /// Fraction of requests dropped by the admission queue.
    pub drop_rate: f64,
}

/// One platform's sustainable rate: the highest swept Poisson arrival
/// rate that met the p99 SLO with zero drops (`None` if even the lowest
/// swept load missed it).
#[derive(Debug, Clone, PartialEq)]
pub struct SustainableRate {
    /// Platform name.
    pub backend: String,
    /// The platform's p99 SLO in milliseconds (`SLO_FACTOR` × mean
    /// service time).
    pub slo_ms: f64,
    /// Highest SLO-meeting swept rate in requests per second.
    pub rate_per_s: Option<f64>,
}

/// The full open-loop serving sweep.
#[derive(Debug, Clone)]
pub struct ServeStudy {
    /// All measurements, grouped by platform, then process, then load.
    pub points: Vec<ServePoint>,
    /// Requests offered per point.
    pub requests: usize,
}

impl ServeStudy {
    /// Renders the sweep.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(
            &format!(
                "Extension: open-loop tail latency (GCN on MolHIV, queue capacity {QUEUE_CAPACITY})"
            ),
            &[
                "Platform",
                "Process",
                "Load",
                "Rate (req/s)",
                "p50 (ms)",
                "p95 (ms)",
                "p99 (ms)",
                "Max (ms)",
                "Wait (ms)",
                "Dropped",
            ],
        );
        for p in &self.points {
            t.row_owned(vec![
                p.backend.clone(),
                p.process.to_string(),
                format!("{:.2}", p.offered_load),
                format!("{:.0}", p.rate_per_s),
                format!("{:.4}", p.p50_ms),
                format!("{:.4}", p.p95_ms),
                format!("{:.4}", p.p99_ms),
                format!("{:.4}", p.max_ms),
                format!("{:.4}", p.mean_wait_ms),
                format!("{:.1}%", p.drop_rate * 100.0),
            ]);
        }
        t
    }

    /// Per-platform sustainable rates under Poisson arrivals: the highest
    /// swept rate whose p99 stayed within `SLO_FACTOR` × the platform's
    /// mean service time with zero drops.
    pub fn sustainable_rates(&self) -> Vec<SustainableRate> {
        let mut out: Vec<SustainableRate> = Vec::new();
        for p in self.points.iter().filter(|p| p.process == "poisson") {
            let slo_ms = p.mean_service_ms * SLO_FACTOR;
            let meets = p.p99_ms <= slo_ms && p.drop_rate == 0.0;
            match out.iter_mut().find(|s| s.backend == p.backend) {
                Some(s) => {
                    if meets && s.rate_per_s.is_none_or(|r| p.rate_per_s > r) {
                        s.rate_per_s = Some(p.rate_per_s);
                    }
                }
                None => out.push(SustainableRate {
                    backend: p.backend.clone(),
                    slo_ms,
                    rate_per_s: meets.then_some(p.rate_per_s),
                }),
            }
        }
        out
    }

    /// Renders the sustainable-rate summary appended under the table.
    pub fn sustainable_note(&self) -> String {
        let rates: Vec<String> = self
            .sustainable_rates()
            .iter()
            .map(|s| {
                let rate = s
                    .rate_per_s
                    .map_or("none swept".to_string(), |r| format!("{r:.0} req/s"));
                format!("{} {}", s.backend, rate)
            })
            .collect();
        format!(
            "(sustainable rate at p99 <= {SLO_FACTOR}x service, no drops: {})",
            rates.join(", ")
        )
    }

    /// Serializes the sweep as pretty-printed JSON (std-only writer), the
    /// `BENCH_serve_tail_latency.json` perf-trajectory artifact.
    pub fn to_json(&self) -> String {
        let mut out = String::from(
            "{\n  \"benchmark\": \"serve_tail_latency\",\n  \"workload\": \"molhiv_gcn\",\n",
        );
        out.push_str(&format!(
            "  \"queue_capacity\": {QUEUE_CAPACITY},\n  \"requests\": {},\n  \"rows\": [\n",
            self.requests
        ));
        for (i, p) in self.points.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"backend\": \"{}\", \"process\": \"{}\", \"offered_load\": {}, \
                 \"rate_per_s\": {:.1}, \"p50_ms\": {:.6}, \"p95_ms\": {:.6}, \
                 \"p99_ms\": {:.6}, \"max_ms\": {:.6}, \"mean_wait_ms\": {:.6}, \
                 \"drop_rate\": {:.4}}}{}\n",
                json_escape(&p.backend),
                p.process,
                p.offered_load,
                p.rate_per_s,
                p.p50_ms,
                p.p95_ms,
                p.p99_ms,
                p.max_ms,
                p.mean_wait_ms,
                p.drop_rate,
                if i + 1 == self.points.len() { "" } else { "," },
            ));
        }
        out.push_str("  ],\n  \"sustainable_rate_per_s\": {\n");
        let rates = self.sustainable_rates();
        for (i, s) in rates.iter().enumerate() {
            out.push_str(&format!(
                "    \"{}\": {}{}\n",
                json_escape(&s.backend),
                s.rate_per_s
                    .map_or("null".to_string(), |r| format!("{r:.1}")),
                if i + 1 == rates.len() { "" } else { "," },
            ));
        }
        out.push_str("  }\n}\n");
        out
    }
}

/// The platforms swept: the cycle-exact FlowGNN simulator plus the four
/// analytic baselines, all deploying a GCN sized for MolHIV.
///
/// Every FlowGNN instance shares `cache`, so the engine simulates each
/// distinct MolHIV graph once across the whole sweep — the service-rate
/// pass warms the cache and all grid points replay it. Cached cycles are
/// exactly the simulated ones (`crates/core/tests/differential.rs` pins
/// cached against uncached `service_trace`, `serve_on` and `run_stream`),
/// so the cache changes no byte of the sweep.
fn make_backend(
    index: usize,
    spec: &DatasetSpec,
    cache: &ServiceTraceCache,
) -> Box<dyn InferenceBackend> {
    let model = GnnModel::gcn(spec.node_feat_dim(), 11);
    match index {
        0 => {
            let acc = Accelerator::new(
                model,
                ArchConfig::default().with_execution(ExecutionMode::TimingOnly),
            );
            Box::new(acc.with_trace_cache(cache.clone()))
        }
        1 => Box::new(CpuBackend::new(model)),
        2 => Box::new(GpuBackend::new(model, 1)),
        3 => Box::new(IGcnBackend::new(16, 2)),
        4 => Box::new(AwbGcnBackend::new(16, 2)),
        _ => unreachable!("5 platforms"),
    }
}

const NUM_BACKENDS: usize = 5;

/// Sweeps open-loop tail latency across platforms, arrival processes,
/// and offered loads.
///
/// Each `(platform, process, load)` point is independent — seeds are
/// derived from the point's indices — so the sweep fans out over
/// [`crate::par_map`] and the output is byte-identical for any `--jobs`
/// setting.
pub fn serve_tail_latency(sample: SampleSize) -> ServeStudy {
    let spec = DatasetSpec::standard(DatasetKind::MolHiv);
    let requests = sample.resolve(spec.paper_stats().graphs);
    // Sized to hold every distinct graph in the stream, so after the
    // warm-up pass below the grid never re-enters the engine.
    let cache = ServiceTraceCache::new(requests.max(1));

    // One pass per platform to learn its mean service time, which anchors
    // the offered-load → arrival-rate conversion. For FlowGNN this pass
    // doubles as the cold path: it runs under `par_map` alongside the
    // other platforms' passes and simulates every distinct graph once,
    // filling the shared trace cache the grid points then hit.
    let service_rates: Vec<f64> = crate::par_map((0..NUM_BACKENDS).collect(), None, |b| {
        let mean_ms = make_backend(b, &spec, &cache)
            .run_stream(spec.stream(), requests)
            .latency_ms;
        1e3 / mean_ms // requests per second at full utilisation
    });

    let grid: Vec<(usize, usize, usize)> = (0..NUM_BACKENDS)
        .flat_map(|b| {
            (0..PROCESSES.len()).flat_map(move |p| (0..OFFERED_LOADS.len()).map(move |l| (b, p, l)))
        })
        .collect();
    let points = crate::par_map(grid, None, |(b, p, l)| {
        let backend = make_backend(b, &spec, &cache);
        let load = OFFERED_LOADS[l];
        let rate = load * service_rates[b];
        let seed = 0x5E27E + (b * 100 + p * 10 + l) as u64;
        let arrivals = match PROCESSES[p] {
            "fixed" => ArrivalProcess::fixed_rate(rate),
            "poisson" => ArrivalProcess::poisson_rate(rate, seed),
            "onoff" => {
                // Bursts of ~8 back-to-back requests at 4x the nominal
                // rate, idle between bursts; same long-run mean rate.
                let ArrivalProcess::Poisson { mean_gap, .. } =
                    ArrivalProcess::poisson_rate(rate, seed)
                else {
                    unreachable!()
                };
                ArrivalProcess::OnOff {
                    mean_burst: 8.0,
                    burst_gap: (mean_gap / 4.0).round() as u64,
                    // Idle long enough that burst + idle averages to the
                    // nominal gap: 8 requests per (7 burst gaps + idle).
                    mean_idle_gap: mean_gap * 8.0 - mean_gap / 4.0 * 7.0,
                    seed,
                }
            }
            other => unreachable!("unknown process {other}"),
        };
        let config = FleetConfig::pool(1)
            .arrivals(arrivals)
            .queue_capacity(QUEUE_CAPACITY)
            .build()
            .expect("valid serving config");
        let report = backend
            .serve_on(spec.stream(), requests, &config, Runtime::Sim, None)
            .expect("valid serving config")
            .sim()
            .expect("sim runtime yields a cycle-domain report");
        ServePoint {
            backend: backend.name().to_string(),
            process: PROCESSES[p],
            offered_load: load,
            rate_per_s: rate,
            requests: report.requests,
            p50_ms: report.p50_ms,
            p95_ms: report.p95_ms,
            p99_ms: report.p99_ms,
            max_ms: report.max_ms,
            mean_wait_ms: report.mean_wait_ms,
            mean_service_ms: report.mean_service_ms,
            drop_rate: report.drop_rate(),
        }
    });
    ServeStudy { points, requests }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_every_platform_process_and_load() {
        let study = serve_tail_latency(SampleSize::Quick);
        assert_eq!(
            study.points.len(),
            NUM_BACKENDS * PROCESSES.len() * OFFERED_LOADS.len()
        );
        for name in ["FlowGNN", "CPU", "GPU", "I-GCN", "AWB-GCN"] {
            assert!(
                study.points.iter().any(|p| p.backend == name),
                "missing {name}"
            );
        }
    }

    #[test]
    fn tail_grows_with_offered_load() {
        let study = serve_tail_latency(SampleSize::Quick);
        // Per platform under Poisson arrivals: the highest swept load's
        // p99 is at least the lowest load's (queueing only adds delay).
        for name in ["FlowGNN", "CPU"] {
            let mut points: Vec<&ServePoint> = study
                .points
                .iter()
                .filter(|p| p.backend == name && p.process == "poisson")
                .collect();
            points.sort_by(|a, b| a.offered_load.total_cmp(&b.offered_load));
            let (lo, hi) = (points.first().unwrap(), points.last().unwrap());
            assert!(
                hi.p99_ms >= lo.p99_ms,
                "{name}: p99 {} at load {} vs {} at {}",
                hi.p99_ms,
                hi.offered_load,
                lo.p99_ms,
                lo.offered_load
            );
        }
    }

    #[test]
    fn low_load_meets_slo_everywhere() {
        let study = serve_tail_latency(SampleSize::Quick);
        for p in study
            .points
            .iter()
            .filter(|p| p.offered_load <= 0.5 && p.process != "onoff")
        {
            assert!(
                p.p99_ms <= p.mean_service_ms * SLO_FACTOR,
                "{} {} at load {}: p99 {} vs SLO {}",
                p.backend,
                p.process,
                p.offered_load,
                p.p99_ms,
                p.mean_service_ms * SLO_FACTOR
            );
            assert_eq!(p.drop_rate, 0.0, "{} {}", p.backend, p.process);
        }
    }

    #[test]
    fn sustainable_rates_cover_all_platforms() {
        let study = serve_tail_latency(SampleSize::Quick);
        let rates = study.sustainable_rates();
        assert_eq!(rates.len(), NUM_BACKENDS);
        // Every platform sustains at least the lowest swept load.
        for s in &rates {
            assert!(s.rate_per_s.is_some(), "{} sustains nothing", s.backend);
        }
        // The accelerator's sustainable rate dwarfs the CPU's.
        let rate = |name: &str| {
            rates
                .iter()
                .find(|s| s.backend == name)
                .unwrap()
                .rate_per_s
                .unwrap()
        };
        assert!(rate("FlowGNN") > 10.0 * rate("CPU"));
    }

    #[test]
    fn json_has_tail_and_drop_columns() {
        let study = serve_tail_latency(SampleSize::Quick);
        let j = study.to_json();
        assert!(j.contains("\"benchmark\": \"serve_tail_latency\""));
        for key in [
            "p50_ms",
            "p95_ms",
            "p99_ms",
            "drop_rate",
            "sustainable_rate_per_s",
        ] {
            assert!(j.contains(key), "missing {key}");
        }
    }

    #[test]
    fn sweep_is_repeatable() {
        // Every point's seed is a pure function of its grid indices and
        // par_map writes results into index-ordered slots, so two runs —
        // and therefore runs under any `--jobs` setting — are identical.
        // (Worker-count invariance itself is pinned by par_map's tests
        // and the dual CI smoke runs.)
        let a = serve_tail_latency(SampleSize::Quick);
        let b = serve_tail_latency(SampleSize::Quick);
        assert_eq!(a.points, b.points);
        assert_eq!(a.table().to_csv(), b.table().to_csv());
    }

    #[test]
    fn percentiles_in_points_are_exact_sample_sojourns() {
        // Nearest-rank percentiles return actual sample values, so the
        // summary columns always obey p50 <= p95 <= p99 <= max exactly.
        for p in serve_tail_latency(SampleSize::Quick).points {
            assert!(p.p50_ms <= p.p95_ms, "{p:?}");
            assert!(p.p95_ms <= p.p99_ms, "{p:?}");
            assert!(p.p99_ms <= p.max_ms, "{p:?}");
        }
    }
}
