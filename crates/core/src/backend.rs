//! A platform-agnostic inference interface.
//!
//! The paper's evaluation (Tables V/VI/VIII, Figs. 7/8) compares FlowGNN
//! against CPU, GPU, I-GCN, and AWB-GCN. [`InferenceBackend`] is the one
//! interface all of those speak: the cycle-level [`Accelerator`] and the
//! baseline platform models in `flowgnn-baselines` both implement it, so
//! experiment drivers iterate over `&dyn InferenceBackend` rows instead
//! of matching on platforms.

use std::time::Duration;

use flowgnn_desim::{cycles_to_ms, Cycle};
use flowgnn_graph::{Graph, GraphStream};

use crate::energy::graphs_per_kj;
use crate::engine::Accelerator;
use crate::metrics::ServeMetrics;
use crate::resource::ResourceEstimate;
use crate::serve::fleet::{run_fleet, FleetConfig, FleetError, FleetRuntime};
use crate::serve::live::{LiveWorker, ModelWorker};
use crate::serve::{ms_to_cycles, Runtime, RuntimeReport};
use crate::stream::EngineWorker;

/// One platform's result for one workload (a graph, a shape, or a stream).
///
/// Latency is stored natively in *both* units — platforms differ in which
/// unit their timing model is exact in (the cycle engine converts cycles
/// to each unit independently; the PE-array models are native in µs), and
/// deriving one from the other would perturb reproductions that are
/// compared bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackendReport {
    /// Per-graph latency in milliseconds.
    pub latency_ms: f64,
    /// Per-graph latency in microseconds.
    pub latency_us: f64,
    /// Energy efficiency in graphs per kilojoule (Table VI metric).
    pub graphs_per_kj: f64,
    /// DSPs used, for platforms with a resource bill (Table VIII).
    pub dsps: Option<u64>,
    /// DSP-normalised latency (µs at a 4096-DSP budget, Table VIII).
    pub normalized_us: Option<f64>,
}

impl BackendReport {
    /// Builds a report from a millisecond latency plus energy efficiency;
    /// microseconds are derived (`ms × 1e3`).
    pub fn from_ms(latency_ms: f64, graphs_per_kj: f64) -> Self {
        Self {
            latency_ms,
            latency_us: latency_ms * 1e3,
            graphs_per_kj,
            dsps: None,
            normalized_us: None,
        }
    }

    /// Builds a report from a microsecond latency plus energy efficiency;
    /// milliseconds are derived (`µs / 1e3`).
    pub fn from_us(latency_us: f64, graphs_per_kj: f64) -> Self {
        Self {
            latency_ms: latency_us / 1e3,
            latency_us,
            graphs_per_kj,
            dsps: None,
            normalized_us: None,
        }
    }

    /// Attaches a DSP bill and the DSP-normalised latency (µs × DSPs /
    /// 4096), the paper's cross-platform normalisation for Table VIII:
    /// every platform's normalised latency comes from here.
    pub fn with_dsps(mut self, dsps: u64) -> Self {
        self.dsps = Some(dsps);
        self.normalized_us = Some(self.latency_us * dsps as f64 / 4096.0);
        self
    }
}

/// A platform that can run GNN inference: the unified interface the
/// experiment drivers iterate over.
///
/// [`Accelerator`] and the I-GCN/AWB-GCN platforms need the actual graph.
/// The CPU/GPU platforms are functions of a graph's `(nodes, edges)`
/// shape only: they run each graph as its shape, and also answer an
/// inherent `run_shape` for a dataset's mean shape.
pub trait InferenceBackend {
    /// Human-readable platform name (table row label).
    fn name(&self) -> &str;

    /// Runs one graph at batch size 1.
    fn run_graph(&self, graph: &Graph) -> BackendReport;

    /// Streams up to `limit` graphs through the platform and averages.
    ///
    /// The default runs each graph independently through
    /// [`Self::run_graph`] and takes arithmetic means — the paper's
    /// batch-1 protocol for platforms with no inter-graph state. The
    /// accelerator overrides this: it runs graphs back to back on weights
    /// already on chip, so its mean is its [`Self::service_trace`]'s total
    /// over the graph count and excludes weight load.
    ///
    /// # Panics
    ///
    /// Panics if the stream (after the limit) is empty.
    fn run_stream(&self, stream: GraphStream, limit: usize) -> BackendReport {
        let stream = stream.take_prefix(limit);
        assert!(!stream.is_empty(), "cannot evaluate an empty graph stream");
        let mut ms = 0.0;
        let mut us = 0.0;
        let mut gpk = 0.0;
        let mut dsps = None;
        let mut count = 0usize;
        for g in stream {
            let r = self.run_graph(&g);
            ms += r.latency_ms;
            us += r.latency_us;
            gpk += r.graphs_per_kj;
            dsps = dsps.or(r.dsps);
            count += 1;
        }
        let c = count as f64;
        let mean = BackendReport {
            latency_ms: ms / c,
            latency_us: us / c,
            graphs_per_kj: gpk / c,
            dsps: None,
            normalized_us: None,
        };
        dsps.map_or(mean, |d| mean.with_dsps(d))
    }

    /// Computes this platform's per-request service trace for up to
    /// `limit` graphs of `stream`, in cycles on the serving timeline —
    /// the input the fleet layer's per-endpoint cost rows are built from.
    ///
    /// The default quantises [`Self::run_graph`]'s millisecond latency to
    /// cycles — correct for every analytic platform model. The cycle
    /// engine overrides this with its native cycle-exact service times
    /// (consulting its service-trace cache when one is attached).
    ///
    /// # Panics
    ///
    /// Panics if the stream (after the limit) is empty.
    fn service_trace(&self, stream: GraphStream, limit: usize) -> Vec<Cycle> {
        let stream = stream.take_prefix(limit);
        assert!(!stream.is_empty(), "cannot trace an empty graph stream");
        stream
            .map(|g| ms_to_cycles(self.run_graph(&g).latency_ms))
            .collect()
    }

    /// One live replica's request processor for serving the graphs of
    /// `stream` under [`Runtime::Live`]: [`Self::serve_on`] asks for one
    /// per replica, and request `i` is graph `i` of the stream.
    ///
    /// The default is a [`ModelWorker`] that occupies its replica thread
    /// for each graph's modeled [`Self::run_graph`] latency — right for
    /// every analytic platform model. The cycle engine overrides this
    /// with a worker that runs real engine inference per request on its
    /// own prepared copy of the graphs.
    ///
    /// # Panics
    ///
    /// Panics if `stream` is empty.
    fn live_worker(&self, stream: &GraphStream) -> Box<dyn LiveWorker> {
        let durations = stream
            .clone()
            .map(|g| Duration::from_secs_f64(self.run_graph(&g).latency_ms / 1e3))
            .collect();
        Box::new(ModelWorker::new(durations))
    }

    /// The serving entry: one method, either [`Runtime`], fleet-shaped
    /// configuration, optional live [`ServeMetrics`]. Serves up to
    /// `limit` graphs of `stream` as an *open-loop* request trace:
    /// graphs arrive per `config.arrivals`, are dispatched across the
    /// replicas by `config.policy`, wait in per-replica bounded admission
    /// queues, and are served one at a time. The
    /// [`ServeReport`](crate::ServeReport) inside the result decomposes
    /// each request into queueing wait plus service and summarises the
    /// p50/p95/p99/max sojourn tails, drops, and per-replica, per-class,
    /// and per-endpoint accounting. A plain `R`-replica pool is
    /// [`FleetConfig::pool`]`(R)`.
    ///
    /// Every request is stamped class 0, and each endpoint's cost row is
    /// this backend's own [`Self::service_trace`] (the endpoints model
    /// replicas *of this backend* — drive
    /// [`crate::serve::fleet::run_fleet`] directly for genuinely
    /// heterogeneous fleets with per-endpoint cost rows).
    /// [`Runtime::Sim`] runs the deterministic cycle scan over those rows,
    /// reading the graphs from `stream` itself once. [`Runtime::Live`]
    /// materialises the graphs once, then runs one thread per replica,
    /// each driving the worker [`Self::live_worker`] builds from them.
    /// `metrics`, when given, is updated while the run executes; it never
    /// changes the report.
    ///
    /// # Errors
    ///
    /// [`FleetError::EmptyTrace`] if the stream (after the limit) is
    /// empty, including `limit == 0`; otherwise the [`FleetError`] naming
    /// the violated invariant, as in [`crate::serve::fleet::run_fleet`].
    fn serve_on(
        &self,
        stream: GraphStream,
        limit: usize,
        config: &FleetConfig,
        runtime: Runtime,
        metrics: Option<&ServeMetrics>,
    ) -> Result<RuntimeReport, FleetError> {
        let stream = stream.take_prefix(limit);
        if stream.is_empty() {
            return Err(FleetError::EmptyTrace);
        }
        let stream = match runtime {
            Runtime::Sim => stream,
            Runtime::Live => GraphStream::from_graphs(stream.collect()),
        };
        let service = self.service_trace(stream.clone(), limit);
        let costs: Vec<Vec<Cycle>> = config.endpoints.iter().map(|_| service.clone()).collect();
        let class_of = vec![0usize; service.len()];
        let runtime = match runtime {
            Runtime::Sim => FleetRuntime::Sim,
            Runtime::Live => FleetRuntime::Live(
                (0..config.total_replicas())
                    .map(|_| self.live_worker(&stream))
                    .collect(),
            ),
        };
        run_fleet(&costs, &class_of, config, runtime, metrics)
    }
}

impl InferenceBackend for Accelerator {
    fn name(&self) -> &str {
        "FlowGNN"
    }

    fn run_graph(&self, graph: &Graph) -> BackendReport {
        let report = self.run(graph);
        let resources = ResourceEstimate::for_model(self.model(), self.config());
        let us = report.latency_us();
        BackendReport {
            latency_ms: report.latency_ms(),
            latency_us: us,
            graphs_per_kj: graphs_per_kj(us * 1e-6, resources.board_watts()),
            dsps: None,
            normalized_us: None,
        }
        .with_dsps(resources.dsp)
    }

    /// Overrides the default with the engine's native cycle-exact service
    /// times ([`Accelerator::service_trace`], consulting the attached
    /// [`crate::ServiceTraceCache`] if any) instead of round-tripping
    /// latencies through milliseconds.
    fn service_trace(&self, stream: GraphStream, limit: usize) -> Vec<Cycle> {
        Accelerator::service_trace(self, stream, limit)
    }

    /// Overrides the default with a replica that runs real engine
    /// inference per request: a clone of this accelerator with its own
    /// prepared copy of every graph of `stream` and its own scratch.
    fn live_worker(&self, stream: &GraphStream) -> Box<dyn LiveWorker> {
        Box::new(EngineWorker::new(self.clone(), stream.clone()))
    }

    /// Overrides the default with the closed loop the paper measures:
    /// graphs back to back on one set of loaded weights, so the mean
    /// latency is the [`Accelerator::service_trace`] total over the graph
    /// count.
    fn run_stream(&self, stream: GraphStream, limit: usize) -> BackendReport {
        let trace = Accelerator::service_trace(self, stream, limit);
        let mean_ms = cycles_to_ms(trace.iter().sum()) / trace.len() as f64;
        let resources = ResourceEstimate::for_model(self.model(), self.config());
        BackendReport::from_ms(
            mean_ms,
            graphs_per_kj(mean_ms / 1e3, resources.board_watts()),
        )
        .with_dsps(resources.dsp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::{ArrivalProcess, FleetConfigBuilder};
    use crate::{ArchConfig, ExecutionMode};
    use flowgnn_graph::generators::{GraphGenerator, MoleculeLike};
    use flowgnn_models::GnnModel;

    fn acc() -> Accelerator {
        Accelerator::new(
            GnnModel::gcn(9, 0),
            ArchConfig::default().with_execution(ExecutionMode::TimingOnly),
        )
    }

    /// An analytic platform with a fixed per-graph latency in ms.
    struct Fixed(f64);

    impl InferenceBackend for Fixed {
        fn name(&self) -> &str {
            "fixed"
        }
        fn run_graph(&self, _g: &Graph) -> BackendReport {
            BackendReport::from_ms(self.0, 500.0)
        }
    }

    /// Serves `n` molecules through `backend` under `config`.
    fn serve(
        backend: &impl InferenceBackend,
        n: usize,
        config: FleetConfigBuilder,
        runtime: Runtime,
    ) -> RuntimeReport {
        let stream = MoleculeLike::new(12.0, 4).stream(n);
        backend
            .serve_on(stream, n, &config.build().unwrap(), runtime, None)
            .unwrap()
    }

    #[test]
    fn accelerator_backend_matches_direct_run() {
        let g = MoleculeLike::new(12.0, 4).generate(0);
        let a = acc();
        let direct = a.run(&g);
        let report = InferenceBackend::run_graph(&a, &g);
        assert_eq!(report.latency_ms, direct.latency_ms());
        assert_eq!(report.latency_us, direct.latency_us());
        assert!(report.graphs_per_kj > 0.0);
        assert!(report.dsps.unwrap() > 0);
    }

    #[test]
    fn accelerator_stream_override_uses_native_runner() {
        let a = acc();
        let stream = || MoleculeLike::new(12.0, 4).stream(4);
        let trace = a.service_trace(stream(), 4);
        let report = a.run_stream(stream(), 4);
        assert_eq!(report.latency_ms, cycles_to_ms(trace.iter().sum()) / 4.0);
        assert_eq!(report.latency_us, report.latency_ms * 1e3);
    }

    #[test]
    fn report_builders_round_trip_units() {
        let r = BackendReport::from_us(250.0, 1e5).with_dsps(1024);
        assert_eq!(r.latency_ms, 0.25);
        assert_eq!(r.normalized_us, Some(250.0 * 1024.0 / 4096.0));
        let m = BackendReport::from_ms(2.0, 1e4);
        assert_eq!(m.latency_us, 2000.0);
        assert_eq!(m.dsps, None);
    }

    #[test]
    fn default_stream_averages_per_graph_reports() {
        let report = Fixed(2.0).run_stream(MoleculeLike::new(12.0, 4).stream(3), 3);
        assert!((report.latency_ms - 2.0).abs() < 1e-12);
        assert!((report.graphs_per_kj - 500.0).abs() < 1e-9);
    }

    #[test]
    fn default_serve_on_reflects_per_graph_latency() {
        // Arrivals slower than the 2 ms service time: no queueing, every
        // sojourn is exactly the service time.
        let config = FleetConfig::pool(1)
            .arrivals(ArrivalProcess::Fixed {
                gap: ms_to_cycles(3.0),
            })
            .queue_capacity(8);
        let report = serve(&Fixed(2.0), 5, config, Runtime::Sim).sim().unwrap();
        assert_eq!(report.completed, 5);
        assert_eq!(report.dropped, 0);
        assert!((report.p50_ms - 2.0).abs() < 1e-9);
        assert!((report.max_ms - 2.0).abs() < 1e-9);
        assert_eq!(report.mean_wait_ms, 0.0);
        assert_eq!(report.per_endpoint[0].name, "pool");
    }

    #[test]
    fn accelerator_serve_on_is_cycle_exact() {
        // Closed loop on one replica: every service time is the engine's
        // native cycle count, and the makespan is the stream's total.
        let a = acc();
        let report = serve(&a, 4, FleetConfig::pool(1), Runtime::Sim)
            .sim()
            .unwrap();
        let trace = a.service_trace(MoleculeLike::new(12.0, 4).stream(4), 4);
        let service: Vec<Cycle> = report.records.iter().map(|r| r.service_cycles()).collect();
        assert_eq!(service, trace);
        assert_eq!(report.makespan_cycles, trace.iter().sum::<Cycle>());
    }

    #[test]
    fn default_serve_on_live_spins_for_modeled_latencies() {
        let report = serve(&Fixed(0.05), 6, FleetConfig::pool(2), Runtime::Live)
            .live()
            .unwrap();
        assert_eq!(report.completed, 6);
        assert_eq!(report.dropped, 0);
        assert_eq!(report.per_replica.len(), 2);
        // Wall time: every sojourn at least covers the 50 us spin.
        assert!(report.p50_ms >= 0.05, "p50 {} ms", report.p50_ms);
    }

    #[test]
    fn accelerator_serve_on_live_runs_real_inference() {
        let report = serve(&acc(), 4, FleetConfig::pool(2), Runtime::Live)
            .live()
            .expect("live runtime yields a wall report");
        assert_eq!(report.completed, 4);
        assert_eq!(report.per_replica.len(), 2);
        assert!(report.makespan_cycles > 0, "real time elapsed");
    }

    #[test]
    fn serve_on_returns_empty_trace_for_nothing_to_serve() {
        let config = FleetConfig::pool(2).build().unwrap();
        let a = acc();
        let backends: [&dyn InferenceBackend; 2] = [&Fixed(0.05), &a];
        for backend in backends {
            for runtime in [Runtime::Sim, Runtime::Live] {
                let empty = GraphStream::from_graphs(vec![]);
                let three = MoleculeLike::new(12.0, 4).stream(3);
                for (stream, limit) in [(empty, 4), (three, 0)] {
                    let served = backend.serve_on(stream, limit, &config, runtime, None);
                    assert_eq!(
                        served.err(),
                        Some(FleetError::EmptyTrace),
                        "{} under {runtime:?}, limit {limit}",
                        backend.name()
                    );
                }
            }
        }
    }
}
