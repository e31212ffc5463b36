//! Streaming evaluation: graphs processed back-to-back at batch size 1.
//!
//! The paper streams graphs into the accelerator one after another, so a
//! closed-loop run is the sum of the per-graph service cycles.
//! [`Accelerator::service_trace`] produces those cycles; the
//! [`InferenceBackend`](crate::InferenceBackend) methods consume them,
//! [`run_stream`](crate::InferenceBackend::run_stream) as a mean and
//! [`serve_on`](crate::InferenceBackend::serve_on) as the cost rows of
//! an open-loop fleet. [`EngineWorker`] is the live runtime's per-replica
//! engine state.

use flowgnn_desim::Cycle;
use flowgnn_graph::{Graph, GraphStream};

use crate::cache::graph_fingerprint;
use crate::engine::{Accelerator, PreparedGraph};
use crate::exec::SimScratch;
use crate::serve::live::LiveWorker;

impl Accelerator {
    /// Cycle-exact per-graph service times for up to `limit` graphs of
    /// `stream`: each graph run end-to-end through the engine at batch
    /// size 1, reusing one scratch allocation across the stream. This is
    /// the service trace the closed-loop mean
    /// ([`crate::InferenceBackend::run_stream`]) sums and the open-loop
    /// server ([`crate::InferenceBackend::serve_on`]) feeds into the
    /// queueing model. Public so sweep drivers can compute the trace once
    /// and replay it across many serving configurations (replica counts,
    /// dispatch policies, offered loads) without re-simulating the engine.
    ///
    /// When a [`crate::ServiceTraceCache`] is attached
    /// ([`Accelerator::with_trace_cache`]), each graph is first looked up
    /// by content fingerprint; hits skip the simulation entirely and
    /// return the exact cycles a fresh run would produce. The fingerprint
    /// is taken on the *incoming* graph — before any virtual-node
    /// augmentation — so cache keys match what the caller streams in.
    ///
    /// # Panics
    ///
    /// Panics if the stream (after the limit) is empty.
    pub fn service_trace(&self, stream: GraphStream, limit: usize) -> Vec<Cycle> {
        let stream = stream.take_prefix(limit);
        assert!(!stream.is_empty(), "cannot evaluate an empty graph stream");
        let mut scratch = SimScratch::default();
        stream
            .map(|g| match self.trace_cache() {
                Some(cache) => {
                    let fp = graph_fingerprint(&g);
                    match cache.lookup(fp, self.config()) {
                        Some(cycles) => {
                            if let Some(m) = self.engine_metrics() {
                                m.cache_hits.inc();
                            }
                            cycles
                        }
                        None => {
                            if let Some(m) = self.engine_metrics() {
                                m.cache_misses.inc();
                            }
                            let prepared = self.prepare_owned(g);
                            let cycles = self.run_prepared(&prepared, &mut scratch).total_cycles;
                            cache.insert(fp, self.config(), cycles);
                            cycles
                        }
                    }
                }
                None => {
                    let prepared = self.prepare_owned(g);
                    self.run_prepared(&prepared, &mut scratch).total_cycles
                }
            })
            .collect()
    }
}

/// One live replica's engine state: a clone of the accelerator (cloning
/// shares the handle to any attached [`crate::ServiceTraceCache`]), the
/// replica's own prepared copies of the request graphs, and its own
/// [`SimScratch`] — everything a replica thread needs to simulate
/// requests without touching another thread's state. The accelerator's
/// [`crate::InferenceBackend::live_worker`] builds one per live replica.
pub(crate) struct EngineWorker {
    acc: Accelerator,
    prepared: Vec<PreparedGraph<'static>>,
    scratch: SimScratch,
}

impl EngineWorker {
    /// Prepares `graphs` for this replica and pairs them with a fresh
    /// scratch. Request `i` runs `graphs[i % len]`.
    ///
    /// # Panics
    ///
    /// Panics if `graphs` is empty.
    pub(crate) fn new(acc: Accelerator, graphs: impl IntoIterator<Item = Graph>) -> Self {
        let prepared: Vec<PreparedGraph<'static>> =
            graphs.into_iter().map(|g| acc.prepare_owned(g)).collect();
        assert!(
            !prepared.is_empty(),
            "an engine worker needs at least one request graph"
        );
        Self {
            acc,
            prepared,
            scratch: SimScratch::default(),
        }
    }
}

impl LiveWorker for EngineWorker {
    fn process(&mut self, request: usize) {
        let prepared = &self.prepared[request % self.prepared.len()];
        let _ = self.acc.run_prepared(prepared, &mut self.scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::{
        ArrivalProcess, FleetConfig, FleetConfigBuilder, QueuePolicy, Runtime, ServeReport,
    };
    use crate::{ArchConfig, ExecutionMode, InferenceBackend, ServiceTraceCache};
    use flowgnn_desim::cycles_to_ms;
    use flowgnn_graph::generators::{GraphGenerator, KnnPointCloud, MoleculeLike};
    use flowgnn_models::GnnModel;

    fn acc() -> Accelerator {
        Accelerator::new(GnnModel::gcn(9, 0), ArchConfig::default())
    }

    /// Serves `limit` graphs of `stream` through the accelerator's cycle
    /// scan under `config`.
    fn serve(
        a: &Accelerator,
        stream: GraphStream,
        limit: usize,
        config: FleetConfigBuilder,
    ) -> ServeReport {
        a.serve_on(stream, limit, &config.build().unwrap(), Runtime::Sim, None)
            .unwrap()
            .sim()
            .expect("sim runtime yields a sim report")
    }

    #[test]
    fn limit_truncates() {
        let stream = MoleculeLike::new(12.0, 4).stream(100);
        assert_eq!(acc().service_trace(stream, 3).len(), 3);
    }

    #[test]
    #[should_panic(expected = "empty graph stream")]
    fn empty_stream_panics() {
        acc().run_stream(GraphStream::from_graphs(vec![]), 10);
    }

    #[test]
    fn serve_slow_arrivals_match_isolated_latency() {
        // Arrivals far slower than service: no queueing, every sojourn is
        // the bare per-graph latency, so p-max equals the stream max.
        let stream = || MoleculeLike::new(12.0, 4).stream(6);
        let a = acc();
        let trace = a.service_trace(stream(), 6);
        let served = serve(
            &a,
            stream(),
            6,
            FleetConfig::pool(1)
                .arrivals(ArrivalProcess::Fixed {
                    gap: trace.iter().sum(), // one full stream per gap
                })
                .queue_capacity(4),
        );
        assert_eq!(served.dropped, 0);
        assert_eq!(served.mean_wait_ms, 0.0);
        let slowest = cycles_to_ms(*trace.iter().max().unwrap());
        assert!((served.max_ms - slowest).abs() < 1e-12);
    }

    #[test]
    fn serve_under_overload_builds_queueing_tail() {
        let stream = || MoleculeLike::new(12.0, 4).stream(12);
        let a = acc();
        // Arrivals 4x faster than the mean service rate: waits accumulate.
        let mean_service = a.service_trace(stream(), 12).iter().sum::<Cycle>() / 12;
        let served = serve(
            &a,
            stream(),
            12,
            FleetConfig::pool(1)
                .arrivals(ArrivalProcess::Fixed {
                    gap: (mean_service / 4).max(1),
                })
                .queue(QueuePolicy::Unbounded),
        );
        assert_eq!(served.dropped, 0);
        assert!(served.mean_wait_ms > 0.0);
        assert!(served.p99_ms >= served.p50_ms);
        assert!(served.max_ms > served.mean_service_ms);
    }

    #[test]
    fn live_serving_runs_the_engine_on_replica_threads() {
        use crate::serve::DispatchPolicy;
        let stream = || MoleculeLike::new(12.0, 4).stream(8);
        let a = acc();
        let config = FleetConfig::pool(2)
            .policy(DispatchPolicy::JoinShortestQueue)
            .build()
            .unwrap();
        let report = a
            .serve_on(stream(), 8, &config, Runtime::Live, None)
            .unwrap()
            .live()
            .expect("live runtime yields a wall report");
        assert_eq!(report.completed, 8);
        assert_eq!(report.dropped, 0);
        assert_eq!(report.per_replica.len(), 2);
        for r in &report.records {
            assert!(r.finish >= r.start && r.start >= r.arrival);
        }
        // Closed loop on two real threads: both replicas pull work.
        for stats in &report.per_replica {
            assert!(stats.completed > 0);
        }
    }

    #[test]
    fn engine_metrics_count_graphs_cycles_and_cache_traffic() {
        use crate::engine::{NT_PIPELINE_DEPTH, REGION_OVERHEAD};
        use crate::metrics::{EngineMetrics, Registry};

        let registry = Registry::new();
        let metrics = EngineMetrics::new(&registry);
        let a = acc()
            .with_trace_cache(ServiceTraceCache::new(16))
            .with_metrics(metrics.clone());
        // Three distinct graphs, each streamed twice: first pass all
        // misses, second pass all hits.
        let stream = || {
            let graphs: Vec<_> = MoleculeLike::new(12.0, 4).stream(3).collect();
            GraphStream::from_graphs([graphs.clone(), graphs].concat())
        };
        let bare = Accelerator::new(a.model().clone(), *a.config()).service_trace(stream(), 6);
        let observed = a.service_trace(stream(), 6);
        // Observation only: the trace is bit-identical with metrics on.
        assert_eq!(bare, observed);
        assert_eq!(metrics.cache_misses.get(), 3);
        assert_eq!(metrics.cache_hits.get(), 3);
        // Only the misses ran the engine.
        assert_eq!(metrics.graphs.get(), 3);
        assert!(metrics.cycles.get() > 0);

        // Stepped and skipped cycles cover exactly the simulated dataflow
        // regions: on GCN, the regions the twin map does not copy, less
        // each one's fixed overheads. A Full-mode fast-forward run copies
        // twins too, so that falls strictly below the all-regions sum.
        // The dense point cloud saturates the adapter queues.
        let dense = KnnPointCloud::new(30.0, 16, 0).node_feat_dim(9).generate(1);
        let metrics = EngineMetrics::new(&Registry::new());
        let a = acc().with_metrics(metrics.clone());
        assert_eq!(a.config().execution, ExecutionMode::Full);
        let observed = a.run(&dense);
        let bare = acc().run(&dense);
        assert_eq!(bare.region_cycles, observed.region_cycles);
        assert_eq!(
            (bare.nt_busy_cycles, bare.nt_stall_cycles),
            (observed.nt_busy_cycles, observed.nt_stall_cycles)
        );
        assert_eq!(
            (bare.mp_busy_cycles, bare.mp_stall_cycles),
            (observed.mp_busy_cycles, observed.mp_stall_cycles)
        );
        let overhead = REGION_OVERHEAD + NT_PIPELINE_DEPTH;
        let simulated: Cycle = observed
            .region_cycles
            .iter()
            .zip(&a.twins)
            .filter(|(_, twin)| twin.is_none())
            .map(|(&c, _)| c - overhead)
            .sum();
        let all = observed.region_cycles.iter().sum::<Cycle>()
            - observed.region_cycles.len() as Cycle * overhead;
        let (stepped, skipped) = (metrics.stepped_cycles.get(), metrics.skipped_cycles.get());
        assert_eq!(stepped + skipped, simulated);
        assert!(
            simulated < all,
            "simulated {simulated} of {all} region cycles"
        );
        assert!(skipped > 0, "stepped {stepped}, skipped {skipped}");
    }
}
