//! The FlowGNN dataflow architecture — a cycle-level reproduction.
//!
//! This crate is the paper's primary contribution rendered as a simulator:
//! a generic, workload-agnostic dataflow architecture for message-passing
//! GNN inference with **zero graph preprocessing** (Sec. III). The moving
//! parts map one-to-one onto the paper's Fig. 3(b):
//!
//! - **NT units** (`P_node` of them) apply node transformations with
//!   embedding-level parallelism `P_apply`, in an *accumulate/output*
//!   ping-pong (Sec. III-D2);
//! - the **NT-to-MP adapter** multicasts each transformed embedding, flit
//!   by flit, only to the MP units whose destination bank contains at
//!   least one of the node's out-neighbours (Sec. III-D1, Fig. 5);
//! - **MP units** (`P_edge` of them) each own a bank of destination nodes
//!   (`dest mod P_edge`), compute per-edge messages with edge-level
//!   parallelism `P_scatter`, and merge scatter with gather into O(N)
//!   message buffers;
//! - bounded **FIFO queues** between the stages provide elasticity and
//!   backpressure — the mechanism behind the paper's pipelining claims
//!   (Fig. 4).
//!
//! Four pipeline strategies are implemented for the ablation of Fig. 9:
//! [`PipelineStrategy::NonPipelined`], [`PipelineStrategy::FixedPipeline`],
//! [`PipelineStrategy::BaselineDataflow`] (single NT/MP pair decoupled by
//! a whole-node queue), and [`PipelineStrategy::FlowGnn`] (multi-unit,
//! flit-granular streaming).
//!
//! The simulator *executes the model functionally while it simulates
//! timing*: the embeddings it produces are cross-checked against the
//! reference executor in `flowgnn-models`, reproducing the paper's
//! "guaranteed end-to-end functionality" methodology.
//!
//! # Example
//!
//! ```
//! use flowgnn_core::{Accelerator, ArchConfig};
//! use flowgnn_graph::generators::{GraphGenerator, MoleculeLike};
//! use flowgnn_models::GnnModel;
//!
//! let model = GnnModel::gin(9, Some(3), 42);
//! let acc = Accelerator::new(model, ArchConfig::default());
//! let graph = MoleculeLike::new(20.0, 7).generate(0);
//! let report = acc.run(&graph);
//! assert!(report.total_cycles > 0);
//! assert!(report.latency_ms() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
pub mod cache;
mod config;
mod energy;
mod engine;
mod exec;
mod imbalance;
pub mod metrics;
mod pipeline;
mod regions;
mod resource;
pub mod serve;
mod stream;
mod trace;
mod units;

pub use backend::{BackendReport, InferenceBackend};
pub use cache::{graph_fingerprint, CacheStats, ServiceTraceCache};
pub use config::{ArchConfig, EngineMode, ExecutionMode, GatherBanking, PipelineStrategy};
pub use energy::{graphs_per_kj, FPGA_STATIC_WATTS};
pub use engine::{Accelerator, PreparedGraph, RunReport};
pub use exec::SimScratch;
pub use imbalance::{bank_workloads, imbalance_percent};
pub use metrics::{render_prometheus, EngineMetrics, Registry, ServeMetrics, LATENCY_BUCKETS_MS};
pub use resource::{ResourceEstimate, U50_AVAILABLE};
pub use serve::{
    run_fleet, AdmissionPolicy, ArrivalProcess, ClassStats, CycleDomain, DispatchPolicy,
    Dispatcher, EndpointStats, FleetConfig, FleetConfigBuilder, FleetError, FleetRuntime,
    LiveWorker, ModelEndpoint, ModelWorker, QueuePolicy, ReplicaStats, RequestClass, RequestRecord,
    Runtime, RuntimeReport, ServeReport, TimeDomain, WallDomain,
};
pub use trace::{LaneSymbol, RegionTrace, Trace};

pub mod prelude {
    //! One-stop import of the engine / backend / serving surface.
    //!
    //! Experiment drivers, tests, and examples typically touch all three
    //! layers at once (build an accelerator, treat it as a backend, push
    //! a trace through the serving loop); `use flowgnn_core::prelude::*;`
    //! brings the whole surface in without a long import list.

    pub use crate::backend::{BackendReport, InferenceBackend};
    pub use crate::cache::{graph_fingerprint, CacheStats, ServiceTraceCache};
    pub use crate::config::{
        ArchConfig, EngineMode, ExecutionMode, GatherBanking, PipelineStrategy,
    };
    pub use crate::engine::{Accelerator, PreparedGraph, RunReport};
    pub use crate::metrics::{
        render_prometheus, EngineMetrics, Registry, ServeMetrics, LATENCY_BUCKETS_MS,
    };
    pub use crate::serve::{
        arrivals, dispatch, fleet, live, ms_to_cycles, percentile_nearest_rank, queue, report,
        run_fleet, sim, AdmissionPolicy, ArrivalProcess, ClassStats, CycleDomain, DispatchPolicy,
        Dispatcher, EndpointStats, FleetConfig, FleetConfigBuilder, FleetError, FleetRuntime,
        LiveWorker, ModelEndpoint, ModelWorker, QueuePolicy, ReplicaStats, RequestClass,
        RequestRecord, Runtime, RuntimeReport, ServeReport, TimeDomain, WallDomain,
    };
}
