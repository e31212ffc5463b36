//! FlowGNN-RS — a dataflow architecture for real-time, workload-agnostic
//! GNN inference.
//!
//! This is the facade crate of the FlowGNN-RS workspace, a Rust
//! reproduction of *"FlowGNN: A Dataflow Architecture for Real-Time
//! Workload-Agnostic Graph Neural Network Inference"* (HPCA 2023). It
//! re-exports the per-subsystem crates:
//!
//! - [`graph`] — COO graph streams, on-the-fly CSR/CSC, dataset generators;
//! - [`tensor`] — dense linear algebra (matrices, linear layers, MLPs);
//! - [`desim`] — cycle-level simulation substrate (registered FIFOs, clock);
//! - [`models`] — the message-passing programming model and the six paper
//!   models (GCN, GIN, GIN+VN, GAT, PNA, DGN);
//! - [`core`] — the dataflow architecture itself: NT/MP units, the
//!   multicast adapter, four pipeline strategies, the resource model with
//!   its board power, and the graphs/kJ and DSP-normalisation formulas
//!   every platform's report shares;
//! - [`baselines`] — one `InferenceBackend` per baseline platform:
//!   calibrated CPU/GPU cost models, I-GCN islandization, AWB-GCN.
//!
//! The most common entry points are re-exported at the top level.
//!
//! # Quickstart
//!
//! ```
//! use flowgnn::prelude::*;
//!
//! // Deploy the paper's GIN (5 layers, dim 100, edge embeddings)...
//! let spec = DatasetSpec::standard(DatasetKind::MolHiv);
//! let model = GnnModel::gin(spec.node_feat_dim(), spec.edge_feat_dim(), 42);
//! let acc = Accelerator::new(model, ArchConfig::default());
//!
//! // ...and stream graphs through at batch size 1, zero preprocessing.
//! let report = acc.run_stream(spec.stream(), 10);
//! assert!(report.latency_ms > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use flowgnn_baselines as baselines;
pub use flowgnn_core as core;
pub use flowgnn_desim as desim;
pub use flowgnn_graph as graph;
pub use flowgnn_models as models;
pub use flowgnn_tensor as tensor;

pub use flowgnn_core::{
    run_fleet, Accelerator, ArchConfig, ArrivalProcess, CycleDomain, DispatchPolicy, Dispatcher,
    EngineMode, ExecutionMode, FleetConfig, FleetError, FleetRuntime, LiveWorker, ModelWorker,
    PipelineStrategy, QueuePolicy, ReplicaStats, RunReport, Runtime, RuntimeReport, ServeReport,
    TimeDomain, WallDomain,
};
pub use flowgnn_graph::{Graph, GraphStream};
pub use flowgnn_models::{Dataflow, GnnModel, ModelKind};

pub mod prelude {
    //! One-stop import for applications: the core engine / backend /
    //! serving surface plus the graph, dataset, and model entry points.
    //!
    //! ```
    //! use flowgnn::prelude::*;
    //!
    //! let spec = DatasetSpec::standard(DatasetKind::MolHiv);
    //! let acc = Accelerator::new(
    //!     GnnModel::gcn(spec.node_feat_dim(), 7),
    //!     ArchConfig::default(),
    //! );
    //! let config = FleetConfig::pool(1).build().unwrap();
    //! let report = acc
    //!     .serve_on(spec.stream(), 8, &config, Runtime::Sim, None)
    //!     .unwrap()
    //!     .sim()
    //!     .unwrap();
    //! assert_eq!(report.completed, 8);
    //! ```

    pub use flowgnn_core::prelude::*;
    pub use flowgnn_graph::datasets::{DatasetKind, DatasetSpec};
    pub use flowgnn_graph::{Graph, GraphStream};
    pub use flowgnn_models::{GnnModel, ModelKind};
}
