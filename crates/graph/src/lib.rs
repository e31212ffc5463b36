//! Graph substrate for FlowGNN-RS.
//!
//! FlowGNN is *workload-agnostic*: graphs are streamed into the accelerator
//! in raw COO edge-list format with **zero preprocessing** — no partitioning,
//! no locality analysis, no reordering. This crate provides exactly that
//! interface:
//!
//! - [`Graph`] — one input graph: node count, directed COO edge list, node
//!   features, optional multi-dimensional edge features (the feature most
//!   prior accelerators cannot handle, Sec. II-B of the paper).
//! - [`Adjacency`] — CSR/CSC built *on the fly* from the COO stream, the
//!   only derived structure the architecture needs (Sec. III-C).
//! - [`generators`] — synthetic workload generators standing in for the
//!   paper's datasets (we have no OGB/HEP/Planetoid files): molecule-like
//!   graphs, kNN point clouds (EdgeConv), Chung-Lu power-law graphs,
//!   Erdős–Rényi graphs.
//! - [`datasets`] — the seven evaluation datasets of Table IV as generator
//!   presets matching the published statistics.
//!
//! # Example
//!
//! ```
//! use flowgnn_graph::datasets::{DatasetKind, DatasetSpec};
//!
//! let spec = DatasetSpec::standard(DatasetKind::MolHiv);
//! let mut stream = spec.stream();
//! let g = stream.next().unwrap();
//! assert!(g.num_nodes() > 0);
//! assert!(g.edge_feature_dim().is_some()); // MolHIV has edge features
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adjacency;
pub mod datasets;
mod features;
pub mod generators;
mod graph;
mod stream;

pub use adjacency::Adjacency;
pub use features::FeatureSource;
pub use graph::{Graph, GraphError, NodeId};
pub use stream::GraphStream;
