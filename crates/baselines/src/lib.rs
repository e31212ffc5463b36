//! Baseline platform models for FlowGNN-RS.
//!
//! The paper compares FlowGNN against four baselines we do not have:
//! a Xeon Gold 6226R running PyTorch Geometric, an RTX A6000 GPU, and the
//! I-GCN and AWB-GCN accelerators. Each is one type, an
//! [`InferenceBackend`](flowgnn_core::InferenceBackend) that experiment
//! drivers put in a row next to the cycle-level FlowGNN simulator, and
//! each replaces its platform with a model of the mechanism behind its
//! performance curve:
//!
//! - [`CpuBackend`] / [`GpuBackend`] — *calibrated analytic cost models*:
//!   a fixed per-batch framework/kernel-launch term plus an
//!   op-proportional compute term with batch-dependent utilisation. The
//!   constants are calibrated once against the paper's published Table V
//!   (batch-1 HEP) endpoints and then reused unchanged for every other
//!   experiment, so the *shapes* of Fig. 7/8 (batch sweeps, crossovers)
//!   are predictions of the model, not fits. Both are functions of a
//!   graph's shape, and answer `run_shape` for a dataset's mean shape.
//! - [`IGcnBackend`] — a real implementation of I-GCN's *islandization*
//!   ([`Islandization`]: hub detection, island BFS, shared-neighbour
//!   redundancy counting) on our graphs, feeding a PE-array timing model.
//! - [`AwbGcnBackend`] — AWB-GCN's workload-balanced zero-skipping SpMM
//!   engine as a PE-array model with its published configuration.
//!
//! Both accelerator backends share [`PeArrayModel`]: `cycles =
//! max(MACs / (PEs × utilisation), memory traffic / bandwidth)` — the
//! standard compute/memory roofline that reproduces, e.g., Reddit being
//! memory-bound on both accelerators. Every platform's graphs/kJ comes
//! from [`flowgnn_core::graphs_per_kj`], and the accelerators' DSP-normalised
//! latency from [`BackendReport::with_dsps`](flowgnn_core::BackendReport::with_dsps).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod awbgcn;
mod igcn;
mod pe_array;
mod platform;
mod workload;

pub use awbgcn::AwbGcnBackend;
pub use igcn::{IGcnBackend, Islandization};
pub use pe_array::PeArrayModel;
pub use platform::{CpuBackend, GpuBackend};
pub use workload::GcnWorkload;
