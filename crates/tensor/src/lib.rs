//! Dense linear-algebra substrate for FlowGNN-RS.
//!
//! The FlowGNN accelerator performs per-node and per-edge computations built
//! from a small set of dense primitives: vector arithmetic, fully-connected
//! (linear) layers, multi-layer perceptrons, and activation functions. This
//! crate implements those primitives from scratch — no external linear
//! algebra dependency — so that both the *reference* GNN implementations
//! ([`flowgnn-models`]) and the *simulated* accelerator ([`flowgnn-core`])
//! share one executable definition of the arithmetic.
//!
//! Everything is `f32` and deterministic: weights are initialised from a
//! seeded RNG so that cross-checks between the reference models and the
//! cycle-level simulator are exact. The FPGA's fixed-point datapath is not
//! modelled bit for bit; the simulator charges its cycles, not its rounding.
//!
//! # Example
//!
//! ```
//! use flowgnn_tensor::{Linear, Activation, Mlp};
//!
//! // A 2-layer MLP like a GIN node transformation: 100 -> 100 -> 100.
//! let mlp = Mlp::seeded(&[100, 100, 100], Activation::Relu, 42);
//! let x = vec![0.5; 100];
//! let y = mlp.forward(&x);
//! assert_eq!(y.len(), 100);
//! ```
//!
//! [`flowgnn-models`]: ../flowgnn_models/index.html
//! [`flowgnn-core`]: ../flowgnn_core/index.html

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activation;
mod init;
mod linear;
mod matrix;
mod mlp;
pub mod ops;
pub mod simd;

pub use activation::Activation;
pub use init::WeightInit;
pub use linear::Linear;
pub use matrix::Matrix;
pub use mlp::Mlp;
