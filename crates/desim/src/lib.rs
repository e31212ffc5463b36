//! Cycle-level simulation substrate for FlowGNN-RS.
//!
//! The FlowGNN paper's performance claims are architectural: bounded FIFO
//! queues decouple the Node Transformation and Message Passing units, and
//! backpressure plus multicasting determine how well the pipeline overlaps.
//! This crate provides the queue those simulations are written against:
//! [`Fifo`], a bounded, *registered* FIFO. Pushes performed during a cycle
//! become visible to pops only after [`Fifo::commit`], mirroring a
//! synchronous hardware FIFO (1-cycle forwarding latency, no combinational
//! pass-through). Busy/stall accounting lives with the engine that owns
//! the units (`flowgnn-core`'s `RegionStats`).
//!
//! A cycle is a `u64` count of 300 MHz clock ticks (the paper's target
//! frequency); conversion to wall-clock time happens at the reporting layer.
//!
//! # Example
//!
//! ```
//! use flowgnn_desim::Fifo;
//!
//! let mut q: Fifo<u32> = Fifo::new(2);
//! q.push(7);
//! assert_eq!(q.pop(), None); // not visible until the cycle boundary
//! q.commit();
//! assert_eq!(q.pop(), Some(7));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fifo;

pub use fifo::Fifo;

/// A clock cycle index at the simulated 300 MHz.
pub type Cycle = u64;

/// The simulated clock frequency in Hz (the paper targets 300 MHz on the
/// Alveo U50).
pub const CLOCK_HZ: f64 = 300.0e6;

/// Converts a cycle count to milliseconds at [`CLOCK_HZ`].
pub fn cycles_to_ms(cycles: Cycle) -> f64 {
    cycles as f64 / CLOCK_HZ * 1e3
}

/// Converts a cycle count to microseconds at [`CLOCK_HZ`].
pub fn cycles_to_us(cycles: Cycle) -> f64 {
    cycles as f64 / CLOCK_HZ * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_conversions_match_clock() {
        assert!((cycles_to_ms(300_000) - 1.0).abs() < 1e-12);
        assert!((cycles_to_us(300) - 1.0).abs() < 1e-12);
    }
}
