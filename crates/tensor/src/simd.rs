//! Lane width and the process-wide kernel-path switch.
//!
//! The kernels in [`crate::ops`] are plain loops that LLVM vectorizes at
//! the workspace's pinned `target-cpu`; there is no lane type. What
//! remains here is:
//!
//! * [`LANES`], the chunk width of [`crate::ops::dot`]'s accumulators;
//! * one run-time switch, [`set_scalar_kernels`] (flipped by the scalar
//!   rows of `repro throughput` and by the differential tests), that
//!   selects the reference body of the two kernels that have one:
//!   [`crate::ops::dot`] falls back to the left-to-right
//!   [`crate::ops::scalar::dot`], and
//!   [`crate::Linear::forward_input_stationary`] walks the weight columns
//!   instead of the transposed rows.
//!
//! [`kernel_path`] names the selected path, so benchmark output can
//! attribute its numbers to it.

use std::sync::atomic::{AtomicBool, Ordering};

/// Chunk width of [`crate::ops::dot`]'s two accumulators. It constrains
/// no storage: `dot` chunks each slice from its start, so feature rows
/// are packed back to back in [`crate::Matrix`] with no padding.
pub const LANES: usize = 8;

/// Process-wide runtime override selecting the scalar kernel path.
static RUNTIME_SCALAR: AtomicBool = AtomicBool::new(false);

/// Selects the reference kernel bodies (`true`) or the default ones
/// (`false`, the default). See the module docs for what it switches.
///
/// The switch is process-wide; flip it before spawning worker threads
/// (`repro throughput` sets it before each row's timed passes).
pub fn set_scalar_kernels(scalar: bool) {
    RUNTIME_SCALAR.store(scalar, Ordering::Relaxed);
}

/// Whether the switching kernels currently take the reference path.
#[inline]
pub fn scalar_kernels() -> bool {
    RUNTIME_SCALAR.load(Ordering::Relaxed)
}

/// Name of the kernel path the next switching call will take: `"simd"`
/// (the default bodies) or `"scalar"` (the reference bodies). Recorded
/// in benchmark headers so every reported number is attributable to a
/// code path.
pub fn kernel_path() -> &'static str {
    if RUNTIME_SCALAR.load(Ordering::Relaxed) {
        "scalar"
    } else {
        "simd"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_path_names_are_stable() {
        // Don't flip the runtime switch here (other tests in this
        // process compute through the switching kernels); just check
        // the reported name is one of the two contract strings.
        assert!(matches!(kernel_path(), "simd" | "scalar"));
    }
}
