//! Lane width of the compute kernels.
//!
//! The kernels in [`crate::ops`] are plain loops that LLVM vectorizes at
//! the workspace's pinned `target-cpu`; there is no lane type and no
//! second body. What remains here is [`LANES`], the chunk width of
//! [`crate::ops::dot`]'s accumulators and of [`crate::Linear`]'s register
//! tiles, and [`kernel_path`], the name benchmark output records for the
//! kernels it ran.

/// Chunk width of [`crate::ops::dot`]'s two accumulators and of
/// [`crate::Linear`]'s register tiles. Only `Linear`'s own weights are
/// padded to it: `dot` chunks each slice from its start, so feature rows
/// are packed back to back in [`crate::Matrix`] with no padding.
pub const LANES: usize = 8;

/// Name of the kernel bodies this build runs: always `"simd"`. Recorded
/// in benchmark headers so every reported number is attributable to a
/// code path.
pub fn kernel_path() -> &'static str {
    "simd"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_path_names_are_stable() {
        assert_eq!(kernel_path(), "simd");
    }
}
