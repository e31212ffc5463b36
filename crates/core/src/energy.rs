//! Board power and energy-efficiency model (Table VI analogue).
//!
//! The paper reports energy efficiency in graphs/kJ from measured board
//! power. Without a board, power is modelled as FPGA static power plus
//! dynamic power proportional to the active resources — the standard
//! first-order FPGA power decomposition
//! ([`ResourceEstimate::board_watts`]). The absolute wattage lands in the
//! U50's typical 10–30 W envelope (consistent with the paper's "4× less
//! power" than CPU/GPU claim); energy-efficiency *ratios* against the
//! baselines come from the calibrated baseline powers in
//! `flowgnn-baselines`. Every platform's graphs/kJ is [`graphs_per_kj`].

use crate::resource::ResourceEstimate;

/// FPGA static power floor in watts (Alveo U50 class).
pub const FPGA_STATIC_WATTS: f64 = 10.0;

/// Dynamic watts per DSP slice at 300 MHz.
const WATTS_PER_DSP: f64 = 1.5e-3;
/// Dynamic watts per BRAM36.
const WATTS_PER_BRAM: f64 = 3.0e-3;
/// Dynamic watts per LUT.
const WATTS_PER_LUT: f64 = 2.0e-5;

impl ResourceEstimate {
    /// Estimated board power in watts: the static floor plus dynamic power
    /// per DSP, BRAM and LUT of this bill.
    ///
    /// # Example
    ///
    /// ```
    /// use flowgnn_core::{ArchConfig, ResourceEstimate};
    /// use flowgnn_models::GnnModel;
    ///
    /// let model = GnnModel::gcn(9, 0);
    /// let watts = ResourceEstimate::for_model(&model, &ArchConfig::default()).board_watts();
    /// assert!(watts > 10.0 && watts < 40.0);
    /// ```
    pub fn board_watts(&self) -> f64 {
        FPGA_STATIC_WATTS
            + self.dsp as f64 * WATTS_PER_DSP
            + self.bram as f64 * WATTS_PER_BRAM
            + self.lut as f64 * WATTS_PER_LUT
    }
}

/// The paper's Table VI metric, graphs per kilojoule, for any platform
/// from its per-graph latency in seconds and its power in watts.
///
/// # Panics
///
/// Panics if either argument is not positive.
pub fn graphs_per_kj(latency_s: f64, watts: f64) -> f64 {
    assert!(
        latency_s > 0.0 && watts > 0.0,
        "latency and power must be positive"
    );
    1.0 / (latency_s * watts * 1e-3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ArchConfig;
    use flowgnn_models::GnnModel;

    fn board_watts(seed: u64) -> f64 {
        let model = GnnModel::gin(9, Some(3), seed);
        ResourceEstimate::for_model(&model, &ArchConfig::default()).board_watts()
    }

    #[test]
    fn board_power_is_in_u50_envelope() {
        let w = board_watts(0);
        assert!((10.0..=40.0).contains(&w), "{w} W");
    }

    #[test]
    fn energy_scales_linearly_with_latency() {
        // Energy per graph is the reciprocal of graphs/kJ: twice the
        // latency at the same power costs twice the joules.
        let w = board_watts(0);
        let ratio = graphs_per_kj(1e-4, w) / graphs_per_kj(2e-4, w);
        assert!((ratio - 2.0).abs() < 1e-9);
    }

    #[test]
    fn graphs_per_kj_is_reciprocal() {
        let w = board_watts(0);
        let lat = 1e-4;
        let gpk = graphs_per_kj(lat, w);
        assert!((gpk * w * lat * 1e-3 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn platform_helper_matches_table_vi_magnitudes() {
        // FlowGNN-class: ~100 µs at ~18 W → O(10^5..10^6) graphs/kJ,
        // matching Table VI's FlowGNN column magnitude.
        let gpk = graphs_per_kj(1e-4, 18.0);
        assert!((1e5..=1e6).contains(&gpk), "{gpk}");
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_latency_panics() {
        graphs_per_kj(0.0, board_watts(0));
    }
}
