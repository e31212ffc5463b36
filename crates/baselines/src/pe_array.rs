//! Roofline timing for PE-array accelerators (I-GCN / AWB-GCN class).

use flowgnn_core::{graphs_per_kj, BackendReport};

/// A processing-element-array accelerator with a compute/memory roofline:
/// `latency = max(MACs / (PEs × utilisation × f), bytes / bandwidth)`.
///
/// This captures both published behaviours we must reproduce in Table
/// VIII: small citation graphs are compute-bound (latency tracks MACs),
/// while Reddit's 114.6M edges are bandwidth-bound on both accelerators
/// (~30 ms despite ample PEs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeArrayModel {
    /// Display name.
    pub name: &'static str,
    /// Number of processing elements (MACs per cycle at full utilisation).
    pub pes: u64,
    /// Clock frequency in Hz.
    pub freq_hz: f64,
    /// Average PE utilisation (workload-balance quality).
    pub utilization: f64,
    /// Off-chip memory bandwidth in GB/s.
    pub mem_bw_gbps: f64,
    /// DSP count used for the paper's DSP-normalised comparison.
    pub dsps: u64,
    /// Board power in watts (calibrated from published energy numbers).
    pub watts: f64,
}

impl PeArrayModel {
    /// Latency in microseconds for a workload of `macs` compute and
    /// `bytes` off-chip traffic.
    pub fn latency_us(&self, macs: u64, bytes: u64) -> f64 {
        let compute_s = macs as f64 / (self.pes as f64 * self.utilization) / self.freq_hz;
        let memory_s = bytes as f64 / (self.mem_bw_gbps * 1e9);
        compute_s.max(memory_s) * 1e6
    }

    /// Whether the workload is memory-bound on this array.
    pub fn memory_bound(&self, macs: u64, bytes: u64) -> bool {
        let compute_s = macs as f64 / (self.pes as f64 * self.utilization) / self.freq_hz;
        let memory_s = bytes as f64 / (self.mem_bw_gbps * 1e9);
        memory_s > compute_s
    }

    /// This array's report for a latency in microseconds: graphs/kJ at
    /// its board power, and its DSP bill with the DSP-normalised latency.
    ///
    /// # Panics
    ///
    /// Panics if `latency_us` is not positive.
    pub(crate) fn report(&self, latency_us: f64) -> BackendReport {
        BackendReport::from_us(latency_us, graphs_per_kj(latency_us * 1e-6, self.watts))
            .with_dsps(self.dsps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn array() -> PeArrayModel {
        PeArrayModel {
            name: "test",
            pes: 4096,
            freq_hz: 330e6,
            utilization: 0.5,
            mem_bw_gbps: 460.0,
            dsps: 4096,
            watts: 100.0,
        }
    }

    #[test]
    fn compute_bound_latency_tracks_macs() {
        let a = array();
        let l1 = a.latency_us(1_000_000, 1000);
        let l2 = a.latency_us(2_000_000, 1000);
        assert!((l2 / l1 - 2.0).abs() < 1e-9);
        assert!(!a.memory_bound(1_000_000, 1000));
    }

    #[test]
    fn memory_bound_latency_tracks_bytes() {
        let a = array();
        // Reddit-class traffic: 14.6 GB at 460 GB/s ≈ 31.8 ms.
        let l = a.latency_us(5_970_000_000, 14_675_000_000);
        assert!((30_000.0..=35_000.0).contains(&l), "{l} µs");
        assert!(a.memory_bound(5_970_000_000, 14_675_000_000));
    }

    #[test]
    fn energy_inverse_of_latency() {
        let a = array();
        assert!(a.report(1.0).graphs_per_kj > a.report(2.0).graphs_per_kj);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_latency_panics() {
        array().report(0.0);
    }
}
