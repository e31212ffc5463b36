//! AWB-GCN: workload-balanced zero-skipping SpMM engine (Geng et al.,
//! MICRO'20).
//!
//! AWB-GCN executes GCN as a chain of sparse matrix multiplications on a
//! 4096-PE array with runtime workload rebalancing (distribution smoothing,
//! evil-row remoting). It has no redundancy removal and a lower effective
//! utilisation than I-GCN on skewed graphs — exactly the published gap in
//! Table VIII — so it is modelled as the same PE-array roofline with its
//! own utilisation and published configuration.

use flowgnn_core::{BackendReport, InferenceBackend};
use flowgnn_graph::Graph;

use crate::pe_array::PeArrayModel;
use crate::workload::GcnWorkload;

/// The AWB-GCN accelerator running a GCN-class workload of `hidden`
/// dimension and `layers` layers.
#[derive(Debug, Clone)]
pub struct AwbGcnBackend {
    hidden: usize,
    layers: usize,
}

impl AwbGcnBackend {
    /// AWB-GCN's published deployment: 4096 PEs at 330 MHz.
    const ARRAY: PeArrayModel = PeArrayModel {
        name: "AWB-GCN",
        pes: 4096,
        freq_hz: 330e6,
        utilization: 0.50,
        mem_bw_gbps: 460.0,
        dsps: 4096,
        watts: 140.0,
    };

    /// AWB-GCN on a GCN of `hidden` dimension and `layers` layers.
    pub fn new(hidden: usize, layers: usize) -> Self {
        Self { hidden, layers }
    }

    /// Latency in microseconds for a GCN workload.
    fn latency_us(workload: &GcnWorkload) -> f64 {
        Self::ARRAY.latency_us(workload.total_macs(), workload.message_bytes())
    }
}

impl InferenceBackend for AwbGcnBackend {
    fn name(&self) -> &str {
        Self::ARRAY.name
    }

    fn run_graph(&self, graph: &Graph) -> BackendReport {
        let workload = GcnWorkload::from_graph(graph, self.hidden, self.layers);
        Self::ARRAY.report(Self::latency_us(&workload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowgnn_graph::generators::{GraphGenerator, MoleculeLike};

    #[test]
    fn cora_class_latency_matches_published_magnitude() {
        // AWB-GCN reports 2.3 µs on Cora.
        let w = GcnWorkload::from_stats(2708, 5429, 49_260, 16, 2);
        let l = AwbGcnBackend::latency_us(&w);
        assert!((1.0..=5.0).contains(&l), "{l} µs");
    }

    #[test]
    fn pubmed_class_latency_matches_published_magnitude() {
        // AWB-GCN reports 30 µs on PubMed (nnz ≈ 19717 × 500 × 0.10).
        let w = GcnWorkload::from_stats(19_717, 44_338, 985_850, 16, 2);
        let l = AwbGcnBackend::latency_us(&w);
        assert!((15.0..=60.0).contains(&l), "{l} µs");
    }

    #[test]
    fn reddit_is_memory_bound_at_tens_of_ms() {
        // AWB-GCN reports 3.2e4 µs on Reddit.
        let w = GcnWorkload::from_stats(232_965, 114_615_892, 140_244_930, 16, 2);
        let l = AwbGcnBackend::latency_us(&w);
        assert!((20_000.0..=50_000.0).contains(&l), "{l} µs");
        assert!(AwbGcnBackend::ARRAY.memory_bound(w.total_macs(), w.message_bytes()));
    }

    #[test]
    fn igcn_beats_awb_on_compute_bound_graphs() {
        let w = GcnWorkload::from_stats(2708, 5429, 49_260, 16, 2);
        let awb = AwbGcnBackend::latency_us(&w);
        let igcn = crate::IGcnBackend::latency_us(&w, 0.1);
        assert!(igcn < awb, "I-GCN {igcn} vs AWB {awb}");
    }

    #[test]
    fn accelerator_backends_report_dsp_bills() {
        let g = MoleculeLike::new(16.0, 4).generate(0);
        let igcn = crate::IGcnBackend::new(16, 2).run_graph(&g);
        let awb = AwbGcnBackend::new(16, 2).run_graph(&g);
        for r in [igcn, awb] {
            assert!(r.dsps.unwrap() > 0);
            assert!(r.normalized_us.unwrap() > 0.0);
            assert!(r.latency_us > 0.0);
        }
    }
}
