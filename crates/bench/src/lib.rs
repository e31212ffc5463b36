//! Benchmark harness reproducing every table and figure of the FlowGNN
//! paper's evaluation (Sec. VI).
//!
//! Each experiment lives in [`experiments`] as a function returning
//! structured rows plus a paper-style text rendering, so the same code
//! backs the `repro` binary and the integration tests. Every wall-clock
//! number the crate reports comes from one stopwatch, [`timing`]. The
//! experiment ↔ module mapping is the per-experiment index in DESIGN.md:
//!
//! | Paper artifact | Function |
//! |---|---|
//! | Table III (resources)          | [`experiments::table3`] |
//! | Table IV (datasets)            | [`experiments::table4`] |
//! | Table V (HEP latency)          | [`experiments::table5`] |
//! | Table VI (energy efficiency)   | [`experiments::table6`] |
//! | Fig. 7 (batch sweeps)          | [`experiments::fig7`] |
//! | Fig. 8 (Cora/CiteSeer)         | [`experiments::fig8`] |
//! | Fig. 9 (pipeline ablation)     | [`experiments::fig9`] |
//! | Fig. 10 (DSE, 108 points)      | [`experiments::fig10`] |
//! | Table VII (workload imbalance) | [`experiments::table7`] |
//! | Table VIII (GCN accelerators)  | [`experiments::table8`] |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
mod json;
pub mod par;
mod table;
pub mod throughput;
pub mod timing;

pub use par::par_map;
pub use table::TextTable;

/// How many graphs an experiment samples from a streamed dataset.
///
/// The paper streams every graph (e.g. all 43,773 MolPCBA graphs); the
/// default here keeps the full reproduction runnable in minutes. Pass
/// [`SampleSize::Full`] (the `repro --full` flag) for the paper-scale run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleSize {
    /// A smoke-test sample (tens of graphs).
    Quick,
    /// The default sample (hundreds of graphs).
    Standard,
    /// Every graph in the dataset.
    Full,
}

impl SampleSize {
    /// Resolves to a graph count given the dataset's total.
    pub fn resolve(self, total: usize) -> usize {
        match self {
            SampleSize::Quick => total.min(10),
            SampleSize::Standard => total.min(300),
            SampleSize::Full => total,
        }
    }
}

/// Serialises the unit tests that run the long timing study or gate on a
/// wall-clock result, so `throughput`'s study never starves `live`'s
/// saturation gate of CPU on a small host.
#[cfg(test)]
pub(crate) fn wall_clock_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    // The guarded data is `()`, so a poisoned lock holds nothing invalid.
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_sizes_resolve_monotonically() {
        assert!(SampleSize::Quick.resolve(10_000) < SampleSize::Standard.resolve(10_000));
        assert_eq!(SampleSize::Full.resolve(10_000), 10_000);
        assert_eq!(SampleSize::Standard.resolve(5), 5);
    }
}
