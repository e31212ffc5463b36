//! Open-loop serving: request arrivals, replica pools, admission
//! queueing, dispatch, and tail-latency accounting — in two runtimes
//! sharing one set of abstractions.
//!
//! The paper's evaluation is *closed-loop*: the next graph enters the
//! accelerator the instant the previous one finishes, so only service
//! time is visible. A real deployment is *open-loop* — requests arrive on
//! their own schedule, queue behind the servers, and experience
//! `wait + service` sojourn times whose tail (p99, max) is the metric an
//! SLO is written against. This module models that regime, scaled out
//! across a fleet of accelerator replicas, in two time domains behind one
//! entry point, [`run_fleet`] (or [`crate::InferenceBackend::serve_on`],
//! which builds the cost rows from a backend's graph stream):
//!
//! - [`FleetRuntime::Sim`] is the cycle-domain discrete-event scan:
//!   deterministic, instant to sweep, timeline in simulated cycles;
//! - [`FleetRuntime::Live`] is the wall-clock runtime ([`live`]): one OS
//!   thread per replica really doing the work, a load generator really
//!   pacing arrivals, timeline in measured nanoseconds.
//!
//! Both are assembled from the same parts, one per submodule:
//!
//! - [`arrivals`] — [`ArrivalProcess`] generates deterministic
//!   request-arrival schedules (fixed-rate, Poisson, bursty on-off; a
//!   seed pins the trace), consumed as cycles by the simulator and paced
//!   as wall offsets by the live generator;
//! - [`dispatch`] — [`DispatchPolicy`] routes each arriving request to
//!   one of `R` replicas (round-robin, join-shortest-queue,
//!   power-of-two-choices, or cost-based: the smallest estimated
//!   completion cost) through one shared [`Dispatcher`] core;
//! - [`queue`] — [`QueuePolicy`] bounds each replica's admission queue,
//!   and [`AdmissionPolicy`] resolves a full one: FIFO drops the
//!   arrival; priority admission displaces the lowest-priority waiting
//!   request when the arrival strictly outranks it (a dropped request is
//!   rejected immediately, never served, never redispatched);
//! - [`report`] — [`ServeReport`], generic over its [`TimeDomain`]
//!   ([`CycleDomain`] cycles / [`WallDomain`] nanoseconds), decomposes
//!   every request into queueing wait plus service time and summarises
//!   the sojourn distribution at p50/p95/p99/max, with per-class
//!   ([`ClassStats`]) and per-endpoint ([`EndpointStats`]) views for
//!   fleet runs;
//! - [`fleet`] — [`FleetConfig`] describes the fleet: a [`ModelEndpoint`]
//!   registry of heterogeneous backends, [`RequestClass`] stamps with
//!   priorities and per-class SLOs, and [`DispatchPolicy::CostBased`]
//!   routing over per-endpoint service-cost rows. A plain replica pool is
//!   its one-endpoint, one-class case, built by [`FleetConfig::pool`].
//!
//! A replica serves one request per service event, oldest first, so a
//! [`RequestRecord`]'s `start` and `finish` always bound that request's
//! own service.
//!
//! The closed-loop streaming evaluation is the degenerate point of this
//! model — one replica, round-robin, every request arriving at cycle 0
//! ([`ArrivalProcess::closed_loop`]) with an unbounded queue — whose
//! makespan is the sum of the service trace. The closed-loop mean
//! ([`crate::InferenceBackend::run_stream`]) is computed as that sum
//! directly, and `tests/differential.rs` pins the served closed loop
//! against an independent per-graph loop, record by record.
//!
//! Configurations are built fluently and validated once, at `build()`:
//!
//! ```
//! use flowgnn_core::prelude::*;
//!
//! let config = FleetConfig::pool(4)
//!     .arrivals(ArrivalProcess::poisson_rate(50_000.0, 7))
//!     .queue_capacity(64)
//!     .policy(DispatchPolicy::JoinShortestQueue)
//!     .build()
//!     .unwrap();
//! let service = vec![600, 580, 660, 620, 590, 610];
//! let report = run_fleet::<ModelWorker>(&[service], &[0; 6], &config, FleetRuntime::Sim, None)
//!     .unwrap()
//!     .sim()
//!     .unwrap();
//! assert_eq!(report.completed + report.dropped, 6);
//! assert_eq!(report.per_replica.len(), 4);
//! ```

use flowgnn_desim::{Cycle, CLOCK_HZ};

pub mod arrivals;
pub mod dispatch;
pub mod fleet;
pub mod live;
pub mod queue;
pub mod report;
pub mod sim;

pub use arrivals::ArrivalProcess;
pub use dispatch::{DispatchPolicy, Dispatcher};
pub use fleet::{
    run_fleet, FleetConfig, FleetConfigBuilder, FleetError, FleetRuntime, ModelEndpoint,
    RequestClass,
};
pub use live::{LiveWorker, ModelWorker};
pub use queue::{AdmissionPolicy, QueuePolicy};
pub use report::{
    percentile_nearest_rank, ClassStats, CycleDomain, EndpointStats, ReplicaStats, RequestRecord,
    ServeReport, TimeDomain, WallDomain,
};

/// Which of the two serving runtimes a unified entry point should run:
/// the deterministic cycle-domain simulator or the wall-clock live
/// runtime. This is the one switch the unified
/// [`crate::InferenceBackend::serve_on`] entry takes — everything else
/// (arrivals, queues, admission, dispatch, endpoints, classes)
/// lives in the [`FleetConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Runtime {
    /// The cycle-domain discrete-event fleet scan: deterministic,
    /// instant, timeline in simulated cycles.
    Sim,
    /// The wall-clock runtime: one OS thread per replica really doing
    /// the work, timeline in measured nanoseconds.
    Live,
}

/// The report a unified serving entry returns: the domain of the inner
/// [`ServeReport`] follows the [`Runtime`] that produced it. Use
/// [`RuntimeReport::sim`] / [`RuntimeReport::live`] to get the typed
/// report back (each returns `None` for the other runtime's variant).
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeReport {
    /// A simulated run's report, on the cycle timeline.
    Sim(ServeReport<CycleDomain>),
    /// A live run's report, on the wall-clock timeline.
    Live(ServeReport<WallDomain>),
}

impl RuntimeReport {
    /// The cycle-domain report, if this came from [`Runtime::Sim`].
    pub fn sim(self) -> Option<ServeReport<CycleDomain>> {
        match self {
            RuntimeReport::Sim(r) => Some(r),
            RuntimeReport::Live(_) => None,
        }
    }

    /// The wall-clock report, if this came from [`Runtime::Live`].
    pub fn live(self) -> Option<ServeReport<WallDomain>> {
        match self {
            RuntimeReport::Live(r) => Some(r),
            RuntimeReport::Sim(_) => None,
        }
    }
}

/// Converts a millisecond latency to whole cycles at the simulated clock,
/// rounding to nearest. Used to place analytic backends (whose models are
/// native in milliseconds) on the cycle-quantised serving timeline.
pub fn ms_to_cycles(ms: f64) -> Cycle {
    (ms * CLOCK_HZ / 1e3).round() as Cycle
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowgnn_desim::cycles_to_ms;

    #[test]
    fn ms_cycle_round_trip() {
        assert_eq!(ms_to_cycles(1.0), 300_000);
        assert_eq!(ms_to_cycles(cycles_to_ms(12_345)), 12_345);
    }
}
