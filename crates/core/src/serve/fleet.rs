//! Multi-model, multi-tenant fleet serving: endpoint registries, request
//! classes, SLO-aware priority admission, and cost-based heterogeneous
//! routing — in both time domains.
//!
//! A plain replica pool models "R replicas of one model": every replica
//! is interchangeable and every request is the same kind of tenant. A
//! deployment of a workload-agnostic accelerator is neither — it hosts
//! several (model × dataset × backend) pairs at once and serves several
//! tenant classes with different latency objectives. This module serves
//! a **fleet**, and the plain pool is its one-endpoint, one-class case
//! ([`FleetConfig::pool`]):
//!
//! - [`ModelEndpoint`] — one entry in the fleet registry: a named
//!   backend deployment contributing `replicas` interchangeable replicas
//!   to the pool. The caller supplies one *cost row* per endpoint:
//!   `costs[e][i]` is request `i`'s estimated (and, in the cycle domain,
//!   actual) service cost on endpoint `e`, in cycles — heterogeneity is
//!   entirely in those rows (a CPU endpoint's row is just slower than
//!   the accelerator's, more so for large graphs).
//! - [`RequestClass`] — one tenant class: a name, an admission
//!   [`priority`](RequestClass::priority), and an optional per-class SLO.
//!   `class_of[i]` stamps every arrival with its class.
//! - [`AdmissionPolicy`] — what happens at a full admission queue:
//!   FIFO drops the arrival; priority admission displaces the
//!   lowest-priority waiting request when the arrival outranks it
//!   (service order stays FIFO — priority never reorders the queue, so
//!   no class is starved by its peers and the FIFO fleet is
//!   bit-identical to the plain pool).
//! - [`DispatchPolicy::CostBased`] — routes each request to the replica
//!   with the smallest estimated *completion* cost (outstanding work
//!   plus this request's cost there), which over a heterogeneous fleet
//!   sends small graphs to CPU-class endpoints and large graphs to the
//!   accelerator.
//!
//! [`run_fleet`] is the one entry point for both runtimes:
//! [`FleetRuntime::Sim`] drives the simulator's `ReplicaSim` state
//! machine per replica; [`FleetRuntime::Live`] runs the live runtime's
//! thread-per-replica loop over admission shards. Both route through the
//! shared [`Dispatcher::route`], admit through the shared waiting room
//! ([`super::queue`]), and book every offer and close the run through
//! one private step, so the two runtimes count, drop and summarise
//! requests alike. With one endpoint, one class, and FIFO admission the
//! scan is *bit-identical* to the pre-fleet replica-pool scan
//! (`tests/differential.rs` pins this against independent inline copies
//! of that scan over the `repro scale` recipe).

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use flowgnn_desim::Cycle;

use crate::metrics::{Counter, Gauge, ServeMetrics};

use super::arrivals::ArrivalProcess;
use super::dispatch::{DispatchPolicy, Dispatcher};
use super::live::LiveWorker;
use super::queue::{AdmissionPolicy, AdmissionShard, OfferOutcome, QueuePolicy, Waiting};
use super::report::{
    class_summaries, summarize, EndpointStats, ReplicaStats, RequestRecord, ServeReport,
    TimeDomain, WallDomain,
};
use super::sim::ReplicaSim;
use super::RuntimeReport;

/// One tenant request class: who is asking, how important they are at a
/// full admission queue, and what latency they were promised.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestClass {
    /// Tenant identifier (appears in
    /// [`ClassStats::name`](super::ClassStats::name)).
    pub name: String,
    /// Admission priority: at a full queue under
    /// [`AdmissionPolicy::Priority`], an arrival displaces a waiting
    /// request only if its priority is *strictly higher*. Has no effect
    /// on service order.
    pub priority: u8,
    /// The class's sojourn-latency objective in milliseconds, if any;
    /// [`ClassStats::slo_attainment`](super::ClassStats::slo_attainment)
    /// is measured against it.
    pub slo_ms: Option<f64>,
}

impl RequestClass {
    /// A class with the given name and admission priority and no SLO.
    pub fn new(name: impl Into<String>, priority: u8) -> Self {
        Self {
            name: name.into(),
            priority,
            slo_ms: None,
        }
    }

    /// Attaches a sojourn-latency SLO in milliseconds.
    pub fn with_slo_ms(mut self, slo_ms: f64) -> Self {
        self.slo_ms = Some(slo_ms);
        self
    }
}

/// One entry in the fleet registry: a named backend deployment
/// contributing `replicas` interchangeable replicas to the pool. The
/// endpoint's service-cost row (supplied alongside the registry to
/// [`run_fleet`]) is what distinguishes a CPU endpoint from an
/// accelerator endpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelEndpoint {
    /// Endpoint name (usually the backend's; appears in
    /// [`EndpointStats::name`]).
    pub name: String,
    /// Replicas this endpoint contributes to the fleet (≥ 1, validated
    /// at [`FleetConfigBuilder::build`]).
    pub replicas: usize,
}

impl ModelEndpoint {
    /// An endpoint with the given name and replica count.
    pub fn new(name: impl Into<String>, replicas: usize) -> Self {
        Self {
            name: name.into(),
            replicas,
        }
    }
}

/// Why a serving-layer computation could not produce a result.
///
/// The serving layer reports malformed inputs as typed errors instead of
/// panicking, so sweep drivers can surface a configuration mistake
/// without tearing down the whole run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetError {
    /// The run was given zero requests: there is nothing to serve and no
    /// meaningful report to build.
    EmptyTrace,
    /// [`percentile_nearest_rank`](super::percentile_nearest_rank) was
    /// given an empty sample: no rank exists to select.
    EmptySample,
    /// A report carries no per-replica stats, so there is no pool to
    /// describe.
    ZeroReplicas,
    /// The live worker pool's size differs from the fleet's total
    /// replica count: every live replica needs exactly one worker thread.
    WorkerMismatch {
        /// Workers supplied.
        workers: usize,
        /// Replicas the configuration asks for.
        replicas: usize,
    },
    /// The fleet registry has no endpoints: nothing can serve.
    NoEndpoints,
    /// The class registry is empty: arrivals cannot be stamped.
    NoClasses,
    /// An endpoint contributes zero replicas.
    EndpointZeroReplicas {
        /// Index of the offending endpoint in the registry.
        endpoint: usize,
    },
    /// The cost matrix has one row per endpoint; the row count differs
    /// from the registry size.
    EndpointCountMismatch {
        /// Rows supplied in the cost matrix.
        cost_rows: usize,
        /// Endpoints in the registry.
        endpoints: usize,
    },
    /// An endpoint's cost row does not cover every request.
    CostShapeMismatch {
        /// Index of the offending endpoint.
        endpoint: usize,
        /// Entries in its cost row.
        rows: usize,
        /// Requests in the run.
        requests: usize,
    },
    /// A request's class stamp points outside the class registry.
    ClassOutOfRange {
        /// The offending request index.
        request: usize,
        /// Its (out-of-range) class stamp.
        class: usize,
    },
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::EmptyTrace => write!(f, "cannot serve an empty request trace"),
            FleetError::EmptySample => write!(f, "percentile of an empty sample"),
            FleetError::ZeroReplicas => write!(f, "replica pool must have at least one replica"),
            FleetError::WorkerMismatch { workers, replicas } => write!(
                f,
                "live worker pool has {workers} workers for {replicas} replicas"
            ),
            FleetError::NoEndpoints => write!(f, "fleet registry has no endpoints"),
            FleetError::NoClasses => write!(f, "fleet has no request classes"),
            FleetError::EndpointZeroReplicas { endpoint } => {
                write!(f, "endpoint {endpoint} contributes zero replicas")
            }
            FleetError::EndpointCountMismatch {
                cost_rows,
                endpoints,
            } => write!(
                f,
                "cost matrix has {cost_rows} rows for {endpoints} endpoints"
            ),
            FleetError::CostShapeMismatch {
                endpoint,
                rows,
                requests,
            } => write!(
                f,
                "endpoint {endpoint} cost row has {rows} entries for {requests} requests"
            ),
            FleetError::ClassOutOfRange { request, class } => {
                write!(
                    f,
                    "request {request} stamped with out-of-range class {class}"
                )
            }
        }
    }
}

impl std::error::Error for FleetError {}

/// A fleet serving scenario: the arrival process, the per-replica
/// admission-queue bound, the admission and dispatch policies, the
/// endpoint registry, and the class registry. One `FleetConfig` drives
/// either runtime through [`run_fleet`] — on the cycle timeline or on
/// the wall clock.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// How requests arrive.
    pub arrivals: ArrivalProcess,
    /// How many may wait, per replica.
    pub queue: QueuePolicy,
    /// What happens at a full admission queue.
    pub admission: AdmissionPolicy,
    /// How arriving requests are routed across the fleet's replicas.
    pub policy: DispatchPolicy,
    /// The fleet registry, in replica-index order: endpoint 0's replicas
    /// are global replicas `0..e0`, endpoint 1's the next block, and so
    /// on.
    pub endpoints: Vec<ModelEndpoint>,
    /// The tenant class registry; `class_of[i]` indexes into it.
    pub classes: Vec<RequestClass>,
}

impl FleetConfig {
    /// Starts a fluent builder from the closed-loop defaults (gap-0
    /// arrivals, unbounded queue, FIFO admission, round-robin routing,
    /// empty registries).
    pub fn builder() -> FleetConfigBuilder {
        FleetConfigBuilder {
            config: FleetConfig {
                arrivals: ArrivalProcess::closed_loop(),
                queue: QueuePolicy::Unbounded,
                admission: AdmissionPolicy::Fifo,
                policy: DispatchPolicy::RoundRobin,
                endpoints: Vec::new(),
                classes: Vec::new(),
            },
        }
    }

    /// Starts a builder for a plain replica pool: one `"pool"` endpoint
    /// carrying `replicas` interchangeable replicas and one priority-0
    /// `"default"` class, on the closed-loop defaults of
    /// [`FleetConfig::builder`]. Serving it is the classic `R`-replica
    /// pool scan, bit for bit (`tests/differential.rs` pins this).
    pub fn pool(replicas: usize) -> FleetConfigBuilder {
        Self::builder()
            .endpoint(ModelEndpoint::new("pool", replicas))
            .class(RequestClass::new("default", 0))
    }

    /// Total replicas across the registry (the fleet's pool size).
    pub fn total_replicas(&self) -> usize {
        self.endpoints.iter().map(|e| e.replicas).sum()
    }

    /// The registry invariants, checked by both
    /// [`FleetConfigBuilder::build`] and every serving run (a hand-assembled
    /// struct bypasses the builder).
    fn validate(&self) -> Result<(), FleetError> {
        if self.endpoints.is_empty() {
            return Err(FleetError::NoEndpoints);
        }
        if let Some(e) = self.endpoints.iter().position(|e| e.replicas == 0) {
            return Err(FleetError::EndpointZeroReplicas { endpoint: e });
        }
        if self.classes.is_empty() {
            return Err(FleetError::NoClasses);
        }
        Ok(())
    }
}

/// Which runtime [`run_fleet`] should execute a fleet scenario on, plus
/// the live runtime's worker pool when applicable. The live variant
/// carries one [`LiveWorker`] per *global* replica in registry order;
/// sim-only callers name any worker type, e.g.
/// `run_fleet::<ModelWorker>(…, FleetRuntime::Sim, …)`.
pub enum FleetRuntime<W: LiveWorker> {
    /// The deterministic cycle-domain scan (no workers needed).
    Sim,
    /// The wall-clock thread-per-replica runtime, with its worker pool.
    Live(Vec<W>),
}

/// The fleet serving entry: one function, either runtime, optional live
/// metrics. Runs one multi-tenant request trace through the fleet and
/// summarises it with per-class and per-endpoint views.
///
/// `costs[e][i]` is request `i`'s service cost, in cycles, on endpoint
/// `e`; `class_of[i]` stamps request `i` with a class from
/// `config.classes`. Arrivals come from `config.arrivals` (one per
/// request); each arrival is routed to one of the fleet's replicas (the
/// concatenation of every endpoint's replicas, in registry order) by
/// `config.policy`, and a full admission queue is resolved by
/// `config.admission`.
///
/// `runtime` picks the timeline. [`FleetRuntime::Sim`] runs the
/// deterministic `O(n × R)` cycle scan, where the cost model *is* the
/// service model: cost-based routing estimates exactly what the scan
/// then charges. [`FleetRuntime::Live`] runs one OS thread per replica
/// with its worker pool; there `costs` are routing and admission
/// *estimates*, and a request takes whatever wall time its worker
/// spends.
///
/// `metrics`, when given, is updated *while the run executes* — counters
/// for offers/completions/drops/displacements, per-replica dispatch
/// counters, queue-depth gauges (waiting requests) set after every
/// arrival, sojourn/wait histograms, and per-replica utilization gauges
/// at the end of the run.
/// Metrics are observation only: a run with `metrics` attached produces
/// the same report, bit for bit, as one without.
///
/// ```
/// use flowgnn_core::prelude::*;
///
/// let config = FleetConfig::builder()
///     .arrivals(ArrivalProcess::Fixed { gap: 100 })
///     .queue_capacity(2)
///     .admission(AdmissionPolicy::Priority)
///     .policy(DispatchPolicy::CostBased)
///     .endpoint(ModelEndpoint::new("accel", 1))
///     .endpoint(ModelEndpoint::new("cpu", 2))
///     .class(RequestClass::new("interactive", 1).with_slo_ms(0.01))
///     .class(RequestClass::new("batch", 0))
///     .build()
///     .unwrap();
/// let costs = vec![vec![100, 900, 100, 900], vec![400, 3600, 400, 3600]];
/// let class_of = vec![0, 1, 0, 1];
/// let report = run_fleet::<ModelWorker>(&costs, &class_of, &config, FleetRuntime::Sim, None)
///     .unwrap()
///     .sim()
///     .unwrap();
/// assert_eq!(report.per_class.len(), 2);
/// assert_eq!(report.per_endpoint.len(), 2);
/// assert_eq!(report.completed + report.dropped, 4);
/// ```
///
/// # Errors
///
/// Returns the [`FleetError`] naming the violated invariant: registry
/// problems from the [`FleetConfigBuilder::build`] set,
/// [`FleetError::EmptyTrace`] for zero requests, shape mismatches
/// between `costs`/`class_of`/the registries, and
/// [`FleetError::WorkerMismatch`] when a live worker pool's size differs
/// from the fleet's total replica count.
pub fn run_fleet<W: LiveWorker>(
    costs: &[Vec<Cycle>],
    class_of: &[usize],
    config: &FleetConfig,
    runtime: FleetRuntime<W>,
    metrics: Option<&ServeMetrics>,
) -> Result<RuntimeReport, FleetError> {
    match runtime {
        FleetRuntime::Sim => Ok(RuntimeReport::Sim(fleet_sim(
            costs, class_of, config, metrics,
        )?)),
        FleetRuntime::Live(workers) => Ok(RuntimeReport::Live(fleet_live(
            workers, costs, class_of, config, metrics,
        )?)),
    }
}

/// Fluent builder for [`FleetConfig`]; invariants (≥ 1 endpoint, every
/// endpoint ≥ 1 replica, ≥ 1 class) are checked once at
/// [`FleetConfigBuilder::build`].
#[derive(Debug, Clone)]
pub struct FleetConfigBuilder {
    config: FleetConfig,
}

impl FleetConfigBuilder {
    /// Sets the arrival process.
    pub fn arrivals(mut self, arrivals: ArrivalProcess) -> Self {
        self.config.arrivals = arrivals;
        self
    }

    /// Sets the per-replica admission-queue policy.
    pub fn queue(mut self, queue: QueuePolicy) -> Self {
        self.config.queue = queue;
        self
    }

    /// Bounds each replica's admission queue to `capacity` waiting
    /// requests (shorthand for `.queue(QueuePolicy::Bounded(capacity))`).
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.config.queue = QueuePolicy::Bounded(capacity);
        self
    }

    /// Sets the admission policy applied at a full queue.
    pub fn admission(mut self, admission: AdmissionPolicy) -> Self {
        self.config.admission = admission;
        self
    }

    /// Sets the dispatch policy routing requests across the fleet.
    pub fn policy(mut self, policy: DispatchPolicy) -> Self {
        self.config.policy = policy;
        self
    }

    /// Appends an endpoint to the fleet registry.
    pub fn endpoint(mut self, endpoint: ModelEndpoint) -> Self {
        self.config.endpoints.push(endpoint);
        self
    }

    /// Appends a request class to the class registry.
    pub fn class(mut self, class: RequestClass) -> Self {
        self.config.classes.push(class);
        self
    }

    /// Finishes the builder, validating every invariant in one place.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::NoEndpoints`] / [`FleetError::NoClasses`]
    /// for empty registries and [`FleetError::EndpointZeroReplicas`] for
    /// a replica-less endpoint.
    pub fn build(self) -> Result<FleetConfig, FleetError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// The record of a request dropped at `arrival` by `replica`'s full
/// admission queue: it never starts, so every stamp is its arrival.
fn dropped(arrival: u64, replica: usize) -> RequestRecord {
    RequestRecord {
        arrival,
        start: arrival,
        finish: arrival,
        dropped: true,
        replica,
    }
}

/// Per-run instrument handles: every series the serving loops touch is
/// registered once, before the hot loop, so the loops only do atomic
/// stores.
struct BoundServeMetrics<'a> {
    metrics: &'a ServeMetrics,
    dispatch: Vec<Arc<Counter>>,
    depth: Vec<Arc<Gauge>>,
    utilization: Vec<Arc<Gauge>>,
}

/// What both runtimes share of one fleet run: its validated inputs, the
/// replica-to-endpoint map, the dispatcher, and the bookkeeping — the
/// records and the metrics. Each arrival is routed by
/// [`FleetRun::route`], offered to its replica's waiting room by the
/// runtime, and booked by [`FleetRun::book`]; the run ends in
/// [`FleetRun::close`].
struct FleetRun<'a> {
    costs: &'a [Vec<Cycle>],
    class_of: &'a [usize],
    config: &'a FleetConfig,
    /// `endpoint_of[g]` is the registry index of global replica `g`'s
    /// endpoint.
    endpoint_of: Vec<usize>,
    dispatcher: Dispatcher,
    records: Vec<RequestRecord>,
    metrics: Option<BoundServeMetrics<'a>>,
}

impl<'a> FleetRun<'a> {
    /// Validates the run (see [`run_fleet`]'s errors), given the live
    /// worker pool's size if there is one, and then binds its metrics.
    fn new(
        costs: &'a [Vec<Cycle>],
        class_of: &'a [usize],
        config: &'a FleetConfig,
        workers: Option<usize>,
        metrics: Option<&'a ServeMetrics>,
    ) -> Result<Self, FleetError> {
        let requests = class_of.len();
        if requests == 0 {
            return Err(FleetError::EmptyTrace);
        }
        config.validate()?;
        if costs.len() != config.endpoints.len() {
            return Err(FleetError::EndpointCountMismatch {
                cost_rows: costs.len(),
                endpoints: config.endpoints.len(),
            });
        }
        if let Some((e, row)) = costs.iter().enumerate().find(|(_, r)| r.len() != requests) {
            return Err(FleetError::CostShapeMismatch {
                endpoint: e,
                rows: row.len(),
                requests,
            });
        }
        if let Some((i, &c)) = class_of
            .iter()
            .enumerate()
            .find(|&(_, &c)| c >= config.classes.len())
        {
            return Err(FleetError::ClassOutOfRange {
                request: i,
                class: c,
            });
        }
        let endpoint_of: Vec<usize> = config
            .endpoints
            .iter()
            .enumerate()
            .flat_map(|(e, ep)| std::iter::repeat_n(e, ep.replicas))
            .collect();
        let replicas = endpoint_of.len();
        if let Some(workers) = workers.filter(|&w| w != replicas) {
            return Err(FleetError::WorkerMismatch { workers, replicas });
        }
        let metrics = metrics.map(|m| BoundServeMetrics {
            metrics: m,
            dispatch: m.dispatch_counters_for(replicas),
            depth: m.queue_depth_gauges_for(replicas),
            utilization: m.utilization_gauges_for(replicas),
        });
        Ok(Self {
            costs,
            class_of,
            config,
            endpoint_of,
            dispatcher: Dispatcher::new(config.policy),
            // Every record is overwritten: served, or dropped by `book`.
            records: vec![dropped(0, 0); requests],
            metrics,
        })
    }

    fn replicas(&self) -> usize {
        self.endpoint_of.len()
    }

    /// Routes request `i`, arriving at `arrival`, given each replica's
    /// backlog and outstanding cost. Returns the target replica and the
    /// request's waiting-room entry there (its class priority, and its
    /// cost on the target's endpoint).
    fn route(
        &mut self,
        i: usize,
        arrival: u64,
        backlog: impl FnMut(usize) -> usize,
        mut pending: impl FnMut(usize) -> u64,
    ) -> (usize, Waiting) {
        let (costs, endpoint_of) = (self.costs, &self.endpoint_of);
        let cost = |g: usize| costs[endpoint_of[g]][i];
        let target = self
            .dispatcher
            .route(i, endpoint_of.len(), backlog, |g| pending(g) + cost(g));
        let entry = Waiting {
            request: i,
            arrival,
            priority: self.config.classes[self.class_of[i]].priority,
            cost: cost(target),
        };
        (target, entry)
    }

    /// Books request `i`'s offer to `target`: records a rejected arrival
    /// or a displaced waiter dropped at its own arrival, sets every
    /// queue's depth gauge to `waiting(g)`, replica `g`'s waiting
    /// requests, and counts the offer, its dispatch and its drop. The
    /// counters move last, so whoever sees the offer counted sees its
    /// gauges set.
    fn book(
        &mut self,
        i: usize,
        arrival: u64,
        target: usize,
        outcome: OfferOutcome,
        waiting: impl Fn(usize) -> usize,
    ) {
        let drop_at = match outcome {
            OfferOutcome::Admitted => None,
            OfferOutcome::Rejected => Some((i, arrival)),
            OfferOutcome::Displaced { request, arrival } => Some((request, arrival)),
        };
        if let Some((j, at)) = drop_at {
            self.records[j] = dropped(at, target);
        }
        if let Some(b) = &self.metrics {
            for (g, gauge) in b.depth.iter().enumerate() {
                gauge.set(waiting(g) as f64);
            }
            if drop_at.is_some() {
                b.metrics.dropped.inc();
            }
            if matches!(outcome, OfferOutcome::Displaced { .. }) {
                b.metrics.displaced.inc();
            }
            b.dispatch[target].inc();
            b.metrics.requests.inc();
        }
    }

    /// Closes the run: the summary, the per-class and per-endpoint
    /// views, and the end-of-run metrics (completions, sojourn and wait
    /// histograms over completed records, utilization gauges).
    fn close<D: TimeDomain>(self, per_replica: Vec<ReplicaStats>) -> ServeReport<D> {
        let mut report = summarize::<D>(self.records, per_replica);
        report.per_class =
            class_summaries::<D>(&report.records, self.class_of, &self.config.classes);
        // Each endpoint's replicas are the next block in registry order.
        let mut replicas = report.per_replica.iter();
        report.per_endpoint = self
            .config
            .endpoints
            .iter()
            .map(|ep| {
                let block = replicas.by_ref().take(ep.replicas);
                let (completed, busy_cycles) =
                    block.fold((0, 0), |(c, b), r| (c + r.completed, b + r.busy_cycles));
                EndpointStats {
                    name: ep.name.clone(),
                    replicas: ep.replicas,
                    completed,
                    busy_cycles,
                }
            })
            .collect();
        if let Some(b) = &self.metrics {
            b.metrics.completed.add(report.completed as u64);
            for r in report.records.iter().filter(|r| !r.dropped) {
                b.metrics.sojourn_ms.observe(D::to_ms(r.sojourn_cycles()));
                b.metrics.wait_ms.observe(D::to_ms(r.wait_cycles()));
            }
            if let Ok(utils) = report.replica_utilization() {
                for (gauge, util) in b.utilization.iter().zip(utils) {
                    gauge.set(util);
                }
            }
        }
        report
    }
}

/// The cycle-domain fleet scan behind [`run_fleet`]'s
/// [`FleetRuntime::Sim`], with optional live metrics (see
/// [`FleetRun::book`] and [`FleetRun::close`]). Observation only — the
/// report is bit-identical with or without `metrics`.
pub(crate) fn fleet_sim(
    costs: &[Vec<Cycle>],
    class_of: &[usize],
    config: &FleetConfig,
    metrics: Option<&ServeMetrics>,
) -> Result<ServeReport, FleetError> {
    let mut run = FleetRun::new(costs, class_of, config, None, metrics)?;
    let arrivals = config.arrivals.arrivals(class_of.len());
    let capacity = config.queue.capacity();
    let mut pool: Vec<ReplicaSim> = (0..run.replicas()).map(|_| ReplicaSim::default()).collect();

    for (i, &arrival) in arrivals.iter().enumerate() {
        // Bring every replica up to date first, so the load-aware
        // policies observe fresh backlogs at this arrival cycle.
        for (g, rep) in pool.iter_mut().enumerate() {
            rep.advance(Some(arrival), g, &mut run.records);
        }
        let (target, entry) = run.route(
            i,
            arrival,
            |g| pool[g].backlog(arrival),
            |g| pool[g].pending_work(arrival),
        );
        let rep = &mut pool[target];
        let outcome = rep
            .room
            .offer(entry, rep.free_at > arrival, capacity, config.admission);
        // A request admitted to an idle replica starts on arrival.
        rep.advance(Some(arrival), target, &mut run.records);
        run.book(i, arrival, target, outcome, |g| pool[g].room.len());
    }
    // No more arrivals: run every queue dry.
    for (g, rep) in pool.iter_mut().enumerate() {
        rep.advance(None, g, &mut run.records);
    }
    let per_replica = pool
        .iter()
        .map(|rep| ReplicaStats {
            completed: rep.completed,
            busy_cycles: rep.busy_cycles,
        })
        .collect();
    Ok(run.close(per_replica))
}

/// The wall-clock fleet runtime behind [`run_fleet`]'s
/// [`FleetRuntime::Live`]: one OS thread per replica, endpoint blocks in
/// registry order, `workers[g]` serving global replica `g`. The load
/// generator routes, offers and books each arrival as the scan does;
/// cost-based routing reads each shard's outstanding estimated cost
/// through a lock-free atomic. With `metrics`, observation only.
pub(crate) fn fleet_live<W: LiveWorker>(
    workers: Vec<W>,
    costs: &[Vec<Cycle>],
    class_of: &[usize],
    config: &FleetConfig,
    metrics: Option<&ServeMetrics>,
) -> Result<ServeReport<WallDomain>, FleetError> {
    let mut run = FleetRun::new(costs, class_of, config, Some(workers.len()), metrics)?;
    let replicas = run.replicas();
    let capacity = config.queue.capacity();
    let schedule = config.arrivals.wall_schedule(class_of.len());
    let shards: Vec<AdmissionShard> = (0..replicas).map(|_| AdmissionShard::new()).collect();

    let t0 = Instant::now();
    let (per_replica, served) = std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .into_iter()
            .enumerate()
            .map(|(g, mut worker)| {
                let shard = &shards[g];
                scope.spawn(move || {
                    let mut local: Vec<(usize, RequestRecord)> = Vec::new();
                    let mut busy: u64 = 0;
                    while let Some((i, arrival)) = shard.take() {
                        let start = super::live::elapsed_ns(t0);
                        worker.process(i);
                        let finish = super::live::elapsed_ns(t0);
                        shard.finish_service();
                        busy += finish - start;
                        local.push((
                            i,
                            RequestRecord {
                                arrival,
                                start: start.max(arrival),
                                finish,
                                dropped: false,
                                replica: g,
                            },
                        ));
                    }
                    (
                        ReplicaStats {
                            completed: local.len(),
                            busy_cycles: busy,
                        },
                        local,
                    )
                })
            })
            .collect();

        // The open-loop load generator: pace, route with the endpoint
        // cost estimates, offer with the request's class priority.
        for (i, offset) in schedule.iter().enumerate() {
            super::live::pace_until(t0, *offset);
            let arrival = super::live::elapsed_ns(t0);
            let (target, entry) = run.route(
                i,
                arrival,
                |g| shards[g].backlog(),
                |g| shards[g].pending_cost(),
            );
            let outcome = shards[target].offer(entry, capacity, config.admission);
            run.book(i, arrival, target, outcome, |g| shards[g].waiting());
        }
        for shard in &shards {
            shard.close();
        }
        let mut per_replica = Vec::with_capacity(replicas);
        let mut served = Vec::new();
        for h in handles {
            let (stats, local) = h.join().expect("replica worker panicked");
            per_replica.push(stats);
            served.extend(local);
        }
        (per_replica, served)
    });
    for (i, rec) in served {
        run.records[i] = rec;
    }
    Ok(run.close(per_replica))
}

#[cfg(test)]
mod tests {
    use super::super::live::ModelWorker;
    use super::*;

    /// The cycle-domain scan, through the public entry.
    fn sim(
        costs: &[Vec<Cycle>],
        class_of: &[usize],
        config: &FleetConfig,
    ) -> Result<ServeReport, FleetError> {
        run_fleet::<ModelWorker>(costs, class_of, config, FleetRuntime::Sim, None)
            .map(|r| r.sim().expect("sim runtime yields a sim report"))
    }

    fn two_class_config() -> FleetConfigBuilder {
        FleetConfig::builder()
            .endpoint(ModelEndpoint::new("accel", 1))
            .class(RequestClass::new("hi", 2).with_slo_ms(1.0))
            .class(RequestClass::new("lo", 0))
    }

    #[test]
    fn builder_validates_registries() {
        assert_eq!(
            FleetConfig::builder()
                .class(RequestClass::new("only", 0))
                .build()
                .unwrap_err(),
            FleetError::NoEndpoints
        );
        assert_eq!(
            FleetConfig::builder()
                .endpoint(ModelEndpoint::new("a", 1))
                .build()
                .unwrap_err(),
            FleetError::NoClasses
        );
        assert_eq!(
            FleetConfig::builder()
                .endpoint(ModelEndpoint::new("a", 1))
                .endpoint(ModelEndpoint::new("b", 0))
                .class(RequestClass::new("c", 0))
                .build()
                .unwrap_err(),
            FleetError::EndpointZeroReplicas { endpoint: 1 }
        );
        let ok = two_class_config().build().unwrap();
        assert_eq!(ok.total_replicas(), 1);
    }

    #[test]
    fn run_fleet_validates_shapes_and_hand_built_configs() {
        let config = two_class_config().build().unwrap();
        assert_eq!(
            sim(&[vec![10]], &[], &config).unwrap_err(),
            FleetError::EmptyTrace
        );
        assert_eq!(
            sim(&[vec![10], vec![20]], &[0], &config).unwrap_err(),
            FleetError::EndpointCountMismatch {
                cost_rows: 2,
                endpoints: 1
            }
        );
        assert_eq!(
            sim(&[vec![10, 20]], &[0], &config).unwrap_err(),
            FleetError::CostShapeMismatch {
                endpoint: 0,
                rows: 2,
                requests: 1
            }
        );
        assert_eq!(
            sim(&[vec![10, 20]], &[0, 7], &config).unwrap_err(),
            FleetError::ClassOutOfRange {
                request: 1,
                class: 7
            }
        );
        // A struct assembled by hand skips the builder; the run applies
        // the same registry checks.
        let mut hand_built = config;
        hand_built.endpoints[0].replicas = 0;
        assert_eq!(
            sim(&[vec![10]], &[0], &hand_built).unwrap_err(),
            FleetError::EndpointZeroReplicas { endpoint: 0 }
        );
    }

    #[test]
    fn fleet_errors_render_for_humans() {
        use std::error::Error;
        // Each variant paired with a substring only its own message
        // contains, so a reordered list cannot check the wrong text.
        let cases = [
            (FleetError::EmptyTrace, "empty request trace"),
            (FleetError::EmptySample, "empty sample"),
            (FleetError::ZeroReplicas, "at least one replica"),
            (
                FleetError::WorkerMismatch {
                    workers: 3,
                    replicas: 4,
                },
                "3 workers for 4 replicas",
            ),
            (FleetError::NoEndpoints, "no endpoints"),
            (FleetError::NoClasses, "no request classes"),
            (
                FleetError::EndpointZeroReplicas { endpoint: 3 },
                "endpoint 3 contributes zero replicas",
            ),
            (
                FleetError::EndpointCountMismatch {
                    cost_rows: 1,
                    endpoints: 2,
                },
                "1 rows for 2 endpoints",
            ),
            (
                FleetError::CostShapeMismatch {
                    endpoint: 0,
                    rows: 5,
                    requests: 6,
                },
                "endpoint 0 cost row has 5 entries for 6 requests",
            ),
            (
                FleetError::ClassOutOfRange {
                    request: 9,
                    class: 4,
                },
                "request 9 stamped with out-of-range class 4",
            ),
        ];
        for (e, needle) in &cases {
            assert!(e.source().is_none(), "one flat error type, no nesting");
            for (other, _) in &cases {
                let m = other.to_string();
                assert_eq!(m.contains(needle), other == e, "{e:?}: {needle:?} in {m:?}");
            }
        }
    }

    #[test]
    fn pool_is_the_one_endpoint_one_class_fleet() {
        let pool = FleetConfig::pool(3)
            .arrivals(ArrivalProcess::Fixed { gap: 250 })
            .queue_capacity(4)
            .policy(DispatchPolicy::JoinShortestQueue)
            .build()
            .unwrap();
        let explicit = FleetConfig::builder()
            .arrivals(ArrivalProcess::Fixed { gap: 250 })
            .queue_capacity(4)
            .policy(DispatchPolicy::JoinShortestQueue)
            .endpoint(ModelEndpoint::new("pool", 3))
            .class(RequestClass::new("default", 0))
            .build()
            .unwrap();
        assert_eq!(pool, explicit);
        assert_eq!(pool.total_replicas(), 3);
        assert_eq!(pool.admission, AdmissionPolicy::Fifo);
        // The closed-loop defaults: gap-0 arrivals, unbounded queue,
        // round-robin routing.
        let closed = FleetConfig::pool(1).build().unwrap();
        assert_eq!(closed.arrivals, ArrivalProcess::Fixed { gap: 0 });
        assert_eq!(closed.queue, QueuePolicy::Unbounded);
        assert_eq!(closed.policy, DispatchPolicy::RoundRobin);
        // Serving it adds one class and one endpoint view on top of the
        // pool scan.
        let service: Vec<Cycle> = (0..20).map(|i| 300 + (i % 5) * 40).collect();
        let report = sim(std::slice::from_ref(&service), &[0; 20], &pool).unwrap();
        assert_eq!(report.per_class.len(), 1);
        assert_eq!(report.per_class[0].requests, service.len());
        assert_eq!(report.per_endpoint.len(), 1);
        assert_eq!(report.per_endpoint[0].name, "pool");
        assert_eq!(report.per_endpoint[0].completed, report.completed);
    }

    #[test]
    fn priority_admission_displaces_low_priority_under_overload() {
        // One slow replica, capacity 1, alternating hi/lo arrivals much
        // faster than service: under FIFO whoever queues first wins; under
        // priority admission every hi arrival can reclaim the waiting slot
        // from a lo request.
        let n = 30;
        let costs = vec![vec![10_000u64; n]];
        let class_of: Vec<usize> = (0..n).map(|i| i % 2).collect(); // even = hi, odd = lo
        let build = |admission| {
            FleetConfig::builder()
                .arrivals(ArrivalProcess::Fixed { gap: 100 })
                .queue_capacity(1)
                .admission(admission)
                .endpoint(ModelEndpoint::new("one", 1))
                .class(RequestClass::new("hi", 2).with_slo_ms(10.0))
                .class(RequestClass::new("lo", 0))
                .build()
                .unwrap()
        };
        let fifo = sim(&costs, &class_of, &build(AdmissionPolicy::Fifo)).unwrap();
        let prio = sim(&costs, &class_of, &build(AdmissionPolicy::Priority)).unwrap();
        // Same offered load either way.
        assert_eq!(fifo.requests, prio.requests);
        assert_eq!(fifo.completed + fifo.dropped, n);
        assert_eq!(prio.completed + prio.dropped, n);
        let hi = |r: &ServeReport| r.per_class[0].clone();
        let lo = |r: &ServeReport| r.per_class[1].clone();
        // Priority admission strictly improves the hi class's completions
        // under this overload, at the lo class's expense.
        assert!(
            hi(&prio).dropped < hi(&fifo).dropped,
            "hi drops: priority {} vs fifo {}",
            hi(&prio).dropped,
            hi(&fifo).dropped
        );
        assert!(lo(&prio).dropped >= lo(&fifo).dropped);
        // Displaced victims are recorded dropped at their own arrival.
        for r in prio.records.iter().filter(|r| r.dropped) {
            assert_eq!(r.start, r.arrival);
            assert_eq!(r.finish, r.arrival);
        }
        // Class accounting covers the whole run.
        assert_eq!(hi(&prio).requests + lo(&prio).requests, n);
        assert_eq!(hi(&prio).completed + lo(&prio).completed, prio.completed);
    }

    #[test]
    fn cost_based_routing_splits_sizes_across_a_heterogeneous_fleet() {
        // Endpoint 0 ("accel") is 4x faster on big requests but the fleet
        // has only one accel replica; endpoint 1 ("cpu") has two replicas
        // competitive on small requests. Cost-based routing should send
        // big requests to the accelerator and spread small ones over the
        // CPUs once the accelerator is busy.
        let n = 24;
        let big = |i: usize| i.is_multiple_of(3);
        let accel: Vec<Cycle> = (0..n).map(|i| if big(i) { 2_000 } else { 500 }).collect();
        let cpu: Vec<Cycle> = (0..n).map(|i| if big(i) { 8_000 } else { 600 }).collect();
        let config = FleetConfig::builder()
            .arrivals(ArrivalProcess::Fixed { gap: 400 })
            .policy(DispatchPolicy::CostBased)
            .endpoint(ModelEndpoint::new("accel", 1))
            .endpoint(ModelEndpoint::new("cpu", 2))
            .class(RequestClass::new("tenant", 0))
            .build()
            .unwrap();
        let report = sim(&[accel, cpu], &vec![0; n], &config).unwrap();
        assert_eq!(report.dropped, 0);
        let on_accel = |pred: &dyn Fn(usize) -> bool| {
            report
                .records
                .iter()
                .enumerate()
                .filter(|&(i, r)| pred(i) && r.replica == 0)
                .count()
        };
        let big_total = (0..n).filter(|&i| big(i)).count();
        let small_total = n - big_total;
        let big_on_accel = on_accel(&|i| big(i));
        let small_on_accel = on_accel(&|i| !big(i));
        assert!(
            big_on_accel * small_total > small_on_accel * big_total,
            "big requests should prefer the accelerator: {big_on_accel}/{big_total} big vs {small_on_accel}/{small_total} small"
        );
        // Per-endpoint aggregation covers the pool.
        assert_eq!(report.per_endpoint.len(), 2);
        assert_eq!(
            report
                .per_endpoint
                .iter()
                .map(|e| e.completed)
                .sum::<usize>(),
            report.completed
        );
        assert_eq!(report.per_endpoint[1].replicas, 2);
        let makespan = report.makespan_cycles;
        for e in &report.per_endpoint {
            let u = e.utilization(makespan);
            assert!((0.0..=1.0).contains(&u), "utilization {u} out of range");
        }
    }

    #[test]
    fn class_slo_attainment_counts_drops_against_the_class() {
        // Closed-loop single server: everything queues at cycle 0, so
        // later requests blow a tight SLO while early ones meet it.
        let n = 10;
        let costs = vec![vec![300_000u64; n]]; // 1 ms each at 300 MHz
        let config = FleetConfig::builder()
            .endpoint(ModelEndpoint::new("one", 1))
            .class(RequestClass::new("tight", 0).with_slo_ms(2.5))
            .build()
            .unwrap();
        let report = sim(&costs, &vec![0; n], &config).unwrap();
        let stats = &report.per_class[0];
        assert_eq!(stats.requests, n);
        assert_eq!(stats.dropped, 0);
        // Sojourns are 1, 2, ..., 10 ms: exactly two fit under 2.5 ms.
        let att = stats.slo_attainment.expect("class has an SLO");
        assert!((att - 0.2).abs() < 1e-12, "attainment {att}");
        assert_eq!(stats.p50_ms, 5.0);
        assert_eq!(stats.max_ms, 10.0);
        // A class with no SLO reports None.
        let no_slo = FleetConfig::builder()
            .endpoint(ModelEndpoint::new("one", 1))
            .class(RequestClass::new("free", 0))
            .build()
            .unwrap();
        let report = sim(&costs, &vec![0; n], &no_slo).unwrap();
        assert_eq!(report.per_class[0].slo_attainment, None);
    }

    #[test]
    fn live_fleet_serves_classes_across_endpoint_threads() {
        use std::time::Duration;

        let n = 16;
        let class_of: Vec<usize> = (0..n).map(|i| i % 2).collect();
        let costs = vec![vec![300u64; n], vec![900u64; n]];
        let config = FleetConfig::builder()
            .policy(DispatchPolicy::CostBased)
            .endpoint(ModelEndpoint::new("fast", 1))
            .endpoint(ModelEndpoint::new("slow", 2))
            .class(RequestClass::new("hi", 1).with_slo_ms(1e6))
            .class(RequestClass::new("lo", 0))
            .build()
            .unwrap();
        let workers: Vec<ModelWorker> = (0..3)
            .map(|_| ModelWorker::new(vec![Duration::from_micros(50)]))
            .collect();
        let live = FleetRuntime::Live(workers);
        let report = run_fleet(&costs, &class_of, &config, live, None)
            .unwrap()
            .live()
            .expect("live runtime yields a wall report");
        assert_eq!(report.completed, n);
        assert_eq!(report.per_class.len(), 2);
        assert_eq!(report.per_endpoint.len(), 2);
        assert_eq!(
            report.per_class.iter().map(|c| c.requests).sum::<usize>(),
            n
        );
        assert_eq!(
            report
                .per_endpoint
                .iter()
                .map(|e| e.completed)
                .sum::<usize>(),
            n
        );
        // Every request completed well inside the generous hi SLO.
        assert_eq!(report.per_class[0].slo_attainment, Some(1.0));
        // Worker-count mismatch is a typed error.
        let one_worker = vec![ModelWorker::new(vec![Duration::from_micros(1)])];
        assert_eq!(
            run_fleet(
                &costs,
                &class_of,
                &config,
                FleetRuntime::Live(one_worker),
                None
            )
            .unwrap_err(),
            FleetError::WorkerMismatch {
                workers: 1,
                replicas: 3
            }
        );
    }

    #[test]
    fn metrics_are_observation_only_and_count_the_run() {
        use crate::metrics::{Registry, ServeMetrics};

        let n = 40;
        let costs = vec![vec![10_000u64; n]];
        let class_of: Vec<usize> = (0..n).map(|i| i % 2).collect();
        let config = FleetConfig::builder()
            .arrivals(ArrivalProcess::Fixed { gap: 100 })
            .queue_capacity(1)
            .admission(AdmissionPolicy::Priority)
            .endpoint(ModelEndpoint::new("one", 1))
            .class(RequestClass::new("hi", 2))
            .class(RequestClass::new("lo", 0))
            .build()
            .unwrap();
        let registry = Registry::new();
        let metrics = ServeMetrics::new(&registry);
        let bare = fleet_sim(&costs, &class_of, &config, None).unwrap();
        let observed = fleet_sim(&costs, &class_of, &config, Some(&metrics)).unwrap();
        // Observation only: the report is bit-identical either way.
        assert_eq!(bare, observed);
        // The counters account for the whole run.
        assert_eq!(metrics.requests.get(), n as u64);
        assert_eq!(metrics.completed.get(), observed.completed as u64);
        assert_eq!(metrics.dropped.get(), observed.dropped as u64);
        assert!(metrics.displaced.get() > 0, "priority overload displaces");
        assert_eq!(metrics.sojourn_ms.count(), observed.completed as u64);
    }

    /// A live worker that holds request 0 in service until the run's
    /// `requests` counter reads `offers`, then 10 ms more (booking counts
    /// an offer after setting its gauges, so a test does not lean on that
    /// order).
    struct HoldFirst {
        requests: Arc<Counter>,
        offers: u64,
    }

    impl LiveWorker for HoldFirst {
        fn process(&mut self, request: usize) {
            if request == 0 {
                while self.requests.get() < self.offers {
                    std::hint::spin_loop();
                }
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
        }
    }

    #[test]
    fn live_queue_depth_counts_waiting_requests_only() {
        use crate::metrics::{Registry, ServeMetrics};

        let registry = Registry::new();
        let metrics = ServeMetrics::new(&registry);
        // 20 ms apart: the worker takes request 0 long before request 1.
        let config = FleetConfig::pool(1)
            .arrivals(ArrivalProcess::Fixed { gap: 6_000_000 })
            .build()
            .unwrap();
        // Request 0 stays in service until request 1 is offered.
        let live = FleetRuntime::Live(vec![HoldFirst {
            requests: Arc::clone(&metrics.requests),
            offers: 2,
        }]);
        let report = run_fleet(&[vec![1, 1]], &[0, 0], &config, live, Some(&metrics))
            .unwrap()
            .live()
            .expect("live runtime yields a wall report");
        let [first, second] = [report.records[0], report.records[1]];
        assert!(
            first.start < second.arrival,
            "request 1 must arrive while request 0 is in service: {first:?} {second:?}"
        );
        // One request in service and one waiting: the depth is 1.
        let depth = metrics.queue_depth_gauges_for(1)[0].get();
        assert_eq!(depth, 1.0, "queue depth counts waiting requests only");
    }

    #[test]
    fn live_priority_admission_displaces_the_low_priority_waiter() {
        use crate::metrics::{Registry, ServeMetrics};

        let registry = Registry::new();
        let metrics = ServeMetrics::new(&registry);
        // lo, lo, hi, 20 ms apart, into one replica with one waiting slot.
        let config = FleetConfig::builder()
            .arrivals(ArrivalProcess::Fixed { gap: 6_000_000 })
            .queue_capacity(1)
            .admission(AdmissionPolicy::Priority)
            .endpoint(ModelEndpoint::new("one", 1))
            .class(RequestClass::new("hi", 2))
            .class(RequestClass::new("lo", 0))
            .build()
            .unwrap();
        // Request 0 stays in service until all three are offered, so
        // request 1 still waits when request 2 finds the queue full.
        let live = FleetRuntime::Live(vec![HoldFirst {
            requests: Arc::clone(&metrics.requests),
            offers: 3,
        }]);
        let report = run_fleet(&[vec![1, 1, 1]], &[1, 1, 0], &config, live, Some(&metrics))
            .unwrap()
            .live()
            .expect("live runtime yields a wall report");
        let [first, displaced, high] = [report.records[0], report.records[1], report.records[2]];
        assert!(
            first.arrival < displaced.arrival && displaced.arrival < high.arrival,
            "each record keeps its own arrival stamp: {first:?} {displaced:?} {high:?}"
        );
        assert!(
            displaced.dropped
                && displaced.start == displaced.arrival
                && displaced.finish == displaced.arrival,
            "request 1 is dropped at its own arrival: {displaced:?}"
        );
        assert!(!first.dropped && !high.dropped, "{first:?} {high:?}");
        assert_eq!(
            [
                metrics.requests.get(),
                metrics.completed.get(),
                metrics.dropped.get(),
                metrics.displaced.get(),
            ],
            [3, 2, 1, 1]
        );
        let drops: Vec<_> = report
            .per_class
            .iter()
            .map(|c| (c.name.as_str(), c.dropped))
            .collect();
        assert_eq!(drops, [("hi", 0), ("lo", 1)]);
    }

    /// Golden pin of the full Prometheus text exposition for one seeded
    /// sim run. Deliberately brittle: any change to metric names, help
    /// strings, label spellings, bucket bounds, or the renderer itself
    /// must show up here as a diff a human reviews.
    #[test]
    fn prometheus_exposition_of_a_seeded_sim_run_is_pinned() {
        use crate::metrics::{render_prometheus, Registry, ServeMetrics};

        // 8 fixed-cost requests at 2x the service rate into a 1-replica,
        // 2-deep queue: deterministic completions (6), drops (2), and a
        // fully busy replica.
        let n = 8;
        let costs = vec![vec![30_000u64; n]];
        let class_of = vec![0usize; n];
        let config = FleetConfig::builder()
            .arrivals(ArrivalProcess::Fixed { gap: 15_000 })
            .queue_capacity(2)
            .endpoint(ModelEndpoint::new("pool", 1))
            .class(RequestClass::new("default", 0))
            .build()
            .unwrap();
        let registry = Registry::new();
        let metrics = ServeMetrics::new(&registry);
        fleet_sim(&costs, &class_of, &config, Some(&metrics)).unwrap();
        let expect = concat!(
            "# HELP flowgnn_serve_requests_total Requests offered to the serving runtime.\n",
            "# TYPE flowgnn_serve_requests_total counter\n",
            "flowgnn_serve_requests_total 8\n",
            "# HELP flowgnn_serve_completed_total Requests that completed service.\n",
            "# TYPE flowgnn_serve_completed_total counter\n",
            "flowgnn_serve_completed_total 6\n",
            "# HELP flowgnn_serve_dropped_total Requests rejected by a full admission queue.\n",
            "# TYPE flowgnn_serve_dropped_total counter\n",
            "flowgnn_serve_dropped_total 2\n",
            "# HELP flowgnn_serve_displaced_total Lower-priority requests displaced by priority admission.\n",
            "# TYPE flowgnn_serve_displaced_total counter\n",
            "flowgnn_serve_displaced_total 0\n",
            "# HELP flowgnn_serve_sojourn_ms Request sojourn (wait + service) in milliseconds.\n",
            "# TYPE flowgnn_serve_sojourn_ms histogram\n",
            "flowgnn_serve_sojourn_ms_bucket{le=\"0.05\"} 0\n",
            "flowgnn_serve_sojourn_ms_bucket{le=\"0.1\"} 1\n",
            "flowgnn_serve_sojourn_ms_bucket{le=\"0.25\"} 4\n",
            "flowgnn_serve_sojourn_ms_bucket{le=\"0.5\"} 6\n",
            "flowgnn_serve_sojourn_ms_bucket{le=\"1\"} 6\n",
            "flowgnn_serve_sojourn_ms_bucket{le=\"2.5\"} 6\n",
            "flowgnn_serve_sojourn_ms_bucket{le=\"5\"} 6\n",
            "flowgnn_serve_sojourn_ms_bucket{le=\"10\"} 6\n",
            "flowgnn_serve_sojourn_ms_bucket{le=\"25\"} 6\n",
            "flowgnn_serve_sojourn_ms_bucket{le=\"50\"} 6\n",
            "flowgnn_serve_sojourn_ms_bucket{le=\"+Inf\"} 6\n",
            "flowgnn_serve_sojourn_ms_sum 1.3\n",
            "flowgnn_serve_sojourn_ms_count 6\n",
            "# HELP flowgnn_serve_wait_ms Request queueing wait in milliseconds.\n",
            "# TYPE flowgnn_serve_wait_ms histogram\n",
            "flowgnn_serve_wait_ms_bucket{le=\"0.05\"} 2\n",
            "flowgnn_serve_wait_ms_bucket{le=\"0.1\"} 3\n",
            "flowgnn_serve_wait_ms_bucket{le=\"0.25\"} 6\n",
            "flowgnn_serve_wait_ms_bucket{le=\"0.5\"} 6\n",
            "flowgnn_serve_wait_ms_bucket{le=\"1\"} 6\n",
            "flowgnn_serve_wait_ms_bucket{le=\"2.5\"} 6\n",
            "flowgnn_serve_wait_ms_bucket{le=\"5\"} 6\n",
            "flowgnn_serve_wait_ms_bucket{le=\"10\"} 6\n",
            "flowgnn_serve_wait_ms_bucket{le=\"25\"} 6\n",
            "flowgnn_serve_wait_ms_bucket{le=\"50\"} 6\n",
            "flowgnn_serve_wait_ms_bucket{le=\"+Inf\"} 6\n",
            "flowgnn_serve_wait_ms_sum 0.7\n",
            "flowgnn_serve_wait_ms_count 6\n",
            "# HELP flowgnn_dispatch_requests_total Requests routed to each replica by the dispatcher.\n",
            "# TYPE flowgnn_dispatch_requests_total counter\n",
            "flowgnn_dispatch_requests_total{replica=\"0\"} 8\n",
            "# HELP flowgnn_queue_depth Waiting requests per admission queue.\n",
            "# TYPE flowgnn_queue_depth gauge\n",
            "flowgnn_queue_depth{queue=\"0\"} 2\n",
            "# HELP flowgnn_replica_utilization Busy fraction per replica over the run so far.\n",
            "# TYPE flowgnn_replica_utilization gauge\n",
            "flowgnn_replica_utilization{replica=\"0\"} 1\n",
        );
        assert_eq!(render_prometheus(&registry), expect);
    }
}
