//! Lock-cheap observability: counters, gauges, fixed-bucket histograms,
//! a registry, and Prometheus text-format exposition — no third-party
//! dependencies.
//!
//! Every cell is a plain atomic, so the hot path (a counter increment, a
//! gauge store, a histogram observation) is a handful of relaxed atomic
//! operations with **zero allocation**. The [`Registry`] mutex is taken
//! only at registration and render time — never per request
//! or per cycle. Instruments are handed out as `Arc`s, so the engine,
//! the admission queues, the [`Dispatcher`](crate::serve::Dispatcher),
//! and both serving runtimes hold direct references to their cells and
//! bypass the registry entirely while running.
//!
//! Metrics are strictly *observational*: enabling them changes no
//! simulated cycle, no arrival schedule, and no report byte (pinned by
//! the bench sweeps' byte-identity tests).
//!
//! Reads use relaxed ordering, so an exposition rendered *while worker
//! threads are mid-flight* may be slightly stale per cell; after the
//! run's threads are joined, every read is exact.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing event count.
#[derive(Default)]
pub struct Counter {
    cell: AtomicU64,
}

impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Counter({})", self.get())
    }
}

/// A last-write-wins instantaneous value (queue depth, utilization).
///
/// Stores the `f64` bit pattern in one atomic, so concurrent writers
/// never tear: the cell always holds exactly one writer's value.
#[derive(Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// A fresh gauge at `0.0`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores `v`, replacing the previous value.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// The most recently stored value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Gauge({})", self.get())
    }
}

/// A fixed-bucket histogram: immutable upper bounds chosen at
/// registration, one atomic bucket per bound plus an implicit `+Inf`
/// bucket, and an atomic sum/count pair.
///
/// [`observe`](Histogram::observe) does a linear scan over the (small,
/// cache-resident) bound slice plus three atomic updates — no
/// allocation, no lock.
pub struct Histogram {
    bounds: Box<[f64]>,
    buckets: Box<[AtomicU64]>,
    sum_bits: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// A fresh histogram over ascending upper `bounds`.
    ///
    /// # Panics
    /// If `bounds` is empty or not strictly ascending.
    pub fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Self {
            bounds: bounds.into(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum_bits: AtomicU64::new(0.0f64.to_bits()),
            count: AtomicU64::new(0),
        }
    }

    /// Records one observation: the first bucket whose upper bound is
    /// `>= v` (or the `+Inf` overflow bucket) is incremented.
    pub fn observe(&self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// The configured upper bounds (excluding the implicit `+Inf`).
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts, non-cumulative; the last entry is the `+Inf`
    /// overflow bucket.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Histogram(count={}, sum={})", self.count(), self.sum())
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

enum Cell {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

struct Series {
    labels: Vec<(String, String)>,
    cell: Cell,
}

struct Family {
    name: String,
    help: String,
    kind: Kind,
    series: Vec<Series>,
}

#[derive(Default)]
struct Inner {
    families: Vec<Family>,
}

/// A cheap-clone handle to a set of metric families, rendered in
/// registration order by [`render_prometheus`].
///
/// Registration is idempotent: asking for the same `(name, labels)`
/// again returns the *same* cell, so independent components may bind
/// their instruments without coordination.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<Inner>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        write!(f, "Registry({} families)", inner.families.len())
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    // One parameter per variant-specific concern; the three public
    // wrappers pin them all, so the width never reaches callers.
    #[allow(clippy::too_many_arguments)]
    fn bind<C>(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        kind: Kind,
        make: impl FnOnce() -> C,
        wrap: impl FnOnce(Arc<C>) -> Cell,
        unwrap: impl Fn(&Cell) -> Option<Arc<C>>,
    ) -> Arc<C> {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        let family = match inner.families.iter().position(|f| f.name == name) {
            Some(i) => {
                assert!(
                    inner.families[i].kind == kind,
                    "metric {name} already registered as a {}",
                    inner.families[i].kind.as_str()
                );
                &mut inner.families[i]
            }
            None => {
                inner.families.push(Family {
                    name: name.to_string(),
                    help: help.to_string(),
                    kind,
                    series: Vec::new(),
                });
                inner.families.last_mut().expect("just pushed")
            }
        };
        let labels: Vec<(String, String)> = labels
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        if let Some(s) = family.series.iter().find(|s| s.labels == labels) {
            return unwrap(&s.cell).expect("kind checked above");
        }
        let cell = Arc::new(make());
        family.series.push(Series {
            labels,
            cell: wrap(Arc::clone(&cell)),
        });
        cell
    }

    /// Registers (or re-binds) a counter series.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.bind(
            name,
            help,
            labels,
            Kind::Counter,
            Counter::new,
            Cell::Counter,
            |c| match c {
                Cell::Counter(c) => Some(Arc::clone(c)),
                _ => None,
            },
        )
    }

    /// Registers (or re-binds) a gauge series.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        self.bind(
            name,
            help,
            labels,
            Kind::Gauge,
            Gauge::new,
            Cell::Gauge,
            |c| match c {
                Cell::Gauge(g) => Some(Arc::clone(g)),
                _ => None,
            },
        )
    }

    /// Registers (or re-binds) a histogram series over `bounds`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind, or if
    /// `bounds` is empty or unordered on first registration.
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Arc<Histogram> {
        self.bind(
            name,
            help,
            labels,
            Kind::Histogram,
            || Histogram::new(bounds),
            Cell::Histogram,
            |c| match c {
                Cell::Histogram(h) => Some(Arc::clone(h)),
                _ => None,
            },
        )
    }
}

/// Formats a sample value the way Prometheus text format expects:
/// integral values without a trailing `.0`, everything else via Rust's
/// shortest-round-trip `f64` display.
fn fmt_value(v: f64) -> String {
    if v.is_finite() && v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn fmt_labels(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some((k, v)) = extra {
        pairs.push(format!("{k}=\"{}\"", escape_label(v)));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Renders every registered family in Prometheus text exposition format
/// (`# HELP` / `# TYPE` headers, one line per series; histograms emit
/// cumulative `_bucket{le=...}` lines, an explicit `+Inf` bucket, and
/// `_sum` / `_count`), in registration order — so the output for a
/// deterministic run is byte-stable and pinned by a golden test.
pub fn render_prometheus(registry: &Registry) -> String {
    let inner = registry.inner.lock().expect("metrics registry poisoned");
    let mut out = String::new();
    for family in &inner.families {
        out.push_str(&format!("# HELP {} {}\n", family.name, family.help));
        out.push_str(&format!(
            "# TYPE {} {}\n",
            family.name,
            family.kind.as_str()
        ));
        for series in &family.series {
            match &series.cell {
                Cell::Counter(c) => {
                    out.push_str(&format!(
                        "{}{} {}\n",
                        family.name,
                        fmt_labels(&series.labels, None),
                        c.get()
                    ));
                }
                Cell::Gauge(g) => {
                    out.push_str(&format!(
                        "{}{} {}\n",
                        family.name,
                        fmt_labels(&series.labels, None),
                        fmt_value(g.get())
                    ));
                }
                Cell::Histogram(h) => {
                    let counts = h.bucket_counts();
                    let mut cumulative = 0u64;
                    for (i, n) in counts.iter().enumerate() {
                        cumulative += n;
                        let le = if i < h.bounds().len() {
                            fmt_value(h.bounds()[i])
                        } else {
                            "+Inf".to_string()
                        };
                        out.push_str(&format!(
                            "{}_bucket{} {}\n",
                            family.name,
                            fmt_labels(&series.labels, Some(("le", &le))),
                            cumulative
                        ));
                    }
                    out.push_str(&format!(
                        "{}_sum{} {}\n",
                        family.name,
                        fmt_labels(&series.labels, None),
                        fmt_value(h.sum())
                    ));
                    out.push_str(&format!(
                        "{}_count{} {}\n",
                        family.name,
                        fmt_labels(&series.labels, None),
                        h.count()
                    ));
                }
            }
        }
    }
    out
}

/// Default latency-histogram upper bounds in milliseconds, spanning the
/// sub-millisecond simulated sojourns and the multi-millisecond live
/// ones.
pub const LATENCY_BUCKETS_MS: [f64; 10] = [0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0];

/// The serving runtimes' instrument bundle: request/outcome counters and
/// sojourn/wait histograms bound eagerly, per-replica series bound once
/// the replica count is known (via the `*_for` methods, called before
/// the hot loop so the loop itself touches only atomics).
#[derive(Clone, Debug)]
pub struct ServeMetrics {
    registry: Registry,
    /// Requests offered to the runtime.
    pub requests: Arc<Counter>,
    /// Requests that completed service.
    pub completed: Arc<Counter>,
    /// Requests rejected by a full admission queue.
    pub dropped: Arc<Counter>,
    /// Lower-priority requests displaced by priority admission.
    pub displaced: Arc<Counter>,
    /// Request sojourn (wait + service) in milliseconds.
    pub sojourn_ms: Arc<Histogram>,
    /// Queueing wait (sojourn minus service) in milliseconds.
    pub wait_ms: Arc<Histogram>,
}

impl ServeMetrics {
    /// Binds the serving instruments into `registry`.
    pub fn new(registry: &Registry) -> Self {
        Self {
            registry: registry.clone(),
            requests: registry.counter(
                "flowgnn_serve_requests_total",
                "Requests offered to the serving runtime.",
                &[],
            ),
            completed: registry.counter(
                "flowgnn_serve_completed_total",
                "Requests that completed service.",
                &[],
            ),
            dropped: registry.counter(
                "flowgnn_serve_dropped_total",
                "Requests rejected by a full admission queue.",
                &[],
            ),
            displaced: registry.counter(
                "flowgnn_serve_displaced_total",
                "Lower-priority requests displaced by priority admission.",
                &[],
            ),
            sojourn_ms: registry.histogram(
                "flowgnn_serve_sojourn_ms",
                "Request sojourn (wait + service) in milliseconds.",
                &[],
                &LATENCY_BUCKETS_MS,
            ),
            wait_ms: registry.histogram(
                "flowgnn_serve_wait_ms",
                "Request queueing wait in milliseconds.",
                &[],
                &LATENCY_BUCKETS_MS,
            ),
        }
    }

    /// The registry these instruments live in.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// One dispatch counter per replica (`replica="0"` ..), counting
    /// requests routed to each replica by the
    /// [`Dispatcher`](crate::serve::Dispatcher).
    pub fn dispatch_counters_for(&self, replicas: usize) -> Vec<Arc<Counter>> {
        (0..replicas)
            .map(|r| {
                self.registry.counter(
                    "flowgnn_dispatch_requests_total",
                    "Requests routed to each replica by the dispatcher.",
                    &[("replica", &r.to_string())],
                )
            })
            .collect()
    }

    /// One queue-depth gauge per admission queue, set after every
    /// arrival in both runtimes to the queue's waiting requests (not
    /// counting one in service).
    pub fn queue_depth_gauges_for(&self, queues: usize) -> Vec<Arc<Gauge>> {
        (0..queues)
            .map(|q| {
                self.registry.gauge(
                    "flowgnn_queue_depth",
                    "Waiting requests per admission queue.",
                    &[("queue", &q.to_string())],
                )
            })
            .collect()
    }

    /// One utilization gauge per replica (busy time over elapsed time so
    /// far, domain-native units).
    pub fn utilization_gauges_for(&self, replicas: usize) -> Vec<Arc<Gauge>> {
        (0..replicas)
            .map(|r| {
                self.registry.gauge(
                    "flowgnn_replica_utilization",
                    "Busy fraction per replica over the run so far.",
                    &[("replica", &r.to_string())],
                )
            })
            .collect()
    }
}

/// The engine's instrument bundle: graphs simulated, cycles spent, and
/// service-trace-cache hit/miss counters, bound into one registry so an
/// end-to-end run exposes engine and serving metrics side by side.
#[derive(Clone, Debug)]
pub struct EngineMetrics {
    registry: Registry,
    /// Graphs run through the cycle-level engine.
    pub graphs: Arc<Counter>,
    /// Total simulated cycles across all runs.
    pub cycles: Arc<Counter>,
    /// Region cycles the cycle-stepped dataflow regions ran one at a time
    /// through the per-cycle unit code. Region twins a run copies and the
    /// analytic schedules count in neither this nor `skipped_cycles`.
    pub stepped_cycles: Arc<Counter>,
    /// Region cycles the cycle-stepped dataflow regions advanced in bulk
    /// (fast-forward jumps, pure or coupled).
    pub skipped_cycles: Arc<Counter>,
    /// Service-trace-cache hits (graph served from cached cycles).
    pub cache_hits: Arc<Counter>,
    /// Service-trace-cache misses (graph simulated by the engine).
    pub cache_misses: Arc<Counter>,
}

impl EngineMetrics {
    /// Binds the engine instruments into `registry`.
    pub fn new(registry: &Registry) -> Self {
        Self {
            registry: registry.clone(),
            graphs: registry.counter(
                "flowgnn_engine_graphs_total",
                "Graphs run through the cycle-level engine.",
                &[],
            ),
            cycles: registry.counter(
                "flowgnn_engine_cycles_total",
                "Simulated cycles across all engine runs.",
                &[],
            ),
            stepped_cycles: registry.counter(
                "flowgnn_engine_stepped_cycles_total",
                "Dataflow-region cycles run through the per-cycle unit code.",
                &[],
            ),
            skipped_cycles: registry.counter(
                "flowgnn_engine_skipped_cycles_total",
                "Dataflow-region cycles advanced in bulk by fast-forward jumps.",
                &[],
            ),
            cache_hits: registry.counter(
                "flowgnn_trace_cache_hits_total",
                "Service-trace-cache hits.",
                &[],
            ),
            cache_misses: registry.counter(
                "flowgnn_trace_cache_misses_total",
                "Service-trace-cache misses (engine simulations).",
                &[],
            ),
        }
    }

    /// The registry these instruments live in.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrent_counter_increments_sum_exactly() {
        let registry = Registry::new();
        let counter = registry.counter("test_total", "Test.", &[]);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let counter = Arc::clone(&counter);
                scope.spawn(move || {
                    for _ in 0..10_000 {
                        counter.inc();
                    }
                });
            }
        });
        assert_eq!(counter.get(), 80_000);
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive_upper_bounds() {
        let h = Histogram::new(&[1.0, 2.0, 5.0]);
        // Exactly on a bound lands in that bound's bucket (le semantics).
        for v in [0.5, 1.0, 1.5, 2.0, 4.9, 5.0, 5.1, 100.0] {
            h.observe(v);
        }
        assert_eq!(h.bucket_counts(), vec![2, 2, 2, 2]);
        assert_eq!(h.count(), 8);
        assert!((h.sum() - (0.5 + 1.0 + 1.5 + 2.0 + 4.9 + 5.0 + 5.1 + 100.0)).abs() < 1e-9);
    }

    #[test]
    fn concurrent_histogram_observations_sum_exactly() {
        // The CAS loop on the f64 sum must lose no observation; 0.25 is
        // dyadic so the float sum is exact regardless of ordering.
        let h = Arc::new(Histogram::new(&[1.0]));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let h = Arc::clone(&h);
                scope.spawn(move || {
                    for _ in 0..10_000 {
                        h.observe(0.25);
                    }
                });
            }
        });
        assert_eq!(h.count(), 40_000);
        assert_eq!(h.sum(), 10_000.0);
        assert_eq!(h.bucket_counts(), vec![40_000, 0]);
    }

    #[test]
    fn gauge_is_last_write_wins() {
        let g = Gauge::new();
        g.set(3.5);
        g.set(-1.25);
        assert_eq!(g.get(), -1.25);
        g.set(0.0);
        assert_eq!(g.get(), 0.0);
    }

    #[test]
    fn registration_is_idempotent_per_name_and_labels() {
        let registry = Registry::new();
        let a = registry.counter("dup_total", "Dup.", &[("k", "v")]);
        a.add(3);
        let b = registry.counter("dup_total", "Dup.", &[("k", "v")]);
        assert_eq!(b.get(), 3, "same labels re-bind the same cell");
        let c = registry.counter("dup_total", "Dup.", &[("k", "w")]);
        assert_eq!(c.get(), 0, "different labels are a fresh series");
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_conflicts_panic() {
        let registry = Registry::new();
        registry.counter("conflict", "A counter.", &[]);
        registry.gauge("conflict", "Now a gauge.", &[]);
    }

    #[test]
    fn golden_prometheus_exposition() {
        // Pins the text format exactly: HELP/TYPE headers, label
        // rendering, cumulative histogram buckets with +Inf, _sum/_count.
        let registry = Registry::new();
        let c = registry.counter("flowgnn_requests_total", "Requests offered.", &[]);
        c.add(7);
        let g = registry.gauge(
            "flowgnn_queue_depth",
            "Waiting requests.",
            &[("queue", "0")],
        );
        g.set(3.0);
        let h = registry.histogram(
            "flowgnn_sojourn_ms",
            "Sojourn in milliseconds.",
            &[],
            &[0.5, 1.0],
        );
        h.observe(0.25);
        h.observe(0.75);
        h.observe(2.5);
        let expected = "\
# HELP flowgnn_requests_total Requests offered.
# TYPE flowgnn_requests_total counter
flowgnn_requests_total 7
# HELP flowgnn_queue_depth Waiting requests.
# TYPE flowgnn_queue_depth gauge
flowgnn_queue_depth{queue=\"0\"} 3
# HELP flowgnn_sojourn_ms Sojourn in milliseconds.
# TYPE flowgnn_sojourn_ms histogram
flowgnn_sojourn_ms_bucket{le=\"0.5\"} 1
flowgnn_sojourn_ms_bucket{le=\"1\"} 2
flowgnn_sojourn_ms_bucket{le=\"+Inf\"} 3
flowgnn_sojourn_ms_sum 3.5
flowgnn_sojourn_ms_count 3
";
        assert_eq!(render_prometheus(&registry), expected);
    }
}
