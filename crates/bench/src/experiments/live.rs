//! Dual-domain serving: the same `(replicas, policy, load)` grid
//! measured twice — once in the simulated cycle domain (`run_fleet`
//! replaying a cycle-exact service trace) and once live, with real OS
//! replica threads running the engine behind the same dispatch policies
//! (`run_fleet` over a pool of the workers `InferenceBackend::live_worker`
//! builds, which is what `InferenceBackend::serve_on` runs under
//! `Runtime::Live`).
//!
//! The point of the experiment is *structural* parity: both domains share
//! one arrival-schedule generator, one dispatch abstraction, and one
//! queueing discipline, so their tail-latency shapes should agree even
//! though their time bases differ by orders of magnitude (a simulated
//! request is ~10⁵ cycles at 300 MHz; a live request is however long the
//! simulator takes to execute on the host). Offered load is therefore
//! calibrated per domain: each grid point's arrival rate is `load × R ×
//! service_rate` against *that domain's* mean service time, so "load
//! 0.9" stresses both runtimes equally. The same arrival seed per
//! `(replicas, load)` coordinate pins the normalised schedule shape
//! across domains and policies.
//!
//! Wall-clock numbers are **not deterministic** — they depend on host
//! speed, core count, and scheduler noise — so this experiment emits a
//! `BENCH_live_serving.json` perf artifact (never byte-compared) and a
//! table, plus a [`LiveStudy::validate`] gate that checks structure
//! only: grid coverage, ordered finite percentiles, conservation of
//! requests, zero drops at low load, and saturated live throughput that
//! does not collapse as replica threads are added. On a host with at
//! least as many cores as replicas the saturation curve shows real
//! scaling; on a single core it is flat by physics, which the gate
//! tolerates.

use flowgnn_core::prelude::*;
use flowgnn_desim::cycles_to_ms;
use flowgnn_graph::datasets::{DatasetKind, DatasetSpec};
use flowgnn_graph::GraphStream;
use flowgnn_models::GnnModel;

use super::serve::QUEUE_CAPACITY;
use crate::json::json_escape;
use crate::{timing, SampleSize, TextTable};

/// Dispatch policies swept, in both domains.
pub const LIVE_POLICIES: [&str; 3] = ["rr", "jsq", "p2c"];

/// Offered loads swept, relative to each domain's own service rate.
pub const LIVE_LOADS: [f64; 2] = [0.5, 0.9];

/// Replica-thread counts swept. Quick mode caps at two threads so the CI
/// smoke exercises real cross-thread scheduling without hogging runners.
pub fn live_replica_counts(sample: SampleSize) -> &'static [usize] {
    match sample {
        SampleSize::Quick => &[1, 2],
        _ => &[1, 2, 4],
    }
}

/// One `(replicas, policy, load)` measurement in one time domain.
#[derive(Debug, Clone, PartialEq)]
pub struct LivePoint {
    /// Replica count (simulated replicas or live OS threads).
    pub replicas: usize,
    /// Dispatch policy (`rr`, `jsq`, or `p2c`).
    pub policy: &'static str,
    /// Offered load relative to this domain's aggregate service rate.
    pub offered_load: f64,
    /// Which runtime produced the row: `sim` (cycle-level discrete-event
    /// scan) or `live` (wall-clock threads).
    pub domain: &'static str,
    /// Absolute arrival rate in requests per second of this domain's
    /// time base.
    pub rate_per_s: f64,
    /// Median sojourn in milliseconds (simulated or wall).
    pub p50_ms: f64,
    /// 95th-percentile sojourn in milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile sojourn in milliseconds.
    pub p99_ms: f64,
    /// Worst-case sojourn in milliseconds.
    pub max_ms: f64,
    /// Mean queueing wait in milliseconds.
    pub mean_wait_ms: f64,
    /// Requests completed.
    pub completed: usize,
    /// Requests dropped by the bounded admission queues.
    pub dropped: usize,
    /// Fraction of requests dropped.
    pub drop_rate: f64,
    /// Completed requests per second of this domain's time base.
    pub throughput_per_s: f64,
}

/// Saturated (closed-loop) live throughput at one replica-thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveSaturation {
    /// Replica-thread count.
    pub replicas: usize,
    /// Completed requests per wall-clock second with every request
    /// pending at t0 (no arrival pacing, unbounded queue).
    pub throughput_per_s: f64,
}

/// The full dual-domain sweep plus the live saturation curve.
#[derive(Debug, Clone)]
pub struct LiveStudy {
    /// Grid measurements: each `(replicas, policy, load)` coordinate
    /// contributes a `sim` row immediately followed by its `live` row.
    pub points: Vec<LivePoint>,
    /// Closed-loop live throughput per replica-thread count.
    pub saturation: Vec<LiveSaturation>,
    /// Requests offered per grid point.
    pub requests: usize,
    /// Mean simulated service time (cycles at 300 MHz), in milliseconds.
    pub sim_service_ms: f64,
    /// Wall-clock time to simulate one request on this host, in
    /// milliseconds: the median engine pass over the requests, divided by
    /// their count (the live domain's load calibration anchor).
    pub wall_service_ms: f64,
    /// Replica counts actually swept.
    pub replica_counts: Vec<usize>,
}

impl LiveStudy {
    /// Renders the dual-domain grid.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(
            &format!(
                "Extension: dual-domain serving (GCN on MolHIV, sim cycles vs live threads, \
                 {QUEUE_CAPACITY}-deep queues)"
            ),
            &[
                "Replicas",
                "Policy",
                "Load",
                "Domain",
                "Rate (req/s)",
                "p50 (ms)",
                "p95 (ms)",
                "p99 (ms)",
                "Wait (ms)",
                "Dropped",
                "Thru (req/s)",
            ],
        );
        for p in &self.points {
            t.row_owned(vec![
                p.replicas.to_string(),
                p.policy.to_string(),
                format!("{:.2}", p.offered_load),
                p.domain.to_string(),
                format!("{:.0}", p.rate_per_s),
                format!("{:.4}", p.p50_ms),
                format!("{:.4}", p.p95_ms),
                format!("{:.4}", p.p99_ms),
                format!("{:.4}", p.mean_wait_ms),
                format!("{:.1}%", p.drop_rate * 100.0),
                format!("{:.0}", p.throughput_per_s),
            ]);
        }
        t
    }

    /// Renders the calibration anchors and the live saturation curve
    /// appended under the table, with the nondeterminism caveat.
    pub fn summary_note(&self) -> String {
        let curve: Vec<String> = self
            .saturation
            .iter()
            .map(|s| format!("x{} {:.0} req/s", s.replicas, s.throughput_per_s))
            .collect();
        format!(
            "(service time: {:.4} ms simulated, {:.4} ms wall on this host; \
             closed-loop live throughput {}; wall-clock rows vary run to run — \
             compare shapes, not bytes)",
            self.sim_service_ms,
            self.wall_service_ms,
            curve.join(", ")
        )
    }

    /// Serializes the sweep as pretty-printed JSON (std-only writer), the
    /// `BENCH_live_serving.json` artifact. Wall-clock rows are
    /// host-dependent; this file is a perf trajectory, never a
    /// byte-compared pin.
    pub fn to_json(&self) -> String {
        let mut out = String::from(
            "{\n  \"benchmark\": \"live_serving\",\n  \"workload\": \"molhiv_gcn\",\n",
        );
        out.push_str(&format!(
            "  \"queue_capacity\": {QUEUE_CAPACITY},\n  \"requests\": {},\n  \
             \"sim_service_ms\": {:.6},\n  \"wall_service_ms\": {:.6},\n  \"rows\": [\n",
            self.requests, self.sim_service_ms, self.wall_service_ms
        ));
        for (i, p) in self.points.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"replicas\": {}, \"policy\": \"{}\", \"offered_load\": {}, \
                 \"domain\": \"{}\", \"rate_per_s\": {:.1}, \"p50_ms\": {:.6}, \
                 \"p95_ms\": {:.6}, \"p99_ms\": {:.6}, \"max_ms\": {:.6}, \
                 \"mean_wait_ms\": {:.6}, \"completed\": {}, \"dropped\": {}, \
                 \"drop_rate\": {:.4}, \"throughput_per_s\": {:.1}}}{}\n",
                p.replicas,
                json_escape(p.policy),
                p.offered_load,
                json_escape(p.domain),
                p.rate_per_s,
                p.p50_ms,
                p.p95_ms,
                p.p99_ms,
                p.max_ms,
                p.mean_wait_ms,
                p.completed,
                p.dropped,
                p.drop_rate,
                p.throughput_per_s,
                if i + 1 == self.points.len() { "" } else { "," },
            ));
        }
        out.push_str("  ],\n  \"saturation_throughput_per_s\": {\n");
        for (i, s) in self.saturation.iter().enumerate() {
            out.push_str(&format!(
                "    \"x{}\": {:.1}{}\n",
                s.replicas,
                s.throughput_per_s,
                if i + 1 == self.saturation.len() {
                    ""
                } else {
                    ","
                },
            ));
        }
        out.push_str("  }\n}\n");
        out
    }

    /// Structural sanity gate for CI: every check here must hold on any
    /// host, however slow or contended — the gate inspects shape, never
    /// absolute timing.
    ///
    /// - full grid coverage, one `sim` and one `live` row per coordinate;
    /// - percentiles finite, non-negative, and ordered (p50 ≤ p95 ≤ p99
    ///   ≤ max) in both domains;
    /// - every request accounted for: completed + dropped = offered;
    /// - zero drops at the lowest swept load (exact when the request
    ///   count fits in one admission queue, ≤ 5% otherwise to tolerate
    ///   scheduler stalls on oversubscribed hosts);
    /// - saturated live throughput does not collapse as replica threads
    ///   are added (threads must add concurrency, or at worst tolerable
    ///   contention — real speedup additionally needs enough cores).
    pub fn validate(&self) -> Result<(), String> {
        let grid = self.replica_counts.len() * LIVE_POLICIES.len() * LIVE_LOADS.len();
        if self.points.len() != grid * 2 {
            return Err(format!(
                "expected {} rows (grid of {grid} x 2 domains), found {}",
                grid * 2,
                self.points.len()
            ));
        }
        let low_load = LIVE_LOADS.iter().cloned().fold(f64::INFINITY, f64::min);
        for p in &self.points {
            let what = format!(
                "{}/x{}/{}/{}",
                p.domain, p.replicas, p.policy, p.offered_load
            );
            for (name, v) in [
                ("p50", p.p50_ms),
                ("p95", p.p95_ms),
                ("p99", p.p99_ms),
                ("max", p.max_ms),
            ] {
                if !v.is_finite() || v < 0.0 {
                    return Err(format!("{what}: {name} = {v} not finite and non-negative"));
                }
            }
            if !(p.p50_ms <= p.p95_ms && p.p95_ms <= p.p99_ms && p.p99_ms <= p.max_ms) {
                return Err(format!(
                    "{what}: percentiles out of order ({}, {}, {}, {})",
                    p.p50_ms, p.p95_ms, p.p99_ms, p.max_ms
                ));
            }
            if p.completed + p.dropped != self.requests {
                return Err(format!(
                    "{what}: {} completed + {} dropped != {} offered",
                    p.completed, p.dropped, self.requests
                ));
            }
            if p.offered_load == low_load {
                let exact = self.requests <= QUEUE_CAPACITY;
                if (p.domain == "sim" || exact) && p.dropped != 0 {
                    return Err(format!("{what}: {} drops at the lowest load", p.dropped));
                }
                if p.drop_rate > 0.05 {
                    return Err(format!(
                        "{what}: drop rate {:.3} at the lowest load",
                        p.drop_rate
                    ));
                }
            }
        }
        if self.saturation.len() != self.replica_counts.len() {
            return Err(format!(
                "expected {} saturation points, found {}",
                self.replica_counts.len(),
                self.saturation.len()
            ));
        }
        let mut best = 0.0f64;
        for s in &self.saturation {
            if !s.throughput_per_s.is_finite() || s.throughput_per_s <= 0.0 {
                return Err(format!(
                    "x{}: saturated throughput {} not positive",
                    s.replicas, s.throughput_per_s
                ));
            }
            if s.throughput_per_s < best * 0.75 {
                return Err(format!(
                    "x{}: saturated throughput {:.0} collapsed below 75% of the \
                     best smaller pool ({best:.0})",
                    s.replicas, s.throughput_per_s
                ));
            }
            best = best.max(s.throughput_per_s);
        }
        Ok(())
    }
}

/// Runs the dual-domain sweep: one engine pass calibrates both domains,
/// then every `(replicas, policy, load)` coordinate is measured in the
/// simulated cycle domain and again live on real replica threads.
///
/// Live points run strictly sequentially — the measurement *is* the
/// host's wall clock, so concurrent points would contend and pollute
/// each other's tails.
pub fn live_serving(sample: SampleSize) -> LiveStudy {
    live_serving_with(sample, None)
}

/// [`live_serving`] observed by an optional [`Registry`] (the `repro live
/// --metrics` path): every live run in the sweep counts into a
/// [`ServeMetrics`] bound there, and the replicas' accelerator carries an
/// [`EngineMetrics`] bound there too, so the registry exports the serving
/// and engine families side by side. The calibration pass runs on an
/// unobserved accelerator, so the engine counts exactly the runs the
/// served requests cause. Metrics are observation-only: the study is
/// unchanged by them.
pub fn live_serving_with(sample: SampleSize, registry: Option<&Registry>) -> LiveStudy {
    let spec = DatasetSpec::standard(DatasetKind::MolHiv);
    let requests = sample.resolve(spec.paper_stats().graphs);
    let acc = Accelerator::new(
        GnnModel::gcn(spec.node_feat_dim(), 11),
        ArchConfig::default().with_execution(ExecutionMode::TimingOnly),
    );
    let serve_metrics = registry.map(ServeMetrics::new);
    let metrics = serve_metrics.as_ref();

    // One engine pass anchors both domains: the cycle trace is the sim
    // domain's service process, and the median wall time the host spends
    // producing it calibrates the live domain's offered load (floored at
    // 5 us so timer granularity can never produce absurd arrival rates).
    let mut service = Vec::new();
    let pass = timing::measure(|| service = acc.service_trace(spec.stream(), requests));
    let wall_service_ms = (pass.median * 1e3 / requests as f64).max(0.005);
    let sim_service_ms = cycles_to_ms(service.iter().sum::<u64>()) / service.len() as f64;
    let class_of = vec![0; service.len()];
    let costs = [service];

    // Only the replicas' accelerator carries the engine metrics, so the
    // calibration pass above goes uncounted. Each live run hands the cost
    // row to `run_fleet` with a fresh pool of the accelerator's live
    // workers, as `serve_on` would after simulating the row again.
    let replica = match registry {
        Some(registry) => acc.with_metrics(EngineMetrics::new(registry)),
        None => acc,
    };
    let graphs = GraphStream::from_graphs(spec.stream().take_prefix(requests).collect());
    let serve_live = |config: &FleetConfig| {
        let workers = (0..config.total_replicas())
            .map(|_| replica.live_worker(&graphs))
            .collect();
        let live = FleetRuntime::Live(workers);
        run_fleet(&costs, &class_of, config, live, metrics)
            .expect("valid live config")
            .live()
            .expect("live runtime yields a wall-domain report")
    };

    let replica_counts: Vec<usize> = live_replica_counts(sample).to_vec();
    let mut points = Vec::new();
    for (r, &replicas) in replica_counts.iter().enumerate() {
        for (d, &policy_name) in LIVE_POLICIES.iter().enumerate() {
            for (l, &load) in LIVE_LOADS.iter().enumerate() {
                // Arrival seed is policy- and domain-blind: every policy
                // in both domains faces the same normalised schedule
                // shape at this (replicas, load) coordinate.
                let arrival_seed = 0x11FE + (r * 100 + l) as u64;
                let policy = match policy_name {
                    "rr" => DispatchPolicy::RoundRobin,
                    "jsq" => DispatchPolicy::JoinShortestQueue,
                    "p2c" => DispatchPolicy::PowerOfTwoChoices {
                        seed: 0x2C401CE + (r * 100 + d * 10 + l) as u64,
                    },
                    other => unreachable!("unknown policy {other}"),
                };
                let config_for = |rate: f64| {
                    FleetConfig::pool(replicas)
                        .arrivals(ArrivalProcess::poisson_rate(rate, arrival_seed))
                        .queue_capacity(QUEUE_CAPACITY)
                        .policy(policy)
                        .build()
                        .expect("valid dual-domain config")
                };

                let sim_rate = load * replicas as f64 * 1e3 / sim_service_ms;
                let sim_config = config_for(sim_rate);
                let sim = run_fleet::<ModelWorker>(
                    &costs,
                    &class_of,
                    &sim_config,
                    FleetRuntime::Sim,
                    None,
                )
                .expect("non-empty trace")
                .sim()
                .expect("sim runtime yields a cycle-domain report");
                points.push(point(replicas, policy_name, load, "sim", sim_rate, &sim));

                let live_rate = load * replicas as f64 * 1e3 / wall_service_ms;
                let live = serve_live(&config_for(live_rate));
                points.push(point(replicas, policy_name, load, "live", live_rate, &live));
            }
        }
    }

    // Saturation: every request pending at t0, no admission bound — the
    // replica threads split a fixed backlog, so completed/makespan is the
    // pool's raw concurrent capacity on this host.
    let saturation = replica_counts
        .iter()
        .map(|&replicas| {
            let config = FleetConfig::pool(replicas)
                .build()
                .expect("valid saturation config");
            let report = serve_live(&config);
            LiveSaturation {
                replicas,
                throughput_per_s: report.throughput_per_s(),
            }
        })
        .collect();

    LiveStudy {
        points,
        saturation,
        requests,
        sim_service_ms,
        wall_service_ms,
        replica_counts,
    }
}

/// Flattens one domain's report into a grid row.
fn point<D: TimeDomain>(
    replicas: usize,
    policy: &'static str,
    load: f64,
    domain: &'static str,
    rate_per_s: f64,
    report: &ServeReport<D>,
) -> LivePoint {
    LivePoint {
        replicas,
        policy,
        offered_load: load,
        domain,
        rate_per_s,
        p50_ms: report.p50_ms,
        p95_ms: report.p95_ms,
        p99_ms: report.p99_ms,
        max_ms: report.max_ms,
        mean_wait_ms: report.mean_wait_ms,
        completed: report.completed,
        dropped: report.dropped,
        drop_rate: report.drop_rate(),
        throughput_per_s: report.throughput_per_s(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dual_domain_sweep_covers_the_grid_and_validates() {
        let _serial = crate::wall_clock_lock();
        let study = live_serving(SampleSize::Quick);
        study.validate().expect("structural gate");
        assert_eq!(study.replica_counts, vec![1, 2]);
        // sim and live rows interleave per coordinate.
        for pair in study.points.chunks(2) {
            assert_eq!(pair[0].domain, "sim");
            assert_eq!(pair[1].domain, "live");
            assert_eq!(pair[0].replicas, pair[1].replicas);
            assert_eq!(pair[0].policy, pair[1].policy);
            assert_eq!(pair[0].offered_load, pair[1].offered_load);
        }
    }

    #[test]
    fn sim_rows_are_deterministic_across_runs() {
        // The wall-clock half varies; the simulated half must not, and
        // observing the second run through a registry changes nothing.
        let registry = Registry::new();
        let a = live_serving(SampleSize::Quick);
        let b = live_serving_with(SampleSize::Quick, Some(&registry));
        let sims = |s: &LiveStudy| -> Vec<LivePoint> {
            s.points
                .iter()
                .filter(|p| p.domain == "sim")
                .cloned()
                .collect()
        };
        assert_eq!(sims(&a), sims(&b));
        assert_eq!(a.sim_service_ms, b.sim_service_ms);
        // The registry holds both the serving and the engine families.
        let text = render_prometheus(&registry);
        let value = |series: &str| -> u64 {
            text.lines()
                .find_map(|l| l.strip_prefix(series)?.strip_prefix(' '))
                .unwrap_or_else(|| panic!("no {series} in\n{text}"))
                .parse()
                .expect("integer counter")
        };
        for series in [
            "flowgnn_serve_requests_total",
            "flowgnn_engine_graphs_total",
            "flowgnn_engine_stepped_cycles_total",
        ] {
            assert_ne!(value(series), 0, "{series} never moved");
        }
        // The engine runs once per served request: neither the
        // calibration pass nor a second cost-row pass counts.
        assert_eq!(
            value("flowgnn_engine_graphs_total"),
            value("flowgnn_serve_completed_total")
        );
    }

    #[test]
    fn json_carries_both_domains_and_the_saturation_curve() {
        let study = live_serving(SampleSize::Quick);
        let j = study.to_json();
        for key in [
            "\"benchmark\": \"live_serving\"",
            "\"domain\": \"sim\"",
            "\"domain\": \"live\"",
            "wall_service_ms",
            "saturation_throughput_per_s",
            "\"x2\":",
        ] {
            assert!(j.contains(key), "missing {key}");
        }
    }

    #[test]
    fn validate_catches_a_broken_grid() {
        let mut study = live_serving(SampleSize::Quick);
        study.points.pop();
        assert!(study.validate().is_err(), "short grid must fail the gate");
    }
}
