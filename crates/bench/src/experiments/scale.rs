//! Scale-out serving sweep: replica pools × dispatch policy × offered
//! load.
//!
//! `repro serve` measures one accelerator behind one queue; this
//! extension asks the ROADMAP's production question — how does the
//! *sustainable* p99-SLO rate grow as the serving layer scales out
//! across a pool of accelerator replicas, and how much of that growth
//! does the dispatch policy capture? The cycle-exact MolHIV GCN service
//! trace is computed once and replayed through every `(replicas, policy,
//! process, load)` pool configuration, so the entire sweep costs one
//! engine pass plus cheap `O(n × R)` queueing scans. Offered load is
//! expressed relative to the *pool's* aggregate capacity (`load × R ×
//! service rate`), which makes the sustainable-rate curves directly
//! comparable across replica counts: perfect scaling is a straight line.
//!
//! Every point's arrival trace is seeded by `(process, replicas, load)`
//! only — never by policy — so round-robin, join-shortest-queue, and
//! power-of-two-choices face byte-identical request streams and their
//! tail-latency differences are attributable to dispatch alone.

use flowgnn_core::prelude::*;
use flowgnn_core::ServiceTraceCache;
use flowgnn_desim::cycles_to_ms;
use flowgnn_graph::datasets::{DatasetKind, DatasetSpec};
use flowgnn_models::GnnModel;

use super::serve::{QUEUE_CAPACITY, SLO_FACTOR};
use crate::json::json_escape;
use crate::{SampleSize, TextTable};

/// Replica-pool sizes swept.
pub const REPLICA_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Dispatch policies swept (`rr` = round-robin, `jsq` =
/// join-shortest-queue, `p2c` = power-of-two-choices).
pub const SCALE_POLICIES: [&str; 3] = ["rr", "jsq", "p2c"];

/// Arrival-process shapes swept (the bursty on-off shape is covered by
/// `repro serve`; here the axis of interest is the pool, not the burst).
pub const SCALE_PROCESSES: [&str; 2] = ["fixed", "poisson"];

/// Offered loads swept, relative to the pool's aggregate service rate.
pub const SCALE_LOADS: [f64; 6] = [0.4, 0.6, 0.8, 0.9, 1.0, 1.1];

/// One `(replicas, policy, process, offered load)` measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalePoint {
    /// Replica-pool size.
    pub replicas: usize,
    /// Dispatch policy (`rr`, `jsq`, or `p2c`).
    pub policy: &'static str,
    /// Arrival-process shape (`fixed` or `poisson`).
    pub process: &'static str,
    /// Offered load relative to the pool's aggregate service rate.
    pub offered_load: f64,
    /// Absolute arrival rate in requests per second.
    pub rate_per_s: f64,
    /// Median sojourn (wait + service) in milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile sojourn in milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile sojourn in milliseconds.
    pub p99_ms: f64,
    /// Worst-case sojourn in milliseconds.
    pub max_ms: f64,
    /// Mean queueing wait in milliseconds.
    pub mean_wait_ms: f64,
    /// Fraction of requests dropped by the admission queues.
    pub drop_rate: f64,
    /// Mean per-replica utilization (busy cycles / makespan).
    pub mean_utilization: f64,
    /// Load imbalance across replicas: `(max − mean) / mean` busy
    /// cycles, in percent.
    pub imbalance_pct: f64,
}

impl ScalePoint {
    /// Whether this point met the p99 SLO with zero drops.
    pub fn meets_slo(&self, slo_ms: f64) -> bool {
        self.p99_ms <= slo_ms && self.drop_rate == 0.0
    }
}

/// The highest SLO-meeting swept rate for one `(process, policy,
/// replicas)` pool configuration (`None` if even the lowest swept load
/// missed the SLO).
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleSustainable {
    /// Arrival-process shape.
    pub process: &'static str,
    /// Dispatch policy.
    pub policy: &'static str,
    /// Replica-pool size.
    pub replicas: usize,
    /// Highest SLO-meeting swept rate in requests per second.
    pub rate_per_s: Option<f64>,
}

/// The full scale-out serving sweep.
#[derive(Debug, Clone)]
pub struct ScaleStudy {
    /// All measurements, grouped by process, then policy, then replica
    /// count, then load.
    pub points: Vec<ScalePoint>,
    /// Requests offered per point.
    pub requests: usize,
    /// The accelerator's mean service time over the trace, in
    /// milliseconds (anchors both the load → rate conversion and the
    /// SLO).
    pub mean_service_ms: f64,
}

impl ScaleStudy {
    /// The p99 service-level objective in milliseconds.
    pub fn slo_ms(&self) -> f64 {
        self.mean_service_ms * SLO_FACTOR
    }

    /// Renders the sweep.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(
            &format!(
                "Extension: scale-out serving (GCN on MolHIV, {QUEUE_CAPACITY}-deep queues per replica)"
            ),
            &[
                "Replicas",
                "Policy",
                "Process",
                "Load",
                "Rate (req/s)",
                "p50 (ms)",
                "p95 (ms)",
                "p99 (ms)",
                "Max (ms)",
                "Wait (ms)",
                "Dropped",
                "Util",
                "Imbalance",
            ],
        );
        for p in &self.points {
            t.row_owned(vec![
                p.replicas.to_string(),
                p.policy.to_string(),
                p.process.to_string(),
                format!("{:.2}", p.offered_load),
                format!("{:.0}", p.rate_per_s),
                format!("{:.4}", p.p50_ms),
                format!("{:.4}", p.p95_ms),
                format!("{:.4}", p.p99_ms),
                format!("{:.4}", p.max_ms),
                format!("{:.4}", p.mean_wait_ms),
                format!("{:.1}%", p.drop_rate * 100.0),
                format!("{:.2}", p.mean_utilization),
                format!("{:.1}%", p.imbalance_pct),
            ]);
        }
        t
    }

    /// Sustainable rate per `(process, policy, replicas)`: the highest
    /// swept rate whose p99 stayed within the SLO with zero drops.
    pub fn sustainable_rates(&self) -> Vec<ScaleSustainable> {
        let slo = self.slo_ms();
        let mut out: Vec<ScaleSustainable> = Vec::new();
        for p in &self.points {
            let meets = p.meets_slo(slo);
            match out.iter_mut().find(|s| {
                s.process == p.process && s.policy == p.policy && s.replicas == p.replicas
            }) {
                Some(s) => {
                    if meets && s.rate_per_s.is_none_or(|r| p.rate_per_s > r) {
                        s.rate_per_s = Some(p.rate_per_s);
                    }
                }
                None => out.push(ScaleSustainable {
                    process: p.process,
                    policy: p.policy,
                    replicas: p.replicas,
                    rate_per_s: meets.then_some(p.rate_per_s),
                }),
            }
        }
        out
    }

    /// Renders the Poisson/JSQ scaling curve appended under the table.
    pub fn sustainable_note(&self) -> String {
        let rates = self.sustainable_rates();
        let curve: Vec<String> = REPLICA_COUNTS
            .iter()
            .map(|&r| {
                let rate = rates
                    .iter()
                    .find(|s| s.process == "poisson" && s.policy == "jsq" && s.replicas == r)
                    .and_then(|s| s.rate_per_s);
                format!(
                    "x{r} {}",
                    rate.map_or("none swept".to_string(), |v| format!("{v:.0} req/s"))
                )
            })
            .collect();
        format!(
            "(poisson/jsq sustainable rate at p99 <= {SLO_FACTOR}x service, no drops: {})",
            curve.join(", ")
        )
    }

    /// Serializes the sweep as pretty-printed JSON (std-only writer), the
    /// `BENCH_scale_out.json` perf-trajectory artifact.
    pub fn to_json(&self) -> String {
        let mut out =
            String::from("{\n  \"benchmark\": \"scale_out\",\n  \"workload\": \"molhiv_gcn\",\n");
        out.push_str(&format!(
            "  \"queue_capacity\": {QUEUE_CAPACITY},\n  \"slo_factor\": {SLO_FACTOR},\n  \
             \"requests\": {},\n  \"mean_service_ms\": {:.6},\n  \"rows\": [\n",
            self.requests, self.mean_service_ms
        ));
        for (i, p) in self.points.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"replicas\": {}, \"policy\": \"{}\", \"process\": \"{}\", \
                 \"offered_load\": {}, \"rate_per_s\": {:.1}, \"p50_ms\": {:.6}, \
                 \"p95_ms\": {:.6}, \"p99_ms\": {:.6}, \"max_ms\": {:.6}, \
                 \"mean_wait_ms\": {:.6}, \"drop_rate\": {:.4}, \"mean_utilization\": {:.4}, \
                 \"imbalance_pct\": {:.2}}}{}\n",
                p.replicas,
                json_escape(p.policy),
                json_escape(p.process),
                p.offered_load,
                p.rate_per_s,
                p.p50_ms,
                p.p95_ms,
                p.p99_ms,
                p.max_ms,
                p.mean_wait_ms,
                p.drop_rate,
                p.mean_utilization,
                p.imbalance_pct,
                if i + 1 == self.points.len() { "" } else { "," },
            ));
        }
        out.push_str("  ],\n  \"sustainable_rate_per_s\": {\n");
        let rates = self.sustainable_rates();
        for (i, s) in rates.iter().enumerate() {
            out.push_str(&format!(
                "    \"{}/{}/x{}\": {}{}\n",
                json_escape(s.process),
                json_escape(s.policy),
                s.replicas,
                s.rate_per_s
                    .map_or("null".to_string(), |r| format!("{r:.1}")),
                if i + 1 == rates.len() { "" } else { "," },
            ));
        }
        out.push_str("  }\n}\n");
        out
    }
}

/// Sweeps sustainable serving rate across replica counts, dispatch
/// policies, arrival processes, and offered loads.
///
/// The engine runs exactly once (one cycle-exact MolHIV service trace);
/// each grid point replays that trace through a replica-pool queueing
/// scan. Points are independent — arrival seeds derive from the point's
/// `(process, replicas, load)` indices and the power-of-two dispatch
/// seed from its full coordinates — so the grid fans out over
/// [`crate::par_map`] and the output is byte-identical for any `--jobs`
/// setting.
pub fn scale_out(sample: SampleSize) -> ScaleStudy {
    let spec = DatasetSpec::standard(DatasetKind::MolHiv);
    let requests = sample.resolve(spec.paper_stats().graphs);
    // The trace cache makes the one engine pass answer any duplicate
    // graphs in the stream from memory; cached cycles are exactly the
    // simulated ones, so the sweep output is unchanged by the cache.
    let acc = Accelerator::new(
        GnnModel::gcn(spec.node_feat_dim(), 11),
        ArchConfig::default().with_execution(ExecutionMode::TimingOnly),
    )
    .with_trace_cache(ServiceTraceCache::new(requests.max(1)));
    let service = acc.service_trace(spec.stream(), requests);
    let mean_service_ms = cycles_to_ms(service.iter().sum::<u64>()) / service.len() as f64;
    let service_rate_per_s = 1e3 / mean_service_ms;
    let class_of = vec![0; service.len()];
    let costs = [service];

    let grid: Vec<(usize, usize, usize, usize)> = (0..SCALE_PROCESSES.len())
        .flat_map(|p| {
            (0..SCALE_POLICIES.len()).flat_map(move |d| {
                (0..REPLICA_COUNTS.len())
                    .flat_map(move |r| (0..SCALE_LOADS.len()).map(move |l| (p, d, r, l)))
            })
        })
        .collect();
    let points = crate::par_map(grid, None, |(p, d, r, l)| {
        let replicas = REPLICA_COUNTS[r];
        let load = SCALE_LOADS[l];
        let rate = load * replicas as f64 * service_rate_per_s;
        // Arrival seed is policy-blind: every policy at the same
        // (process, replicas, load) faces the identical request stream.
        let arrival_seed = 0x5CA1E + (p * 1000 + r * 100 + l) as u64;
        let arrivals = match SCALE_PROCESSES[p] {
            "fixed" => ArrivalProcess::fixed_rate(rate),
            "poisson" => ArrivalProcess::poisson_rate(rate, arrival_seed),
            other => unreachable!("unknown process {other}"),
        };
        let policy = match SCALE_POLICIES[d] {
            "rr" => DispatchPolicy::RoundRobin,
            "jsq" => DispatchPolicy::JoinShortestQueue,
            "p2c" => DispatchPolicy::PowerOfTwoChoices {
                seed: 0x2C401CE + (p * 1000 + r * 100 + l) as u64,
            },
            other => unreachable!("unknown policy {other}"),
        };
        let config = FleetConfig::pool(replicas)
            .arrivals(arrivals)
            .queue_capacity(QUEUE_CAPACITY)
            .policy(policy)
            .build()
            .expect("valid scale-out config");
        let report = run_fleet::<ModelWorker>(&costs, &class_of, &config, FleetRuntime::Sim, None)
            .expect("non-empty trace")
            .sim()
            .expect("sim runtime yields a cycle-domain report");
        let util = report.replica_utilization().expect("pool has replicas");
        ScalePoint {
            replicas,
            policy: SCALE_POLICIES[d],
            process: SCALE_PROCESSES[p],
            offered_load: load,
            rate_per_s: rate,
            p50_ms: report.p50_ms,
            p95_ms: report.p95_ms,
            p99_ms: report.p99_ms,
            max_ms: report.max_ms,
            mean_wait_ms: report.mean_wait_ms,
            drop_rate: report.drop_rate(),
            mean_utilization: util.iter().sum::<f64>() / util.len() as f64,
            imbalance_pct: report.load_imbalance_percent().expect("pool has replicas"),
        }
    });
    ScaleStudy {
        points,
        requests,
        mean_service_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_the_full_grid() {
        let study = scale_out(SampleSize::Quick);
        assert_eq!(
            study.points.len(),
            SCALE_PROCESSES.len() * SCALE_POLICIES.len() * REPLICA_COUNTS.len() * SCALE_LOADS.len()
        );
        for &r in &REPLICA_COUNTS {
            assert!(study.points.iter().any(|p| p.replicas == r));
        }
    }

    #[test]
    fn single_replica_is_policy_invariant() {
        // With one replica every policy degenerates to the same FIFO:
        // round-robin trivially, JSQ has one candidate, and both of
        // p2c's draws land on replica 0.
        let study = scale_out(SampleSize::Quick);
        for process in SCALE_PROCESSES {
            for load in SCALE_LOADS {
                let at = |policy: &str| {
                    study
                        .points
                        .iter()
                        .find(|x| {
                            x.replicas == 1
                                && x.policy == policy
                                && x.process == process
                                && x.offered_load == load
                        })
                        .unwrap()
                };
                let (rr, jsq, p2c) = (at("rr"), at("jsq"), at("p2c"));
                assert_eq!(rr.p99_ms, jsq.p99_ms);
                assert_eq!(rr.p99_ms, p2c.p99_ms);
                assert_eq!(rr.drop_rate, p2c.drop_rate);
            }
        }
    }

    #[test]
    fn jsq_never_trails_round_robin() {
        // Identical arrival streams per (process, replicas, load). At
        // light load the policies' p99s may differ by noise (JSQ's
        // tie-break herds toward low indices where RR's blind alternation
        // happens to be optimal for homogeneous service), but against the
        // SLO the load-aware policy can only match or beat the blind one:
        // wherever round-robin is sustainable, JSQ is too, and JSQ's
        // sustainable rate is never lower.
        let study = scale_out(SampleSize::Quick);
        let slo = study.slo_ms();
        for rr in study.points.iter().filter(|x| x.policy == "rr") {
            let jsq = study
                .points
                .iter()
                .find(|x| {
                    x.policy == "jsq"
                        && x.process == rr.process
                        && x.replicas == rr.replicas
                        && x.offered_load == rr.offered_load
                })
                .unwrap();
            if rr.meets_slo(slo) {
                assert!(
                    jsq.meets_slo(slo),
                    "rr meets SLO {slo} but jsq does not: jsq {jsq:?} vs rr {rr:?}"
                );
            }
        }
        let rates = study.sustainable_rates();
        let rate = |process: &str, policy: &str, replicas: usize| {
            rates
                .iter()
                .find(|s| s.process == process && s.policy == policy && s.replicas == replicas)
                .unwrap()
                .rate_per_s
                .unwrap_or(0.0)
        };
        for process in SCALE_PROCESSES {
            for &r in &REPLICA_COUNTS {
                assert!(
                    rate(process, "jsq", r) >= rate(process, "rr", r),
                    "{process}/x{r}: jsq sustains less than rr"
                );
            }
        }
    }

    #[test]
    fn sustainable_rate_scales_with_replicas() {
        let study = scale_out(SampleSize::Quick);
        let rates = study.sustainable_rates();
        for process in SCALE_PROCESSES {
            for policy in SCALE_POLICIES {
                let curve: Vec<f64> = REPLICA_COUNTS
                    .iter()
                    .map(|&r| {
                        rates
                            .iter()
                            .find(|s| s.process == process && s.policy == policy && s.replicas == r)
                            .unwrap()
                            .rate_per_s
                            .expect("lowest load sustainable everywhere")
                    })
                    .collect();
                assert!(
                    curve.windows(2).all(|w| w[1] > w[0]),
                    "{process}/{policy}: {curve:?} not increasing"
                );
            }
        }
    }

    #[test]
    fn pools_stay_balanced_under_round_robin_fixed_arrivals() {
        // Homogeneous-ish service + strict alternation: imbalance is a
        // few percent, never a pathological skew.
        let study = scale_out(SampleSize::Quick);
        for p in study
            .points
            .iter()
            .filter(|x| x.policy == "rr" && x.process == "fixed" && x.replicas > 1)
        {
            assert!(p.imbalance_pct < 100.0, "{p:?}");
            assert!(
                p.mean_utilization > 0.0 && p.mean_utilization <= 1.0,
                "{p:?}"
            );
        }
    }

    #[test]
    fn json_has_scale_columns_and_sustainable_curve() {
        let study = scale_out(SampleSize::Quick);
        let j = study.to_json();
        assert!(j.contains("\"benchmark\": \"scale_out\""));
        for key in [
            "replicas",
            "policy",
            "p99_ms",
            "mean_utilization",
            "imbalance_pct",
            "sustainable_rate_per_s",
            "poisson/jsq/x8",
        ] {
            assert!(j.contains(key), "missing {key}");
        }
    }

    #[test]
    fn sweep_is_repeatable() {
        // Seeds are pure functions of grid indices and par_map preserves
        // input order, so two runs — and runs under any `--jobs` — agree.
        let a = scale_out(SampleSize::Quick);
        let b = scale_out(SampleSize::Quick);
        assert_eq!(a.points, b.points);
        assert_eq!(a.table().to_csv(), b.table().to_csv());
        assert_eq!(a.to_json(), b.to_json());
    }
}
