//! Multi-tenant fleet serving: heterogeneous endpoints × tenant mixes ×
//! admission policies × routing policies × offered load.
//!
//! `repro scale` answers how one model scales across identical replicas;
//! this sweep asks the fleet questions the serving refactor exists for.
//! Two tenant classes share one front door — an *interactive* class
//! (small molecule graphs, high priority, tight SLO) and an *analytics*
//! class (large graphs, low priority, lax SLO) — and the fleet behind it
//! is composed from two genuinely heterogeneous endpoint kinds: an
//! `accel` pod (the paper's wide dataflow configuration, `P = (4,8,8,8)`)
//! and a pool of `edge` devices (the narrowest configuration, `P =
//! (1,1,1,1)`, ~30–40× slower per graph). Three fleet shapes are swept —
//! accel-only, edge-only, and the heterogeneous mix — under FIFO vs
//! priority admission and backlog (JSQ) vs cost-based routing, at offered
//! loads anchored to the *accel pod's* capacity so every shape faces the
//! same traffic.
//!
//! The two tentpole claims the sweep demonstrates (and
//! [`FleetStudy::validate`] gates):
//!
//! - **priority admission dominates FIFO for the interactive class**:
//!   with the queue full, evicting a waiting analytics request beats
//!   rejecting the interactive arrival, so wherever the mix carries a
//!   material analytics share the high-priority class drops strictly
//!   less under overload while FIFO drops blindly (at a 90% interactive
//!   mix there is nearly nothing to displace and admission degenerates
//!   to FIFO);
//! - **cost-based heterogeneous routing beats any single-backend fleet
//!   on mixed-size tenant mixes**: the cost policy keeps work on the
//!   accel pod until its pending-work estimate exceeds an edge device's
//!   service cost — which small requests reach first, so interactive
//!   overflow spills to the edge pool while large analytics requests
//!   stay put — dropping strictly less than either homogeneous shape,
//!   and holding a tail (p99) that backlog-count JSQ routing, which
//!   strands requests behind the slow edge devices, never beats.
//!
//! Every point's arrival trace and tenant assignment are seeded by the
//! `(mix, load)` / `mix` indices only — never by shape, admission, or
//! routing — so all 16 policy combinations at a coordinate face
//! byte-identical request streams and their differences are attributable
//! to the fleet configuration alone.

use flowgnn_core::prelude::*;
use flowgnn_core::InferenceBackend;
use flowgnn_desim::{cycles_to_ms, Cycle};
use flowgnn_graph::generators::{GraphGenerator, MoleculeLike};
use flowgnn_graph::GraphStream;
use flowgnn_models::GnnModel;
use flowgnn_rng::Rng;

use super::serve::SLO_FACTOR;
use crate::json::json_escape;
use crate::{SampleSize, TextTable};

/// Fleet compositions swept: the accel pod alone, the edge pool alone,
/// and the heterogeneous mix.
pub const FLEET_SHAPES: [&str; 3] = ["accel", "edge", "hetero"];

/// Admission policies swept at the shared front door.
pub const FLEET_ADMISSIONS: [&str; 2] = ["fifo", "priority"];

/// Routing policies swept across the fleet's replicas.
pub const FLEET_ROUTINGS: [&str; 2] = ["jsq", "cost"];

/// Interactive-tenant traffic shares swept (the rest is analytics).
pub const FLEET_MIXES: [f64; 3] = [0.3, 0.6, 0.9];

/// Offered loads swept, relative to the accel pod's aggregate service
/// rate on the point's tenant mix.
pub const FLEET_LOADS: [f64; 4] = [0.7, 1.0, 1.4, 1.8];

/// Bounded per-replica admission-queue depth. Shallower than `repro
/// scale`'s 64: fleet admission is *about* the full-queue decision, so
/// the sweep keeps the queue short enough that overload reaches it.
pub const FLEET_QUEUE_CAPACITY: usize = 16;

/// Replicas in the accel pod (and the accel half of the hetero fleet).
const ACCEL_REPLICAS: usize = 2;

/// Devices in the edge-only pool.
const EDGE_REPLICAS: usize = 6;

/// Edge devices backing the hetero fleet's spill capacity.
const HETERO_EDGE_REPLICAS: usize = 4;

/// Distinct small (interactive) and large (analytics) graphs per class.
const DISTINCT_PER_CLASS: usize = 8;

/// One `(shape, mix, admission, routing, load)` measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetPoint {
    /// Fleet composition (`accel`, `edge`, or `hetero`).
    pub shape: &'static str,
    /// Interactive share of the offered traffic.
    pub interactive_share: f64,
    /// Admission policy at the full queue (`fifo` or `priority`).
    pub admission: &'static str,
    /// Routing policy across the fleet (`jsq` or `cost`).
    pub routing: &'static str,
    /// Offered load relative to the accel pod's service rate on this mix.
    pub offered_load: f64,
    /// Absolute arrival rate in requests per second.
    pub rate_per_s: f64,
    /// Requests completed across the fleet.
    pub completed: usize,
    /// Requests dropped by admission (rejected or displaced).
    pub dropped: usize,
    /// Fraction of requests dropped.
    pub drop_rate: f64,
    /// Fleet-wide 99th-percentile sojourn in milliseconds.
    pub p99_ms: f64,
    /// Interactive-class per-tenant view.
    pub interactive: FleetClassPoint,
    /// Analytics-class per-tenant view.
    pub analytics: FleetClassPoint,
    /// Accel-pod utilization (busy / makespan × replicas), if present.
    pub accel_utilization: Option<f64>,
    /// Edge-pool utilization, if present in this shape.
    pub edge_utilization: Option<f64>,
}

/// One tenant class's slice of a [`FleetPoint`].
#[derive(Debug, Clone, PartialEq)]
pub struct FleetClassPoint {
    /// Requests this class offered.
    pub requests: usize,
    /// Requests dropped (admission rejections plus displacements).
    pub dropped: usize,
    /// Class 99th-percentile sojourn in milliseconds.
    pub p99_ms: f64,
    /// Fraction of *offered* requests that completed within the class
    /// SLO (drops count against it).
    pub slo_attainment: f64,
}

impl FleetClassPoint {
    /// Fraction of this class's offered requests that were dropped.
    pub fn drop_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.dropped as f64 / self.requests as f64
        }
    }
}

/// The full fleet-serving sweep.
#[derive(Debug, Clone)]
pub struct FleetStudy {
    /// All measurements, grouped by shape, then mix, then admission, then
    /// routing, then load.
    pub points: Vec<FleetPoint>,
    /// Requests offered per point.
    pub requests: usize,
    /// Interactive-class SLO per mix index, in milliseconds
    /// (`SLO_FACTOR` × the accel pod's mean interactive service time).
    pub interactive_slo_ms: Vec<f64>,
    /// Analytics-class SLO per mix index, in milliseconds.
    pub analytics_slo_ms: Vec<f64>,
}

impl FleetStudy {
    /// Renders the sweep.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(
            &format!(
                "Extension: multi-tenant fleet serving (GCN molecules, \
                 {FLEET_QUEUE_CAPACITY}-deep queues, interactive hi-pri vs analytics lo-pri)"
            ),
            &[
                "Shape",
                "Mix",
                "Admission",
                "Routing",
                "Load",
                "Rate (req/s)",
                "Dropped",
                "p99 (ms)",
                "Hi drop",
                "Hi p99 (ms)",
                "Hi SLO",
                "Lo drop",
                "Lo p99 (ms)",
                "Lo SLO",
                "Util accel",
                "Util edge",
            ],
        );
        let opt = |u: Option<f64>| u.map_or("-".to_string(), |v| format!("{v:.2}"));
        for p in &self.points {
            t.row_owned(vec![
                p.shape.to_string(),
                format!("{:.0}%", p.interactive_share * 100.0),
                p.admission.to_string(),
                p.routing.to_string(),
                format!("{:.2}", p.offered_load),
                format!("{:.0}", p.rate_per_s),
                format!("{:.1}%", p.drop_rate * 100.0),
                format!("{:.4}", p.p99_ms),
                format!("{:.1}%", p.interactive.drop_rate() * 100.0),
                format!("{:.4}", p.interactive.p99_ms),
                format!("{:.1}%", p.interactive.slo_attainment * 100.0),
                format!("{:.1}%", p.analytics.drop_rate() * 100.0),
                format!("{:.4}", p.analytics.p99_ms),
                format!("{:.1}%", p.analytics.slo_attainment * 100.0),
                opt(p.accel_utilization),
                opt(p.edge_utilization),
            ]);
        }
        t
    }

    /// Renders the tentpole comparisons appended under the table: how
    /// much interactive drop rate priority admission saves over FIFO, and
    /// the hetero fleet's drop rate against the homogeneous shapes, both
    /// at the heaviest swept load.
    pub fn summary_note(&self) -> String {
        let heavy = FLEET_LOADS.iter().cloned().fold(0.0f64, f64::max);
        let at = |shape: &str, admission: &str, routing: &str, mix: f64| {
            self.points.iter().find(|p| {
                p.shape == shape
                    && p.admission == admission
                    && p.routing == routing
                    && p.interactive_share == mix
                    && p.offered_load == heavy
            })
        };
        let mid = FLEET_MIXES[FLEET_MIXES.len() / 2];
        let saved = match (
            at("hetero", "fifo", "cost", mid),
            at("hetero", "priority", "cost", mid),
        ) {
            (Some(f), Some(p)) => format!(
                "{:.1}% -> {:.1}%",
                f.interactive.drop_rate() * 100.0,
                p.interactive.drop_rate() * 100.0
            ),
            _ => "n/a".to_string(),
        };
        let shapes: Vec<String> = FLEET_SHAPES
            .iter()
            .map(|s| {
                at(s, "priority", "cost", mid)
                    .map_or("n/a".into(), |p| format!("{s} {:.1}%", p.drop_rate * 100.0))
            })
            .collect();
        format!(
            "(at load {heavy:.1}, mix {:.0}%: priority admission cuts interactive drops \
             {saved}; drop rate by shape under cost routing: {})",
            mid * 100.0,
            shapes.join(", ")
        )
    }

    /// Serializes the sweep as pretty-printed JSON (std-only writer), the
    /// `BENCH_fleet_serving.json` artifact.
    pub fn to_json(&self) -> String {
        let mut out = String::from(
            "{\n  \"benchmark\": \"fleet_serving\",\n  \"workload\": \"molecule_gcn_two_tenants\",\n",
        );
        out.push_str(&format!(
            "  \"queue_capacity\": {FLEET_QUEUE_CAPACITY},\n  \"slo_factor\": {SLO_FACTOR},\n  \
             \"requests\": {},\n  \"interactive_slo_ms\": [{}],\n  \"analytics_slo_ms\": [{}],\n  \
             \"rows\": [\n",
            self.requests,
            self.interactive_slo_ms
                .iter()
                .map(|v| format!("{v:.6}"))
                .collect::<Vec<_>>()
                .join(", "),
            self.analytics_slo_ms
                .iter()
                .map(|v| format!("{v:.6}"))
                .collect::<Vec<_>>()
                .join(", "),
        ));
        let opt = |u: Option<f64>| u.map_or("null".to_string(), |v| format!("{v:.4}"));
        for (i, p) in self.points.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"shape\": \"{}\", \"interactive_share\": {}, \"admission\": \"{}\", \
                 \"routing\": \"{}\", \"offered_load\": {}, \"rate_per_s\": {:.1}, \
                 \"completed\": {}, \"dropped\": {}, \"drop_rate\": {:.4}, \"p99_ms\": {:.6}, \
                 \"interactive\": {{\"requests\": {}, \"dropped\": {}, \"p99_ms\": {:.6}, \
                 \"slo_attainment\": {:.4}}}, \
                 \"analytics\": {{\"requests\": {}, \"dropped\": {}, \"p99_ms\": {:.6}, \
                 \"slo_attainment\": {:.4}}}, \
                 \"accel_utilization\": {}, \"edge_utilization\": {}}}{}\n",
                json_escape(p.shape),
                p.interactive_share,
                json_escape(p.admission),
                json_escape(p.routing),
                p.offered_load,
                p.rate_per_s,
                p.completed,
                p.dropped,
                p.drop_rate,
                p.p99_ms,
                p.interactive.requests,
                p.interactive.dropped,
                p.interactive.p99_ms,
                p.interactive.slo_attainment,
                p.analytics.requests,
                p.analytics.dropped,
                p.analytics.p99_ms,
                p.analytics.slo_attainment,
                opt(p.accel_utilization),
                opt(p.edge_utilization),
                if i + 1 == self.points.len() { "" } else { "," },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Semantic gate for CI: the sweep must *show* the claims the fleet
    /// layer makes, on any sample size.
    ///
    /// - full grid coverage and per-row conservation (fleet and per-class
    ///   requests all accounted for, percentiles finite and ordered);
    /// - **priority admission dominates FIFO for the interactive class**
    ///   wherever there is traffic to preempt: at every coordinate whose
    ///   mix carries a material analytics share (≤ 60% interactive),
    ///   switching FIFO → priority never increases interactive drops, and
    ///   across the grid it strictly decreases them in aggregate. At the
    ///   90% mix the queue is almost entirely high-priority, eviction has
    ///   nothing to displace, and admission degenerates to FIFO plus
    ///   scheduling noise — there the gate only bounds the regression (≤
    ///   5 points of drop rate);
    /// - **cost-based heterogeneous routing beats both single-backend
    ///   fleets on a mixed-size tenant mix**: for at least one mix, at
    ///   every overloaded load the `hetero` shape (priority + cost) drops
    ///   no more than `accel` or `edge`, with a strict win over both
    ///   somewhere;
    /// - **cost routing beats backlog routing on the hetero fleet's
    ///   tail**: at every hetero coordinate, fleet-wide p99 under cost
    ///   routing is no worse than under JSQ, which blindly strands
    ///   requests behind 30–40× slower edge devices.
    pub fn validate(&self) -> Result<(), String> {
        let grid = FLEET_SHAPES.len()
            * FLEET_MIXES.len()
            * FLEET_ADMISSIONS.len()
            * FLEET_ROUTINGS.len()
            * FLEET_LOADS.len();
        if self.points.len() != grid {
            return Err(format!("expected {grid} rows, found {}", self.points.len()));
        }
        for p in &self.points {
            let what = format!(
                "{}/{:.0}%/{}/{}/{}",
                p.shape,
                p.interactive_share * 100.0,
                p.admission,
                p.routing,
                p.offered_load
            );
            if p.completed + p.dropped != self.requests {
                return Err(format!(
                    "{what}: {} completed + {} dropped != {} offered",
                    p.completed, p.dropped, self.requests
                ));
            }
            if p.interactive.requests + p.analytics.requests != self.requests {
                return Err(format!("{what}: class views do not cover the trace"));
            }
            if p.interactive.dropped + p.analytics.dropped != p.dropped {
                return Err(format!("{what}: class drops do not sum to fleet drops"));
            }
            for (name, v) in [
                ("p99", p.p99_ms),
                ("hi p99", p.interactive.p99_ms),
                ("lo p99", p.analytics.p99_ms),
            ] {
                if !v.is_finite() || v < 0.0 {
                    return Err(format!("{what}: {name} = {v} not finite and non-negative"));
                }
            }
            for (name, v) in [
                ("hi slo", p.interactive.slo_attainment),
                ("lo slo", p.analytics.slo_attainment),
            ] {
                if !(0.0..=1.0).contains(&v) {
                    return Err(format!("{what}: {name} = {v} not a fraction"));
                }
            }
        }

        let find = |shape: &str, mix: f64, admission: &str, routing: &str, load: f64| {
            self.points.iter().find(|p| {
                p.shape == shape
                    && p.interactive_share == mix
                    && p.admission == admission
                    && p.routing == routing
                    && p.offered_load == load
            })
        };

        // Priority admission dominates FIFO for the hi class wherever an
        // analytics share exists to displace; at the 90% mix eviction has
        // almost no low-priority traffic to act on, so the check there
        // only bounds the scheduling-noise regression.
        let mut fifo_hi_drops = 0usize;
        let mut prio_hi_drops = 0usize;
        for shape in FLEET_SHAPES {
            for mix in FLEET_MIXES {
                for routing in FLEET_ROUTINGS {
                    for load in FLEET_LOADS {
                        let f = find(shape, mix, "fifo", routing, load)
                            .ok_or_else(|| format!("missing fifo point {shape}/{mix}/{load}"))?;
                        let p = find(shape, mix, "priority", routing, load).ok_or_else(|| {
                            format!("missing priority point {shape}/{mix}/{load}")
                        })?;
                        let preemptable = mix <= 0.6;
                        if preemptable && p.interactive.dropped > f.interactive.dropped {
                            return Err(format!(
                                "{shape}/{mix:.1}/{routing}/{load}: priority admission \
                                 increased interactive drops ({} vs {} under FIFO)",
                                p.interactive.dropped, f.interactive.dropped
                            ));
                        }
                        if !preemptable
                            && p.interactive.drop_rate() > f.interactive.drop_rate() + 0.05
                        {
                            return Err(format!(
                                "{shape}/{mix:.1}/{routing}/{load}: priority admission \
                                 regressed interactive drop rate by more than 5 points \
                                 ({:.3} vs {:.3} under FIFO)",
                                p.interactive.drop_rate(),
                                f.interactive.drop_rate()
                            ));
                        }
                        fifo_hi_drops += f.interactive.dropped;
                        prio_hi_drops += p.interactive.dropped;
                    }
                }
            }
        }
        if prio_hi_drops >= fifo_hi_drops {
            return Err(format!(
                "priority admission never strictly beat FIFO for the interactive class \
                 ({prio_hi_drops} drops vs {fifo_hi_drops})"
            ));
        }

        // The heterogeneous fleet under priority + cost routing must
        // dominate both homogeneous shapes on drops across at least one
        // full mix (every overloaded load, strict somewhere): the
        // mixed-size tenant mixes give cost routing the small-vs-large
        // spill asymmetry it exploits.
        let overloads: Vec<f64> = FLEET_LOADS.iter().copied().filter(|&l| l >= 1.0).collect();
        let mut winning_mix = None;
        for mix in FLEET_MIXES {
            let mut dominates = true;
            let mut strict = false;
            for &load in &overloads {
                let h = find("hetero", mix, "priority", "cost", load)
                    .ok_or_else(|| format!("missing hetero point {mix}/{load}"))?;
                let a = find("accel", mix, "priority", "cost", load)
                    .ok_or_else(|| format!("missing accel point {mix}/{load}"))?;
                let e = find("edge", mix, "priority", "cost", load)
                    .ok_or_else(|| format!("missing edge point {mix}/{load}"))?;
                if h.dropped > a.dropped || h.dropped > e.dropped {
                    dominates = false;
                }
                if h.dropped < a.dropped && h.dropped < e.dropped {
                    strict = true;
                }
            }
            if dominates && strict {
                winning_mix = Some(mix);
                break;
            }
        }
        if winning_mix.is_none() {
            return Err(
                "cost-based heterogeneous routing never dominated both single-backend \
                 fleets across a full tenant mix"
                    .to_string(),
            );
        }

        // Cost routing protects the hetero fleet's tail: JSQ spreads by
        // backlog count alone and strands requests behind 30-40x slower
        // edge devices, so its p99 must never beat cost routing's.
        for mix in FLEET_MIXES {
            for admission in FLEET_ADMISSIONS {
                for load in FLEET_LOADS {
                    let c = find("hetero", mix, admission, "cost", load)
                        .ok_or_else(|| format!("missing hetero cost point {mix}/{load}"))?;
                    let j = find("hetero", mix, admission, "jsq", load)
                        .ok_or_else(|| format!("missing hetero jsq point {mix}/{load}"))?;
                    if c.p99_ms > j.p99_ms {
                        return Err(format!(
                            "hetero/{mix:.1}/{admission}/{load}: cost routing's p99 \
                             ({:.4} ms) exceeded JSQ's ({:.4} ms)",
                            c.p99_ms, j.p99_ms
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Per-mix precomputation: the request stream one `(mix)` coordinate
/// offers every fleet shape — tenant classes, per-endpoint cost rows, and
/// the class SLO anchors.
struct MixWorkload {
    class_of: Vec<usize>,
    accel_costs: Vec<Cycle>,
    edge_costs: Vec<Cycle>,
    accel_mean_ms: f64,
    interactive_slo_ms: f64,
    analytics_slo_ms: f64,
}

/// Sweeps the fleet grid: shapes × tenant mixes × admission × routing ×
/// offered load.
///
/// The engines run exactly once — one cycle-exact service trace of the
/// 16 distinct molecule graphs per endpoint kind — and every grid point
/// replays those per-request cost rows through the fleet scan. Points
/// are independent (seeds derive from `(mix, load)` indices only), so
/// the grid fans out over [`crate::par_map`] and the output is
/// byte-identical for any `--jobs` setting.
pub fn fleet_serving(sample: SampleSize) -> FleetStudy {
    // Distinct graphs: small molecules for the interactive tenant, large
    // ones for analytics. Both endpoint kinds price all 16.
    let small: Vec<_> = (0..DISTINCT_PER_CLASS)
        .map(|i| MoleculeLike::new(14.0, 3).node_feat_dim(9).generate(i))
        .collect();
    let large: Vec<_> = (0..DISTINCT_PER_CLASS)
        .map(|i| {
            MoleculeLike::new(160.0, 3)
                .node_feat_dim(9)
                .generate(100 + i)
        })
        .collect();
    let mut distinct = small;
    distinct.extend(large);

    let model = GnnModel::gcn(9, 11);
    let accel = Accelerator::new(
        model.clone(),
        ArchConfig::default()
            .with_parallelism(4, 8, 8, 8)
            .with_execution(ExecutionMode::TimingOnly),
    );
    let edge = Accelerator::new(
        model,
        ArchConfig::default()
            .with_parallelism(1, 1, 1, 1)
            .with_execution(ExecutionMode::TimingOnly),
    );
    let price = |backend: &Accelerator| {
        InferenceBackend::service_trace(
            backend,
            GraphStream::from_graphs(distinct.clone()),
            distinct.len(),
        )
    };
    let accel_price = price(&accel);
    let edge_price = price(&edge);

    // At least 120 requests even in quick mode: the admission and
    // spill dynamics the gate checks need sustained pressure, not a
    // ten-request burst.
    let requests = sample.resolve(360).max(120);

    // Per-mix tenant assignment: seeded by the mix index alone, so every
    // shape, admission, routing, and load at this mix serves the
    // byte-identical request stream.
    let mixes: Vec<MixWorkload> = FLEET_MIXES
        .iter()
        .enumerate()
        .map(|(m, &share)| {
            let mut rng = Rng::seed_from_u64(0xF1EE7 + m as u64);
            let mut class_of = Vec::with_capacity(requests);
            let mut graph_of = Vec::with_capacity(requests);
            for _ in 0..requests {
                let interactive = rng.gen_bool(share);
                class_of.push(usize::from(!interactive));
                let g = rng.gen_range(0usize..DISTINCT_PER_CLASS)
                    + if interactive { 0 } else { DISTINCT_PER_CLASS };
                graph_of.push(g);
            }
            let accel_costs: Vec<Cycle> = graph_of.iter().map(|&g| accel_price[g]).collect();
            let edge_costs: Vec<Cycle> = graph_of.iter().map(|&g| edge_price[g]).collect();
            let class_mean = |class: usize| {
                let costs: Vec<Cycle> = class_of
                    .iter()
                    .zip(&accel_costs)
                    .filter(|&(&c, _)| c == class)
                    .map(|(_, &v)| v)
                    .collect();
                cycles_to_ms(costs.iter().sum::<Cycle>()) / costs.len().max(1) as f64
            };
            MixWorkload {
                accel_mean_ms: cycles_to_ms(accel_costs.iter().sum::<Cycle>()) / requests as f64,
                interactive_slo_ms: class_mean(0) * SLO_FACTOR,
                analytics_slo_ms: class_mean(1) * SLO_FACTOR,
                class_of,
                accel_costs,
                edge_costs,
            }
        })
        .collect();

    let grid: Vec<(usize, usize, usize, usize, usize)> = (0..FLEET_SHAPES.len())
        .flat_map(|s| {
            (0..FLEET_MIXES.len()).flat_map(move |m| {
                (0..FLEET_ADMISSIONS.len()).flat_map(move |a| {
                    (0..FLEET_ROUTINGS.len())
                        .flat_map(move |d| (0..FLEET_LOADS.len()).map(move |l| (s, m, a, d, l)))
                })
            })
        })
        .collect();

    let points = crate::par_map(grid, None, |(s, m, a, d, l)| {
        let shape = FLEET_SHAPES[s];
        let mix = &mixes[m];
        let load = FLEET_LOADS[l];
        // Load is anchored to the accel pod's capacity on this mix, for
        // every shape: same traffic, different fleet composition.
        let rate = load * ACCEL_REPLICAS as f64 * 1e3 / mix.accel_mean_ms;
        // Arrival seed is shape-, admission-, and routing-blind.
        let arrival_seed = 0xA221 + (m * 10 + l) as u64;
        let admission = match FLEET_ADMISSIONS[a] {
            "fifo" => AdmissionPolicy::Fifo,
            _ => AdmissionPolicy::Priority,
        };
        let routing = match FLEET_ROUTINGS[d] {
            "jsq" => DispatchPolicy::JoinShortestQueue,
            _ => DispatchPolicy::CostBased,
        };
        let mut builder = FleetConfig::builder()
            .arrivals(ArrivalProcess::poisson_rate(rate, arrival_seed))
            .queue_capacity(FLEET_QUEUE_CAPACITY)
            .admission(admission)
            .policy(routing)
            .class(RequestClass::new("interactive", 2).with_slo_ms(mix.interactive_slo_ms))
            .class(RequestClass::new("analytics", 0).with_slo_ms(mix.analytics_slo_ms));
        let mut costs: Vec<Vec<Cycle>> = Vec::new();
        if shape != "edge" {
            let replicas = ACCEL_REPLICAS;
            builder = builder.endpoint(ModelEndpoint::new("accel", replicas));
            costs.push(mix.accel_costs.clone());
        }
        if shape != "accel" {
            let replicas = if shape == "edge" {
                EDGE_REPLICAS
            } else {
                HETERO_EDGE_REPLICAS
            };
            builder = builder.endpoint(ModelEndpoint::new("edge", replicas));
            costs.push(mix.edge_costs.clone());
        }
        let config = builder.build().expect("valid fleet config");
        let report =
            run_fleet::<ModelWorker>(&costs, &mix.class_of, &config, FleetRuntime::Sim, None)
                .expect("non-empty fleet trace")
                .sim()
                .expect("sim runtime yields a cycle-domain report");

        let class = |name: &str| {
            let c = report
                .per_class
                .iter()
                .find(|c| c.name == name)
                .expect("class view present");
            FleetClassPoint {
                requests: c.requests,
                dropped: c.dropped,
                p99_ms: c.p99_ms,
                slo_attainment: c.slo_attainment.unwrap_or(0.0),
            }
        };
        let utilization = |name: &str| {
            report
                .per_endpoint
                .iter()
                .find(|e| e.name == name)
                .map(|e| e.utilization(report.makespan_cycles))
        };
        FleetPoint {
            shape,
            interactive_share: FLEET_MIXES[m],
            admission: FLEET_ADMISSIONS[a],
            routing: FLEET_ROUTINGS[d],
            offered_load: load,
            rate_per_s: rate,
            completed: report.completed,
            dropped: report.dropped,
            drop_rate: report.drop_rate(),
            p99_ms: report.p99_ms,
            interactive: class("interactive"),
            analytics: class("analytics"),
            accel_utilization: utilization("accel"),
            edge_utilization: utilization("edge"),
        }
    });

    FleetStudy {
        points,
        requests,
        interactive_slo_ms: mixes.iter().map(|m| m.interactive_slo_ms).collect(),
        analytics_slo_ms: mixes.iter().map(|m| m.analytics_slo_ms).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_the_grid_and_validates() {
        let study = fleet_serving(SampleSize::Quick);
        study.validate().expect("semantic gate");
        assert_eq!(
            study.points.len(),
            FLEET_SHAPES.len()
                * FLEET_MIXES.len()
                * FLEET_ADMISSIONS.len()
                * FLEET_ROUTINGS.len()
                * FLEET_LOADS.len()
        );
    }

    #[test]
    fn sweep_is_repeatable() {
        // Seeds are pure functions of grid indices and par_map preserves
        // input order, so two runs — and runs under any `--jobs` — agree.
        let a = fleet_serving(SampleSize::Quick);
        let b = fleet_serving(SampleSize::Quick);
        assert_eq!(a.points, b.points);
        assert_eq!(a.table().to_csv(), b.table().to_csv());
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn shapes_and_utilization_views_are_consistent() {
        let study = fleet_serving(SampleSize::Quick);
        for p in &study.points {
            match p.shape {
                "accel" => {
                    assert!(p.accel_utilization.is_some(), "{p:?}");
                    assert!(p.edge_utilization.is_none(), "{p:?}");
                }
                "edge" => {
                    assert!(p.accel_utilization.is_none(), "{p:?}");
                    assert!(p.edge_utilization.is_some(), "{p:?}");
                }
                _ => {
                    assert!(
                        p.accel_utilization.is_some() && p.edge_utilization.is_some(),
                        "{p:?}"
                    );
                }
            }
            for u in [p.accel_utilization, p.edge_utilization]
                .into_iter()
                .flatten()
            {
                assert!((0.0..=1.0).contains(&u), "{p:?}: utilization {u}");
            }
        }
    }

    #[test]
    fn json_carries_the_fleet_columns() {
        let study = fleet_serving(SampleSize::Quick);
        let j = study.to_json();
        for key in [
            "\"benchmark\": \"fleet_serving\"",
            "\"shape\": \"hetero\"",
            "\"admission\": \"priority\"",
            "\"routing\": \"cost\"",
            "interactive_slo_ms",
            "\"slo_attainment\"",
            "edge_utilization",
        ] {
            assert!(j.contains(key), "missing {key}");
        }
    }

    #[test]
    fn validate_catches_a_short_grid() {
        let mut study = fleet_serving(SampleSize::Quick);
        study.points.pop();
        assert!(study.validate().is_err(), "short grid must fail the gate");
    }
}
