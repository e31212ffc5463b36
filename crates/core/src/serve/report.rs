//! Request lifecycles, percentile estimation, and the domain-generic
//! [`ServeReport`].
//!
//! Both serving runtimes account requests on a raw `u64` timeline — the
//! simulator in cycles at the 300 MHz simulated clock, the live runtime
//! in nanoseconds since its start instant — and summarise them with the
//! *same* code. [`TimeDomain`] is the only thing that differs: it names
//! the raw unit and converts stamps to milliseconds, so
//! `ServeReport<CycleDomain>` and `ServeReport<WallDomain>` have
//! identical shape, identical percentile math, and directly comparable
//! millisecond tails.

use std::marker::PhantomData;

use flowgnn_desim::{cycles_to_ms, Cycle};

use super::{FleetError, RequestClass};

/// A timeline a serving run is accounted on: the raw `u64` stamps in
/// [`RequestRecord`] and [`ServeReport`] are in this domain's unit, and
/// [`TimeDomain::to_ms`] is the one conversion the summary statistics
/// need.
pub trait TimeDomain {
    /// Human-readable name of the raw timeline unit (`"cycles"`, `"ns"`).
    const UNIT: &'static str;

    /// Converts a raw timeline stamp or span to milliseconds. Must be
    /// non-decreasing: the summaries sort raw spans and convert only the
    /// ranks they report.
    fn to_ms(raw: u64) -> f64;
}

/// The simulated timeline: stamps are cycles at the 300 MHz simulated
/// clock. This is the default domain — every pre-existing `ServeReport`
/// caller is in it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleDomain;

impl TimeDomain for CycleDomain {
    const UNIT: &'static str = "cycles";

    fn to_ms(raw: u64) -> f64 {
        cycles_to_ms(raw)
    }
}

/// The wall-clock timeline: stamps are nanoseconds since the live run's
/// start instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WallDomain;

impl TimeDomain for WallDomain {
    const UNIT: &'static str = "ns";

    fn to_ms(raw: u64) -> f64 {
        raw as f64 / 1e6
    }
}

/// The lifecycle of one request through a serving loop.
///
/// All stamps are raw timeline units of the run's [`TimeDomain`]: cycles
/// in the simulated domain, nanoseconds in the wall-clock domain. The
/// accessor names keep the original `_cycles` suffix — they return raw
/// units in either domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestRecord {
    /// When the request arrived.
    pub arrival: u64,
    /// When service began (equals `arrival` for dropped requests).
    pub start: u64,
    /// When service finished (equals `arrival` for dropped requests).
    pub finish: u64,
    /// Whether the request was rejected by its replica's admission queue.
    pub dropped: bool,
    /// Index of the replica the request was dispatched to (also set for
    /// dropped requests: the replica whose full queue rejected them).
    pub replica: usize,
}

impl RequestRecord {
    /// Raw timeline units spent waiting in the admission queue.
    pub fn wait_cycles(&self) -> Cycle {
        self.start - self.arrival
    }

    /// Raw timeline units spent in service.
    pub fn service_cycles(&self) -> Cycle {
        self.finish - self.start
    }

    /// Total raw timeline units from arrival to completion
    /// (wait + service).
    pub fn sojourn_cycles(&self) -> Cycle {
        self.finish - self.arrival
    }
}

/// Per-replica accounting of one serving run. Spans are raw timeline
/// units of the run's [`TimeDomain`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaStats {
    /// Requests this replica served to completion.
    pub completed: usize,
    /// Raw timeline units this replica spent in service events (busy
    /// time).
    pub busy_cycles: u64,
}

/// Per-request-class accounting of one fleet serving run: the tail and
/// SLO view one tenant class sees, cut from the same records the global
/// summary is computed from. Latency percentiles are over the class's
/// *completed* requests' sojourn milliseconds (nearest-rank, like the
/// global tails); dropped requests count against
/// [`ClassStats::slo_attainment`] but not the percentiles.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassStats {
    /// The request class's name (tenant identifier).
    pub name: String,
    /// The class's admission priority (higher = more important).
    pub priority: u8,
    /// The class's latency objective in milliseconds, if it has one.
    pub slo_ms: Option<f64>,
    /// Requests of this class offered.
    pub requests: usize,
    /// Requests of this class served to completion.
    pub completed: usize,
    /// Requests of this class rejected at admission.
    pub dropped: usize,
    /// Median sojourn latency in milliseconds (completed requests).
    pub p50_ms: f64,
    /// 95th-percentile sojourn latency in milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile sojourn latency in milliseconds.
    pub p99_ms: f64,
    /// Worst-case sojourn latency in milliseconds.
    pub max_ms: f64,
    /// Fraction of *offered* requests that completed within the class
    /// SLO (dropped requests fail it by definition); `None` when the
    /// class carries no SLO.
    pub slo_attainment: Option<f64>,
}

/// Per-endpoint accounting of one fleet serving run: one entry per
/// [`super::fleet::ModelEndpoint`], aggregating that endpoint's replicas.
#[derive(Debug, Clone, PartialEq)]
pub struct EndpointStats {
    /// The endpoint's name (usually its backend name).
    pub name: String,
    /// Replicas this endpoint contributed to the pool.
    pub replicas: usize,
    /// Requests this endpoint's replicas served to completion.
    pub completed: usize,
    /// Raw timeline units this endpoint's replicas spent in service
    /// events, summed across its replicas.
    pub busy_cycles: u64,
}

impl EndpointStats {
    /// The endpoint's pooled utilization: busy time across its replicas
    /// as a fraction of `replicas × makespan` (zero when the makespan or
    /// replica count is zero).
    pub fn utilization(&self, makespan: u64) -> f64 {
        let span = makespan.saturating_mul(self.replicas as u64);
        if span == 0 {
            0.0
        } else {
            self.busy_cycles as f64 / span as f64
        }
    }
}

/// Tail-latency summary of one open-loop serving run, generic over the
/// [`TimeDomain`] the run was accounted in: `ServeReport<CycleDomain>`
/// (the default) summarises a simulated run, `ServeReport<WallDomain>` a
/// live wall-clock run. The millisecond fields are directly comparable
/// across domains; the raw fields ([`ServeReport::makespan_cycles`],
/// [`ServeReport::records`], [`ServeReport::per_replica`]) are in the
/// domain's unit.
///
/// All latency summaries are over *completed* requests' sojourn times
/// (queueing wait plus service); dropped requests contribute only to the
/// drop rate. Percentiles use the nearest-rank convention (see
/// [`percentile_nearest_rank`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport<D: TimeDomain = CycleDomain> {
    /// Requests offered (arrival-trace length).
    pub requests: usize,
    /// Requests served to completion.
    pub completed: usize,
    /// Requests rejected by the admission queues.
    pub dropped: usize,
    /// Median sojourn latency in milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile sojourn latency in milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile sojourn latency in milliseconds.
    pub p99_ms: f64,
    /// Worst-case sojourn latency in milliseconds.
    pub max_ms: f64,
    /// Mean queueing wait in milliseconds (completed requests).
    pub mean_wait_ms: f64,
    /// Mean service time in milliseconds (completed requests).
    pub mean_service_ms: f64,
    /// When the last completed request finished, in raw timeline units of
    /// the report's domain (cycles / nanoseconds).
    pub makespan_cycles: u64,
    /// Per-replica completion counts and busy time, indexed by replica.
    pub per_replica: Vec<ReplicaStats>,
    /// Per-request lifecycle records, in arrival order.
    pub records: Vec<RequestRecord>,
    /// Per-class tails and SLO attainment, one entry per
    /// [`super::fleet::RequestClass`] in registry order.
    pub per_class: Vec<ClassStats>,
    /// Per-endpoint aggregates (completions and utilization inputs),
    /// one entry per [`super::fleet::ModelEndpoint`] in registry order.
    pub per_endpoint: Vec<EndpointStats>,
    _domain: PhantomData<D>,
}

impl<D: TimeDomain> ServeReport<D> {
    /// Fraction of offered requests that were dropped.
    pub fn drop_rate(&self) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        self.dropped as f64 / self.requests as f64
    }

    /// Completed requests per second of the report's timeline over the
    /// makespan (simulated seconds in the cycle domain, wall seconds in
    /// the wall domain).
    pub fn throughput_per_s(&self) -> f64 {
        let ms = D::to_ms(self.makespan_cycles);
        if ms <= 0.0 {
            return 0.0;
        }
        self.completed as f64 / (ms / 1e3)
    }

    /// Each replica's utilization: busy time as a fraction of the
    /// run's makespan. A zero makespan (nothing completed) yields all
    /// zeros rather than dividing by zero — an idle pool is 0% utilised.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::ZeroReplicas`] when the report carries no
    /// per-replica stats at all (there is no pool to describe), instead
    /// of silently yielding an empty vector a caller could mistake for a
    /// zero-utilization answer.
    pub fn replica_utilization(&self) -> Result<Vec<f64>, FleetError> {
        if self.per_replica.is_empty() {
            return Err(FleetError::ZeroReplicas);
        }
        let span = self.makespan_cycles;
        Ok(self
            .per_replica
            .iter()
            .map(|r| {
                if span == 0 {
                    0.0
                } else {
                    r.busy_cycles as f64 / span as f64
                }
            })
            .collect())
    }

    /// Load imbalance across replicas in percent: `(max − mean) / mean`
    /// over per-replica busy time, the busiest replica's excess over a
    /// perfectly even split. This is not Table VII's metric, which is
    /// `(max − min) / total` ([`crate::imbalance_percent`]). Zero for a
    /// single replica or an all-idle pool (mean busy time of zero — the
    /// ratio is undefined, and a pool that did no work is perfectly
    /// balanced by convention).
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::ZeroReplicas`] when the report carries no
    /// per-replica stats at all, instead of a NaN-adjacent silent zero.
    pub fn load_imbalance_percent(&self) -> Result<f64, FleetError> {
        let n = self.per_replica.len();
        if n == 0 {
            return Err(FleetError::ZeroReplicas);
        }
        let busy: Vec<f64> = self
            .per_replica
            .iter()
            .map(|r| r.busy_cycles as f64)
            .collect();
        let mean = busy.iter().sum::<f64>() / n as f64;
        if mean <= 0.0 {
            return Ok(0.0);
        }
        let max = busy.iter().cloned().fold(0.0, f64::max);
        Ok((max - mean) / mean * 100.0)
    }
}

/// Nearest-rank percentile of an ascending-sorted sample: the value at
/// 1-indexed rank `ceil(p/100 × n)` (clamped to `[1, n]`), so `p = 50` on
/// `[1, 2, 3, 4]` is `2` and `p = 100` is the maximum. Exact sample
/// values are always returned — no interpolation.
///
/// # Errors
///
/// Returns [`FleetError::EmptySample`] if `sorted` is empty.
pub fn percentile_nearest_rank(sorted: &[f64], p: f64) -> Result<f64, FleetError> {
    if sorted.is_empty() {
        return Err(FleetError::EmptySample);
    }
    Ok(sorted[nearest_rank(sorted.len(), p)])
}

/// The 0-based index of [`percentile_nearest_rank`]'s rank for `p` in an
/// ascending sample of `n > 0` values.
fn nearest_rank(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// Summarises one serving run's records into a report in domain `D`: the
/// one summary path both runtimes share, so the two domains' statistics
/// cannot drift apart.
pub(crate) fn summarize<D: TimeDomain>(
    records: Vec<RequestRecord>,
    per_replica: Vec<ReplicaStats>,
) -> ServeReport<D> {
    let requests = records.len();
    let completed: Vec<&RequestRecord> = records.iter().filter(|r| !r.dropped).collect();
    let dropped = requests - completed.len();

    let mut sojourns: Vec<u64> = completed.iter().map(|r| r.sojourn_cycles()).collect();
    sojourns.sort_unstable();
    let [p50_ms, p95_ms, p99_ms, max_ms] = tails_ms::<D>(&sojourns);
    let n = completed.len().max(1) as f64;
    let mean_wait_ms = completed
        .iter()
        .map(|r| D::to_ms(r.wait_cycles()))
        .sum::<f64>()
        / n;
    let mean_service_ms = completed
        .iter()
        .map(|r| D::to_ms(r.service_cycles()))
        .sum::<f64>()
        / n;
    let makespan_cycles = completed.iter().map(|r| r.finish).max().unwrap_or(0);

    ServeReport {
        requests,
        completed: completed.len(),
        dropped,
        p50_ms,
        p95_ms,
        p99_ms,
        max_ms,
        mean_wait_ms,
        mean_service_ms,
        makespan_cycles,
        per_replica,
        records,
        per_class: Vec::new(),
        per_endpoint: Vec::new(),
        _domain: PhantomData,
    }
}

/// Nearest-rank p50, p95 and p99 and the maximum of an ascending sample
/// of raw sojourns, in milliseconds; all zero for an empty sample. Only
/// the four selected spans are converted: `to_ms` is non-decreasing, so
/// converting first and sorting after would select the same values.
fn tails_ms<D: TimeDomain>(sorted: &[u64]) -> [f64; 4] {
    let Some(&max) = sorted.last() else {
        return [0.0; 4];
    };
    let pct = |p| D::to_ms(sorted[nearest_rank(sorted.len(), p)]);
    [pct(50.0), pct(95.0), pct(99.0), D::to_ms(max)]
}

/// Cuts per-class tails and SLO attainment from a run's records: the
/// same percentile math as the global summary, restricted to each
/// class's requests. Attainment is over *offered* requests — a dropped
/// request fails its class SLO by definition.
pub(crate) fn class_summaries<D: TimeDomain>(
    records: &[RequestRecord],
    class_of: &[usize],
    classes: &[RequestClass],
) -> Vec<ClassStats> {
    classes
        .iter()
        .enumerate()
        .map(|(c, class)| {
            let mine: Vec<&RequestRecord> = records
                .iter()
                .zip(class_of)
                .filter(|&(_, &cc)| cc == c)
                .map(|(r, _)| r)
                .collect();
            let requests = mine.len();
            let dropped = mine.iter().filter(|r| r.dropped).count();
            let mut sojourns: Vec<u64> = mine
                .iter()
                .filter(|r| !r.dropped)
                .map(|r| r.sojourn_cycles())
                .collect();
            sojourns.sort_unstable();
            let [p50_ms, p95_ms, p99_ms, max_ms] = tails_ms::<D>(&sojourns);
            // The sojourns within the SLO are a prefix of the sorted
            // sample, since `to_ms` is non-decreasing.
            let slo_attainment = class.slo_ms.map(|slo| {
                let within = sojourns.partition_point(|&c| D::to_ms(c) <= slo);
                within as f64 / requests.max(1) as f64
            });
            ClassStats {
                name: class.name.clone(),
                priority: class.priority,
                slo_ms: class.slo_ms,
                requests,
                completed: requests - dropped,
                dropped,
                p50_ms,
                p95_ms,
                p99_ms,
                max_ms,
                slo_attainment,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_exact_on_small_sorted_inputs() {
        let v = [1.0, 2.0, 3.0, 4.0];
        let pct = |p| percentile_nearest_rank(&v, p).unwrap();
        assert_eq!(pct(25.0), 1.0);
        assert_eq!(pct(50.0), 2.0);
        assert_eq!(pct(75.0), 3.0);
        assert_eq!(pct(99.0), 4.0);
        assert_eq!(pct(100.0), 4.0);
        // Ranks clamp at the extremes.
        assert_eq!(pct(0.0), 1.0);
        let one = [7.5];
        for p in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(percentile_nearest_rank(&one, p).unwrap(), 7.5);
        }
    }

    #[test]
    fn percentile_returns_sample_values_only() {
        let v = [0.5, 10.0, 100.0];
        for p in [1.0, 33.0, 50.0, 66.0, 95.0, 99.0] {
            assert!(
                v.contains(&percentile_nearest_rank(&v, p).unwrap()),
                "p={p}"
            );
        }
    }

    #[test]
    fn percentile_rejects_empty() {
        assert_eq!(
            percentile_nearest_rank(&[], 50.0),
            Err(FleetError::EmptySample)
        );
    }

    #[test]
    fn domains_convert_their_raw_units_to_ms() {
        // 300k cycles at 300 MHz is one millisecond.
        assert_eq!(CycleDomain::to_ms(300_000), 1.0);
        assert_eq!(CycleDomain::UNIT, "cycles");
        // 1e6 nanoseconds is one millisecond.
        assert_eq!(WallDomain::to_ms(1_000_000), 1.0);
        assert_eq!(WallDomain::UNIT, "ns");
    }

    /// Reference tails and SLO attainment in `f64`: convert every
    /// sojourn, sort by `total_cmp`, pick ranks, and count SLO hits over
    /// the whole sample.
    fn f64_path<D: TimeDomain>(
        sojourns: &[u64],
        slo_ms: Option<f64>,
        offered: usize,
    ) -> ([u64; 4], Option<u64>) {
        let mut ms: Vec<f64> = sojourns.iter().map(|&c| D::to_ms(c)).collect();
        ms.sort_by(f64::total_cmp);
        let tails = match ms.last() {
            None => [0.0; 4],
            Some(&max) => {
                let n = ms.len();
                let pct = |p: f64| ms[(((p / 100.0) * n as f64).ceil() as usize).clamp(1, n) - 1];
                [pct(50.0), pct(95.0), pct(99.0), max]
            }
        };
        let slo = slo_ms.map(|slo| {
            let within = ms.iter().filter(|&&x| x <= slo).count();
            (within as f64 / offered.max(1) as f64).to_bits()
        });
        (tails.map(f64::to_bits), slo)
    }

    fn check_against_f64_path<D: TimeDomain>(records: &[RequestRecord], class_of: &[usize]) {
        // SLOs on a tied sojourn's exact millisecond value, between
        // values, and none; class 3 draws no requests.
        let classes = [
            RequestClass::new("tied", 2).with_slo_ms(D::to_ms(30_000)),
            RequestClass::new("between", 1).with_slo_ms(0.7),
            RequestClass::new("none", 0),
            RequestClass::new("empty", 0).with_slo_ms(1.0),
        ];
        let sojourns = |keep: &dyn Fn(usize) -> bool| -> Vec<u64> {
            records
                .iter()
                .enumerate()
                .filter(|&(i, r)| !r.dropped && keep(i))
                .map(|(_, r)| r.sojourn_cycles())
                .collect()
        };
        let report: ServeReport<D> = summarize(records.to_vec(), Vec::new());
        let got = [report.p50_ms, report.p95_ms, report.p99_ms, report.max_ms];
        let (want, _) = f64_path::<D>(&sojourns(&|_| true), None, records.len());
        assert_eq!(got.map(f64::to_bits), want, "{}", D::UNIT);
        for (c, stats) in class_summaries::<D>(records, class_of, &classes)
            .iter()
            .enumerate()
        {
            let mine = sojourns(&|i| class_of[i] == c);
            let (want, slo) = f64_path::<D>(&mine, classes[c].slo_ms, stats.requests);
            let got = [stats.p50_ms, stats.p95_ms, stats.p99_ms, stats.max_ms];
            assert_eq!(got.map(f64::to_bits), want, "{} class {c}", D::UNIT);
            assert_eq!(
                stats.slo_attainment.map(f64::to_bits),
                slo,
                "{} class {c}",
                D::UNIT
            );
        }
    }

    #[test]
    fn summaries_match_the_f64_sort_path() {
        // Ties come from a small pool of spans; the spans past 2^53
        // collide once converted to f64.
        let pool = [
            1,
            30_000,
            30_000,
            300_000,
            (1 << 53) + 1,
            1 << 60,
            (1 << 60) + 1,
        ];
        let mut rng = flowgnn_rng::Rng::seed_from_u64(0x5E55);
        for _ in 0..40 {
            let n = rng.gen_range(1usize..300);
            let mut class_of = Vec::with_capacity(n);
            let records: Vec<RequestRecord> = (0..n)
                .map(|_| {
                    class_of.push(rng.gen_range(0usize..3));
                    let arrival = rng.gen_range(0u64..1_000_000);
                    let sojourn = if rng.gen_bool(0.5) {
                        pool[rng.gen_range(0..pool.len())]
                    } else {
                        rng.gen_range(0u64..1_000_000)
                    };
                    let dropped = rng.gen_bool(0.2);
                    RequestRecord {
                        arrival,
                        start: arrival + if dropped { 0 } else { sojourn / 3 },
                        finish: arrival + if dropped { 0 } else { sojourn },
                        dropped,
                        replica: 0,
                    }
                })
                .collect();
            check_against_f64_path::<CycleDomain>(&records, &class_of);
            check_against_f64_path::<WallDomain>(&records, &class_of);
        }
    }

    #[test]
    fn summarize_is_domain_generic_over_the_same_records() {
        let records = vec![
            RequestRecord {
                arrival: 0,
                start: 0,
                finish: 600_000,
                dropped: false,
                replica: 0,
            },
            RequestRecord {
                arrival: 300_000,
                start: 600_000,
                finish: 900_000,
                dropped: false,
                replica: 0,
            },
        ];
        let stats = vec![ReplicaStats {
            completed: 2,
            busy_cycles: 900_000,
        }];
        let sim: ServeReport<CycleDomain> = summarize(records.clone(), stats.clone());
        let live: ServeReport<WallDomain> = summarize(records, stats);
        // Same structure either way...
        assert_eq!(sim.completed, live.completed);
        assert_eq!(sim.makespan_cycles, live.makespan_cycles);
        assert_eq!(sim.records, live.records);
        // ...but milliseconds follow the domain: 600k cycles = 2 ms at
        // 300 MHz, 600k ns = 0.6 ms.
        assert_eq!(sim.p50_ms, 2.0);
        assert_eq!(live.p50_ms, 0.6);
    }
}
