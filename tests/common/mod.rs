//! Independent reference scans of the replica-pool queueing model, shared
//! by the differential and property suites.
//!
//! These are inline copies of the serving loops as they stood before the
//! pool, split, and fleet refactors, kept deliberately separate from the
//! library: the fleet scan (`run_fleet` with `FleetRuntime::Sim`) must
//! reproduce them bit for bit on the degenerate one-endpoint, one-class
//! fleet that `FleetConfig::pool` builds.

use std::collections::VecDeque;

use flowgnn::prelude::*;
use flowgnn_rng::Rng;

/// Per-request record: (arrival, start, finish, dropped, replica).
pub type OldRecord = (u64, u64, u64, bool, usize);

/// Runs a fleet trace on the cycle-domain scan.
pub fn run_sim(costs: &[Vec<u64>], class_of: &[usize], config: &FleetConfig) -> ServeReport {
    run_fleet::<ModelWorker>(costs, class_of, config, FleetRuntime::Sim, None)
        .expect("valid fleet run")
        .sim()
        .expect("sim runtime yields a cycle-domain report")
}

/// Replays `service` through the plain pool `config` on the fleet scan.
pub fn run_pool(service: &[u64], config: &FleetConfig) -> ServeReport {
    run_sim(&[service.to_vec()], &vec![0; service.len()], config)
}

/// The queue capacity a policy stands for (`usize::MAX` when unbounded).
pub fn capacity(queue: QueuePolicy) -> usize {
    match queue {
        QueuePolicy::Unbounded => usize::MAX,
        QueuePolicy::Bounded(c) => c,
    }
}

/// Asserts `report` carries exactly the reference scan's records, the
/// completion count and makespan they imply, and per-replica
/// `(completed, busy)` accounting.
pub fn assert_matches(
    report: &ServeReport,
    records: &[OldRecord],
    stats: &[(usize, u64)],
    what: &str,
) {
    assert_eq!(report.records.len(), records.len(), "{what}: count");
    for (i, (rec, old)) in report.records.iter().zip(records).enumerate() {
        assert_eq!(
            (rec.arrival, rec.start, rec.finish, rec.dropped, rec.replica),
            *old,
            "{what}[{i}]"
        );
    }
    let served = || records.iter().filter(|r| !r.3);
    assert_eq!(report.completed, served().count(), "{what}: completed");
    let makespan = served().map(|r| r.2).max().unwrap_or(0);
    assert_eq!(report.makespan_cycles, makespan, "{what}: makespan");
    assert_eq!(report.per_replica.len(), stats.len(), "{what}: replicas");
    for (r, (stat, &(completed, busy))) in report.per_replica.iter().zip(stats).enumerate() {
        assert_eq!(stat.completed, completed, "{what} r={r}: completed");
        assert_eq!(stat.busy_cycles, busy, "{what} r={r}: busy");
    }
}

/// The pre-pool single-server scan, verbatim semantics: one server,
/// FIFO, queue capacity counts only waiting (not in-service) requests.
/// Records are (arrival, start, finish, dropped).
pub fn old_scan(service: &[u64], arrivals: &[u64], capacity: usize) -> Vec<(u64, u64, u64, bool)> {
    let mut records = Vec::with_capacity(service.len());
    let mut server_free: u64 = 0;
    let mut waiting: VecDeque<u64> = VecDeque::new();
    for (&arrival, &dur) in arrivals.iter().zip(service) {
        while let Some(&front) = waiting.front() {
            if front <= arrival {
                waiting.pop_front();
            } else {
                break;
            }
        }
        let start = server_free.max(arrival);
        if start > arrival && waiting.len() >= capacity {
            records.push((arrival, arrival, arrival, true));
            continue;
        }
        if start > arrival {
            waiting.push_back(start);
        }
        records.push((arrival, start, start + dur, false));
        server_free = start + dur;
    }
    records
}

struct OldRep {
    free_at: u64,
    waiting: VecDeque<usize>,
    busy_cycles: u64,
    completed: usize,
}

impl OldRep {
    fn advance(
        &mut self,
        now: Option<u64>,
        replica: usize,
        arrivals: &[u64],
        service: &[u64],
        records: &mut [OldRecord],
    ) {
        while !self.waiting.is_empty() && now.is_none_or(|t| self.free_at <= t) {
            let start = self.free_at;
            let i = self.waiting.pop_front().unwrap();
            let finish = start + service[i];
            records[i] = (arrivals[i], start, finish, false, replica);
            self.free_at = finish;
            self.busy_cycles += service[i];
            self.completed += 1;
        }
    }

    fn backlog(&self, now: u64) -> usize {
        self.waiting.len() + usize::from(self.free_at > now)
    }

    /// Cycles of work left at `now`: the in-flight remainder plus every
    /// waiting request's service time.
    fn work_left(&self, now: u64, service: &[u64]) -> u64 {
        self.free_at.saturating_sub(now) + self.waiting.iter().map(|&j| service[j]).sum::<u64>()
    }
}

/// The pre-split replica-pool scan, verbatim semantics — dispatch
/// tie-breaks, p2c's two-draws-per-request RNG discipline, and
/// bounded-admission drops included — plus the
/// least-work-left rule cost-based routing reduces to on a homogeneous
/// pool. Returns the records and per-replica `(completed, busy)`.
pub fn old_pool_scan(
    service: &[u64],
    arrivals: &[u64],
    capacity: usize,
    replicas: usize,
    policy: DispatchPolicy,
) -> (Vec<OldRecord>, Vec<(usize, u64)>) {
    let mut pool: Vec<OldRep> = (0..replicas)
        .map(|_| OldRep {
            free_at: 0,
            waiting: VecDeque::new(),
            busy_cycles: 0,
            completed: 0,
        })
        .collect();
    let mut rng = match policy {
        DispatchPolicy::PowerOfTwoChoices { seed } => Some(Rng::seed_from_u64(seed)),
        _ => None,
    };
    let mut records = vec![(0, 0, 0, true, 0); service.len()];
    for (i, &arrival) in arrivals.iter().enumerate() {
        for (r, rep) in pool.iter_mut().enumerate() {
            rep.advance(Some(arrival), r, arrivals, service, &mut records);
        }
        let target = match policy {
            DispatchPolicy::RoundRobin => i % replicas,
            DispatchPolicy::JoinShortestQueue => pool
                .iter()
                .enumerate()
                .min_by_key(|(_, rep)| rep.backlog(arrival))
                .map(|(r, _)| r)
                .unwrap(),
            DispatchPolicy::CostBased => pool
                .iter()
                .enumerate()
                .min_by_key(|(_, rep)| rep.work_left(arrival, service))
                .map(|(r, _)| r)
                .unwrap(),
            DispatchPolicy::PowerOfTwoChoices { .. } => {
                let rng = rng.as_mut().unwrap();
                let a = rng.bounded_u64(replicas as u64) as usize;
                let b = rng.bounded_u64(replicas as u64) as usize;
                let (lo, hi) = (a.min(b), a.max(b));
                if pool[hi].backlog(arrival) < pool[lo].backlog(arrival) {
                    hi
                } else {
                    lo
                }
            }
        };
        let rep = &mut pool[target];
        if rep.free_at <= arrival {
            // Idle: serve on arrival.
            records[i] = (arrival, arrival, arrival + service[i], false, target);
            rep.free_at = arrival + service[i];
            rep.busy_cycles += service[i];
            rep.completed += 1;
        } else if rep.waiting.len() >= capacity {
            records[i] = (arrival, arrival, arrival, true, target);
        } else {
            rep.waiting.push_back(i);
        }
    }
    for (r, rep) in pool.iter_mut().enumerate() {
        rep.advance(None, r, arrivals, service, &mut records);
    }
    let stats = pool.iter().map(|r| (r.completed, r.busy_cycles)).collect();
    (records, stats)
}
