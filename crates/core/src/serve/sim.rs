//! The cycle-domain replica state machine: one accelerator replica's
//! service timeline, waiting room, and accounting.
//!
//! `ReplicaSim` is what the fleet scan ([`super::fleet`], reached
//! through [`super::run_fleet`] with [`super::FleetRuntime::Sim`])
//! advances per replica between arrivals. Routing goes through the shared
//! [`Dispatcher`](super::Dispatcher) and admission through the shared
//! waiting room ([`super::queue`]) — the same code the live wall-clock
//! runtime schedules real OS threads with — and `tests/differential.rs`
//! pins the whole scan bit-identical to independent inline copies of the
//! pre-refactor pool scans.

use flowgnn_desim::Cycle;

use super::queue::WaitingRoom;
use super::report::RequestRecord;

/// One replica's simulation state: when its current service event ends,
/// which requests are waiting, and its running accounting. The
/// [`super::fleet`] cycle-domain scan drives one per replica; each
/// waiting request carries its service time on this replica's endpoint.
#[derive(Default)]
pub(crate) struct ReplicaSim {
    /// Cycle the replica's in-flight service event finishes (busy until
    /// then; idle if `free_at <= now` and the room is empty).
    pub(crate) free_at: Cycle,
    /// Dispatched requests that have not started service.
    pub(crate) room: WaitingRoom,
    pub(crate) busy_cycles: Cycle,
    pub(crate) completed: usize,
}

impl ReplicaSim {
    /// Starts every service event due by `now` (all remaining events when
    /// `None`): whenever the replica comes free with requests waiting, it
    /// serves the oldest one to completion, starting at `max(free_at,
    /// arrival)` — so a request offered to an idle replica starts on
    /// arrival, and a queued one the moment the replica frees.
    pub(crate) fn advance(
        &mut self,
        now: Option<Cycle>,
        replica: usize,
        records: &mut [RequestRecord],
    ) {
        while now.is_none_or(|t| self.free_at <= t) {
            let Some(w) = self.room.pop() else {
                break;
            };
            let start = self.free_at.max(w.arrival);
            let finish = start + w.cost;
            records[w.request] = RequestRecord {
                arrival: w.arrival,
                start,
                finish,
                dropped: false,
                replica,
            };
            self.free_at = finish;
            self.busy_cycles += w.cost;
            self.completed += 1;
        }
    }

    /// The backlog the load-aware dispatch policies observe at `now`:
    /// waiting requests plus one if a service event is in flight.
    pub(crate) fn backlog(&self, now: Cycle) -> usize {
        self.room.len() + usize::from(self.free_at > now)
    }

    /// The work outstanding on this replica at `now`, in cycles: the
    /// remainder of the in-flight service event plus every waiting
    /// request's service time. Cost-based routing adds the candidate
    /// request's own cost to this to estimate its completion time.
    pub(crate) fn pending_work(&self, now: Cycle) -> Cycle {
        self.free_at.saturating_sub(now) + self.room.cost()
    }
}

#[cfg(test)]
mod tests {
    use super::super::{
        run_fleet, ArrivalProcess, DispatchPolicy, FleetConfig, FleetConfigBuilder, FleetError,
        FleetRuntime, ModelWorker, QueuePolicy, ServeReport,
    };
    use super::*;
    use flowgnn_desim::cycles_to_ms;

    /// Replays `service` through the pool `config` on the cycle scan.
    fn scan(service: &[Cycle], config: FleetConfigBuilder) -> Result<ServeReport, FleetError> {
        let config = config.build()?;
        let class_of = vec![0; service.len()];
        let costs = [service.to_vec()];
        run_fleet::<ModelWorker>(&costs, &class_of, &config, FleetRuntime::Sim, None)
            .map(|r| r.sim().expect("sim runtime yields a sim report"))
    }

    /// Shorthand: single replica, explicit arrivals and queue.
    fn single(arrivals: ArrivalProcess, queue: QueuePolicy) -> FleetConfigBuilder {
        FleetConfig::pool(1).arrivals(arrivals).queue(queue)
    }

    #[test]
    fn closed_loop_serves_back_to_back() {
        let report = scan(&[100, 50, 25], FleetConfig::pool(1)).unwrap();
        assert_eq!(report.completed, 3);
        assert_eq!(report.dropped, 0);
        assert_eq!(report.makespan_cycles, 175);
        // Sojourns are the cumulative sums (everyone queued at cycle 0).
        let sojourns: Vec<Cycle> = report.records.iter().map(|r| r.sojourn_cycles()).collect();
        assert_eq!(sojourns, vec![100, 150, 175]);
    }

    #[test]
    fn slow_arrivals_never_wait() {
        let service = [100, 100, 100];
        let config = single(ArrivalProcess::Fixed { gap: 1000 }, QueuePolicy::Bounded(1));
        let report = scan(&service, config).unwrap();
        assert_eq!(report.dropped, 0);
        assert!(report.records.iter().all(|r| r.wait_cycles() == 0));
        assert_eq!(report.mean_wait_ms, 0.0);
        assert!((report.mean_service_ms - cycles_to_ms(100)).abs() < 1e-15);
    }

    #[test]
    fn overload_with_bounded_queue_drops() {
        // Service 10x slower than arrivals, queue of 2: the first request
        // is served immediately, two wait, the rest mostly drop.
        let service = vec![1000u64; 20];
        let config = single(ArrivalProcess::Fixed { gap: 100 }, QueuePolicy::Bounded(2));
        let report = scan(&service, config).unwrap();
        assert!(report.dropped > 0, "overload must drop");
        assert!(report.completed + report.dropped == 20);
        assert!(report.drop_rate() > 0.5, "rate {}", report.drop_rate());
        // Completed requests' waits are bounded by queue depth x service.
        for r in report.records.iter().filter(|r| !r.dropped) {
            assert!(r.wait_cycles() <= 2 * 1000 + 1000);
        }
    }

    #[test]
    fn unbounded_overload_completes_everything_with_growing_waits() {
        let service = vec![1000u64; 50];
        let config = single(ArrivalProcess::Fixed { gap: 100 }, QueuePolicy::Unbounded);
        let report = scan(&service, config).unwrap();
        assert_eq!(report.dropped, 0);
        let first = report.records.first().unwrap().wait_cycles();
        let last = report.records.last().unwrap().wait_cycles();
        assert!(last > first, "queueing delay builds up under overload");
        assert!(report.p99_ms > report.p50_ms);
    }

    #[test]
    fn drops_do_not_pollute_latency_stats() {
        // Capacity 0: first request goes straight to the idle server, the
        // rest arrive at cycle 0 with no waiting room.
        let service = vec![1000u64; 10];
        let config = single(ArrivalProcess::Fixed { gap: 0 }, QueuePolicy::Bounded(0));
        let bounded = scan(&service, config).unwrap();
        assert_eq!(bounded.completed, 1);
        assert_eq!(bounded.dropped, 9);
        assert!((bounded.max_ms - cycles_to_ms(1000)).abs() < 1e-15);
    }

    #[test]
    fn round_robin_pool_splits_requests_in_turn() {
        // Three replicas, everything pending at cycle 0: request i lands
        // on replica i mod 3 regardless of load.
        let report = scan(&[100u64; 9], FleetConfig::pool(3)).unwrap();
        assert_eq!(report.dropped, 0);
        for (i, r) in report.records.iter().enumerate() {
            assert_eq!(r.replica, i % 3, "request {i}");
        }
        // Each replica serves its three requests back-to-back.
        assert_eq!(report.makespan_cycles, 300);
        for stats in &report.per_replica {
            assert_eq!(stats.completed, 3);
            assert_eq!(stats.busy_cycles, 300);
        }
        assert_eq!(report.load_imbalance_percent(), Ok(0.0));
        assert_eq!(report.replica_utilization(), Ok(vec![1.0, 1.0, 1.0]));
    }

    #[test]
    fn jsq_prefers_idle_replicas_and_breaks_ties_low() {
        // Two replicas; requests arrive faster than service. JSQ sends
        // the first to replica 0 (tie, lowest index wins), the second to
        // the idle replica 1, and keeps alternating while both stay
        // equally loaded.
        let service = vec![1000u64; 6];
        let config = || {
            FleetConfig::pool(2)
                .arrivals(ArrivalProcess::Fixed { gap: 100 })
                .policy(DispatchPolicy::JoinShortestQueue)
        };
        let report = scan(&service, config()).unwrap();
        let assigned: Vec<usize> = report.records.iter().map(|r| r.replica).collect();
        assert_eq!(assigned, vec![0, 1, 0, 1, 0, 1]);
        // Determinism: a second run reproduces the assignment exactly.
        assert_eq!(report, scan(&service, config()).unwrap());
    }

    #[test]
    fn jsq_routes_around_a_long_job() {
        // Replica 0 gets stuck on one huge request; JSQ steers the
        // following short requests to replica 1 until backlogs even out.
        let config = FleetConfig::pool(2)
            .arrivals(ArrivalProcess::Fixed { gap: 200 })
            .policy(DispatchPolicy::JoinShortestQueue);
        let report = scan(&[10_000, 100, 100, 100], config).unwrap();
        let assigned: Vec<usize> = report.records.iter().map(|r| r.replica).collect();
        assert_eq!(assigned[0], 0, "first request ties to replica 0");
        // Replica 0 is busy with the long job at every later arrival, so
        // the idle replica 1 wins each time.
        assert_eq!(&assigned[1..], &[1, 1, 1]);
        assert!(report.records[1..].iter().all(|r| r.wait_cycles() == 0));
    }

    #[test]
    fn power_of_two_is_seed_deterministic() {
        let service = vec![500u64; 40];
        let run = |seed| {
            let config = FleetConfig::pool(4)
                .arrivals(ArrivalProcess::Fixed { gap: 100 })
                .policy(DispatchPolicy::PowerOfTwoChoices { seed });
            scan(&service, config).unwrap()
        };
        let (a, b, c) = (run(9), run(9), run(10));
        assert_eq!(a, b, "same seed, same assignment sequence");
        let seq = |r: &ServeReport| r.records.iter().map(|x| x.replica).collect::<Vec<_>>();
        assert_ne!(seq(&a), seq(&c), "different seeds explore differently");
        assert!(seq(&a).iter().all(|&r| r < 4), "assignments in range");
    }

    #[test]
    fn pool_beats_single_server_on_tail() {
        // Same offered trace, 4x the servers: waits can only shrink.
        let service = vec![1000u64; 40];
        let arrivals = ArrivalProcess::Fixed { gap: 300 };
        let one = scan(&service, single(arrivals, QueuePolicy::Unbounded)).unwrap();
        let four = FleetConfig::pool(4)
            .arrivals(arrivals)
            .policy(DispatchPolicy::JoinShortestQueue);
        let four = scan(&service, four).unwrap();
        assert!(four.p99_ms < one.p99_ms);
        assert!(four.mean_wait_ms < one.mean_wait_ms);
        assert_eq!(four.per_replica.len(), 4);
    }

    #[test]
    fn scan_rejects_empty_trace_and_malformed_pools() {
        assert_eq!(scan(&[], FleetConfig::pool(1)), Err(FleetError::EmptyTrace));
        assert_eq!(
            scan(&[10], FleetConfig::pool(0)),
            Err(FleetError::EndpointZeroReplicas { endpoint: 0 })
        );
    }
}
