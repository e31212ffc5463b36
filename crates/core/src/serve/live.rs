//! The live wall-clock serving runtime: real OS threads, real queues,
//! real time.
//!
//! Where the cycle-domain scan *models* a replica pool, the live runtime
//! ([`super::run_fleet`] with [`super::FleetRuntime::Live`]) *is* one:
//! `R` OS threads each own a [`LiveWorker`] (for the cycle engine, an
//! accelerator clone plus its scratch), the calling thread runs an
//! open-loop load generator pacing the same
//! [`ArrivalProcess`](super::ArrivalProcess) schedules in wall time
//! ([`ArrivalProcess::wall_schedule`](super::ArrivalProcess::wall_schedule)),
//! and the same [`Dispatcher`](super::dispatch::Dispatcher) that routes
//! the simulator's requests routes these — reading backlogs from each
//! replica's admission shard atomically instead of from simulated state.
//! The result is a [`ServeReport`](super::ServeReport)`<`[`WallDomain`](super::WallDomain)`>`:
//! identical shape and statistics to the simulated report, timeline
//! stamped in nanoseconds instead of cycles, so simulated and measured
//! tails sit side by side (`repro live`).
//!
//! Thread/ownership shape (see DESIGN.md §3g for the full diagram):
//!
//! ```text
//! caller thread                    worker thread r (one per replica)
//! ─────────────                    ─────────────────────────────────
//! wall_schedule pacing      ┌────▶ shard[r].take()
//! dispatcher.route(i, ...)  │        worker.process(i)
//! shard[target].offer ──────┘        shard[r].finish_service()
//!   (full → drop record)             (records kept thread-local,
//! ... last arrival ...                merged after join)
//! shard[*].close → join all
//! ```
//!
//! Determinism note: the *request stream* (schedule, indices) is fully
//! pinned by the arrival process's seed — identical to the simulated
//! run's, by construction. Routing, queueing, and every timestamp are
//! real: they depend on scheduler noise and machine load, so wall-clock
//! numbers vary run to run and gates over them must be structural
//! (counts, bounds, monotonicity at saturation), never exact values.

use std::time::{Duration, Instant};

/// One live replica's request processor: the real work a replica thread
/// performs per admitted request. Implementors own whatever state the
/// work needs (an engine clone, scratch buffers, a latency table) —
/// each worker is moved onto its own OS thread, hence `Send`.
pub trait LiveWorker: Send {
    /// Processes request number `request` (its position in arrival
    /// order), blocking until the work is done. Called from the replica's
    /// thread only, one request per service event: the worker stamps the
    /// request's start just before this call and its finish just after.
    fn process(&mut self, request: usize);
}

impl<W: LiveWorker + ?Sized> LiveWorker for Box<W> {
    fn process(&mut self, request: usize) {
        (**self).process(request)
    }
}

/// A [`LiveWorker`] for platforms whose timing is an analytic model
/// rather than an executable engine: it occupies its replica thread for
/// the modeled per-request latency (busy-spinning, so short latencies
/// are honoured more precisely than a sleep could). This is what the
/// default [`InferenceBackend::live_worker`](crate::InferenceBackend::live_worker)
/// builds from per-graph `latency_ms` for
/// [`Runtime::Live`](super::Runtime::Live).
pub struct ModelWorker {
    durations: Vec<Duration>,
}

impl ModelWorker {
    /// A worker that spends `durations[request % len]` of wall time per
    /// request.
    ///
    /// # Panics
    ///
    /// Panics if `durations` is empty.
    pub fn new(durations: Vec<Duration>) -> Self {
        assert!(
            !durations.is_empty(),
            "a model worker needs at least one request duration"
        );
        Self { durations }
    }
}

impl LiveWorker for ModelWorker {
    fn process(&mut self, request: usize) {
        spin_for(self.durations[request % self.durations.len()]);
    }
}

/// Occupies the calling thread for `d` of wall time by spinning.
fn spin_for(d: Duration) {
    let end = Instant::now() + d;
    while Instant::now() < end {
        std::hint::spin_loop();
    }
}

/// Sleeps (coarsely) then spins (precisely) until `t0 + offset`: the
/// load generator's pacing primitive. Sleeping all the way would miss
/// short deadlines by scheduler quanta; spinning all the way would burn
/// a core across long idle gaps.
pub(crate) fn pace_until(t0: Instant, offset: Duration) {
    let deadline = t0 + offset;
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let remaining = deadline - now;
        if remaining > Duration::from_micros(200) {
            std::thread::sleep(remaining - Duration::from_micros(100));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Nanoseconds since `t0`, the live run's raw timeline.
pub(crate) fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::super::{
        run_fleet, ArrivalProcess, DispatchPolicy, FleetConfig, FleetConfigBuilder, FleetError,
        FleetRuntime, QueuePolicy, ServeReport, WallDomain,
    };
    use super::*;

    fn short_workers(n: usize, us: u64) -> Vec<ModelWorker> {
        (0..n)
            .map(|_| ModelWorker::new(vec![Duration::from_micros(us)]))
            .collect()
    }

    /// Serves `requests` requests through the live pool `config`, with
    /// unit cost rows (cost-based routing then observes plain backlogs).
    fn live<W: LiveWorker>(
        workers: Vec<W>,
        requests: usize,
        config: FleetConfigBuilder,
    ) -> Result<ServeReport<WallDomain>, FleetError> {
        let config = config.build()?;
        let costs = [vec![1; requests]];
        let class_of = vec![0; requests];
        run_fleet(
            &costs,
            &class_of,
            &config,
            FleetRuntime::Live(workers),
            None,
        )
        .map(|r| r.live().expect("live runtime yields a wall report"))
    }

    #[test]
    fn closed_loop_live_run_completes_everything() {
        let n = 24;
        let report = live(short_workers(2, 30), n, FleetConfig::pool(2)).unwrap();
        assert_eq!(report.requests, n);
        assert_eq!(report.completed, n);
        assert_eq!(report.dropped, 0);
        assert_eq!(report.per_replica.len(), 2);
        let served: usize = report.per_replica.iter().map(|r| r.completed).sum();
        assert_eq!(served, n);
        // Real stamps: ordered per request, makespan covers the work.
        for r in &report.records {
            assert!(r.start >= r.arrival);
            assert!(r.finish >= r.start);
            assert!(r.replica < 2);
        }
        assert!(report.makespan_cycles > 0, "nanosecond timeline advanced");
        assert!(report.p99_ms >= report.p50_ms);
        // Two replicas spinning 30 us per request: each must serve some
        // of a 24-request closed-loop backlog.
        for stats in &report.per_replica {
            assert!(stats.completed > 0, "both replicas pulled work");
        }
    }

    #[test]
    fn live_respects_queue_bounds_and_accounts_drops() {
        // One slow replica (20 ms), zero waiting room, every request
        // pending at t0: the first is admitted via the idle fast path,
        // the rest find the replica busy with no queue and drop. The
        // generator can only out-pace the worker while it spins, so the
        // assertion is structural (admissions are rare, drops dominate)
        // rather than an exact count — the OS may deschedule either
        // thread between offers.
        let workers = vec![ModelWorker::new(vec![Duration::from_millis(20)])];
        let config = FleetConfig::pool(1).queue(QueuePolicy::Bounded(0));
        let report = live(workers, 10, config).unwrap();
        assert!(report.completed >= 1, "idle fast path admits the first");
        assert!(report.dropped >= 5, "a busy zero-capacity replica drops");
        assert_eq!(report.completed + report.dropped, 10);
        for r in report.records.iter().filter(|r| r.dropped) {
            assert_eq!(r.start, r.arrival);
            assert_eq!(r.finish, r.arrival);
        }
    }

    #[test]
    fn live_rejects_malformed_configurations() {
        assert_eq!(
            live(short_workers(1, 1), 0, FleetConfig::pool(1)).unwrap_err(),
            FleetError::EmptyTrace
        );
        assert_eq!(
            live(short_workers(3, 1), 5, FleetConfig::pool(1)).unwrap_err(),
            FleetError::WorkerMismatch {
                workers: 3,
                replicas: 1
            }
        );
        assert_eq!(
            live(Vec::<ModelWorker>::new(), 5, FleetConfig::pool(0)).unwrap_err(),
            FleetError::EndpointZeroReplicas { endpoint: 0 }
        );
    }

    #[test]
    fn live_policies_schedule_across_real_threads() {
        // Saturating load on 2 replicas: every policy must use both.
        for policy in [
            DispatchPolicy::RoundRobin,
            DispatchPolicy::JoinShortestQueue,
            DispatchPolicy::PowerOfTwoChoices { seed: 5 },
        ] {
            let config = FleetConfig::pool(2).policy(policy);
            let report = live(short_workers(2, 100), 30, config).unwrap();
            assert_eq!(report.completed, 30, "{policy:?}");
            for (r, stats) in report.per_replica.iter().enumerate() {
                assert!(stats.completed > 0, "{policy:?} used both replicas");
                // One request per service event: a replica's services,
                // in start order, never overlap on the monotonic clock.
                let mut served: Vec<_> = report
                    .records
                    .iter()
                    .filter(|x| x.replica == r && !x.dropped)
                    .collect();
                served.sort_by_key(|x| x.start);
                for pair in served.windows(2) {
                    assert!(pair[1].start >= pair[0].finish, "{policy:?} replica {r}");
                }
                assert_eq!(stats.completed, served.len(), "{policy:?} replica {r}");
            }
        }
    }

    #[test]
    fn live_paced_arrivals_follow_the_wall_schedule() {
        // 600 us gaps (180k cycles at 300 MHz), 60 us service: arrivals
        // must be spaced out in the records, and nobody should queue.
        let config = FleetConfig::pool(1).arrivals(ArrivalProcess::Fixed { gap: 180_000 });
        let report = live(short_workers(1, 60), 6, config).unwrap();
        assert_eq!(report.dropped, 0);
        for (k, r) in report.records.iter().enumerate() {
            let scheduled_ns = k as u64 * 600_000;
            assert!(
                r.arrival >= scheduled_ns,
                "request {k} arrived at {} before its offset {scheduled_ns}",
                r.arrival
            );
        }
        // Paced arrivals with service << gap: waits are (near) zero. Use
        // a generous structural bound — this is wall time.
        assert!(report.mean_wait_ms < 10.0);
    }

    #[test]
    fn boxed_workers_are_workers_too() {
        let workers: Vec<Box<dyn LiveWorker>> = vec![
            Box::new(ModelWorker::new(vec![Duration::from_micros(10)])),
            Box::new(ModelWorker::new(vec![Duration::from_micros(10)])),
        ];
        let report = live(workers, 8, FleetConfig::pool(2)).unwrap();
        assert_eq!(report.completed, 8);
    }
}
