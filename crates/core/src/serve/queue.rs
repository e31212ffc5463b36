//! Bounded admission queues, priority admission, and drop accounting.
//!
//! Both serving domains admit requests through the same policy: a
//! replica's queue holds requests that have been dispatched to it but
//! have not started service, and a request dispatched to a replica whose
//! queue is full is handled by the [`AdmissionPolicy`] — dropped outright
//! under [`AdmissionPolicy::Fifo`], or traded against the lowest-priority
//! waiting request under [`AdmissionPolicy::Priority`]. [`QueuePolicy`]
//! states the bound. Both apply through one crate-private `WaitingRoom`
//! per replica: the simulator's `ReplicaSim` holds one, and so does each
//! replica's `AdmissionShard` in the live runtime, the mutex-sharded MPSC
//! queue the load-generator thread feeds and the replica's OS thread
//! drains.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// Admission-queue bound, applied *per replica*. The queue holds requests
/// that have been dispatched to the replica but have not yet started
/// service (requests *in* service occupy the replica, not its queue). A
/// request dispatched to a replica whose queue is full is resolved by the
/// run's [`AdmissionPolicy`]; a dropped request is rejected at arrival,
/// never served, never redispatched, and counted in the drop rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueuePolicy {
    /// No bound: every request is eventually served.
    Unbounded,
    /// At most this many requests may wait per replica; arrivals beyond
    /// that are dropped.
    Bounded(usize),
}

impl QueuePolicy {
    /// The effective waiting-room bound this policy imposes
    /// ([`usize::MAX`] for [`QueuePolicy::Unbounded`]).
    pub fn capacity(self) -> usize {
        match self {
            QueuePolicy::Unbounded => usize::MAX,
            QueuePolicy::Bounded(c) => c,
        }
    }
}

/// What happens when a request is dispatched to a replica whose bounded
/// waiting room is full. Service order is FIFO under either policy —
/// priority decides *who is dropped* under overload, never who jumps the
/// queue — so [`AdmissionPolicy::Fifo`] fleets reproduce the plain
/// replica-pool scan bit for bit, and under
/// [`AdmissionPolicy::Priority`] a waiting request can only ever be
/// displaced by a *strictly higher-priority* arrival (no class is starved
/// by its peers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// The arriving request is dropped, whatever its priority: the queue
    /// serves strictly in arrival order and full means full.
    #[default]
    Fifo,
    /// The arriving request displaces the lowest-priority waiting request
    /// if — and only if — that request's priority is *strictly lower*
    /// than the arrival's (ties favour the incumbent, and the most
    /// recently arrived of the lowest-priority entries is the victim:
    /// it has invested the least waiting time). The victim is recorded
    /// dropped at its own arrival time; if no strictly-lower-priority
    /// victim exists the arrival itself is dropped, exactly as under
    /// [`AdmissionPolicy::Fifo`].
    Priority,
}

/// The waiting request a full-queue arrival displaces under `policy`,
/// given the waiting requests' priorities in queue order and the
/// arrival's: the position of the rightmost lowest-priority request (the
/// least-invested of the most-droppable) if that priority is strictly
/// below the arrival's, and `None` — drop the arrival — otherwise and
/// always under [`AdmissionPolicy::Fifo`]. Both runtimes resolve a full
/// queue through this one rule.
pub(crate) fn displacement_victim(
    policy: AdmissionPolicy,
    waiting: impl IntoIterator<Item = u8>,
    arrival: u8,
) -> Option<usize> {
    if policy == AdmissionPolicy::Fifo {
        return None;
    }
    waiting
        .into_iter()
        .enumerate()
        .fold(None, |best: Option<(usize, u8)>, (pos, p)| match best {
            Some((_, bp)) if p > bp => best,
            _ => Some((pos, p)),
        })
        .filter(|&(_, p)| p < arrival)
        .map(|(pos, _)| pos)
}

/// How one offer was resolved under an [`AdmissionPolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OfferOutcome {
    /// The request was admitted (room available, or the idle fast path).
    Admitted,
    /// The queue was full and the request was dropped.
    Rejected,
    /// The request was admitted by displacing a strictly-lower-priority
    /// waiting request, which must now be recorded dropped at its own
    /// arrival time.
    Displaced {
        /// The displaced request's index.
        request: usize,
        /// The displaced request's arrival stamp.
        arrival: u64,
    },
}

/// One waiting request: its index, its arrival stamp on the run's
/// timeline, its class priority, and its estimated cost on the replica
/// (in the cycle domain, its exact service time).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Waiting {
    pub(crate) request: usize,
    pub(crate) arrival: u64,
    pub(crate) priority: u8,
    pub(crate) cost: u64,
}

/// One replica's waiting room in either runtime: the FIFO of dispatched
/// requests that have not started service, the running sum of their
/// costs, and [`WaitingRoom::offer`], the one implementation of the
/// admission rule.
#[derive(Debug, Default)]
pub(crate) struct WaitingRoom {
    queue: VecDeque<Waiting>,
    cost: u64,
}

impl WaitingRoom {
    /// Offers `entry` to a replica that is `busy` (a service event in
    /// flight) or not. Capacity bounds *waiting* requests, so an idle
    /// replica — nothing waiting, nothing in service — admits even at
    /// capacity zero: the request will start at once. A full room is
    /// resolved per `policy` through [`displacement_victim`].
    pub(crate) fn offer(
        &mut self,
        entry: Waiting,
        busy: bool,
        capacity: usize,
        policy: AdmissionPolicy,
    ) -> OfferOutcome {
        let mut outcome = OfferOutcome::Admitted;
        if self.queue.len() >= capacity && (busy || !self.queue.is_empty()) {
            let priorities = self.queue.iter().map(|w| w.priority);
            let Some(pos) = displacement_victim(policy, priorities, entry.priority) else {
                return OfferOutcome::Rejected;
            };
            let victim = self.queue.remove(pos).expect("victim position in range");
            self.cost -= victim.cost;
            outcome = OfferOutcome::Displaced {
                request: victim.request,
                arrival: victim.arrival,
            };
        }
        self.cost += entry.cost;
        self.queue.push_back(entry);
        outcome
    }

    /// Takes the oldest waiting request out of the room.
    pub(crate) fn pop(&mut self) -> Option<Waiting> {
        let w = self.queue.pop_front()?;
        self.cost -= w.cost;
        Some(w)
    }

    /// Requests waiting.
    pub(crate) fn len(&self) -> usize {
        self.queue.len()
    }

    /// The waiting requests' summed cost, kept in step with every offer,
    /// displacement and pop, so reading it is O(1).
    pub(crate) fn cost(&self) -> u64 {
        debug_assert_eq!(
            self.cost,
            self.queue.iter().map(|w| w.cost).sum::<u64>(),
            "running cost sum out of step with the waiting room"
        );
        self.cost
    }
}

/// One replica's admission queue in the live runtime: a bounded MPSC
/// channel from the load-generator thread to the replica's worker thread.
///
/// The shard is a [`WaitingRoom`] behind a `Mutex`, plus a `Condvar` the
/// worker parks on. Three atomics mirror it so the dispatcher and the
/// depth gauges read every shard without taking a lock: the *backlog* —
/// waiting requests plus one if a service event is in flight, the same
/// quantity [`super::sim`]'s load-aware policies observe — the waiting
/// count alone, and, for cost-based routing, the *pending cost*: the
/// waiting requests' estimated costs plus the in-flight event's.
pub(crate) struct AdmissionShard {
    state: Mutex<ShardState>,
    available: Condvar,
    backlog: AtomicUsize,
    waiting: AtomicUsize,
    pending_cost: AtomicU64,
}

struct ShardState {
    /// Dispatched requests not yet in service.
    room: WaitingRoom,
    /// The estimated cost of the in-flight service event, if one is.
    in_service: Option<u64>,
    /// Set once the generator has offered its last request.
    closed: bool,
}

impl AdmissionShard {
    pub(crate) fn new() -> Self {
        Self {
            state: Mutex::new(ShardState {
                room: WaitingRoom::default(),
                in_service: None,
                closed: false,
            }),
            available: Condvar::new(),
            backlog: AtomicUsize::new(0),
            waiting: AtomicUsize::new(0),
            pending_cost: AtomicU64::new(0),
        }
    }

    /// The backlog the dispatch policies observe, read without locking.
    pub(crate) fn backlog(&self) -> usize {
        self.backlog.load(Ordering::Acquire)
    }

    /// Requests waiting, not counting one in service, read without
    /// locking.
    pub(crate) fn waiting(&self) -> usize {
        self.waiting.load(Ordering::Acquire)
    }

    /// The estimated outstanding cost cost-based routing observes:
    /// waiting requests' costs plus the in-flight event's, read without
    /// locking.
    pub(crate) fn pending_cost(&self) -> u64 {
        self.pending_cost.load(Ordering::Acquire)
    }

    /// Offers one request to the shard's waiting room (see
    /// [`WaitingRoom::offer`]).
    pub(crate) fn offer(
        &self,
        entry: Waiting,
        capacity: usize,
        policy: AdmissionPolicy,
    ) -> OfferOutcome {
        let mut s = self.state.lock().expect("admission shard poisoned");
        let busy = s.in_service.is_some();
        let outcome = s.room.offer(entry, busy, capacity, policy);
        if outcome == OfferOutcome::Rejected {
            return outcome;
        }
        self.publish(&s);
        drop(s);
        self.available.notify_one();
        outcome
    }

    /// Parks until work arrives or the shard closes, then takes the
    /// oldest waiting request into service (marking the shard
    /// in-service) and returns its index and arrival stamp. Returns
    /// `None` when the shard is closed and drained — the worker's signal
    /// to exit.
    pub(crate) fn take(&self) -> Option<(usize, u64)> {
        let mut s = self.state.lock().expect("admission shard poisoned");
        loop {
            if let Some(w) = s.room.pop() {
                s.in_service = Some(w.cost);
                self.publish(&s);
                return Some((w.request, w.arrival));
            }
            if s.closed {
                return None;
            }
            s = self.available.wait(s).expect("admission shard poisoned");
        }
    }

    /// Marks the current service event finished (backlog drops by one).
    pub(crate) fn finish_service(&self) {
        let mut s = self.state.lock().expect("admission shard poisoned");
        s.in_service = None;
        self.publish(&s);
    }

    /// Closes the shard: no more offers will come; the worker drains what
    /// is queued and exits.
    pub(crate) fn close(&self) {
        let mut s = self.state.lock().expect("admission shard poisoned");
        s.closed = true;
        drop(s);
        self.available.notify_all();
    }

    fn publish(&self, s: &ShardState) {
        let waiting = s.room.len();
        self.waiting.store(waiting, Ordering::Release);
        self.backlog.store(
            waiting + usize::from(s.in_service.is_some()),
            Ordering::Release,
        );
        self.pending_cost
            .store(s.room.cost() + s.in_service.unwrap_or(0), Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A priority-0, cost-0 request.
    fn plain(request: usize, arrival: u64) -> Waiting {
        Waiting {
            request,
            arrival,
            priority: 0,
            cost: 0,
        }
    }

    /// Whether the shard admits `request`, arriving at `arrival`, under
    /// FIFO admission.
    fn fifo(shard: &AdmissionShard, request: usize, arrival: u64, capacity: usize) -> bool {
        let outcome = shard.offer(plain(request, arrival), capacity, AdmissionPolicy::Fifo);
        outcome == OfferOutcome::Admitted
    }

    /// Offers `request`, arriving at cycle `request`, with `priority` to
    /// a capacity-2 room under priority admission.
    fn prioritized(shard: &AdmissionShard, request: usize, priority: u8) -> OfferOutcome {
        let entry = Waiting {
            priority,
            ..plain(request, request as u64)
        };
        shard.offer(entry, 2, AdmissionPolicy::Priority)
    }

    #[test]
    fn capacity_maps_policies() {
        assert_eq!(QueuePolicy::Unbounded.capacity(), usize::MAX);
        assert_eq!(QueuePolicy::Bounded(3).capacity(), 3);
        assert_eq!(QueuePolicy::Bounded(0).capacity(), 0);
    }

    #[test]
    fn shard_bounds_waiting_but_admits_to_an_idle_replica() {
        let shard = AdmissionShard::new();
        // Idle replica, capacity 0: the idle fast path admits.
        assert!(fifo(&shard, 0, 10, 0));
        assert_eq!((shard.backlog(), shard.waiting()), (1, 1));
        // Someone is now waiting: capacity 0 has no room.
        assert!(!fifo(&shard, 1, 20, 0));

        assert_eq!(shard.take(), Some((0, 10)));
        assert_eq!(shard.backlog(), 1, "in-flight event counts");
        assert_eq!(shard.waiting(), 0, "but does not wait");
        // In service with an empty queue: still not idle, still full.
        assert!(!fifo(&shard, 2, 30, 0));
        shard.finish_service();
        assert_eq!(shard.backlog(), 0);
        assert!(fifo(&shard, 3, 40, 0));
    }

    #[test]
    fn take_drains_fifo_one_at_a_time() {
        let shard = AdmissionShard::new();
        for i in 0..5 {
            assert!(fifo(&shard, i, i as u64, 64));
        }
        assert_eq!(shard.backlog(), 5);
        for i in 0..5 {
            assert_eq!(shard.take(), Some((i, i as u64)));
            assert_eq!(shard.backlog(), 5 - i, "{} waiting + 1 in flight", 4 - i);
            shard.finish_service();
        }
        assert_eq!(shard.backlog(), 0);
    }

    #[test]
    fn closed_and_drained_shard_releases_the_worker() {
        let shard = AdmissionShard::new();
        assert!(fifo(&shard, 0, 0, 64));
        shard.close();
        // Queued work is still served after close...
        assert_eq!(shard.take(), Some((0, 0)));
        shard.finish_service();
        // ...then the worker is told to exit.
        assert_eq!(shard.take(), None);
    }

    #[test]
    fn priority_offer_displaces_only_strictly_lower_priority() {
        let shard = AdmissionShard::new();
        // Fill the idle fast-path slot, then a capacity-2 waiting room
        // with priorities [1, 0].
        assert!(fifo(&shard, 0, 0, 2));
        assert_eq!(shard.take(), Some((0, 0))); // 0 in service
        for (req, prio) in [(1usize, 1u8), (2, 0)] {
            assert_eq!(prioritized(&shard, req, prio), OfferOutcome::Admitted);
        }
        // Equal priority to the minimum: the incumbent wins.
        assert_eq!(prioritized(&shard, 3, 0), OfferOutcome::Rejected);
        // Strictly higher: the priority-0 entry (request 2) is displaced.
        assert_eq!(
            prioritized(&shard, 4, 2),
            OfferOutcome::Displaced {
                request: 2,
                arrival: 2
            }
        );
        // Queue is now [1 (prio 1), 4 (prio 2)]; another priority-2
        // arrival displaces the rightmost minimum — request 1.
        assert_eq!(
            prioritized(&shard, 5, 2),
            OfferOutcome::Displaced {
                request: 1,
                arrival: 1
            }
        );
        // All-priority-2 queue: a priority-2 arrival is rejected (never
        // displaces its peers), so high classes cannot starve each other.
        assert_eq!(prioritized(&shard, 6, 2), OfferOutcome::Rejected);
        shard.finish_service();
        // Service order of the survivors is still FIFO by admission.
        assert_eq!(shard.take(), Some((4, 4)));
        shard.finish_service();
        assert_eq!(shard.take(), Some((5, 5)));
    }

    #[test]
    fn pending_cost_mirrors_waiting_and_in_flight_costs() {
        let shard = AdmissionShard::new();
        assert_eq!(shard.pending_cost(), 0);
        for (req, cost) in [(0usize, 100u64), (1, 40), (2, 60)] {
            let entry = Waiting {
                cost,
                ..plain(req, 0)
            };
            shard.offer(entry, 64, AdmissionPolicy::Fifo);
        }
        assert_eq!(shard.pending_cost(), 200);
        assert_eq!(shard.take(), Some((0, 0)));
        // 100 waiting + 100 in flight.
        assert_eq!(shard.pending_cost(), 200);
        shard.finish_service();
        assert_eq!(shard.pending_cost(), 100);
        assert_eq!(shard.take(), Some((1, 0)));
        // 60 waiting + 40 in flight.
        assert_eq!(shard.pending_cost(), 100);
        shard.finish_service();
        assert_eq!(shard.pending_cost(), 60);
    }
}
