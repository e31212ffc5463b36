//! Dispatch policies and the routing core shared by both domains.
//!
//! [`DispatchPolicy`] names the policy; [`Dispatcher`] is its running
//! state (the round-robin counter is implicit in the request index, the
//! power-of-two-choices PRNG is explicit). Both the cycle-domain
//! simulator and the live wall-clock runtime route through the *same*
//! [`Dispatcher::route`] code — the simulator hands it backlogs and
//! cost estimates read from its replica states, the live runtime hands
//! it the same views read from the admission shards' atomics — so a
//! policy cannot behave differently in the two domains given the same
//! observations (`tests/properties.rs` pins this).

use flowgnn_rng::Rng;

/// How arriving requests are routed across the replica pool. Every
/// policy is deterministic: given the same configuration and service
/// trace, the assignment sequence is identical run to run (the random
/// policy carries an explicit seed).
///
/// A replica's *backlog* as observed by the load-aware policies is its
/// waiting-queue length plus one if a service event is in flight — the
/// number of service events that must start or finish before a newly
/// dispatched request could begin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchPolicy {
    /// Request `i` goes to replica `i mod R`, unconditionally (dropped
    /// requests still consume their slot). Load-blind but perfectly fair
    /// in request counts.
    RoundRobin,
    /// Each request joins the replica with the smallest backlog at its
    /// arrival cycle; ties break to the lowest replica index.
    JoinShortestQueue,
    /// Each request samples two replica indices from a seeded xoshiro
    /// stream (two draws per request, dropped or not) and joins the one
    /// with the smaller backlog; ties break to the lower sampled index.
    /// The classic randomized load balancer: most of JSQ's benefit at a
    /// fraction of its coordination cost.
    PowerOfTwoChoices {
        /// PRNG seed pinning the choice sequence.
        seed: u64,
    },
    /// Each request joins the replica where its estimated *completion
    /// cost* — the replica's outstanding work plus this request's
    /// estimated service cost there — is smallest; ties break to the
    /// lowest replica index. Over a homogeneous pool this degenerates to
    /// least-work-left; over a heterogeneous fleet it sends each request
    /// to the backend class that finishes it soonest (small graphs to
    /// CPU-class endpoints, large graphs to the accelerator).
    CostBased,
}

/// The running state of one [`DispatchPolicy`]: create it once per
/// serving run and ask it to [`route`](Dispatcher::route) every request
/// in arrival order.
///
/// Only power-of-two-choices carries state (its PRNG), but routing
/// through one stateful object keeps the draw sequence aligned with the
/// request sequence — two draws per request, dropped or not — which is
/// what makes a policy's decisions reproducible and domain-independent.
#[derive(Debug, Clone)]
pub struct Dispatcher {
    policy: DispatchPolicy,
    rng: Option<Rng>,
}

impl Dispatcher {
    /// Creates the routing state for `policy` (seeding the p2c PRNG).
    pub fn new(policy: DispatchPolicy) -> Self {
        let rng = match policy {
            DispatchPolicy::PowerOfTwoChoices { seed } => Some(Rng::seed_from_u64(seed)),
            _ => None,
        };
        Self { policy, rng }
    }

    /// Routes request number `request` (its position in arrival order)
    /// across `replicas` replicas. The load-aware policies observe
    /// per-replica backlogs through `backlog`;
    /// [`DispatchPolicy::CostBased`] observes per-replica completion-cost
    /// estimates through `cost`. Each closure is only consulted where the
    /// policy needs it: round-robin calls neither, join-shortest-queue
    /// queries every replica's backlog, power-of-two-choices queries
    /// exactly its two samples' backlogs, and cost-based queries every
    /// replica's cost and no backlog.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is zero (the serving entry points validate
    /// this before routing).
    pub fn route(
        &mut self,
        request: usize,
        replicas: usize,
        mut backlog: impl FnMut(usize) -> usize,
        mut cost: impl FnMut(usize) -> u64,
    ) -> usize {
        // min_by_key keeps the first minimum: argmin ties break to the
        // lowest replica index, deterministically.
        match self.policy {
            DispatchPolicy::RoundRobin => request % replicas,
            DispatchPolicy::JoinShortestQueue => (0..replicas)
                .min_by_key(|&r| backlog(r))
                .expect("pool is non-empty"),
            DispatchPolicy::CostBased => (0..replicas)
                .min_by_key(|&r| cost(r))
                .expect("pool is non-empty"),
            DispatchPolicy::PowerOfTwoChoices { .. } => {
                let rng = self.rng.as_mut().expect("p2c carries an rng");
                let a = rng.bounded_u64(replicas as u64) as usize;
                let b = rng.bounded_u64(replicas as u64) as usize;
                let (lo, hi) = (a.min(b), a.max(b));
                // Smaller backlog wins; ties break to the lower index.
                if backlog(hi) < backlog(lo) {
                    hi
                } else {
                    lo
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_ignores_backlogs() {
        let mut d = Dispatcher::new(DispatchPolicy::RoundRobin);
        let routes: Vec<usize> = (0..7)
            .map(|i| {
                d.route(
                    i,
                    3,
                    |_| panic!("round-robin observes no backlog"),
                    |_| panic!("round-robin observes no cost"),
                )
            })
            .collect();
        assert_eq!(routes, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn jsq_takes_the_first_minimum() {
        let mut d = Dispatcher::new(DispatchPolicy::JoinShortestQueue);
        let depths = [3, 1, 1, 2];
        assert_eq!(d.route(0, 4, |r| depths[r], |_| 0), 1, "tie breaks low");
        let depths = [0, 0, 0];
        assert_eq!(d.route(1, 3, |r| depths[r], |_| 0), 0, "all-idle goes to 0");
    }

    #[test]
    fn p2c_is_seeded_and_draws_twice_per_request() {
        let seq = |seed, n: usize| {
            let mut d = Dispatcher::new(DispatchPolicy::PowerOfTwoChoices { seed });
            (0..n)
                .map(|i| d.route(i, 8, |_| 0, |_| 0))
                .collect::<Vec<_>>()
        };
        assert_eq!(seq(9, 50), seq(9, 50), "same seed, same choices");
        assert_ne!(seq(9, 50), seq(10, 50), "seeds explore differently");
        assert!(seq(9, 50).iter().all(|&r| r < 8));

        // With uniform backlogs the tie breaks to the lower sampled
        // index, and the draw count is exactly two per routed request:
        // interleaving a second dispatcher one request behind stays in
        // lockstep.
        let mut a = Dispatcher::new(DispatchPolicy::PowerOfTwoChoices { seed: 4 });
        let mut b = Dispatcher::new(DispatchPolicy::PowerOfTwoChoices { seed: 4 });
        for i in 0..20 {
            let ra = a.route(i, 5, |_| 7, |_| 0);
            let rb = b.route(i, 5, |_| 7, |_| 0);
            assert_eq!(ra, rb);
        }
    }

    #[test]
    fn p2c_prefers_the_less_loaded_sample() {
        // Replica 0 drowning, everyone else idle: any sample pair that
        // includes a non-zero replica must avoid 0.
        let mut d = Dispatcher::new(DispatchPolicy::PowerOfTwoChoices { seed: 2 });
        let depths = |r: usize| if r == 0 { 1000 } else { 0 };
        let picks: Vec<usize> = (0..100).map(|i| d.route(i, 4, depths, |_| 0)).collect();
        let zero_picks = picks.iter().filter(|&&r| r == 0).count();
        // 0 is only picked when both samples land on it: ~1/16 of draws.
        assert!(zero_picks < 20, "{zero_picks} routes to the loaded replica");
    }

    #[test]
    fn cost_based_takes_the_cheapest_completion() {
        let mut d = Dispatcher::new(DispatchPolicy::CostBased);
        let costs = [40u64, 15, 15, 90];
        let route = d.route(0, 4, |_| panic!("cost-based ignores backlog"), |r| costs[r]);
        assert_eq!(route, 1, "tie breaks to the lowest index");
    }

    #[test]
    fn legacy_policies_ignore_the_cost_closure() {
        // Round-robin, JSQ and p2c never call the cost closure.
        for policy in [
            DispatchPolicy::RoundRobin,
            DispatchPolicy::JoinShortestQueue,
            DispatchPolicy::PowerOfTwoChoices { seed: 3 },
        ] {
            let mut d = Dispatcher::new(policy);
            let depths = [4usize, 0, 2, 1];
            for i in 0..32 {
                let r = d.route(
                    i,
                    4,
                    |r| depths[r],
                    |_| panic!("{policy:?} observed a cost"),
                );
                assert!(r < 4);
            }
        }
    }
}
