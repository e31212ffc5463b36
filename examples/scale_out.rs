//! Scale-out serving: how many MolHIV inference requests per second can
//! a pool of FlowGNN replicas sustain under a p99 latency SLO?
//!
//! One cycle-exact service trace is computed once, then replayed through
//! replica pools of growing size under each dispatch policy — the same
//! arrival stream per pool size, so the policies' tails are directly
//! comparable. Watch the sustainable rate scale with the pool and
//! join-shortest-queue shave the tail that blind round-robin leaves.
//!
//! ```text
//! cargo run --release --example scale_out
//! ```

use flowgnn::prelude::*;

/// Requests pushed through every pool configuration.
const REQUESTS: usize = 300;

/// Offered load relative to the pool's aggregate service rate.
const LOAD: f64 = 0.9;

fn main() {
    let spec = DatasetSpec::standard(DatasetKind::MolHiv);
    let acc = Accelerator::new(
        GnnModel::gcn(spec.node_feat_dim(), 11),
        ArchConfig::default().with_execution(ExecutionMode::TimingOnly),
    );

    // One engine pass; every serving scenario below replays this trace.
    let service = acc.service_trace(spec.stream(), REQUESTS);
    let mean_ms = flowgnn::desim::cycles_to_ms(service.iter().sum::<u64>()) / service.len() as f64;
    let slo_ms = mean_ms * 4.0;
    let class_of = vec![0; service.len()];
    let costs = [service];
    // Replays the trace through a plain replica pool on the cycle scan.
    let replay = |config: FleetConfigBuilder| {
        let config = config.build().expect("valid pool config");
        run_fleet::<ModelWorker>(&costs, &class_of, &config, FleetRuntime::Sim, None)
            .expect("non-empty trace")
            .sim()
            .expect("sim runtime yields a cycle-domain report")
    };
    println!(
        "MolHIV GCN: mean service {:.4} ms -> p99 SLO {:.4} ms, offered load {:.0}%\n",
        mean_ms,
        slo_ms,
        LOAD * 100.0
    );

    println!(
        "{:<10} {:<14} {:>12} {:>10} {:>10} {:>10}",
        "replicas", "policy", "rate req/s", "p99 ms", "drops", "imbalance"
    );
    for replicas in [1usize, 2, 4, 8] {
        let rate = LOAD * replicas as f64 * 1e3 / mean_ms;
        for (name, policy) in [
            ("round-robin", DispatchPolicy::RoundRobin),
            ("jsq", DispatchPolicy::JoinShortestQueue),
            ("p2c", DispatchPolicy::PowerOfTwoChoices { seed: 7 }),
        ] {
            let report = replay(
                FleetConfig::pool(replicas)
                    .arrivals(ArrivalProcess::poisson_rate(rate, 42 + replicas as u64))
                    .queue_capacity(64)
                    .policy(policy),
            );
            let verdict = if report.p99_ms <= slo_ms && report.dropped == 0 {
                ""
            } else {
                "  <- misses SLO"
            };
            println!(
                "{:<10} {:<14} {:>12.0} {:>10.4} {:>10} {:>9.1}%{verdict}",
                replicas,
                name,
                rate,
                report.p99_ms,
                report.dropped,
                report.load_imbalance_percent().expect("pool has replicas"),
            );
        }
    }
}
