//! Dual-runtime serving: the same MolHIV request stream through the
//! cycle-level simulator and through real OS replica threads.
//!
//! One seeded arrival process drives both domains — the simulator places
//! requests at its cycle stamps, the live runtime paces a load generator
//! by the same stamps converted to wall time — and both route through
//! the same dispatch policies and bounded admission queues. What differs
//! is the clock: simulated tails are modeled cycles at 300 MHz, live
//! tails are whatever the host actually did (and vary run to run).
//!
//! ```text
//! cargo run --release --example live_serving
//! ```

use flowgnn::prelude::*;

/// Requests pushed through every configuration.
const REQUESTS: usize = 120;

/// Offered load relative to each domain's own aggregate service rate.
const LOAD: f64 = 0.8;

fn main() {
    let spec = DatasetSpec::standard(DatasetKind::MolHiv);
    let acc = Accelerator::new(
        GnnModel::gcn(spec.node_feat_dim(), 11),
        ArchConfig::default().with_execution(ExecutionMode::TimingOnly),
    );

    // Calibrate both domains from one timed engine pass: the cycle trace
    // is the sim service process, the wall time it took is (a good proxy
    // for) the live per-request cost on this host.
    let t0 = std::time::Instant::now();
    let service = acc.service_trace(spec.stream(), REQUESTS);
    let wall_ms = (t0.elapsed().as_secs_f64() * 1e3 / REQUESTS as f64).max(0.005);
    let sim_ms = flowgnn::desim::cycles_to_ms(service.iter().sum::<u64>()) / service.len() as f64;
    let class_of = vec![0; service.len()];
    let costs = [service];
    println!(
        "MolHIV GCN: service {sim_ms:.4} ms simulated, {wall_ms:.4} ms wall on this host\n\
         offered load {:.0}% of each domain's capacity\n",
        LOAD * 100.0
    );

    println!(
        "{:<10} {:<8} {:<8} {:>12} {:>10} {:>10} {:>10}",
        "replicas", "policy", "domain", "rate req/s", "p50 ms", "p99 ms", "drops"
    );
    for replicas in [1usize, 2, 4] {
        for (name, policy) in [
            ("rr", DispatchPolicy::RoundRobin),
            ("jsq", DispatchPolicy::JoinShortestQueue),
            ("p2c", DispatchPolicy::PowerOfTwoChoices { seed: 7 }),
        ] {
            let config = |rate: f64| {
                FleetConfig::pool(replicas)
                    .arrivals(ArrivalProcess::poisson_rate(rate, 42 + replicas as u64))
                    .queue_capacity(64)
                    .policy(policy)
                    .build()
                    .expect("valid serving config")
            };

            let sim_rate = LOAD * replicas as f64 * 1e3 / sim_ms;
            let sim = run_fleet::<ModelWorker>(
                &costs,
                &class_of,
                &config(sim_rate),
                FleetRuntime::Sim,
                None,
            )
            .expect("non-empty trace")
            .sim()
            .expect("sim runtime yields a cycle-domain report");
            println!(
                "{replicas:<10} {name:<8} {:<8} {sim_rate:>12.0} {:>10.4} {:>10.4} {:>10}",
                "sim", sim.p50_ms, sim.p99_ms, sim.dropped
            );

            let live_rate = LOAD * replicas as f64 * 1e3 / wall_ms;
            let live = acc
                .serve_on(
                    spec.stream(),
                    REQUESTS,
                    &config(live_rate),
                    Runtime::Live,
                    None,
                )
                .expect("valid live config")
                .live()
                .expect("live runtime yields a wall-domain report");
            println!(
                "{replicas:<10} {name:<8} {:<8} {live_rate:>12.0} {:>10.4} {:>10.4} {:>10}",
                "live", live.p50_ms, live.p99_ms, live.dropped
            );
        }
    }

    // Saturation: a closed-loop backlog split across real threads.
    println!("\nclosed-loop live throughput (all requests pending at t0):");
    for replicas in [1usize, 2, 4] {
        let config = FleetConfig::pool(replicas)
            .build()
            .expect("valid saturation config");
        let report = acc
            .serve_on(spec.stream(), REQUESTS, &config, Runtime::Live, None)
            .expect("valid live config")
            .live()
            .expect("live runtime yields a wall-domain report");
        println!(
            "  x{replicas}: {:.0} req/s ({} completed in {:.1} ms)",
            report.throughput_per_s(),
            report.completed,
            report.makespan_cycles as f64 / 1e6,
        );
    }
    println!("\n(live numbers are host wall time; rerun and they will move)");
}
