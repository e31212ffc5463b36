//! Hot-path bench: the ring-buffer FIFO at dataflow-loop granularity.
//!
//! The registered FIFO is the innermost data structure of the cycle
//! engine — every flit and every aggregate token crosses one — so its
//! per-operation cost bounds the simulator's cycles/second. This bench
//! drives the push → commit → pop cycle the unit schedulers perform,
//! at a queue depth matching [`flowgnn_core::ArchConfig`]'s default.

use flowgnn_bench::timing;
use flowgnn_desim::Fifo;

fn main() {
    // One producer/consumer cycle: stage a burst, commit, drain.
    let mut q: Fifo<u64> = Fifo::new(16);
    let burst = timing::measure(|| {
        for i in 0..8u64 {
            q.push(i);
        }
        q.commit();
        let mut sum = 0u64;
        while let Some(x) = q.pop() {
            sum += x;
        }
        sum
    });
    println!("{:<40} {burst}", "hotpath_fifo/push_commit_pop_burst8");

    // Steady-state single-slot traffic (the common dataflow pattern:
    // one flit in, one flit out per simulated cycle).
    let mut q: Fifo<u64> = Fifo::new(16);
    q.push(0);
    q.commit();
    let steady = timing::measure(|| {
        q.push(1);
        q.commit();
        q.pop()
    });
    println!("{:<40} {steady}", "hotpath_fifo/steady_state_depth1");

    // Backpressure probing: the full/empty checks unit horizons perform.
    let mut q: Fifo<u64> = Fifo::new(16);
    for i in 0..8 {
        q.push(i);
    }
    q.commit();
    let probes = timing::measure(|| {
        std::hint::black_box(q.is_full());
        std::hint::black_box(q.is_empty());
        q.len() + q.ready_len()
    });
    println!("{:<40} {probes}", "hotpath_fifo/occupancy_probes");
}
