//! Randomized tests for the simulation substrate: conservation, ordering,
//! and capacity invariants of the registered FIFOs, checked over
//! deterministic pseudo-random operation schedules (seeded in-tree PRNG,
//! so every run exercises the same cases).

use flowgnn_desim::Fifo;
use flowgnn_rng::Rng;

/// A random schedule of FIFO operations.
#[derive(Debug, Clone)]
enum Op {
    Push(u32),
    Pop,
    Commit,
}

fn random_schedule(rng: &mut Rng) -> Vec<Op> {
    let len = rng.gen_range(1usize..200);
    (0..len)
        .map(|_| match rng.gen_range(0u32..3) {
            0 => Op::Push(rng.gen_range(0u32..1000)),
            1 => Op::Pop,
            _ => Op::Commit,
        })
        .collect()
}

/// Everything pushed is popped exactly once, in order, regardless of the
/// interleaving of pushes, pops, and commits.
#[test]
fn conservation_and_fifo_order() {
    let mut rng = Rng::seed_from_u64(0xF1F0_0001);
    for _ in 0..256 {
        let cap = rng.gen_range(1usize..16);
        let schedule = random_schedule(&mut rng);
        let mut q = Fifo::new(cap);
        let mut pushed = Vec::new();
        let mut popped = Vec::new();
        for op in schedule {
            match op {
                Op::Push(v) => {
                    if q.try_push(v) {
                        pushed.push(v);
                    }
                }
                Op::Pop => {
                    if let Some(v) = q.pop() {
                        popped.push(v);
                    }
                }
                Op::Commit => q.commit(),
            }
        }
        // Drain the remainder.
        q.commit();
        while let Some(v) = q.pop() {
            popped.push(v);
        }
        assert_eq!(pushed, popped);
    }
}

/// Occupancy never exceeds capacity.
#[test]
fn capacity_is_never_exceeded() {
    let mut rng = Rng::seed_from_u64(0xF1F0_0002);
    for _ in 0..256 {
        let cap = rng.gen_range(1usize..16);
        let mut q = Fifo::new(cap);
        for op in random_schedule(&mut rng) {
            match op {
                Op::Push(v) => {
                    let _ = q.try_push(v);
                }
                Op::Pop => {
                    let _ = q.pop();
                }
                Op::Commit => q.commit(),
            }
            assert!(q.len() <= cap);
        }
    }
}

/// Items staged in one cycle are never poppable in the same cycle
/// (registered-FIFO semantics).
#[test]
fn no_same_cycle_passthrough() {
    let mut rng = Rng::seed_from_u64(0xF1F0_0003);
    for _ in 0..64 {
        let values: Vec<u32> = (0..rng.gen_range(1usize..10))
            .map(|_| rng.gen_range(0u32..100))
            .collect();
        let mut q = Fifo::new(16);
        for &v in &values {
            q.push(v);
            assert_eq!(q.pop(), None);
        }
        q.commit();
        for &v in &values {
            assert_eq!(q.pop(), Some(v));
        }
    }
}

/// A straightforward reference model of the registered-FIFO contract:
/// committed items in a `VecDeque`, staged items in a `Vec`, capacity
/// counted over both. The ring-buffer implementation must be
/// observationally identical to this model under any operation schedule.
struct ModelFifo {
    capacity: usize,
    ready: std::collections::VecDeque<u32>,
    staged: Vec<u32>,
}

impl ModelFifo {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            ready: std::collections::VecDeque::new(),
            staged: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.ready.len() + self.staged.len()
    }

    fn try_push(&mut self, v: u32) -> bool {
        if self.len() >= self.capacity {
            return false;
        }
        self.staged.push(v);
        true
    }

    fn pop(&mut self) -> Option<u32> {
        self.ready.pop_front()
    }

    fn commit(&mut self) {
        self.ready.extend(self.staged.drain(..));
    }

    fn reset(&mut self) {
        self.ready.clear();
        self.staged.clear();
    }
}

/// The ring-buffer FIFO agrees with the deque reference model on every
/// observable (pop results, occupancy, readiness, fullness and peek)
/// through randomized push/stage/commit/pop/reset schedules across
/// capacities both at and off powers of two.
#[test]
fn ring_buffer_matches_deque_reference_model() {
    let mut rng = Rng::seed_from_u64(0xF1F0_0006);
    for case in 0..512 {
        let cap = rng.gen_range(1usize..33);
        let mut q = Fifo::new(cap);
        let mut model = ModelFifo::new(cap);
        for step in 0..rng.gen_range(1usize..300) {
            match rng.gen_range(0u32..8) {
                0..=3 => {
                    let v = rng.gen_range(0u32..1000);
                    assert_eq!(q.try_push(v), model.try_push(v), "case {case} step {step}");
                }
                4..=5 => {
                    assert_eq!(q.pop(), model.pop(), "case {case} step {step}");
                }
                6 => {
                    q.commit();
                    model.commit();
                }
                _ => {
                    // Occasional reset exercises mid-ring vacation.
                    if rng.gen_bool(0.05) {
                        q.reset();
                        model.reset();
                    }
                }
            }
            assert_eq!(q.len(), model.len());
            assert_eq!(q.ready_len(), model.ready.len());
            assert_eq!(q.is_full(), model.len() >= model.capacity);
            assert_eq!(q.is_empty(), model.len() == 0);
            assert_eq!(q.peek(), model.ready.front());
        }
        // Drain both to confirm residual contents agree element-for-element.
        q.commit();
        model.commit();
        loop {
            let (a, b) = (q.pop(), model.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
