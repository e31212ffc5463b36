//! Bounded registered FIFOs.
//!
//! The FIFO is the single hottest structure in the cycle engine: every
//! simulated cycle pushes, pops, and commits through the NT→MP queue
//! grid. It is therefore backed by a fixed, power-of-two ring buffer
//! rather than a growable deque — one allocation at construction, index
//! arithmetic by bit-mask, and an `O(1)` cycle-boundary commit.

/// A bounded FIFO with hardware-register semantics.
///
/// Items pushed during a simulation cycle are *staged*: they count against
/// capacity immediately (the producer sees the queue as full), but become
/// visible to [`Fifo::pop`] only after the cycle boundary's
/// [`Fifo::commit`]. This models a synchronous FIFO with one-cycle
/// forwarding latency and prevents accidental zero-latency pass-through of
/// a token through an entire pipeline in a single simulated cycle.
///
/// # Memory layout
///
/// Ready and staged items live in one contiguous ring whose length is the
/// capacity rounded up to a power of two, so slot indices wrap by mask.
/// The ring is split by three counters rather than by separate
/// containers — `head` (oldest ready slot), `ready` (committed items),
/// and `staged` (items pushed since the last commit, stored directly
/// behind the ready region):
///
/// ```text
///   [ .. | ready items | staged items | .. ]   (indices mod 2^k)
///          ^head         ^head+ready
/// ```
///
/// [`Fifo::commit`] just folds the staged count into the ready count — no
/// items move, no memory is touched. Elements are required to be
/// [`Default`] so popped slots can be vacated without `unsafe`.
///
/// # Example
///
/// ```
/// use flowgnn_desim::Fifo;
///
/// let mut q = Fifo::new(1);
/// assert!(q.try_push('a'));
/// assert!(!q.try_push('b')); // full: staged items count against capacity
/// q.commit();
/// assert_eq!(q.pop(), Some('a'));
/// ```
#[derive(Debug, Clone)]
pub struct Fifo<T> {
    buf: Box<[T]>,
    mask: usize,
    capacity: usize,
    head: usize,
    ready: usize,
    staged: usize,
}

impl<T: Default> Fifo<T> {
    /// Creates a FIFO holding at most `capacity` items. The backing ring
    /// is `capacity.next_power_of_two()` slots; the *logical* capacity
    /// enforced by [`Fifo::is_full`] stays exactly as requested.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a FIFO needs capacity of at least 1");
        let slots = capacity.next_power_of_two();
        Self {
            buf: (0..slots).map(|_| T::default()).collect(),
            mask: slots - 1,
            capacity,
            head: 0,
            ready: 0,
            staged: 0,
        }
    }

    /// Pops the oldest *committed* item.
    pub fn pop(&mut self) -> Option<T> {
        if self.ready == 0 {
            return None;
        }
        let item = std::mem::take(&mut self.buf[self.head]);
        self.head = (self.head + 1) & self.mask;
        self.ready -= 1;
        Some(item)
    }

    /// Removes all items (reuse between runs).
    pub fn reset(&mut self) {
        for i in 0..self.ready + self.staged {
            self.buf[(self.head + i) & self.mask] = T::default();
        }
        self.head = 0;
        self.ready = 0;
        self.staged = 0;
    }
}

impl<T> Fifo<T> {
    /// The configured (logical) capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total occupancy including staged items.
    pub fn len(&self) -> usize {
        self.ready + self.staged
    }

    /// Whether the FIFO holds no items (ready or staged).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether a push would be rejected this cycle.
    pub fn is_full(&self) -> bool {
        self.len() >= self.capacity
    }

    /// Number of items currently poppable (committed).
    pub fn ready_len(&self) -> usize {
        self.ready
    }

    /// Stages an item for the next cycle.
    ///
    /// # Panics
    ///
    /// Panics if the FIFO is full; producers must check
    /// [`Fifo::is_full`] first (that check *is* the backpressure signal).
    pub fn push(&mut self, item: T) {
        assert!(
            !self.is_full(),
            "push into full FIFO (missing backpressure check)"
        );
        let tail = (self.head + self.ready + self.staged) & self.mask;
        self.buf[tail] = item;
        self.staged += 1;
    }

    /// Stages an item if there is room, returning whether it was accepted.
    pub fn try_push(&mut self, item: T) -> bool {
        if self.is_full() {
            false
        } else {
            self.push(item);
            true
        }
    }

    /// Peeks at the oldest committed item without removing it.
    pub fn peek(&self) -> Option<&T> {
        (self.ready > 0).then(|| &self.buf[self.head])
    }

    /// Cycle boundary: makes all staged items poppable. Staged items
    /// already sit contiguously behind the ready region, so this is a
    /// counter fold — `O(1)`, no data movement.
    pub fn commit(&mut self) {
        self.ready += self.staged;
        self.staged = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staged_items_invisible_until_commit() {
        let mut q = Fifo::new(4);
        q.push(1);
        assert_eq!(q.pop(), None);
        assert_eq!(q.len(), 1);
        q.commit();
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_order_is_preserved_across_commits() {
        let mut q = Fifo::new(8);
        q.push(1);
        q.push(2);
        q.commit();
        q.push(3);
        q.commit();
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
    }

    #[test]
    fn capacity_counts_staged_items() {
        let mut q = Fifo::new(2);
        assert!(q.try_push(1));
        assert!(q.try_push(2));
        assert!(q.is_full());
        assert!(!q.try_push(3));
        q.commit();
        assert!(q.is_full()); // still holding two committed items
        q.pop();
        assert!(q.try_push(3));
    }

    #[test]
    #[should_panic(expected = "full FIFO")]
    fn push_into_full_panics() {
        let mut q = Fifo::new(1);
        q.push(1);
        q.push(2);
    }

    #[test]
    #[should_panic(expected = "capacity of at least 1")]
    fn zero_capacity_rejected() {
        Fifo::<u8>::new(0);
    }

    #[test]
    fn conservation_of_items() {
        // Everything pushed is eventually popped exactly once.
        let mut q = Fifo::new(3);
        let mut popped = Vec::new();
        let mut next = 0;
        for _ in 0..100 {
            while q.try_push(next) {
                next += 1;
            }
            q.commit();
            while let Some(v) = q.pop() {
                popped.push(v);
            }
        }
        assert_eq!(popped, (0..next).collect::<Vec<_>>());
    }

    #[test]
    fn non_power_of_two_capacity_wraps_correctly() {
        // Logical capacity 3 rides in a 4-slot ring; drive the indices
        // around the ring many times with mixed occupancy.
        let mut q = Fifo::new(3);
        assert_eq!(q.capacity(), 3);
        let mut expected = std::collections::VecDeque::new();
        let mut next = 0u32;
        for round in 0..50 {
            for _ in 0..=(round % 3) {
                if q.try_push(next) {
                    expected.push_back(next);
                    next += 1;
                }
            }
            q.commit();
            for _ in 0..=(round % 2) {
                assert_eq!(q.pop(), expected.pop_front());
            }
        }
    }

    #[test]
    fn reset_clears_everything() {
        let mut q = Fifo::new(2);
        q.push(9);
        q.commit();
        q.reset();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn reset_vacates_slots_midway_around_the_ring() {
        let mut q = Fifo::new(4);
        for i in 0..3 {
            q.push(i);
        }
        q.commit();
        q.pop();
        q.push(3); // occupied region now straddles a non-zero head
        q.reset();
        assert!(q.is_empty());
        q.push(7);
        q.commit();
        assert_eq!(q.pop(), Some(7));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = Fifo::new(2);
        q.push(5);
        q.commit();
        assert_eq!(q.peek(), Some(&5));
        assert_eq!(q.pop(), Some(5));
    }
}
