//! The one stopwatch of this crate.
//!
//! Every wall-clock number `flowgnn-bench` reports — `repro throughput`'s
//! rows, `repro live`'s load calibration, and the `cargo bench` targets —
//! comes from [`measure`]. It warms the body up,
//! runs [`TRIALS`] timed trials, and reports the median with p10 and p90
//! per call, so every figure carries its spread.
//!
//! A trial times a batch of calls. The warm-up doubles the batch, starting
//! from one call, until a batch lasts [`TRIAL_FLOOR`]: a nanosecond body is
//! batched until timer overhead vanishes, while a body that already lasts
//! the floor (a pass over hundreds of graphs) runs once per trial.

use flowgnn_core::serve::percentile_nearest_rank;
use std::fmt;
use std::time::{Duration, Instant};

/// Timed trials per measurement. Eleven puts p10, the median and p90 on
/// the 2nd, 6th and 10th of the sorted samples: distinct ranks, and
/// neither extreme.
pub const TRIALS: usize = 11;

/// The shortest batch a trial times.
pub const TRIAL_FLOOR: Duration = Duration::from_millis(1);

/// One body's wall time per call, in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Median over the trials.
    pub median: f64,
    /// 10th percentile (nearest rank) over the trials.
    pub p10: f64,
    /// 90th percentile (nearest rank) over the trials.
    pub p90: f64,
    /// Timed trials.
    pub trials: usize,
    /// Calls per trial.
    pub batch: usize,
}

/// Times `body`: a warm-up that sizes the batch, then [`TRIALS`] timed
/// batches. The warm-up runs the body `2 × batch − 1` times (batches of
/// 1, 2, 4, … up to the first that lasts [`TRIAL_FLOOR`]); their times
/// are discarded.
pub fn measure<R>(mut body: impl FnMut() -> R) -> Timing {
    let mut time_batch = |calls: usize| {
        let start = Instant::now();
        for _ in 0..calls {
            std::hint::black_box(body());
        }
        start.elapsed()
    };
    let mut batch = 1;
    while time_batch(batch) < TRIAL_FLOOR {
        batch *= 2;
    }
    let mut per_call: Vec<f64> = (0..TRIALS)
        .map(|_| time_batch(batch).as_secs_f64() / batch as f64)
        .collect();
    per_call.sort_by(f64::total_cmp);
    from_samples(&per_call, batch)
}

/// Summarises ascending per-call samples.
fn from_samples(sorted: &[f64], batch: usize) -> Timing {
    let pct = |p| percentile_nearest_rank(sorted, p).expect("at least one trial");
    Timing {
        median: pct(50.0),
        p10: pct(10.0),
        p90: pct(90.0),
        trials: sorted.len(),
        batch,
    }
}

/// A duration in seconds, in the largest unit that keeps it above one.
fn fmt_seconds(s: f64) -> String {
    match s {
        s if s >= 1.0 => format!("{s:.3} s"),
        s if s >= 1e-3 => format!("{:.3} ms", s * 1e3),
        s if s >= 1e-6 => format!("{:.3} us", s * 1e6),
        s => format!("{:.1} ns", s * 1e9),
    }
}

impl fmt::Display for Timing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "median {:>10}   p10–p90 {} – {}   ({} trials × {} calls)",
            fmt_seconds(self.median),
            fmt_seconds(self.p10),
            fmt_seconds(self.p90),
            self.trials,
            self.batch,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn percentiles_come_from_the_nearest_rank() {
        let sorted: Vec<f64> = (1..=TRIALS).map(|i| i as f64 * 0.5).collect();
        let t = from_samples(&sorted, 3);
        for (got, p) in [(t.median, 50.0), (t.p10, 10.0), (t.p90, 90.0)] {
            assert_eq!(got, percentile_nearest_rank(&sorted, p).unwrap());
        }
        assert_eq!((t.p10, t.median, t.p90), (1.0, 3.0, 5.0));
        assert_eq!((t.trials, t.batch), (TRIALS, 3));
    }

    #[test]
    fn body_runs_warm_up_plus_trials_times_batch() {
        let calls = Cell::new(0usize);
        let t = measure(|| calls.set(calls.get() + 1));
        assert_eq!(t.trials, TRIALS);
        assert_eq!(calls.get(), (2 * t.batch - 1) + TRIALS * t.batch);
        assert!(t.p10 <= t.median && t.median <= t.p90);
    }

    #[test]
    fn fast_bodies_are_batched_and_slow_ones_are_not() {
        let xs: Vec<u64> = (0..8).collect();
        let fast = measure(|| xs.iter().sum::<u64>());
        assert!(fast.batch > 1, "{fast:?}");
        let slow = measure(|| std::thread::sleep(TRIAL_FLOOR * 2));
        assert_eq!(slow.batch, 1);
        assert!(slow.p10 >= (TRIAL_FLOOR * 2).as_secs_f64());
    }
}
