//! Sample statistics, live-run analysis and the in-memory span recorder.
//!
//! Everything here is a pure function of its inputs, so the rules the
//! benchmark reports by (nearest-rank percentiles, the tail-percentile
//! rule, due-time sojourns, idle-arrival wake-ups, span self time) are
//! unit-tested without running a workload.

use std::time::{Duration, Instant};

use flowgnn_core::RequestRecord;

/// Nearest-rank percentile of an ascending-sorted, non-empty sample: the
/// value at 1-indexed rank `ceil(p/100 × n)`, clamped to `[1, n]`.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let n = sorted.len();
    sorted[rank(p, n).clamp(1, n) - 1]
}

/// The nearest rank `ceil(p/100 × n)`, immune to the rounding that would
/// make `0.999 × 10000` land just above 9990.
fn rank(p: f64, n: usize) -> usize {
    (p * n as f64 / 100.0 - 1e-9).ceil() as usize
}

/// Percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 4] = [99.9, 99.0, 95.0, 90.0];

/// The highest percentile of [`TAIL_LADDER`] that leaves at least ten
/// samples beyond it in a sample of `n`, or 100 (the maximum) when even
/// p90 does not.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n.saturating_sub(rank(p, n)) >= 10)
        .unwrap_or(100.0)
}

/// Median and 10th/90th percentiles of a set of per-pass values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialStats {
    /// The median value (nearest rank).
    pub median: f64,
    /// 10th percentile value.
    pub p10: f64,
    /// 90th percentile value.
    pub p90: f64,
}

impl TrialStats {
    /// Summarises `values` (any order, non-empty).
    pub fn of(values: &[f64]) -> Self {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Self {
            median: percentile(&sorted, 50.0),
            p10: percentile(&sorted, 10.0),
            p90: percentile(&sorted, 90.0),
        }
    }
}

/// Sorts a sample ascending in place and returns it.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// The percentile of a host time, over its repetitions in one run, that
/// the end-to-end metrics report: the fast decile.
///
/// A shared host alternates between a fast and a slow speed (1.2 to 2×
/// apart on a shared 2-vCPU Xeon VM) in spells of seconds to minutes, and
/// the share of slow time changes from run to run. A mean or median over
/// a run moves with that share; the fast decile moves only when the
/// program does, because a code change slows every repetition, fast ones
/// included.
pub const FAST_DECILE: f64 = 10.0;

/// The fast decile of a non-empty sample of times.
pub fn fast(times: &[f64]) -> f64 {
    percentile(&sorted(times.to_vec()), FAST_DECILE)
}

/// The fast decile of a non-empty sample of rates (higher is faster).
pub fn fast_rate(rates: &[f64]) -> f64 {
    percentile(&sorted(rates.to_vec()), 100.0 - FAST_DECILE)
}

/// Each item's fast-decile time over repeated passes: `passes[p][i]` is
/// item `i`'s time in pass `p`, and every pass times the same items.
pub fn per_item_fast(passes: &[Vec<f64>]) -> Vec<f64> {
    let items = passes.first().map_or(0, Vec::len);
    (0..items)
        .map(|i| fast(&passes.iter().map(|p| p[i]).collect::<Vec<_>>()))
        .collect()
}

/// Nanoseconds to milliseconds.
fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// A request's sojourn measured from when it was *due* (its wall-schedule
/// offset), in ms, or `None` if it was dropped. Timing from the due time
/// charges a late generator's stall to the requests it delayed.
pub fn due_sojourn_ms(record: &RequestRecord, due: Duration) -> Option<f64> {
    (!record.dropped).then(|| ms(record.finish.saturating_sub(due.as_nanos() as u64)))
}

/// How late the generator offered each request: arrival stamp minus due
/// offset, in ms.
pub fn generator_lateness_ms(records: &[RequestRecord], schedule: &[Duration]) -> Vec<f64> {
    records
        .iter()
        .zip(schedule)
        .map(|(r, due)| ms(r.arrival.saturating_sub(due.as_nanos() as u64)))
        .collect()
}

/// Queueing wait of every completed request, in ms.
pub fn waits_ms(records: &[RequestRecord]) -> Vec<f64> {
    completed(records).map(|r| ms(r.wait_cycles())).collect()
}

/// Service time of every completed request, in ms.
pub fn services_ms(records: &[RequestRecord]) -> Vec<f64> {
    completed(records).map(|r| ms(r.service_cycles())).collect()
}

fn completed(records: &[RequestRecord]) -> impl Iterator<Item = &RequestRecord> {
    records.iter().filter(|r| !r.dropped)
}

/// Waits (ms) of the requests that arrived at an idle replica: the
/// request served just before them on the same replica had already
/// finished, so their whole wait is the hand-off to the sleeping worker.
pub fn wakeups_ms(records: &[RequestRecord]) -> Vec<f64> {
    let mut served: Vec<&RequestRecord> = completed(records).collect();
    served.sort_by_key(|r| (r.replica, r.start));
    let mut out = Vec::new();
    for (i, r) in served.iter().enumerate() {
        let idle = match i.checked_sub(1).map(|j| served[j]) {
            Some(prev) if prev.replica == r.replica => prev.finish <= r.arrival,
            _ => true,
        };
        if idle {
            out.push(ms(r.wait_cycles()));
        }
    }
    out
}

/// One recorded span: a call into `layer`, nested under `parent`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer the call went into.
    pub layer: &'static str,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// End, in ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request (graph, sweep point or serving phase) the span served.
    pub request: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// In-memory span recorder; spans are written out when the run ends.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    /// Every span recorded, in completion order of its start call.
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Opens a span and returns its index; close it with [`Tracer::end`].
    pub fn begin(&mut self, layer: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            layer,
            start_ns: now,
            end_ns: now,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.t0.elapsed().as_nanos() as u64;
    }

    /// Total self time of every span of `layer`, in seconds.
    pub fn self_secs(&self, layer: &str) -> f64 {
        let self_times = self_times(&self.spans);
        self.spans
            .iter()
            .zip(self_times)
            .filter(|(s, _)| s.layer == layer)
            .map(|(_, t)| t)
            .sum()
    }

    /// Total duration of the top-level spans, in seconds.
    pub fn top_level_secs(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::secs)
            .sum()
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        self.spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"layer\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"request\": {}}}\n",
                    s.layer,
                    s.start_ns,
                    s.end_ns,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.request
                )
            })
            .collect()
    }
}

/// Self time of each span in seconds: its duration minus its children's.
///
/// A layer whose work happens inside another library call cannot be
/// timed in place from outside, so its span is recorded by calling its
/// public function separately on the same input and parented to the
/// enclosing call. Children are therefore subtracted by duration, not by
/// interval overlap, and a self time is floored at zero.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p] += s.secs();
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, c)| (s.secs() - c).max(0.0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 50.0), 2.0);
        assert_eq!(percentile(&v, 75.0), 3.0);
        assert_eq!(percentile(&v, 99.0), 4.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_uses_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(10_000), 99.9); // 10 beyond p99.9
        assert_eq!(tail_percentile(9_999), 99.0);
        assert_eq!(tail_percentile(1_000), 99.0); // 10 beyond p99
        assert_eq!(tail_percentile(999), 95.0); // 9 beyond p99, 49 beyond p95
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(99), 100.0);
    }

    #[test]
    fn trial_median_and_spread() {
        let s = TrialStats::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((s.median, s.p10, s.p90), (3.0, 1.0, 5.0));
        let one = TrialStats::of(&[2.5]);
        assert_eq!((one.median, one.p10, one.p90), (2.5, 2.5, 2.5));
    }

    #[test]
    fn fast_decile_per_item() {
        let times: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(fast(&times), 2.0);
        assert_eq!(fast_rate(&times), 18.0);
        assert_eq!(fast(&[4.0]), 4.0);
        // Item 0 is fast in one pass of ten, item 1 slow in one.
        let mut passes = vec![vec![2.0, 1.0]; 10];
        passes[3] = vec![1.0, 9.0];
        assert_eq!(per_item_fast(&passes), vec![1.0, 1.0]);
        assert!(per_item_fast(&[]).is_empty());
    }

    fn rec(arrival: u64, start: u64, finish: u64, replica: usize) -> RequestRecord {
        RequestRecord {
            arrival,
            start,
            finish,
            dropped: false,
            replica,
        }
    }

    #[test]
    fn sojourn_is_timed_from_the_due_time() {
        let schedule = [Duration::from_micros(0), Duration::from_micros(1_000)];
        // Request 1 was due at 1 ms, offered 0.5 ms late, done at 2 ms.
        let records = [
            rec(100_000, 100_000, 600_000, 0),
            rec(1_500_000, 1_500_000, 2_000_000, 0),
        ];
        let sojourns = |records: &[RequestRecord]| -> Vec<Option<f64>> {
            records
                .iter()
                .zip(schedule)
                .map(|(r, due)| due_sojourn_ms(r, due))
                .collect()
        };
        assert_eq!(sojourns(&records), vec![Some(0.6), Some(1.0)]);
        assert_eq!(generator_lateness_ms(&records, &schedule), vec![0.1, 0.5]);
        assert_eq!(waits_ms(&records), vec![0.0, 0.0]);
        assert_eq!(services_ms(&records), vec![0.5, 0.5]);
        // Dropped requests have no sojourn but were still offered late.
        let mut dropped = records;
        dropped[1].dropped = true;
        assert_eq!(sojourns(&dropped), vec![Some(0.6), None]);
        assert_eq!(generator_lateness_ms(&dropped, &schedule).len(), 2);
    }

    #[test]
    fn wakeups_count_only_arrivals_at_an_idle_replica() {
        let records = [
            rec(0, 50_000, 1_000_000, 0),            // first on replica 0: idle
            rec(500_000, 1_000_000, 2_000_000, 0),   // queued behind it
            rec(3_000_000, 3_020_000, 4_000_000, 0), // replica idle again
            rec(100, 200, 300, 1),                   // first on replica 1
        ];
        assert_eq!(wakeups_ms(&records), vec![0.05, 0.02, 0.0001]);
    }

    #[test]
    fn self_time_subtracts_children() {
        let span = |layer, start_ns, end_ns, parent| Span {
            layer,
            start_ns,
            end_ns,
            parent,
            request: 0,
        };
        let spans = vec![
            span("cache", 0, 1_000_000_000, None),
            span("prepare", 0, 100_000_000, Some(0)),
            span("engine", 0, 700_000_000, Some(0)),
            span("kernels", 0, 500_000_000, None),
            span("engine", 0, 600_000_000, Some(3)), // noisy: longer than its parent
        ];
        let self_s = self_times(&spans);
        assert!((self_s[0] - 0.2).abs() < 1e-12);
        assert!((self_s[1] - 0.1).abs() < 1e-12);
        assert_eq!(self_s[3], 0.0, "floored at zero");
        let tracer = Tracer {
            t0: Instant::now(),
            spans,
        };
        assert!((tracer.self_secs("engine") - 1.3).abs() < 1e-12);
        assert!((tracer.top_level_secs() - 1.5).abs() < 1e-12);
    }
}
