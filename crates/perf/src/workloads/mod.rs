//! The four workloads and the pass loop they share.
//!
//! Every layer is timed only from outside, by timing calls into its
//! public functions. Where a layer runs inside another library call, a
//! traced pass calls that layer's public function again on the same
//! input after the timed loop and records the span under the enclosing
//! call (see [`crate::stats::self_times`]).

use std::collections::BTreeMap;
use std::time::Instant;

use flowgnn_core::RunReport;
use flowgnn_graph::datasets::DatasetSpec;
use flowgnn_rng::SplitMix64;

use crate::host::CpuSteer;
use crate::stats::{fast, per_item_fast, percentile, sorted, tail_percentile, Tracer, TrialStats};

mod hep;
mod live;
mod pcba;
mod sweep;

pub use live::PHASE_NAMES as LIVE_PHASES;

/// Workload names, in the order a full set runs them.
pub const WORKLOADS: [&str; 4] = [
    "hep_gcn_timing",
    "molpcba_gin_functional",
    LIVE,
    "molhiv_gcn_sweep",
];

/// The live-serving workload. `BENCHMARK.json` does not list it: on a
/// shared host its timings spread past any bound the file may set (see
/// the crate README); it runs by hand and in the tests.
pub const LIVE: &str = "molpcba_gcn_live";

/// An untraced run repeats its timed pass until `--seconds` have passed,
/// and at least this many times (exactly this many in a smoke run).
const MIN_PASSES: usize = 5;

/// Traced passes of a `--trace` run, each paired with an untraced pass
/// so the tracing overhead is measured on the same inputs.
const TRACED_TRIALS: usize = 2;

/// Wall time each timed set-up repetition spans.
const SETUP_WINDOW_S: f64 = 0.05;

/// Pipeline regions reported one by one in `sim.region_cycles.<i>`.
pub const MAX_REGIONS: usize = 6;

/// Command-line options a workload sees.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Seed of every generated input.
    pub seed: u64,
    /// How long an untraced run repeats its timed pass, in seconds.
    pub seconds: u64,
    /// Record spans and report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Tiny inputs and the fewest passes, for tests.
    pub smoke: bool,
}

impl Opts {
    /// `full` items, or `smoke` items in a smoke run.
    fn size(&self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }

    /// Whether an untraced run that started at `start` and has made
    /// `passes` timed passes makes another.
    fn another_pass(&self, start: Instant, passes: usize) -> bool {
        passes < MIN_PASSES || (!self.smoke && start.elapsed().as_secs_f64() < self.seconds as f64)
    }

    /// A seed for one input stream, derived from `--seed` and a tag.
    fn derive(&self, tag: u64) -> u64 {
        SplitMix64::new(self.seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
    }
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Metric values by name; units come from the catalogue in `main`.
    pub metrics: BTreeMap<String, f64>,
    /// Raw per-pass (live: per-burst) values behind the metrics, and
    /// each pass's probe time.
    pub trials: BTreeMap<String, Vec<f64>>,
    /// Operations attempted (graphs, requests or sweep points).
    pub attempted: u64,
    /// Operations that failed: output mismatches and calls that errored.
    pub failed: u64,
    /// Correctness mismatches; any makes the command exit nonzero.
    pub mismatches: u64,
    /// Spans recorded by a traced run.
    pub tracer: Tracer,
}

impl Report {
    fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Sets `name` to `value`, and records the per-pass (or per-burst)
    /// values it was taken over for the raw JSON.
    fn set_over(&mut self, name: &str, value: f64, per_pass: Vec<f64>) {
        self.set(name, value);
        self.trials.insert(name.to_string(), per_pass);
    }

    /// Sets `setup_s` to the fast decile of the set-up repetitions.
    fn set_setup(&mut self, setups_s: Vec<f64>) {
        self.set_over("setup_s", fast(&setups_s), setups_s);
    }

    /// Records, for the raw JSON, the probe time in ms of the CPU a pass
    /// was steered to: how fast the host ran it.
    fn add_probe(&mut self, probe_s: Option<f64>) {
        if let Some(s) = probe_s {
            self.trials
                .entry("probe_ms".into())
                .or_default()
                .push(s * 1e3);
        }
    }

    /// Sets the latency metrics from the host time (ms) of every item in
    /// every pass, `passes[p][i]`, and returns each item's fast-decile
    /// time. `latency_p50_ms` and `latency_p90_ms` are the median and
    /// p90 over items of that time; the per-layer tail pools every sample.
    fn set_latency(&mut self, passes: &[Vec<f64>]) -> Vec<f64> {
        let per_item = per_item_fast(passes);
        let items = sorted(per_item.clone());
        let per_pass = |p| {
            passes
                .iter()
                .map(|t| percentile(&sorted(t.clone()), p))
                .collect()
        };
        self.set_over("latency_p50_ms", percentile(&items, 50.0), per_pass(50.0));
        self.set_over("latency_p90_ms", percentile(&items, 90.0), per_pass(90.0));
        self.set_tail(passes.concat());
        per_item
    }

    /// Sets `name` to `work` units per second of the items' fast-decile
    /// times (`item_ms`), recording each pass's own rate over its wall.
    fn set_rate(&mut self, name: &str, work: f64, item_ms: &[f64], pass_walls_s: &[f64]) {
        let per_pass = pass_walls_s.iter().map(|w| work / w).collect();
        self.set_over(name, work * 1e3 / item_ms.iter().sum::<f64>(), per_pass);
    }

    /// Sets `latency_tail_ms` at the highest percentile the sample
    /// supports, and that percentile as `latency_tail_pct`.
    fn set_tail(&mut self, samples_ms: Vec<f64>) {
        let s = sorted(samples_ms);
        let tail = tail_percentile(s.len());
        self.set("latency_tail_ms", percentile(&s, tail));
        self.set("latency_tail_pct", tail);
    }

    /// Sets `trace.coverage` and `trace.overhead` from the traced and
    /// untraced passes' timed-loop walls.
    fn set_trace_cost(&mut self, untraced_s: &[f64], traced_s: &[f64]) {
        let traced: f64 = traced_s.iter().sum();
        self.set("trace.coverage", self.tracer.top_level_secs() / traced);
        self.set(
            "trace.overhead",
            TrialStats::of(traced_s).median / TrialStats::of(untraced_s).median - 1.0,
        );
    }

    /// Sets a layer's self time (per traced pass) and its share of the
    /// top-level spans.
    fn set_layer(&mut self, layer: &str, trials: usize) {
        let self_s = self.tracer.self_secs(layer);
        self.set(&format!("{layer}.self_s"), self_s / trials as f64);
        self.set(
            &format!("{layer}.share"),
            self_s / self.tracer.top_level_secs(),
        );
    }

    /// Times one generation of `spec`'s graphs, as `graph.generate_s`.
    fn set_generation(&mut self, spec: &DatasetSpec) {
        let t = Instant::now();
        let nodes: usize = spec.stream().map(|g| g.num_nodes()).sum();
        std::hint::black_box(nodes);
        self.set("graph.generate_s", t.elapsed().as_secs_f64());
        self.set("graph.graphs", spec.stream().total() as f64);
    }

    fn add_check(&mut self, checked: u64, mismatched: u64) {
        self.attempted += checked;
        self.failed += mismatched;
        self.mismatches += mismatched;
    }
}

/// Span recording that costs nothing when tracing is off.
pub struct Rec<'a>(Option<&'a mut Tracer>);

impl Rec<'_> {
    fn begin(&mut self, layer: &'static str, parent: Option<usize>, request: u64) -> Option<usize> {
        self.0.as_mut().map(|t| t.begin(layer, parent, request))
    }

    fn end(&mut self, id: Option<usize>) {
        if let (Some(t), Some(id)) = (self.0.as_mut(), id) {
            t.end(id);
        }
    }

    fn on(&self) -> bool {
        self.0.is_some()
    }
}

/// Runs one warm-up pass, then the timed passes: untraced ones until
/// `--seconds` have passed (see [`Opts::another_pass`]), or in a traced
/// run [`TRACED_TRIALS`] pairs of an untraced and a traced one. Before
/// each timed pass the thread moves to the fastest CPU (see [`CpuSteer`])
/// and the set-up is repeated and timed by `setup`, so the repetitions
/// sample the whole run as the passes do. Returns the untraced and the
/// traced passes' results, and sets `setup_s`.
fn run_passes<T>(
    opts: &Opts,
    report: &mut Report,
    mut setup: impl FnMut() -> f64,
    mut pass: impl FnMut(&mut Rec) -> T,
) -> (Vec<T>, Vec<T>) {
    let steer = CpuSteer::new();
    pass(&mut Rec(None));
    let (mut untraced, mut traced, mut setups) = (Vec::new(), Vec::new(), Vec::new());
    if opts.trace {
        for _ in 0..TRACED_TRIALS {
            report.add_probe(steer.pin_fastest());
            setups.push(setup());
            untraced.push(pass(&mut Rec(None)));
            report.add_probe(steer.pin_fastest());
            setups.push(setup());
            traced.push(pass(&mut Rec(Some(&mut report.tracer))));
        }
    } else {
        let start = Instant::now();
        while opts.another_pass(start, untraced.len()) {
            report.add_probe(steer.pin_fastest());
            setups.push(setup());
            untraced.push(pass(&mut Rec(None)));
        }
    }
    report.set_setup(setups);
    (untraced, traced)
}

/// Builds a workload's inputs with `setup`, and returns them with a timer
/// that repeats the set-up for about [`SETUP_WINDOW_S`] and returns the
/// seconds per set-up. The window is long enough that a millisecond
/// set-up is timed well above the clock's resolution, and short enough
/// to sample one speed of a shared host, as the passes do.
fn setup_timer<S>(setup: impl Fn() -> S) -> (S, impl FnMut() -> f64) {
    let t = Instant::now();
    let inputs = setup();
    let reps = (SETUP_WINDOW_S / t.elapsed().as_secs_f64()).ceil() as usize;
    let reps = reps.clamp(1, 1_000);
    let timer = move || {
        let t = Instant::now();
        for _ in 0..reps {
            drop(std::hint::black_box(setup()));
        }
        t.elapsed().as_secs_f64() / reps as f64
    };
    (inputs, timer)
}

/// Simulated-hardware totals over a set of engine runs.
#[derive(Debug, Default)]
struct SimTotals {
    cycles: u64,
    load: u64,
    readout: u64,
    regions: [u64; MAX_REGIONS],
    nt_busy: u64,
    nt_stall: u64,
    mp_busy: u64,
    mp_stall: u64,
    unit_cycles: u64,
}

impl SimTotals {
    fn add(&mut self, r: &RunReport) {
        self.cycles += r.total_cycles;
        self.load += r.load_cycles;
        self.readout += r.readout_cycles;
        for (slot, c) in self.regions.iter_mut().zip(&r.region_cycles) {
            *slot += c;
        }
        self.nt_busy += r.nt_busy_cycles;
        self.nt_stall += r.nt_stall_cycles;
        self.mp_busy += r.mp_busy_cycles;
        self.mp_stall += r.mp_stall_cycles;
        self.unit_cycles += r.num_units as u64 * r.total_cycles;
    }

    fn report(&self, report: &mut Report) {
        report.set("sim.cycles", self.cycles as f64);
        report.set("sim.load_cycles", self.load as f64);
        report.set("sim.readout_cycles", self.readout as f64);
        for (i, c) in self.regions.iter().enumerate() {
            report.set(&format!("sim.region_cycles.{i}"), *c as f64);
        }
        report.set("sim.nt_busy_cycles", self.nt_busy as f64);
        report.set("sim.nt_stall_cycles", self.nt_stall as f64);
        report.set("sim.mp_busy_cycles", self.mp_busy as f64);
        report.set("sim.mp_stall_cycles", self.mp_stall as f64);
        let units = self.unit_cycles.max(1) as f64;
        report.set(
            "sim.utilization",
            (self.nt_busy + self.mp_busy) as f64 / units,
        );
        report.set(
            "sim.stall_fraction",
            (self.nt_stall + self.mp_stall) as f64 / units,
        );
    }
}

/// Runs the named workload, one of [`WORKLOADS`].
pub fn run(name: &str, opts: &Opts) -> Report {
    match name {
        "hep_gcn_timing" => hep::run(opts),
        "molpcba_gin_functional" => pcba::run(opts),
        LIVE => live::run(opts),
        "molhiv_gcn_sweep" => sweep::run(opts),
        other => unreachable!("workload `{other}` passed the argument check"),
    }
}
