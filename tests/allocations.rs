//! Heap allocations of warm engine runs and warm trace-cache hits.
//!
//! A warm run reuses its `SimScratch`, so how many times it allocates must
//! not depend on the graph it runs: only the bytes of its report and
//! output grow with the graph (DESIGN.md §3e). A counting global allocator
//! checks that for every preset in both execution modes on 30 MolHIV and
//! 30 HEP graphs, and for trace-cache hits. Metric updates are atomics on
//! instruments bound before the run, so attaching `EngineMetrics` to a warm
//! run allocates nothing more, and `ServeMetrics` adds to a fleet run a
//! number of allocations that does not grow with its requests. The
//! allocator counts the test thread's `alloc`, `alloc_zeroed` and `realloc`
//! calls, so a buffer that grows counts as an allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use flowgnn::core::{EngineMetrics, Registry, ServeMetrics, ServiceTraceCache, SimScratch};
use flowgnn::prelude::*;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with` never allocates; it fails only while the thread exits.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's `GlobalAlloc` contract is the one `System` needs, and
// `count` neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The allocations `f` makes on this thread; what it returns is dropped
/// after the count.
fn allocations_in<R>(f: impl FnOnce() -> R) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    let after = ALLOCATIONS.with(Cell::get);
    drop(result);
    after - before
}

fn presets(spec: &DatasetSpec) -> Vec<GnnModel> {
    let (dim, edge) = (spec.node_feat_dim(), spec.edge_feat_dim());
    vec![
        GnnModel::gcn(dim, 1),
        GnnModel::gin(dim, edge, 2),
        GnnModel::gin_vn(dim, edge, 3),
        GnnModel::gat(dim, 4),
        GnnModel::pna(dim, edge, 5),
        GnnModel::dgn(dim, 6),
    ]
}

/// Prints the range of `what`'s counts and records them in `failures`
/// unless they are all equal.
fn constant(what: String, counts: &[u64], failures: &mut Vec<String>) {
    let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
    println!("{what}: {min}..={max} allocations");
    if min != max {
        failures.push(format!("{what}: {counts:?}"));
    }
}

/// The allocations of one warm `run_prepared` per graph, after a pass that
/// warms `acc`'s scratch on every graph.
fn warm_run_counts(acc: &Accelerator, graphs: &[Graph]) -> Vec<u64> {
    let prepared: Vec<_> = graphs.iter().map(|g| acc.prepare(g)).collect();
    let mut scratch = SimScratch::default();
    for p in &prepared {
        acc.run_prepared(p, &mut scratch);
    }
    prepared
        .iter()
        .map(|p| allocations_in(|| acc.run_prepared(p, &mut scratch)))
        .collect()
}

#[test]
fn warm_runs_and_cache_hits_allocate_a_constant_number_of_times() {
    let mut failures = Vec::new();
    for kind in [DatasetKind::MolHiv, DatasetKind::Hep] {
        let spec = DatasetSpec::standard(kind).num_graphs(30);
        let graphs: Vec<Graph> = spec.stream().collect();
        for model in presets(&spec) {
            for execution in [ExecutionMode::TimingOnly, ExecutionMode::Full] {
                let config = ArchConfig::default().with_execution(execution);
                let counts = warm_run_counts(&Accelerator::new(model.clone(), config), &graphs);
                let what = format!("{} {} {}", kind.name(), model.name(), execution.name());
                constant(what, &counts, &mut failures);
            }
        }

        // A hit answers a one-graph stream from a filled cache, with the
        // engine metrics counting it.
        let acc = Accelerator::new(
            GnnModel::gcn(spec.node_feat_dim(), 7),
            ArchConfig::default(),
        )
        .with_trace_cache(ServiceTraceCache::new(64))
        .with_metrics(EngineMetrics::new(&Registry::new()));
        acc.service_trace(GraphStream::from_graphs(graphs.clone()), graphs.len());
        let counts: Vec<u64> = graphs
            .iter()
            .map(|g| {
                let stream = GraphStream::from_graphs(vec![g.clone()]);
                allocations_in(|| acc.service_trace(stream, 1))
            })
            .collect();
        constant(format!("{} cache hit", kind.name()), &counts, &mut failures);
    }
    assert!(
        failures.is_empty(),
        "allocation counts vary with the graph:\n{}",
        failures.join("\n")
    );
}

#[test]
fn engine_metrics_add_no_allocations_to_a_warm_run() {
    let mut failures = Vec::new();
    for kind in [DatasetKind::MolHiv, DatasetKind::Hep] {
        let spec = DatasetSpec::standard(kind).num_graphs(30);
        let graphs: Vec<Graph> = spec.stream().collect();
        let (dim, edge) = (spec.node_feat_dim(), spec.edge_feat_dim());
        for (model, execution) in [
            (GnnModel::gcn(dim, 1), ExecutionMode::TimingOnly),
            (GnnModel::gin(dim, edge, 2), ExecutionMode::Full),
        ] {
            let what = format!("{} {} {}", kind.name(), model.name(), execution.name());
            let config = ArchConfig::default().with_execution(execution);
            let plain = Accelerator::new(model.clone(), config);
            let metered =
                Accelerator::new(model, config).with_metrics(EngineMetrics::new(&Registry::new()));
            let (without, with) = (
                warm_run_counts(&plain, &graphs),
                warm_run_counts(&metered, &graphs),
            );
            let range =
                |c: &[u64]| format!("{}..={}", c.iter().min().unwrap(), c.iter().max().unwrap());
            println!(
                "{what}: {} allocations without metrics, {} with",
                range(&without),
                range(&with)
            );
            if with != without {
                failures.push(format!(
                    "{what}: {without:?} without metrics, {with:?} with"
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "engine metrics allocate in a warm run:\n{}",
        failures.join("\n")
    );
}

#[test]
fn serve_metrics_add_allocations_independent_of_the_request_count() {
    // Two replicas behind one-deep queues, overloaded by two classes
    // under priority admission, so the run offers, dispatches, completes,
    // drops and displaces requests, and every instrument is updated.
    let config = FleetConfig::pool(2)
        .arrivals(ArrivalProcess::Poisson {
            mean_gap: 6_000.0,
            seed: 1,
        })
        .queue_capacity(1)
        .admission(AdmissionPolicy::Priority)
        .class(RequestClass::new("interactive", 1))
        .build()
        .unwrap();
    let extra: Vec<u64> = [100, 1_000]
        .into_iter()
        .map(|n: u64| {
            let costs = vec![(0..n).map(|i| 5_000 + i * 7_919 % 20_000).collect()];
            let class_of: Vec<usize> = (0..n).map(|i| usize::from(i % 3 == 0)).collect();
            let run = |metrics: Option<&ServeMetrics>| {
                allocations_in(|| {
                    run_fleet::<ModelWorker>(&costs, &class_of, &config, FleetRuntime::Sim, metrics)
                        .unwrap()
                })
            };
            let without = run(None);
            let metrics = ServeMetrics::new(&Registry::new());
            let with = run(Some(&metrics));
            assert!(metrics.dropped.get() > 0 && metrics.displaced.get() > 0);
            println!("sim fleet, {n} requests: {without} allocations without metrics, {with} with");
            with - without
        })
        .collect();
    assert_eq!(
        extra[0], extra[1],
        "serve metrics add {} allocations at 100 requests and {} at 1,000",
        extra[0], extra[1]
    );
}
