//! Differential pins across equivalent execution paths.
//!
//! Each test here runs the same workload through two paths that are
//! specified to be *identical* in output — cached vs uncached serving,
//! borrowing vs owning preparation — and asserts exact equality, not
//! tolerance. These are the guarantees the perf-oriented plumbing
//! (service-trace cache, zero-clone prepare) must never erode.

use flowgnn_core::prelude::*;
use flowgnn_core::ServiceTraceCache;
use flowgnn_graph::generators::{GraphGenerator, MoleculeLike};
use flowgnn_graph::GraphStream;
use flowgnn_models::GnnModel;

/// A stream of `reps` repetitions of `distinct` distinct graphs, in
/// round-robin order — the shape serving sweeps present to the cache.
fn repeated_stream(distinct: usize, reps: usize) -> GraphStream {
    let graphs: Vec<_> = (0..distinct)
        .map(|i| MoleculeLike::new(12.0, 4).generate(i))
        .collect();
    let mut all = Vec::with_capacity(distinct * reps);
    for _ in 0..reps {
        all.extend(graphs.iter().cloned());
    }
    GraphStream::from_graphs(all)
}

fn acc() -> Accelerator {
    Accelerator::new(GnnModel::gcn(9, 2), ArchConfig::default())
}

#[test]
fn cached_service_trace_is_bit_identical_to_uncached() {
    let n = 12; // 4 distinct graphs x 3 repetitions
    let plain = acc().service_trace(repeated_stream(4, 3), n);
    let cache = ServiceTraceCache::new(64);
    let cached = acc()
        .with_trace_cache(cache.clone())
        .service_trace(repeated_stream(4, 3), n);
    assert_eq!(plain, cached);
    let stats = cache.stats();
    assert_eq!(stats.misses, 4, "one simulation per distinct graph");
    assert_eq!(stats.hits, 8, "every repetition answered from cache");
    assert_eq!(stats.entries, 4);
    assert_eq!(stats.evictions, 0);
}

#[test]
fn cached_serve_report_is_identical_and_carries_counters() {
    let n = 9;
    let config = FleetConfig::pool(2)
        .arrivals(ArrivalProcess::Poisson {
            mean_gap: 50_000.0,
            seed: 7,
        })
        .build()
        .unwrap();
    let serve = |a: &Accelerator, stream: GraphStream| {
        a.serve_on(stream, n, &config, Runtime::Sim, None)
            .unwrap()
            .sim()
            .expect("sim runtime yields a sim report")
    };
    let plain = serve(&acc(), repeated_stream(3, 3));
    let cache = ServiceTraceCache::new(16);
    let cached = serve(
        &acc().with_trace_cache(cache.clone()),
        repeated_stream(3, 3),
    );

    assert_eq!(plain.per_endpoint.len(), 1, "one endpoint entry per serve");
    let stats = cache.stats();
    assert_eq!(stats.misses, 3);
    assert_eq!(stats.hits, 6);
    assert_eq!(plain, cached);

    // The same graphs generated on demand, and a longer stored stream cut
    // to `n` by the limit, serve the same report, cached or not; a fresh
    // cache counts one miss per distinct graph and hits for the rest.
    let generated = GraphStream::generated(n, |i| MoleculeLike::new(12.0, 4).generate(i % 3));
    let longer = repeated_stream(3, 4);
    for (what, stream) in [("generated", generated), ("limit < len", longer)] {
        for a in [acc(), acc().with_trace_cache(ServiceTraceCache::new(16))] {
            let report = serve(&a, stream.clone());
            if let Some(cache) = a.trace_cache() {
                let stats = cache.stats();
                assert_eq!((stats.misses, stats.hits), (3, 6), "{what}");
            }
            assert_eq!(plain, report, "{what}");
        }
    }
}

#[test]
fn cache_under_eviction_pressure_stays_exact() {
    // Capacity 1 forces an eviction on every distinct graph; correctness
    // must not depend on hit rate.
    let n = 12;
    let plain = acc().service_trace(repeated_stream(4, 3), n);
    let cache = ServiceTraceCache::new(1);
    let cached = acc()
        .with_trace_cache(cache.clone())
        .service_trace(repeated_stream(4, 3), n);
    assert_eq!(plain, cached);
    let stats = cache.stats();
    assert_eq!(stats.hits, 0, "round-robin order defeats a 1-entry cache");
    assert_eq!(stats.misses, 12);
    assert_eq!(stats.evictions, 11);
    assert_eq!(stats.entries, 1);
}

#[test]
fn run_stream_through_cache_matches_uncached() {
    let n = 8;
    let plain = acc().run_stream(repeated_stream(2, 4), n);
    let cached = acc()
        .with_trace_cache(ServiceTraceCache::new(8))
        .run_stream(repeated_stream(2, 4), n);
    assert_eq!(plain, cached);
}

#[test]
fn distinct_arch_configs_do_not_cross_contaminate() {
    // One shared cache, two configurations: each must get its own cycles.
    let model = GnnModel::gcn(9, 2);
    let cache = ServiceTraceCache::new(32);
    let narrow = ArchConfig::default().with_parallelism(1, 1, 1, 1);
    let wide = ArchConfig::default().with_parallelism(4, 4, 4, 8);
    let stream = || repeated_stream(2, 1);
    let narrow_plain = Accelerator::new(model.clone(), narrow).service_trace(stream(), 2);
    let wide_plain = Accelerator::new(model.clone(), wide).service_trace(stream(), 2);
    let narrow_cached = Accelerator::new(model.clone(), narrow)
        .with_trace_cache(cache.clone())
        .service_trace(stream(), 2);
    let wide_cached = Accelerator::new(model, wide)
        .with_trace_cache(cache.clone())
        .service_trace(stream(), 2);
    assert_eq!(narrow_plain, narrow_cached);
    assert_eq!(wide_plain, wide_cached);
    assert_ne!(narrow_plain, wide_plain, "configs must differ in timing");
    assert_eq!(cache.stats().entries, 4, "2 graphs x 2 configs");
}

#[test]
fn virtual_node_models_fingerprint_the_incoming_graph() {
    // The fingerprint is taken before virtual-node augmentation, so a
    // VN model's cache hits on the same *input* graph.
    let model = GnnModel::gin_vn(9, Some(3), 5);
    let cache = ServiceTraceCache::new(8);
    let a = Accelerator::new(model.clone(), ArchConfig::default());
    let plain = a.service_trace(repeated_stream(2, 3), 6);
    let cached = a
        .clone()
        .with_trace_cache(cache.clone())
        .service_trace(repeated_stream(2, 3), 6);
    assert_eq!(plain, cached);
    assert_eq!(cache.stats().misses, 2);
    assert_eq!(cache.stats().hits, 4);
}

#[test]
fn prepare_borrows_unless_virtual_node_augments() {
    // Pin the zero-clone contract of `Accelerator::prepare`: models
    // without a virtual node borrow the caller's graph; VN models clone
    // (they must mutate) and add exactly one node.
    let g = MoleculeLike::new(12.0, 4).generate(0);
    let plain = Accelerator::new(GnnModel::gcn(9, 2), ArchConfig::default());
    let prepared = plain.prepare(&g);
    assert!(
        std::ptr::eq(prepared.graph(), &g),
        "non-VN prepare must borrow, not clone"
    );

    let vn = Accelerator::new(GnnModel::gin_vn(9, Some(3), 5), ArchConfig::default());
    let prepared_vn = vn.prepare(&g);
    assert!(!std::ptr::eq(prepared_vn.graph(), &g));
    assert_eq!(prepared_vn.graph().num_nodes(), g.num_nodes() + 1);
}
