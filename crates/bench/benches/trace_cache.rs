//! Service-trace cache bench: cached vs uncached replay of a repeated
//! graph stream.
//!
//! Serving sweeps replay the same stream across many configurations;
//! the cache turns every replay after the first into fingerprint
//! lookups. This bench measures both sides of that trade on a small
//! MolHIV-like stream: the uncached engine pass, the cached replay
//! (all hits), and the raw fingerprint cost. The stream is stored and
//! built once, outside the timed closures, so no timing includes graph
//! generation.

use flowgnn_bench::timing;
use flowgnn_core::{graph_fingerprint, Accelerator, ArchConfig, ExecutionMode, ServiceTraceCache};
use flowgnn_graph::generators::{GraphGenerator, MoleculeLike};
use flowgnn_graph::GraphStream;
use flowgnn_models::GnnModel;

const GRAPHS: usize = 8;

fn acc() -> Accelerator {
    Accelerator::new(
        GnnModel::gcn(9, 11),
        ArchConfig::default().with_execution(ExecutionMode::TimingOnly),
    )
}

fn main() {
    let stored = GraphStream::from_graphs(
        (0..GRAPHS)
            .map(|i| MoleculeLike::new(20.0, 7).generate(i))
            .collect(),
    );
    let uncached = acc();
    let t = timing::measure(|| uncached.service_trace(stored.clone(), GRAPHS));
    println!("{:<40} {t}", "trace_cache/service_trace_uncached");

    let cache = ServiceTraceCache::new(GRAPHS);
    let cached = acc().with_trace_cache(cache.clone());
    cached.service_trace(stored.clone(), GRAPHS); // warm: one engine pass
    let t = timing::measure(|| cached.service_trace(stored.clone(), GRAPHS));
    println!("{:<40} {t}", "trace_cache/service_trace_all_hits");

    let g = MoleculeLike::new(20.0, 7).generate(0);
    let t = timing::measure(|| graph_fingerprint(&g));
    println!("{:<40} {t}", "trace_cache/graph_fingerprint");
}
