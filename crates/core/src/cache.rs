//! Content-addressed service-trace cache.
//!
//! Serving sweeps replay the *same* graph stream against many serving
//! configurations (replica counts, dispatch policies, offered loads), and
//! every replay re-simulates the engine even though the cycle-exact
//! per-graph latency depends only on the graph's content and the
//! [`ArchConfig`]. The [`ServiceTraceCache`] memoises that mapping: the
//! key is a content fingerprint of the graph (structure + features)
//! crossed with the architecture configuration, the value is the
//! end-to-end cycle count the engine produced. A hit returns the exact
//! cycles a fresh simulation would compute, so cached and uncached
//! serving reports are identical (pinned by `tests/differential.rs`).
//!
//! On a warm cache a simulated request costs only its graph's
//! generation, fingerprint and lookup before the queueing scan. So
//! [`graph_fingerprint`] packs an edge or two feature values into each
//! 64-bit word and spreads a slab's words over four independent hash
//! lanes, and [`serve_on`](crate::InferenceBackend::serve_on) under
//! [`Runtime::Sim`](crate::Runtime::Sim) hands its stream straight to
//! the lookup without copying a graph.
//!
//! The cache is a cloneable handle over shared state, so sweep drivers
//! hand the *same* cache to every [`crate::Accelerator`] instance they
//! construct for a model. It must never be shared across *models*: the
//! key does not identify the model, because one `Accelerator` is one
//! compiled kernel and owns its cache (mirroring the paper's
//! one-kernel-per-GNN deployment).
//!
//! Eviction is least-recently-used over a configurable capacity; a
//! monotonic access tick makes every entry's recency distinct, so the
//! eviction order is deterministic regardless of hash-map iteration
//! order. Hit / miss / eviction counters are read through
//! [`ServiceTraceCache::stats`] as a [`CacheStats`]; serving reports do
//! not carry them.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use flowgnn_desim::Cycle;
use flowgnn_graph::{FeatureSource, Graph};

use crate::config::ArchConfig;

/// Content fingerprint of a graph: a 64-bit hash over the node and edge
/// counts, the edge list, and the feature content, finished with an
/// avalanche.
///
/// Shape fields and tags are mixed one `u64` word per step. Each bulk
/// slab (the edge list, a dense node-feature matrix, the edge-feature
/// matrix) is first packed into words, one edge or two `f32` bit
/// patterns per word (an odd-length slab's last word holds one value).
/// Word `k` of a slab steps lane `k mod 4` of four independent lanes,
/// and the four lane states are then mixed into the main state in lane
/// order. Two equal-length inputs that differ in a single word never
/// collide: every step is a bijection of its state and injective in its
/// word, equal lengths put every word in the same lane, so exactly one
/// lane state differs, and that state is one differing word of the fold.
///
/// Procedural feature sources hash their *description* (rows, dim, seed,
/// density) rather than materialising rows — procedural rows are pure
/// functions of `(seed, i)`, so equal descriptions generate equal
/// features. Dense matrices and edge-feature matrices hash their value
/// bits. Two graphs with equal fingerprints therefore present identical
/// inputs to the engine (modulo 64-bit hash collisions, which at the
/// stream sizes the sweeps use are negligible). The hash is a fixed
/// function of the content, equal across runs and processes.
pub fn graph_fingerprint(g: &Graph) -> u64 {
    let mut h = WordHash::new();
    h.write_u64(g.num_nodes() as u64);
    h.write_u64(g.num_edges() as u64);
    h.write_lanes(g.edges(), 1, |e| {
        (u64::from(e[0].0) << 32) | u64::from(e[0].1)
    });
    match g.node_features() {
        FeatureSource::Dense(m) => {
            h.write_u64(0xD0);
            h.write_u64(m.rows() as u64);
            h.write_u64(m.cols() as u64);
            h.write_lanes(m.as_slice(), 2, pack_f32s);
        }
        FeatureSource::Procedural { rows, dim, seed } => {
            h.write_u64(0x9C);
            h.write_u64(*rows as u64);
            h.write_u64(*dim as u64);
            h.write_u64(*seed);
        }
        FeatureSource::SparseProcedural {
            rows,
            dim,
            density,
            seed,
        } => {
            h.write_u64(0x5B);
            h.write_u64(*rows as u64);
            h.write_u64(*dim as u64);
            h.write_u64(density.to_bits());
            h.write_u64(*seed);
        }
    }
    if let Some(ef) = g.edge_feature_matrix() {
        h.write_u64(0xEF);
        h.write_u64(ef.rows() as u64);
        h.write_u64(ef.cols() as u64);
        h.write_lanes(ef.as_slice(), 2, pack_f32s);
    }
    h.finish()
}

/// One word from up to two `f32` values: the first value's bits in the
/// low half, the second's (if any) in the high half.
fn pack_f32s(pair: &[f32]) -> u64 {
    let hi = pair.get(1).map_or(0, |x| u64::from(x.to_bits()));
    (hi << 32) | u64::from(pair[0].to_bits())
}

/// Independent hash lanes a bulk slab is spread over, so consecutive
/// words' multiplies overlap instead of waiting on one another.
const LANES: usize = 4;

/// A 64-bit hash fed one `u64` word per step.
///
/// Each step xors the word into the state, multiplies by an odd constant
/// and folds the high half back down with an xor-shift. All three are
/// bijections of the state, and for a fixed state the step is injective
/// in the word, so two equal-length inputs that differ in a single word
/// always end in different states. [`WordHash::finish`] applies murmur3's
/// `fmix64` avalanche, which is a bijection too and spreads every input
/// bit over the whole output.
#[derive(Clone, Copy)]
struct WordHash(u64);

impl WordHash {
    fn new() -> Self {
        WordHash(0x243f_6a88_85a3_08d3)
    }

    fn write_u64(&mut self, x: u64) {
        let h = (self.0 ^ x).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }

    /// Hashes a slab packed `per_word` items to a word by `word`: word
    /// `k` steps lane `k mod LANES`, each lane a fresh [`WordHash`], and
    /// the final lane states are then written to `self` in lane order.
    fn write_lanes<T>(&mut self, items: &[T], per_word: usize, word: impl Fn(&[T]) -> u64) {
        let mut lanes = [WordHash::new(); LANES];
        let mut blocks = items.chunks_exact(per_word * LANES);
        for block in blocks.by_ref() {
            for (lane, w) in lanes.iter_mut().zip(block.chunks_exact(per_word)) {
                lane.write_u64(word(w));
            }
        }
        for (lane, w) in lanes.iter_mut().zip(blocks.remainder().chunks(per_word)) {
            lane.write_u64(word(w));
        }
        for lane in lanes {
            self.write_u64(lane.0);
        }
    }

    fn finish(&self) -> u64 {
        let mut k = self.0;
        k ^= k >> 33;
        k = k.wrapping_mul(0xff51_afd7_ed55_8ccd);
        k ^= k >> 33;
        k = k.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        k ^ (k >> 33)
    }
}

/// Counters describing a [`ServiceTraceCache`]'s lifetime activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed (and were followed by an insert).
    pub misses: u64,
    /// Entries displaced by LRU eviction.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Maximum resident entries.
    pub capacity: usize,
}

#[derive(Debug)]
struct Entry {
    cycles: Cycle,
    last_used: u64,
}

#[derive(Debug)]
struct Inner {
    map: HashMap<(u64, ArchConfig), Entry>,
    capacity: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// A shared, LRU-bounded memo of `(graph fingerprint, ArchConfig) →
/// service cycles`. Cloning the handle shares the underlying cache.
///
/// See the [module docs](crate::cache) for the contract: one cache per
/// compiled model, identical cycles whether hit or recomputed.
#[derive(Debug, Clone)]
pub struct ServiceTraceCache {
    inner: Arc<Mutex<Inner>>,
}

impl ServiceTraceCache {
    /// Creates a cache holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace cache capacity must be at least 1");
        Self {
            inner: Arc::new(Mutex::new(Inner {
                map: HashMap::new(),
                capacity,
                tick: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            })),
        }
    }

    /// Looks up the service cycles for `(fingerprint, config)`, counting
    /// a hit (and refreshing recency) or a miss.
    pub(crate) fn lookup(&self, fingerprint: u64, config: &ArchConfig) -> Option<Cycle> {
        let mut inner = self.inner.lock().expect("trace cache poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(&(fingerprint, *config)) {
            Some(entry) => {
                entry.last_used = tick;
                let cycles = entry.cycles;
                inner.hits += 1;
                Some(cycles)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Inserts the freshly simulated cycles for `(fingerprint, config)`,
    /// evicting the least-recently-used entry if the cache is full.
    pub(crate) fn insert(&self, fingerprint: u64, config: &ArchConfig, cycles: Cycle) {
        let mut inner = self.inner.lock().expect("trace cache poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        let key = (fingerprint, *config);
        if inner.map.len() >= inner.capacity && !inner.map.contains_key(&key) {
            // Every `last_used` is a distinct tick, so the minimum — and
            // therefore the eviction order — is deterministic.
            let victim = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
                .expect("non-empty at capacity");
            inner.map.remove(&victim);
            inner.evictions += 1;
        }
        inner.map.insert(
            key,
            Entry {
                cycles,
                last_used: tick,
            },
        );
    }

    /// A snapshot of the cache's counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("trace cache poisoned");
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            entries: inner.map.len(),
            capacity: inner.capacity,
        }
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("trace cache poisoned").map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowgnn_graph::generators::{GraphGenerator, MoleculeLike};
    use flowgnn_tensor::Matrix;

    fn cfg() -> ArchConfig {
        ArchConfig::default()
    }

    #[test]
    fn counters_track_hits_misses_and_entries() {
        let cache = ServiceTraceCache::new(8);
        let c = cfg();
        assert_eq!(cache.lookup(1, &c), None);
        cache.insert(1, &c, 100);
        assert_eq!(cache.lookup(1, &c), Some(100));
        assert_eq!(cache.lookup(2, &c), None);
        cache.insert(2, &c, 200);
        assert_eq!(cache.lookup(2, &c), Some(200));
        assert_eq!(cache.lookup(1, &c), Some(100));
        let stats = cache.stats();
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.capacity, 8);
        assert_eq!(cache.len(), 2);
        assert!(!cache.is_empty());
    }

    #[test]
    fn lru_evicts_least_recently_used_in_order() {
        let cache = ServiceTraceCache::new(2);
        let c = cfg();
        cache.insert(1, &c, 10);
        cache.insert(2, &c, 20);
        // Touch 1 so 2 becomes the LRU entry.
        assert_eq!(cache.lookup(1, &c), Some(10));
        cache.insert(3, &c, 30); // evicts 2
        assert_eq!(cache.lookup(2, &c), None);
        assert_eq!(cache.lookup(1, &c), Some(10));
        assert_eq!(cache.lookup(3, &c), Some(30));
        // 1 is now LRU (3 was touched last).
        assert_eq!(cache.lookup(3, &c), Some(30));
        cache.insert(4, &c, 40); // evicts 1
        assert_eq!(cache.lookup(1, &c), None);
        assert_eq!(cache.lookup(4, &c), Some(40));
        let stats = cache.stats();
        assert_eq!(stats.evictions, 2);
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn reinserting_a_resident_key_does_not_evict() {
        let cache = ServiceTraceCache::new(2);
        let c = cfg();
        cache.insert(1, &c, 10);
        cache.insert(2, &c, 20);
        cache.insert(1, &c, 11); // update in place at capacity
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.lookup(1, &c), Some(11));
        assert_eq!(cache.lookup(2, &c), Some(20));
    }

    #[test]
    fn distinct_configs_are_distinct_keys() {
        let cache = ServiceTraceCache::new(8);
        let a = ArchConfig::default();
        let b = ArchConfig::default().with_parallelism(4, 4, 4, 8);
        cache.insert(7, &a, 111);
        cache.insert(7, &b, 222);
        assert_eq!(cache.lookup(7, &a), Some(111));
        assert_eq!(cache.lookup(7, &b), Some(222));
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_capacity_panics() {
        ServiceTraceCache::new(0);
    }

    #[test]
    fn fingerprint_separates_structure_and_features() {
        let fp = graph_fingerprint;
        let g0 = MoleculeLike::new(14.0, 7).generate(0);
        let g1 = MoleculeLike::new(14.0, 7).generate(1);
        assert_eq!(fp(&g0), fp(&g0));
        assert_ne!(fp(&g0), fp(&g1));
        // Clones fingerprint identically (content-addressed, not identity).
        assert_eq!(fp(&g0), fp(&g0.clone()));

        // One change to anything the engine reads moves the fingerprint.
        let n = g0.num_nodes();
        let edges = g0.edges().to_vec();
        let FeatureSource::Dense(x) = g0.node_features() else {
            panic!("molecules carry dense node features");
        };
        let ef = g0
            .edge_feature_matrix()
            .expect("molecules carry edge features");
        let build = |n, edges, x: &Matrix, ef: Option<&Matrix>| {
            Graph::new(n, edges, FeatureSource::dense(x.clone()), ef.cloned()).unwrap()
        };
        // Rewrites value `k` of a matrix's row-major slab.
        let edit = |m: &Matrix, k: usize, f: fn(f32) -> f32| {
            let mut v = m.as_slice().to_vec();
            v[k] = f(v[k]);
            Matrix::from_vec(m.rows(), m.cols(), v)
        };
        let flip: fn(f32) -> f32 = |v| f32::from_bits(v.to_bits() ^ 1);
        let flip_lowest_bit = |m: &Matrix| edit(m, 0, flip);
        // Values 0 and 1 share a packed word; swapping them must show.
        let mut pair_swapped = x.as_slice().to_vec();
        assert_ne!(pair_swapped[0], pair_swapped[1]);
        pair_swapped.swap(0, 1);
        let pair_swapped = Matrix::from_vec(n, x.cols(), pair_swapped);
        let mut moved = edges.clone();
        moved[0].1 = (moved[0].1 + 1) % n as u32;
        let mut swapped = edges.clone();
        assert_ne!(edges[0], edges[1]);
        swapped.swap(0, 1);
        let mut grown = x.as_slice().to_vec();
        grown.resize(grown.len() + x.cols(), 0.0);
        let grown = Matrix::from_vec(n + 1, x.cols(), grown);
        assert_eq!(fp(&build(n, edges.clone(), x, Some(ef))), fp(&g0));
        let variants = [
            (
                "dense bit",
                build(n, edges.clone(), &flip_lowest_bit(x), Some(ef)),
            ),
            (
                "edge bit",
                build(n, edges.clone(), x, Some(&flip_lowest_bit(ef))),
            ),
            ("endpoint", build(n, moved, x, Some(ef))),
            ("edge swap", build(n, swapped, x, Some(ef))),
            (
                "isolated node",
                build(n + 1, edges.clone(), &grown, Some(ef)),
            ),
            ("no edge features", build(n, edges.clone(), x, None)),
            (
                "packed pair swap",
                build(n, edges.clone(), &pair_swapped, Some(ef)),
            ),
        ];
        for (what, g) in &variants {
            assert_ne!(fp(g), fp(&g0), "{what}");
        }
        // One flip in each of the four lanes: word `lane` holds values
        // `2 lane` and `2 lane + 1`.
        for lane in 0..LANES {
            let g = build(n, edges.clone(), &edit(x, 2 * lane + 1, flip), Some(ef));
            assert_ne!(fp(&g), fp(&g0), "lane {lane}");
        }
        // +0.0 and -0.0 compare equal but are different inputs.
        let signed_zero =
            |z: fn(f32) -> f32| fp(&build(n, edges.clone(), x, Some(&edit(ef, 0, z))));
        assert_ne!(signed_zero(|_| 0.0), signed_zero(|_| -0.0));
        // An odd-length slab's last word holds one value; it still counts.
        let odd = Matrix::from_vec(3, 3, (0..9).map(|v| v as f32).collect());
        let tiny = |x: &Matrix| fp(&build(3, vec![(0, 1)], x, None));
        assert_ne!(tiny(&odd), tiny(&edit(&odd, 8, flip)));

        // Procedural sources hash their description, field by field.
        let with = |f: FeatureSource| Graph::new(f.rows(), vec![(0, 1)], f, None).unwrap();
        let procedural = fp(&with(FeatureSource::procedural(6, 4, 9)));
        for f in [
            FeatureSource::procedural(7, 4, 9),
            FeatureSource::procedural(6, 5, 9),
            FeatureSource::procedural(6, 4, 10),
        ] {
            assert_ne!(fp(&with(f.clone())), procedural, "{f:?}");
        }
        let sparse = fp(&with(FeatureSource::sparse_procedural(6, 4, 0.5, 9)));
        for f in [
            FeatureSource::sparse_procedural(7, 4, 0.5, 9),
            FeatureSource::sparse_procedural(6, 5, 0.5, 9),
            FeatureSource::sparse_procedural(6, 4, 0.25, 9),
            FeatureSource::sparse_procedural(6, 4, 0.5, 10),
        ] {
            assert_ne!(fp(&with(f.clone())), sparse, "{f:?}");
        }
        assert_ne!(sparse, procedural);
        // A dense source holding the very rows a procedural one generates
        // is a different source: the tag keeps the two apart.
        let materialized = FeatureSource::procedural(6, 4, 9).materialize();
        assert_ne!(fp(&with(FeatureSource::dense(materialized))), procedural);
    }

    #[test]
    fn shared_handle_sees_the_same_state() {
        let cache = ServiceTraceCache::new(4);
        let clone = cache.clone();
        cache.insert(9, &cfg(), 99);
        assert_eq!(clone.lookup(9, &cfg()), Some(99));
        assert_eq!(clone.stats().hits, 1);
        assert_eq!(cache.stats().hits, 1);
    }
}
