//! Consecutive graph streams — the accelerator's input interface.

use std::fmt;
use std::sync::Arc;

use crate::Graph;

type GeneratorFn = dyn Fn(usize) -> Graph + Send + Sync;

#[derive(Clone)]
enum Source {
    Stored(Arc<[Graph]>),
    Generated(Arc<GeneratorFn>),
}

/// A finite stream of graphs arriving one at a time.
///
/// The paper's target scenario is "many small graphs consecutively streamed
/// in at batch size 1": `GraphStream` models that arrival process. Streams
/// are either *stored* (small materialised datasets) or *generated* — graph
/// `i` is produced on demand from a deterministic per-index generator, so a
/// 43k-graph MolPCBA-like stream costs no up-front memory.
///
/// The stream is an [`Iterator`] and can be restarted with
/// [`GraphStream::reset`] or random-accessed with [`GraphStream::get`].
///
/// # Example
///
/// ```
/// use flowgnn_graph::{Graph, GraphStream, FeatureSource};
/// use flowgnn_tensor::Matrix;
///
/// let stream = GraphStream::generated(3, |i| {
///     Graph::new(i + 1, vec![], FeatureSource::dense(Matrix::zeros(i + 1, 1)), None)
///         .expect("valid")
/// });
/// let sizes: Vec<usize> = stream.map(|g| g.num_nodes()).collect();
/// assert_eq!(sizes, vec![1, 2, 3]);
/// ```
#[derive(Clone)]
pub struct GraphStream {
    source: Source,
    /// Graphs in the stream: all of a generated source, a prefix of a
    /// stored one after [`GraphStream::take_prefix`].
    len: usize,
    next: usize,
}

impl GraphStream {
    /// Creates a stream over already-materialised graphs.
    pub fn from_graphs(graphs: Vec<Graph>) -> Self {
        Self {
            len: graphs.len(),
            source: Source::Stored(graphs.into()),
            next: 0,
        }
    }

    /// Creates a generated stream: graph `i` is `gen(i)`.
    ///
    /// `gen` must be deterministic for reproducibility (the same index must
    /// always produce the same graph).
    pub fn generated<F>(len: usize, gen: F) -> Self
    where
        F: Fn(usize) -> Graph + Send + Sync + 'static,
    {
        Self {
            source: Source::Generated(Arc::new(gen)),
            len,
            next: 0,
        }
    }

    /// Total number of graphs in the stream, regardless of position.
    ///
    /// Note this differs from [`ExactSizeIterator::len`], which reports the
    /// *remaining* count; inside iterator methods the trait method shadows
    /// this one, so internal code uses [`GraphStream::total`].
    pub fn total(&self) -> usize {
        self.len
    }

    /// Whether the stream contains no graphs.
    pub fn is_empty(&self) -> bool {
        self.total() == 0
    }

    /// Number of graphs already yielded.
    pub fn position(&self) -> usize {
        self.next
    }

    /// Rewinds the stream to the beginning.
    pub fn reset(&mut self) {
        self.next = 0;
    }

    /// Fetches graph `i` without advancing the stream.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.total()`.
    pub fn get(&self, i: usize) -> Graph {
        assert!(
            i < self.total(),
            "graph index {i} out of bounds ({} graphs)",
            self.total()
        );
        match &self.source {
            Source::Stored(g) => g[i].clone(),
            Source::Generated(gen) => gen(i),
        }
    }

    /// Restricts the stream to its first `n` graphs, rewound to the start
    /// (useful for smoke tests over large generated datasets). If
    /// `n >= len`, every graph stays. No graph is copied: a stored stream
    /// keeps sharing its graphs and only narrows its bound.
    pub fn take_prefix(mut self, n: usize) -> Self {
        self.len = self.len.min(n);
        self.next = 0;
        self
    }
}

impl Iterator for GraphStream {
    type Item = Graph;

    fn next(&mut self) -> Option<Graph> {
        if self.next >= self.total() {
            return None;
        }
        let g = self.get(self.next);
        self.next += 1;
        Some(g)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.total() - self.next;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for GraphStream {}

impl fmt::Debug for GraphStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "GraphStream(len={}, position={}, {})",
            self.total(),
            self.next,
            match self.source {
                Source::Stored(_) => "stored",
                Source::Generated(_) => "generated",
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FeatureSource;
    use flowgnn_tensor::Matrix;

    fn tiny(n: usize) -> Graph {
        Graph::new(n, vec![], FeatureSource::dense(Matrix::zeros(n, 1)), None).unwrap()
    }

    #[test]
    fn stored_stream_yields_in_order() {
        let s = GraphStream::from_graphs(vec![tiny(1), tiny(2)]);
        let ns: Vec<usize> = s.map(|g| g.num_nodes()).collect();
        assert_eq!(ns, vec![1, 2]);
    }

    #[test]
    fn generated_stream_is_deterministic() {
        let s = GraphStream::generated(5, |i| tiny(i * 2));
        assert_eq!(s.get(3).num_nodes(), 6);
        assert_eq!(s.get(3).num_nodes(), 6);
    }

    #[test]
    fn reset_rewinds() {
        let mut s = GraphStream::from_graphs(vec![tiny(1), tiny(2)]);
        assert!(s.next().is_some());
        assert_eq!(s.position(), 1);
        s.reset();
        assert_eq!(s.position(), 0);
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn exact_size_iterator_contract() {
        let mut s = GraphStream::generated(4, tiny);
        assert_eq!(s.total(), 4);
        s.next();
        assert_eq!(s.size_hint(), (3, Some(3)));
    }

    #[test]
    fn take_prefix_truncates_both_variants() {
        let s = GraphStream::generated(100, tiny).take_prefix(3);
        assert_eq!(s.total(), 3);
        let s = GraphStream::from_graphs(vec![tiny(1), tiny(2), tiny(3)]).take_prefix(2);
        assert_eq!(s.clone().count(), 2);

        // A narrowed stored stream sees only its prefix, everywhere.
        let mut s = s;
        assert_eq!(s.total(), 2);
        assert_eq!(s.get(0).num_nodes(), 1);
        assert_eq!(s.get(1).num_nodes(), 2);
        assert_eq!(s.next().map(|g| g.num_nodes()), Some(1));
        assert_eq!(s.size_hint(), (1, Some(1)));
        s.reset();
        let ns: Vec<usize> = s.clone().map(|g| g.num_nodes()).collect();
        assert_eq!(ns, vec![1, 2]);
        let past_end = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.get(2)));
        assert!(
            past_end.is_err(),
            "get(len) must panic on a narrowed stream"
        );
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_bounds_checked() {
        GraphStream::from_graphs(vec![]).get(0);
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", GraphStream::from_graphs(vec![])).is_empty());
    }
}
