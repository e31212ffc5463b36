//! Node feature storage: dense or procedurally generated.

use flowgnn_rng::Rng;
use flowgnn_tensor::Matrix;

/// Per-node feature storage.
///
/// Small streamed graphs carry dense feature matrices. For full-scale
/// single-graph workloads (Reddit: 232,965 nodes × 602 features ≈ 560 MB)
/// the timing simulation never reads feature *values*, so features can be
/// procedural: each row is derived deterministically from `(seed, node id)`
/// on demand and nothing is materialised.
///
/// # Example
///
/// ```
/// use flowgnn_graph::FeatureSource;
///
/// let f = FeatureSource::procedural(1000, 16, 42);
/// let row = f.row(7);
/// assert_eq!(row.len(), 16);
/// assert_eq!(row, f.row(7)); // deterministic
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum FeatureSource {
    /// Fully materialised `num_nodes × dim` feature matrix.
    Dense(Matrix),
    /// Rows generated on demand from a seed; uniform in `[-1, 1]`.
    Procedural {
        /// Number of rows (nodes).
        rows: usize,
        /// Feature dimension.
        dim: usize,
        /// Generation seed; row `i` uses `seed ^ i`-derived randomness.
        seed: u64,
    },
    /// Sparse rows generated on demand: each element is nonzero with
    /// probability `density` (bag-of-words features like Cora's 1.27%-
    /// dense binary vectors). Zero-skipping hardware (input-stationary NT,
    /// AWB-GCN's SpMM) exploits exactly this structure.
    SparseProcedural {
        /// Number of rows (nodes).
        rows: usize,
        /// Feature dimension.
        dim: usize,
        /// Probability that an element is nonzero.
        density: f64,
        /// Generation seed.
        seed: u64,
    },
}

impl FeatureSource {
    /// Wraps a dense feature matrix.
    pub fn dense(m: Matrix) -> Self {
        FeatureSource::Dense(m)
    }

    /// Creates a procedural source of `rows` rows of dimension `dim`.
    pub fn procedural(rows: usize, dim: usize, seed: u64) -> Self {
        FeatureSource::Procedural { rows, dim, seed }
    }

    /// Creates a sparse procedural source where each element is nonzero
    /// with probability `density`.
    ///
    /// # Panics
    ///
    /// Panics if `density` is outside `[0, 1]`.
    pub fn sparse_procedural(rows: usize, dim: usize, density: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&density),
            "density {density} outside [0, 1]"
        );
        FeatureSource::SparseProcedural {
            rows,
            dim,
            density,
            seed,
        }
    }

    /// Number of rows (nodes).
    pub fn rows(&self) -> usize {
        match self {
            FeatureSource::Dense(m) => m.rows(),
            FeatureSource::Procedural { rows, .. }
            | FeatureSource::SparseProcedural { rows, .. } => *rows,
        }
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        match self {
            FeatureSource::Dense(m) => m.cols(),
            FeatureSource::Procedural { dim, .. } | FeatureSource::SparseProcedural { dim, .. } => {
                *dim
            }
        }
    }

    /// Feature row for node `i` as an owned vector.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> Vec<f32> {
        let mut out = vec![0.0; self.dim()];
        self.row_into(i, &mut out);
        out
    }

    /// Writes feature row `i` into `out` without allocating.
    ///
    /// Values are identical to [`FeatureSource::row`] (same per-row RNG
    /// stream for procedural sources). [`FeatureSource::row_ref`] builds
    /// on it for the encode stages, which read a dense row in place.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()` or `out.len() != self.dim()`.
    pub fn row_into(&self, i: usize, out: &mut [f32]) {
        assert_eq!(
            out.len(),
            self.dim(),
            "row buffer length {} does not match feature dim {}",
            out.len(),
            self.dim()
        );
        match self {
            FeatureSource::Dense(m) => out.copy_from_slice(m.row(i)),
            FeatureSource::Procedural { rows, dim: _, seed } => {
                assert!(i < *rows, "feature row {i} out of bounds ({rows} rows)");
                let mut rng =
                    Rng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i as u64);
                for v in out {
                    *v = rng.gen_range(-1.0..=1.0);
                }
            }
            FeatureSource::SparseProcedural {
                rows,
                dim: _,
                density,
                seed,
            } => {
                assert!(i < *rows, "feature row {i} out of bounds ({rows} rows)");
                let mut rng =
                    Rng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i as u64);
                for v in out {
                    *v = if rng.gen_bool(*density) { 1.0 } else { 0.0 };
                }
            }
        }
    }

    /// Feature row `i` without a copy where the source stores one: a
    /// dense source lends its matrix's own row; a procedural source
    /// writes the row into `buf` (resized to [`FeatureSource::dim`]) and
    /// lends that. Values are identical to [`FeatureSource::row`]. The
    /// simulator's and the reference executor's encode stages read raw
    /// features this way, so no run copies a dense feature matrix.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row_ref<'a>(&'a self, i: usize, buf: &'a mut Vec<f32>) -> &'a [f32] {
        match self {
            FeatureSource::Dense(m) => m.row(i),
            FeatureSource::Procedural { dim, .. } | FeatureSource::SparseProcedural { dim, .. } => {
                buf.resize(*dim, 0.0);
                self.row_into(i, buf);
                buf
            }
        }
    }

    /// Number of nonzero elements in row `i` — what zero-skipping hardware
    /// actually pays for.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row_nnz(&self, i: usize) -> usize {
        match self {
            FeatureSource::Dense(m) => m.row(i).iter().filter(|&&v| v != 0.0).count(),
            FeatureSource::Procedural { dim, .. } => *dim,
            FeatureSource::SparseProcedural { .. } => {
                self.row(i).iter().filter(|&&v| v != 0.0).count()
            }
        }
    }

    /// Expected nonzeros per row (exact for dense; `density × dim` for
    /// sparse procedural sources) — used by analytic cost models.
    pub fn expected_nnz_per_row(&self) -> f64 {
        match self {
            FeatureSource::Dense(m) => {
                if m.rows() == 0 {
                    0.0
                } else {
                    m.as_slice().iter().filter(|&&v| v != 0.0).count() as f64 / m.rows() as f64
                }
            }
            FeatureSource::Procedural { dim, .. } => *dim as f64,
            FeatureSource::SparseProcedural { dim, density, .. } => *dim as f64 * density,
        }
    }

    /// Materialises all rows into a dense matrix.
    ///
    /// For a [`FeatureSource::Dense`] source this clones the matrix. Callers
    /// (e.g. reference models) do this once before per-layer processing.
    pub fn materialize(&self) -> Matrix {
        match self {
            FeatureSource::Dense(m) => m.clone(),
            FeatureSource::Procedural { rows, dim, .. }
            | FeatureSource::SparseProcedural { rows, dim, .. } => {
                let mut data = Vec::with_capacity(rows * dim);
                for i in 0..*rows {
                    data.extend_from_slice(&self.row(i));
                }
                Matrix::from_vec(*rows, *dim, data)
            }
        }
    }

    /// Appends a zero row (used when adding a virtual node).
    ///
    /// A procedural source becomes dense, since the appended row is not
    /// derivable from the seed.
    pub(crate) fn push_zero_row(&mut self) {
        let dense = match self {
            FeatureSource::Dense(m) => {
                let (rows, cols) = (m.rows(), m.cols());
                let mut data = std::mem::replace(m, Matrix::zeros(0, 0)).into_vec();
                data.extend(std::iter::repeat_n(0.0, cols));
                Matrix::from_vec(rows + 1, cols, data)
            }
            FeatureSource::Procedural { .. } | FeatureSource::SparseProcedural { .. } => {
                let mut m = self.materialize().into_vec();
                let dim = self.dim();
                let rows = self.rows();
                m.extend(std::iter::repeat_n(0.0, dim));
                Matrix::from_vec(rows + 1, dim, m)
            }
        };
        *self = FeatureSource::Dense(dense);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_row_matches_matrix() {
        let f = FeatureSource::dense(Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        assert_eq!(f.rows(), 2);
        assert_eq!(f.dim(), 2);
        assert_eq!(f.row(1), vec![3.0, 4.0]);
    }

    #[test]
    fn procedural_rows_are_deterministic_and_distinct() {
        let f = FeatureSource::procedural(10, 8, 7);
        assert_eq!(f.row(3), f.row(3));
        assert_ne!(f.row(3), f.row(4));
    }

    #[test]
    fn procedural_values_in_range() {
        let f = FeatureSource::procedural(5, 32, 1);
        for i in 0..5 {
            assert!(f.row(i).iter().all(|v| v.abs() <= 1.0));
        }
    }

    #[test]
    fn materialize_matches_rows() {
        let f = FeatureSource::procedural(4, 3, 9);
        let m = f.materialize();
        for i in 0..4 {
            assert_eq!(m.row(i), &f.row(i)[..]);
        }
    }

    #[test]
    fn push_zero_row_extends_both_variants() {
        let mut d = FeatureSource::dense(Matrix::from_rows(&[&[1.0]]));
        d.push_zero_row();
        assert_eq!(d.rows(), 2);
        assert_eq!(d.row(1), vec![0.0]);

        let mut p = FeatureSource::procedural(2, 3, 0);
        let before = p.row(1);
        p.push_zero_row();
        assert_eq!(p.rows(), 3);
        assert_eq!(p.row(1), before);
        assert_eq!(p.row(2), vec![0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn procedural_row_bounds_checked() {
        FeatureSource::procedural(2, 2, 0).row(2);
    }

    #[test]
    fn sparse_rows_have_expected_density() {
        let f = FeatureSource::sparse_procedural(50, 200, 0.1, 3);
        let total: usize = (0..50).map(|i| f.row_nnz(i)).sum();
        let density = total as f64 / (50.0 * 200.0);
        assert!((density - 0.1).abs() < 0.03, "density {density}");
        assert!((f.expected_nnz_per_row() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn sparse_rows_are_deterministic() {
        let f = FeatureSource::sparse_procedural(10, 30, 0.2, 7);
        assert_eq!(f.row(4), f.row(4));
    }

    #[test]
    fn dense_row_nnz_counts_nonzeros() {
        let f = FeatureSource::dense(Matrix::from_rows(&[&[0.0, 1.0, 2.0]]));
        assert_eq!(f.row_nnz(0), 2);
    }

    #[test]
    fn row_into_and_row_ref_read_what_row_returns() {
        let mut buf = vec![7.0; 2];
        for src in [
            FeatureSource::procedural(17, 9, 3),
            FeatureSource::sparse_procedural(11, 30, 0.2, 5),
        ] {
            let mut out = vec![0.0; src.dim()];
            for i in 0..src.rows() {
                src.row_into(i, &mut out);
                assert_eq!(out, src.row(i));
                assert_eq!(src.row_ref(i, &mut buf), &src.row(i)[..]);
            }
        }
        // A dense source lends its own row: no copy.
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let dense = FeatureSource::dense(m);
        let FeatureSource::Dense(own) = &dense else {
            unreachable!()
        };
        assert!(std::ptr::eq(dense.row_ref(1, &mut buf), own.row(1)));
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn invalid_density_panics() {
        FeatureSource::sparse_procedural(1, 1, 1.5, 0);
    }
}
