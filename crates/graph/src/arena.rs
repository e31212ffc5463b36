//! SoA node-feature arena: one contiguous slab for all rows.
//!
//! Per-node `Vec<f32>` rows scatter embeddings across the heap; every
//! message then chases a pointer before it can touch a lane. The arena
//! packs all `rows × dim` values into a single contiguous `f32` slab
//! with each row stride-padded to a multiple of [`LANES`], so row
//! handles are plain slices, walks over consecutive nodes are sequential
//! in memory, and every row starts on a lane-chunk boundary for the
//! kernels in `flowgnn-tensor`.

use flowgnn_tensor::simd::LANES;
use flowgnn_tensor::Matrix;

use crate::FeatureSource;

/// Packed `rows × dim` node-feature storage (structure-of-arrays).
///
/// Rows live at `stride`-spaced offsets in one contiguous slab, where
/// `stride` is `dim` rounded up to [`LANES`]; the pad lanes hold zeros
/// and are never read as feature values. `reset` reuses the slab's
/// capacity, so per-region re-dimensioning in the simulator allocates
/// only on growth.
///
/// # Example
///
/// ```
/// use flowgnn_graph::FeatureArena;
///
/// let mut a = FeatureArena::new(3, 5);
/// a.row_mut(1).copy_from_slice(&[1.0, 2.0, 3.0, 4.0, 5.0]);
/// assert_eq!(a.row(1), &[1.0, 2.0, 3.0, 4.0, 5.0]);
/// assert_eq!(a.stride(), 8); // 5 rounded up to the lane width
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FeatureArena {
    rows: usize,
    dim: usize,
    stride: usize,
    data: Vec<f32>,
}

impl FeatureArena {
    /// Creates a zero-filled arena of `rows` rows of dimension `dim`.
    pub fn new(rows: usize, dim: usize) -> Self {
        let mut a = Self::default();
        a.reset(rows, dim);
        a
    }

    /// Re-dimensions the arena to `rows × dim`, zero-filling every row
    /// and reusing the existing slab capacity where possible.
    pub fn reset(&mut self, rows: usize, dim: usize) {
        self.rows = rows;
        self.dim = dim;
        self.stride = if dim == 0 {
            0
        } else {
            dim.div_ceil(LANES) * LANES
        };
        self.data.clear();
        self.data.resize(rows * self.stride, 0.0);
    }

    /// Re-dimensions the arena to `rows × dim` *without* zero-filling.
    ///
    /// For ping-pong buffers whose every row is fully written (via
    /// [`FeatureArena::set_row`] / [`FeatureArena::row_mut`]) before it
    /// is read: skipping the slab memset makes the per-region reset
    /// O(1) when capacity is already available. Until a row has been
    /// written, it (and the pad lanes) holds stale values from the
    /// previous shape — callers own the write-before-read discipline.
    pub fn reset_for_overwrite(&mut self, rows: usize, dim: usize) {
        self.rows = rows;
        self.dim = dim;
        self.stride = if dim == 0 {
            0
        } else {
            dim.div_ceil(LANES) * LANES
        };
        let need = rows * self.stride;
        if self.data.len() < need {
            self.data.resize(need, 0.0);
        } else {
            self.data.truncate(need);
        }
    }

    /// Materialises every row of `src` into a fresh arena.
    pub fn from_source(src: &FeatureSource) -> Self {
        let mut a = Self::new(src.rows(), src.dim());
        for i in 0..a.rows {
            src.row_into(i, a.row_mut(i));
        }
        a
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical row dimension (without padding).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Physical distance between consecutive row starts, in elements.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Borrows row `i` as a `dim`-length slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> &[f32] {
        assert!(i < self.rows, "row {i} out of bounds ({} rows)", self.rows);
        &self.data[i * self.stride..i * self.stride + self.dim]
    }

    /// Mutably borrows row `i` as a `dim`-length slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        assert!(i < self.rows, "row {i} out of bounds ({} rows)", self.rows);
        &mut self.data[i * self.stride..i * self.stride + self.dim]
    }

    /// Copies `src` into row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()` or `src.len() != self.dim()`.
    pub fn set_row(&mut self, i: usize, src: &[f32]) {
        self.row_mut(i).copy_from_slice(src);
    }

    /// Iterates over rows as `dim`-length slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        (0..self.rows).map(move |i| self.row(i))
    }

    /// The whole padded slab (rows at `stride`-spaced offsets).
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Copies the arena into an unpadded dense matrix.
    pub fn to_matrix(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.dim);
        for i in 0..self.rows {
            m.row_mut(i).copy_from_slice(self.row(i));
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stride_rounds_up_to_lane_width() {
        assert_eq!(FeatureArena::new(2, 1).stride(), LANES);
        assert_eq!(FeatureArena::new(2, 8).stride(), 8);
        assert_eq!(FeatureArena::new(2, 9).stride(), 16);
        assert_eq!(FeatureArena::new(2, 0).stride(), 0);
    }

    #[test]
    fn rows_round_trip_and_padding_stays_zero() {
        let mut a = FeatureArena::new(3, 5);
        for i in 0..3 {
            let vals: Vec<f32> = (0..5).map(|j| (i * 10 + j) as f32).collect();
            a.set_row(i, &vals);
        }
        for i in 0..3 {
            assert_eq!(a.row(i)[0], (i * 10) as f32);
            assert_eq!(a.row(i).len(), 5);
        }
        // Pad lanes between rows are untouched zeros.
        for i in 0..3 {
            let start = i * a.stride();
            assert!(a.as_slice()[start + 5..start + 8].iter().all(|&v| v == 0.0));
        }
    }

    #[test]
    fn reset_reuses_capacity_and_zero_fills() {
        let mut a = FeatureArena::new(4, 10);
        a.row_mut(2)[3] = 7.0;
        a.reset(2, 3);
        assert_eq!(a.rows(), 2);
        assert_eq!(a.dim(), 3);
        assert!(a.iter_rows().all(|r| r.iter().all(|&v| v == 0.0)));
    }

    #[test]
    fn reset_for_overwrite_reshapes_without_clearing_written_rows() {
        let mut a = FeatureArena::new(4, 10);
        a.reset_for_overwrite(6, 3);
        assert_eq!(a.rows(), 6);
        assert_eq!(a.dim(), 3);
        assert_eq!(a.stride(), LANES);
        for i in 0..6 {
            a.set_row(i, &[i as f32; 3]);
        }
        // A second overwrite-reset keeps the slab; rewritten rows read
        // back exactly (the write-before-read contract).
        a.reset_for_overwrite(6, 3);
        a.set_row(2, &[9.0; 3]);
        assert_eq!(a.row(2), &[9.0; 3]);
    }

    #[test]
    fn from_source_matches_row_values() {
        let src = FeatureSource::procedural(6, 11, 42);
        let a = FeatureArena::from_source(&src);
        for i in 0..6 {
            assert_eq!(a.row(i), &src.row(i)[..]);
        }
        assert_eq!(a.to_matrix().row(4), a.row(4));
    }

    #[test]
    fn zero_dim_rows_are_empty() {
        let a = FeatureArena::new(3, 0);
        assert_eq!(a.iter_rows().count(), 3);
        assert!(a.iter_rows().all(<[f32]>::is_empty));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn row_bounds_checked() {
        FeatureArena::new(1, 2).row(1);
    }
}
