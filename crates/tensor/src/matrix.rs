//! Row-major dense matrix.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A row-major dense `f32` matrix.
///
/// `Matrix` carries [`crate::Linear`]'s weights in and out (`Linear::new`,
/// `Linear::weight`) and is the row store of every functional run: dense
/// node features, and the per-layer embeddings of the simulator and the
/// reference executor.
/// Rows are packed back to back with no padding: every kernel takes a
/// `cols`-length row slice, so a pad would only cost memory. It is
/// deliberately minimal: FlowGNN's kernels only need matrix–vector
/// products, row access, and transposition.
///
/// # Example
///
/// ```
/// use flowgnn_tensor::Matrix;
///
/// let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// assert_eq!(m[(1, 0)], 3.0);
/// assert_eq!(m.matvec(&[1.0, 1.0]), vec![3.0, 7.0]);
/// ```
#[derive(Clone, PartialEq, Default)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from its dimensions and a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix data length {} does not match {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix from a slice of equal-length rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "all rows must have equal length");
            data.extend_from_slice(row);
        }
        Self {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies `src` into row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()` or `src.len() != self.cols()`.
    pub fn set_row(&mut self, r: usize, src: &[f32]) {
        self.row_mut(r).copy_from_slice(src);
    }

    /// Re-dimensions the matrix to `rows × cols` in place, keeping the
    /// buffer's capacity: a ping-pong buffer reshaped per layer allocates
    /// only when it grows.
    ///
    /// The flat buffer is truncated or zero-extended to `rows × cols`, so
    /// a row not written since the reshape holds whatever the old shape
    /// left there. Callers write every row before reading it.
    pub fn reshape(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// The flat row-major backing buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Consumes the matrix and returns its flat row-major buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Matrix–vector product `self * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0; self.rows];
        self.matvec_into(x, &mut out);
        out
    }

    /// Matrix–vector product writing into a caller-provided buffer.
    ///
    /// `out` is resized to `self.rows()`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec_into(&self, x: &[f32], out: &mut Vec<f32>) {
        assert_eq!(
            x.len(),
            self.cols,
            "matvec input length {} does not match {} columns",
            x.len(),
            self.cols
        );
        out.clear();
        out.resize(self.rows, 0.0);
        // One dot per row, in crate::ops::dot's fixed summation order.
        for (r, o) in out.iter_mut().enumerate() {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            *o = crate::ops::dot(row, x);
        }
    }

    /// Returns the transpose as a new matrix.
    pub fn transposed(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t[(c, r)] = self[(r, c)];
            }
        }
        t
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_requested_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_rows_round_trips_values() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m[(1, 2)], 6.0);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn from_rows_rejects_ragged_input() {
        Matrix::from_rows(&[&[1.0], &[1.0, 2.0]]);
    }

    #[test]
    fn identity_matvec_is_identity() {
        let m = Matrix::identity(4);
        let x = [1.0, -2.0, 3.5, 0.0];
        assert_eq!(m.matvec(&x), x.to_vec());
    }

    #[test]
    fn matvec_matches_manual_computation() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        assert_eq!(m.matvec(&[1.0, -1.0]), vec![-1.0, -1.0, -1.0]);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m.transposed().transposed(), m);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn matvec_rejects_wrong_length() {
        Matrix::zeros(2, 3).matvec(&[1.0, 2.0]);
    }

    #[test]
    fn row_mut_writes_through() {
        let mut m = Matrix::zeros(2, 2);
        m.row_mut(1)[0] = 7.0;
        assert_eq!(m[(1, 0)], 7.0);
    }

    #[test]
    fn zero_width_rows_are_empty() {
        let m = Matrix::zeros(3, 0);
        assert_eq!(m.rows(), 3);
        assert!((0..3).all(|r| m.row(r).is_empty()));
    }

    #[test]
    fn reshape_keeps_capacity_and_written_rows_read_back() {
        let mut m = Matrix::zeros(4, 10);
        let cap = m.data.capacity();
        m.reshape(6, 3);
        assert_eq!((m.rows(), m.cols()), (6, 3));
        assert_eq!(m.data.capacity(), cap);
        for r in 0..6 {
            m.set_row(r, &[r as f32; 3]);
        }
        assert_eq!(m.row(5), &[5.0; 3]);
        assert_eq!(m.as_slice().len(), 18);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn row_bounds_checked() {
        Matrix::zeros(1, 2).row(1);
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", Matrix::zeros(1, 1)).is_empty());
    }
}
