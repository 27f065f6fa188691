//! Row-major dense `f32` matrix.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major `f32` matrix.
///
/// This is the single tensor type used throughout the reproduction. Shapes
/// are validated eagerly; all constructors panic on inconsistent dimensions
/// so that shape bugs surface at the call site rather than deep inside a
/// kernel.
///
/// ```
/// use sti_tensor::Matrix;
///
/// let m = Matrix::zeros(2, 3);
/// assert_eq!(m.rows(), 2);
/// assert_eq!(m.cols(), 3);
/// assert_eq!(m[(1, 2)], 0.0);
/// ```
#[derive(PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a `rows × cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from an owned row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix buffer length {} does not match shape {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix from a slice of equally long rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "cannot build a matrix from zero rows");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            assert_eq!(row.len(), cols, "all rows must have the same length");
            data.extend_from_slice(row);
        }
        Self { rows: rows.len(), cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrows the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrows the underlying row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reshapes the matrix to `rows × cols` in place, keeping its buffer:
    /// elements keep their row-major positions and new ones are zero, so
    /// scratch reshaped to another layer's shape is overwritten before it is
    /// read. Allocates only if `rows · cols` exceeds the buffer's capacity.
    pub fn reshape(&mut self, rows: usize, cols: usize) {
        self.data.resize(rows * cols, 0.0);
        (self.rows, self.cols) = (rows, cols);
    }

    /// Consumes the matrix and returns the underlying buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of bounds for {} rows", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {r} out of bounds for {} rows", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterates over rows as slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols)
    }

    /// Returns a new matrix containing columns `[start, start + width)`.
    ///
    /// Used to carve vertical (per-attention-head) slices out of a weight
    /// matrix, per Table 1 of the paper.
    ///
    /// # Panics
    ///
    /// Panics if the column range is out of bounds.
    pub fn column_block(&self, start: usize, width: usize) -> Matrix {
        assert!(
            start + width <= self.cols,
            "column block [{start}, {}) out of bounds for {} cols",
            start + width,
            self.cols
        );
        let mut out = Matrix::zeros(self.rows, width);
        for r in 0..self.rows {
            let src = &self.row(r)[start..start + width];
            out.row_mut(r).copy_from_slice(src);
        }
        out
    }

    /// Returns a new matrix containing rows `[start, start + height)`.
    ///
    /// # Panics
    ///
    /// Panics if the row range is out of bounds.
    pub fn row_block(&self, start: usize, height: usize) -> Matrix {
        assert!(
            start + height <= self.rows,
            "row block [{start}, {}) out of bounds for {} rows",
            start + height,
            self.rows
        );
        let data = self.data[start * self.cols..(start + height) * self.cols].to_vec();
        Matrix::from_vec(height, self.cols, data)
    }

    /// Returns the transposed matrix.
    pub fn transposed(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(c, r)] = self[(r, c)];
            }
        }
        out
    }

    /// Element-wise maximum absolute difference to another matrix.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in max_abs_diff");
        self.data.iter().zip(&other.data).map(|(a, b)| (a - b).abs()).fold(0.0, f32::max)
    }
}

impl Clone for Matrix {
    fn clone(&self) -> Self {
        Self { rows: self.rows, cols: self.cols, data: self.data.clone() }
    }

    /// Copies `source` into this matrix's buffer, allocating only if it is
    /// too small, so a caller can overwrite scratch with a kept state.
    fn clone_from(&mut self, source: &Self) {
        (self.rows, self.cols) = (source.rows, source.cols);
        self.data.clone_from(&source.data);
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        assert!(r < self.rows && c < self.cols, "index ({r}, {c}) out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        assert!(r < self.rows && c < self.cols, "index ({r}, {c}) out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows <= 4 && self.cols <= 8 {
            for r in 0..self.rows {
                write!(f, "\n  {:?}", self.row(r))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_expected_shape_and_content() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn identity_is_identity_under_indexing() {
        let m = Matrix::identity(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(m[(r, c)], if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_rows_round_trips_rows() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.row(0), &[1.0, 2.0]);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn from_rows_rejects_ragged_input() {
        let _ = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_rejects_bad_length() {
        let _ = Matrix::from_vec(2, 2, vec![0.0; 3]);
    }

    #[test]
    fn column_block_extracts_expected_columns() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = m.column_block(1, 2);
        assert_eq!(b, Matrix::from_rows(&[&[2.0, 3.0], &[5.0, 6.0]]));
    }

    #[test]
    fn row_block_extracts_expected_rows() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let b = m.row_block(1, 2);
        assert_eq!(b, Matrix::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]));
    }

    #[test]
    fn transpose_twice_is_identity() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m.transposed().transposed(), m);
    }

    #[test]
    fn max_abs_diff_detects_largest_gap() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[1.5, 2.25]]);
        assert!((a.max_abs_diff(&b) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn reshape_and_clone_from_reuse_the_buffer() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let buffer = m.as_slice().as_ptr();
        m.reshape(1, 2);
        assert_eq!(m, Matrix::from_rows(&[&[1.0, 2.0]]));
        m.reshape(2, 2);
        assert_eq!(m.as_slice(), &[1.0, 2.0, 0.0, 0.0]);
        m.clone_from(&Matrix::from_rows(&[&[7.0], &[8.0], &[9.0]]));
        assert_eq!(m, Matrix::from_rows(&[&[7.0], &[8.0], &[9.0]]));
        assert_eq!(m.as_slice().as_ptr(), buffer, "no call outgrew the buffer");
    }

    #[test]
    fn mutation_through_index_and_row_mut() {
        let mut m = Matrix::zeros(2, 2);
        m[(0, 1)] = 7.0;
        m.row_mut(1)[0] = 3.0;
        assert_eq!(m.as_slice(), &[0.0, 7.0, 3.0, 0.0]);
    }
}
