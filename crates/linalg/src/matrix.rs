//! Dense, row-major matrices generic over [`Scalar`].

use crate::Scalar;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major `rows × cols` matrix.
///
/// This is the storage behind MNA system matrices and the LU factorization.
/// Indexing is `(row, col)`; out-of-range indices panic, matching slice
/// semantics.
///
/// # Example
///
/// ```
/// use asdex_linalg::Matrix;
///
/// let mut a = Matrix::<f64>::zeros(2, 2);
/// a[(0, 0)] = 1.0;
/// a[(1, 1)] = 2.0;
/// let v = a.mul_vec(&[3.0, 4.0]);
/// assert_eq!(v, vec![3.0, 8.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix<S: Scalar = f64> {
    rows: usize,
    cols: usize,
    data: Vec<S>,
}

impl<S: Scalar> Matrix<S> {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![S::zero(); rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = S::one();
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths.
    pub fn from_rows(rows: &[&[S]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "all rows must have equal length");
            data.extend_from_slice(row);
        }
        Matrix { rows: r, cols: c, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `true` if the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Resets every entry to zero, keeping the allocation.
    ///
    /// MNA assembly reuses one matrix across Newton iterations, so this is
    /// on the hot path.
    pub fn fill_zero(&mut self) {
        self.data.fill(S::zero());
    }

    /// Reshapes to `rows × cols` with every entry zero, in place.
    ///
    /// The backing storage is grow-only: shrinking the logical dimensions
    /// keeps the high-water-mark allocation, so a workspace cycling
    /// between circuits of different sizes stops allocating once it has
    /// seen the largest one.
    pub fn resize_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, S::zero());
    }

    /// Capacity of the backing storage in elements — the allocation
    /// high-water mark, used to verify grow-only buffer reuse.
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Returns the entry at `(row, col)` or `None` when out of range.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> Option<&S> {
        if row < self.rows && col < self.cols {
            Some(&self.data[row * self.cols + col])
        } else {
            None
        }
    }

    /// Adds `value` to the entry at `(row, col)` — the MNA "stamp"
    /// primitive.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    #[inline]
    pub fn add_at(&mut self, row: usize, col: usize, value: S) {
        self[(row, col)] += value;
    }

    /// Matrix–vector product `A v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn mul_vec(&self, v: &[S]) -> Vec<S> {
        assert_eq!(v.len(), self.cols, "dimension mismatch in mul_vec");
        let mut out = vec![S::zero(); self.rows];
        for (i, out_i) in out.iter_mut().enumerate() {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            let mut acc = S::zero();
            for (a, b) in row.iter().zip(v) {
                acc += *a * *b;
            }
            *out_i = acc;
        }
        out
    }

    /// Matrix–matrix product `A B`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn mul_mat(&self, rhs: &Matrix<S>) -> Matrix<S> {
        assert_eq!(self.cols, rhs.rows, "dimension mismatch in mul_mat");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self.data[i * self.cols + k];
                if aik == S::zero() {
                    continue;
                }
                for j in 0..rhs.cols {
                    out.data[i * rhs.cols + j] += aik * rhs.data[k * rhs.cols + j];
                }
            }
        }
        out
    }

    /// Returns the transpose of the matrix.
    pub fn transpose(&self) -> Matrix<S> {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// Immutable view of a row.
    pub fn row(&self, i: usize) -> &[S] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The entries in row-major order: `(row, col)` is at `row·cols + col`.
    #[inline]
    pub fn as_slice(&self) -> &[S] {
        &self.data
    }

    /// Mutable row-major entries, indexed as in [`Matrix::as_slice`].
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [S] {
        &mut self.data
    }

    /// `true` when every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Dimensions plus the row-major backing slice, for in-crate kernels
    /// that need bounds-check-free row windows.
    pub(crate) fn parts_mut(&mut self) -> (usize, usize, &mut [S]) {
        (self.rows, self.cols, &mut self.data)
    }

    /// Swaps two rows in place.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for j in 0..self.cols {
            self.data.swap(a * self.cols + j, b * self.cols + j);
        }
    }
}

impl<S: Scalar> Index<(usize, usize)> for Matrix<S> {
    type Output = S;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &S {
        assert!(r < self.rows && c < self.cols, "matrix index out of range");
        &self.data[r * self.cols + c]
    }
}

impl<S: Scalar> IndexMut<(usize, usize)> for Matrix<S> {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut S {
        assert!(r < self.rows && c < self.cols, "matrix index out of range");
        &mut self.data[r * self.cols + c]
    }
}

impl<S: Scalar> fmt::Display for Matrix<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            write!(f, "[")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:?}", self.data[i * self.cols + j])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Complex;

    #[test]
    fn zeros_identity_shape() {
        let z = Matrix::<f64>::zeros(2, 3);
        assert_eq!((z.rows(), z.cols()), (2, 3));
        assert!(!z.is_empty());
        let id = Matrix::<f64>::identity(3);
        assert_eq!(id[(1, 1)], 1.0);
        assert_eq!(id[(1, 2)], 0.0);
    }

    #[test]
    fn from_rows_and_index() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.get(5, 0), None);
        assert_eq!(m.get(1, 0), Some(&3.0));
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn from_rows_rejects_ragged() {
        let _ = Matrix::from_rows(&[&[1.0, 2.0], &[3.0][..]]);
    }

    #[test]
    fn mul_vec_matches_hand_computation() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.mul_vec(&[1.0, 1.0]), vec![3.0, 7.0]);
    }

    #[test]
    fn mul_mat_identity_is_noop() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let id = Matrix::identity(2);
        assert_eq!(m.mul_mat(&id), m);
        assert_eq!(id.mul_mat(&m), m);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 5.0], &[3.0, 4.0, 6.0]]);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn stamp_accumulates() {
        let mut m = Matrix::<f64>::zeros(2, 2);
        m.add_at(0, 0, 1.5);
        m.add_at(0, 0, 2.5);
        assert_eq!(m[(0, 0)], 4.0);
        m.fill_zero();
        assert_eq!(m[(0, 0)], 0.0);
    }

    #[test]
    fn slices_are_row_major() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
        m.as_mut_slice()[2] = 7.0;
        assert_eq!(m[(1, 0)], 7.0);
    }

    #[test]
    fn complex_matrix_multiply() {
        let j = Complex::I;
        let m = Matrix::from_rows(&[&[Complex::ONE, j], &[-j, Complex::ONE]]);
        let v = m.mul_vec(&[Complex::ONE, Complex::ONE]);
        assert_eq!(v[0], Complex::new(1.0, 1.0));
        assert_eq!(v[1], Complex::new(1.0, -1.0));
    }

    #[test]
    fn swap_rows_works() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        m.swap_rows(0, 1);
        assert_eq!(m.row(0), &[3.0, 4.0]);
        m.swap_rows(1, 1);
        assert_eq!(m.row(1), &[1.0, 2.0]);
    }

    #[test]
    fn resize_zeroed_is_grow_only() {
        let mut m = Matrix::<f64>::zeros(4, 4);
        m[(3, 3)] = 7.0;
        let cap = m.capacity();
        m.resize_zeroed(2, 2);
        assert_eq!((m.rows(), m.cols()), (2, 2));
        assert_eq!(m.capacity(), cap, "shrinking keeps the allocation");
        assert_eq!(m[(1, 1)], 0.0);
        m.resize_zeroed(4, 4);
        assert_eq!(m.capacity(), cap, "regrowing within capacity is free");
        assert_eq!(m[(3, 3)], 0.0, "stale entries are zeroed");
    }

    #[test]
    fn finite_detection() {
        let mut m = Matrix::<f64>::zeros(1, 2);
        assert!(m.is_finite());
        m[(0, 1)] = f64::NAN;
        assert!(!m.is_finite());
    }
}
