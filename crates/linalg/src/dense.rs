//! Row-major dense matrix.

use crate::Scalar;

/// A row-major dense matrix of [`Scalar`]s.
///
/// Rows are contiguous, which matches the access pattern of example-at-a-time
/// SGD (each training example is one row) and lets `row(i)` hand out a slice
/// with no copying. The default is the empty `0 x 0` matrix.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<Scalar>,
}

impl Matrix {
    /// An `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Builds a matrix from an explicit row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<Scalar>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {rows}x{cols}",
            data.len()
        );
        Matrix { rows, cols, data }
    }

    /// Builds a matrix from a slice of equally long rows.
    ///
    /// # Panics
    /// Panics if the rows have differing lengths.
    pub fn from_rows(rows: &[&[Scalar]]) -> Self {
        let cols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Matrix { rows: rows.len(), cols, data }
    }

    /// Builds a matrix by evaluating `f(row, col)` for every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> Scalar) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of entries (`rows * cols`).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the matrix has no entries.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Entry at `(i, j)`.
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> Scalar {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Mutable entry at `(i, j)`.
    #[inline]
    pub fn at_mut(&mut self, i: usize, j: usize) -> &mut Scalar {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }

    /// Row `i` as a contiguous slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[Scalar] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a mutable contiguous slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [Scalar] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The whole row-major buffer.
    pub fn as_slice(&self) -> &[Scalar] {
        &self.data
    }

    /// The whole row-major buffer, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [Scalar] {
        &mut self.data
    }

    /// Iterator over rows as slices.
    pub fn rows_iter(&self) -> impl ExactSizeIterator<Item = &[Scalar]> {
        self.data.chunks_exact(self.cols.max(1)).take(self.rows)
    }

    /// The transpose as a new matrix.
    pub fn transposed(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                *t.at_mut(j, i) = self.at(i, j);
            }
        }
        t
    }

    /// Sets every entry to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// A sub-matrix consisting of rows `lo..hi` (shares no storage).
    pub fn row_range(&self, lo: usize, hi: usize) -> Matrix {
        assert!(lo <= hi && hi <= self.rows);
        Matrix {
            rows: hi - lo,
            cols: self.cols,
            data: self.data[lo * self.cols..hi * self.cols].to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_content() {
        let m = Matrix::zeros(2, 3);
        assert_eq!((m.rows(), m.cols(), m.len()), (2, 3, 6));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_rows_and_indexing() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.at(0, 1), 2.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn from_rows_rejects_ragged() {
        let _ = Matrix::from_rows(&[&[1.0], &[1.0, 2.0]]);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_rejects_bad_len() {
        let _ = Matrix::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    fn from_fn_builds_expected_entries() {
        let m = Matrix::from_fn(2, 2, |i, j| (i * 10 + j) as Scalar);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 10.0, 11.0]);
    }

    #[test]
    fn transpose_round_trip() {
        let m = Matrix::from_fn(3, 5, |i, j| (i * 5 + j) as Scalar);
        assert_eq!(m.transposed().transposed(), m);
        assert_eq!(m.transposed().at(4, 2), m.at(2, 4));
    }

    #[test]
    fn row_mut_writes_through() {
        let mut m = Matrix::zeros(2, 2);
        m.row_mut(1)[0] = 7.0;
        assert_eq!(m.at(1, 0), 7.0);
    }

    #[test]
    fn rows_iter_yields_all_rows() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let rows: Vec<&[Scalar]> = m.rows_iter().collect();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2], &[5.0, 6.0]);
    }

    #[test]
    fn row_range_extracts_slice_of_rows() {
        let m = Matrix::from_fn(4, 2, |i, _| i as Scalar);
        let sub = m.row_range(1, 3);
        assert_eq!(sub.rows(), 2);
        assert_eq!(sub.row(0), &[1.0, 1.0]);
        assert_eq!(sub.row(1), &[2.0, 2.0]);
    }

    #[test]
    fn empty_matrix_is_empty() {
        let m = Matrix::zeros(0, 5);
        assert!(m.is_empty());
        assert_eq!(m.rows_iter().count(), 0);
    }
}
