//! Dense row-major `f32` matrix — the tensor type of the `alss-nn` stack.
//!
//! All LSS tensors are rank-≤2 (node-feature matrices, weight matrices,
//! attention matrices), so a simple dense matrix with a handful of BLAS-1/2
//! kernels is sufficient. Shapes are validated eagerly with panics: a shape
//! mismatch is a programming error, not a runtime condition.

use std::collections::HashMap;
use std::hash::Hash;
use std::ops::Range;

/// A dense `rows × cols` matrix of `f32`, row-major.
#[derive(Clone, Debug, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Mat {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Matrix filled with `v`.
    pub fn full(rows: usize, cols: usize, v: f32) -> Self {
        Mat {
            rows,
            cols,
            data: vec![v; rows * cols],
        }
    }

    /// From a row-major vector (length must be `rows * cols`).
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Mat { rows, cols, data }
    }

    /// A `1 × v.len()` row vector.
    pub fn row_vector(v: &[f32]) -> Self {
        Mat::from_vec(1, v.len(), v.to_vec())
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

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw row-major data.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw row-major data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self @ rhs` (ikj loop order for cache locality).
    pub fn matmul(&self, rhs: &Mat) -> Mat {
        assert_eq!(
            self.cols,
            rhs.rows,
            "matmul shape mismatch: {:?} @ {:?}",
            self.shape(),
            rhs.shape()
        );
        let mut out = Mat::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let rrow = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                let orow = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (o, &r) in orow.iter_mut().zip(rrow) {
                    *o += a * r;
                }
            }
        }
        out
    }

    /// `self[rows]ᵀ · rhs[rows]`: bit-identical to slicing both to `rows`
    /// and taking `transpose().matmul(..)`, since every output element adds
    /// the same products in the same (ascending row) order.
    pub fn transpose_matmul(&self, rhs: &Mat, rows: Range<usize>) -> Mat {
        assert_eq!(self.rows, rhs.rows, "transpose_matmul row mismatch");
        let mut out = Mat::zeros(self.cols, rhs.cols);
        for k in rows {
            let rrow = rhs.row(k);
            for (i, &a) in self.row(k).iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                for (o, &r) in out.row_mut(i).iter_mut().zip(rrow) {
                    *o += a * r;
                }
            }
        }
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> Mat {
        let mut out = Mat::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Elementwise in-place `self += rhs`.
    pub fn add_assign(&mut self, rhs: &Mat) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }

    /// Elementwise in-place `self += s * rhs`.
    pub fn add_scaled_assign(&mut self, rhs: &Mat, s: f32) {
        assert_eq!(self.shape(), rhs.shape(), "add_scaled shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += s * b;
        }
    }

    /// Elementwise map into a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Mat {
        Mat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Elementwise map in place.
    pub fn map_in_place(&mut self, f: impl Fn(f32) -> f32) {
        self.data.iter_mut().for_each(|x| *x = f(*x));
    }

    /// Row-broadcast sum in place: `self (n×c) += row (1×c)`.
    pub fn add_row_assign(&mut self, row: &Mat) {
        assert_eq!(row.rows, 1, "add_row needs a row vector");
        assert_eq!(self.cols, row.cols, "add_row col mismatch");
        for r in 0..self.rows {
            for (o, &b) in self.row_mut(r).iter_mut().zip(&row.data) {
                *o += b;
            }
        }
    }

    /// Numerically stable softmax of every row, in place.
    pub fn softmax_rows_in_place(&mut self) {
        for r in 0..self.rows {
            let row = self.row_mut(r);
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for e in row.iter_mut() {
                *e = (*e - max).exp();
                sum += *e;
            }
            for e in row.iter_mut() {
                *e /= sum;
            }
        }
    }

    /// Column-wise sums of row blocks, one result row per block: row `b`
    /// adds the rows of the `b`-th block in order, starting from zero.
    pub fn sum_row_blocks(&self, blocks: impl IntoIterator<Item = Range<usize>>) -> Mat {
        let (mut rows, mut data) = (0, Vec::new());
        for block in blocks {
            let start = data.len();
            data.resize(start + self.cols, 0.0);
            for r in block {
                for (o, &e) in data[start..].iter_mut().zip(self.row(r)) {
                    *o += e;
                }
            }
            rows += 1;
        }
        Mat {
            rows,
            cols: self.cols,
            data,
        }
    }

    /// Column-wise sum of all rows → `1 × cols`.
    pub fn sum_rows(&self) -> Mat {
        self.sum_row_blocks(std::iter::once(0..self.rows))
    }

    /// A matrix whose row `i` is `self[index[i]]`.
    pub fn gather_rows(&self, index: &[usize]) -> Mat {
        let mut data = Vec::with_capacity(index.len() * self.cols);
        for &r in index {
            data.extend_from_slice(self.row(r));
        }
        Mat {
            rows: index.len(),
            cols: self.cols,
            data,
        }
    }

    /// Set every element to zero (reusing the allocation).
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// `true` if every element is finite (no NaN, no ±Inf).
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// First non-finite element as `(row, col, value)`, if any. Used by the
    /// tape's debug guards to report *where* a NaN/Inf was born.
    pub fn first_non_finite(&self) -> Option<(usize, usize, f32)> {
        self.data
            .iter()
            .position(|x| !x.is_finite())
            .map(|i| (i / self.cols, i % self.cols, self.data[i]))
    }

    /// The single element of a `1 × 1` matrix.
    pub fn scalar(&self) -> f32 {
        assert_eq!(self.shape(), (1, 1), "scalar() on non-scalar matrix");
        self.data[0]
    }

    /// Horizontally concatenate `[self | rhs]` (same row count).
    pub fn concat_cols(&self, rhs: &Mat) -> Mat {
        assert_eq!(self.rows, rhs.rows, "concat_cols row mismatch");
        let cols = self.cols + rhs.cols;
        let mut out = Mat::zeros(self.rows, cols);
        for r in 0..self.rows {
            out.data[r * cols..r * cols + self.cols].copy_from_slice(self.row(r));
            out.data[r * cols + self.cols..(r + 1) * cols].copy_from_slice(rhs.row(r));
        }
        out
    }
}

/// A tall matrix stored as its distinct rows: logical row `r` is
/// `distinct.row(index[r])`. Packed GIN inputs repeat rows heavily (every
/// BFS tree of a query holds most of its nodes), so inference keeps them
/// in this form from the encoder to the readout.
#[derive(Clone, Debug)]
pub struct IndexedRows {
    /// The stored rows.
    pub distinct: Mat,
    /// For every logical row, the index of its row in `distinct`.
    pub index: Vec<usize>,
}

impl IndexedRows {
    /// Number of logical rows.
    pub fn rows(&self) -> usize {
        self.index.len()
    }

    /// Logical row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        self.distinct.row(self.index[r])
    }

    /// The full `rows() × cols` matrix.
    pub fn gather(&self) -> Mat {
        self.distinct.gather_rows(&self.index)
    }
}

/// Number rows `0..rows` by key, where `key(r, buf)` appends row `r`'s key
/// to the empty `buf`. Rows with equal keys get the same id, and ids count
/// up from 0 in order of first occurrence. Returns every row's id and every
/// id's first row.
///
/// Each row's key is built in one reused buffer; the table keeps a copy of
/// the distinct keys only.
pub fn number_by_key<T: Hash + Eq + Clone>(
    rows: usize,
    mut key: impl FnMut(usize, &mut Vec<T>),
) -> (Vec<usize>, Vec<usize>) {
    let mut id_of: HashMap<Box<[T]>, usize> = HashMap::new();
    let (mut firsts, mut buf, mut prev) = (Vec::new(), Vec::new(), Vec::new());
    let mut prev_id = None;
    let ids = (0..rows)
        .map(|r| {
            buf.clear();
            key(r, &mut buf);
            // Runs of equal keys are common (the leaves of a tree level),
            // and one comparison with the previous key skips the hash.
            let id = match prev_id {
                Some(id) if buf == prev => id,
                _ => match id_of.get(buf.as_slice()) {
                    Some(&id) => id,
                    None => {
                        id_of.insert(buf.as_slice().into(), firsts.len());
                        firsts.push(r);
                        firsts.len() - 1
                    }
                },
            };
            std::mem::swap(&mut buf, &mut prev);
            prev_id = Some(id);
            id
        })
        .collect();
    (ids, firsts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_known_product() {
        let a = Mat::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Mat::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Mat::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn concat_and_sum_row_blocks() {
        let a = Mat::from_vec(2, 1, vec![1., 2.]);
        let b = Mat::from_vec(2, 2, vec![3., 4., 5., 6.]);
        let c = a.concat_cols(&b);
        assert_eq!(c.shape(), (2, 3));
        assert_eq!(c.row(1), &[2., 5., 6.]);

        let s = c.sum_row_blocks([1..2, 0..2, 0..0]);
        assert_eq!(s.shape(), (3, 3));
        assert_eq!(s.data(), &[2., 5., 6., 3., 8., 10., 0., 0., 0.]);
        assert_eq!(c.sum_rows().data(), &[3., 8., 10.]);
    }

    #[test]
    fn transpose_matmul_equals_slice_transpose_matmul() {
        let x = Mat::from_vec(3, 2, vec![1., 0., -2., 3., 0.5, 0.]);
        let g = Mat::from_vec(3, 2, vec![0.1, 0.2, 0.3, -0.4, 5., 6.]);
        let full = x.transpose().matmul(&g);
        assert_eq!(x.transpose_matmul(&g, 0..3), full);
        let last = Mat::from_vec(1, 2, vec![0.5, 0.]);
        let want = last.transpose().matmul(&Mat::row_vector(&[5., 6.]));
        assert_eq!(x.transpose_matmul(&g, 2..3), want);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_panics() {
        let a = Mat::zeros(2, 3);
        let b = Mat::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn number_by_key_numbers_in_first_occurrence_order() {
        // a run of equal keys, a key equal to an earlier one, an empty key
        let keys: [&[u32]; 6] = [&[1, 2], &[3], &[3], &[1, 2], &[], &[3]];
        let (ids, firsts) = number_by_key(keys.len(), |r, buf| buf.extend_from_slice(keys[r]));
        assert_eq!(ids, vec![0, 1, 1, 0, 2, 1]);
        assert_eq!(firsts, vec![0, 1, 4]);
    }

    #[test]
    fn indexed_rows_gather_their_rows() {
        let m = IndexedRows {
            distinct: Mat::from_vec(2, 2, vec![1., 2., 3., 4.]),
            index: vec![1, 0, 1],
        };
        assert_eq!(m.rows(), 3);
        assert_eq!(m.row(2), &[3., 4.]);
        assert_eq!(m.gather().data(), &[3., 4., 1., 2., 3., 4.]);
    }

    #[test]
    fn scalar_and_sum() {
        let s = Mat::from_vec(1, 1, vec![4.0]);
        assert_eq!(s.scalar(), 4.0);
        let m = Mat::from_vec(1, 2, vec![3.0, 4.0]);
        assert_eq!(m.sum(), 7.0);
    }
}
