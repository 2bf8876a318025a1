//! Dense row-major `f32` matrix — the tensor type of the `alss-nn` stack.
//!
//! All LSS tensors are rank-≤2 (node-feature matrices, weight matrices,
//! attention matrices), so a simple dense matrix with a handful of BLAS-1/2
//! kernels is sufficient. Shapes are validated eagerly with panics: a shape
//! mismatch is a programming error, not a runtime condition.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// A dense `rows × cols` matrix of `f32`, row-major.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
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

    /// A copy of the contiguous rows `rows`.
    pub fn slice_rows(&self, rows: std::ops::Range<usize>) -> Mat {
        Mat {
            rows: rows.len(),
            cols: self.cols,
            data: self.data[rows.start * self.cols..rows.end * self.cols].to_vec(),
        }
    }

    /// Column-wise sum of rows `rows`, added in order → `1 × cols`.
    pub fn sum_rows_range(&self, rows: std::ops::Range<usize>) -> Mat {
        let mut out = Mat::zeros(1, self.cols);
        for r in rows {
            for (o, &e) in out.data.iter_mut().zip(self.row(r)) {
                *o += e;
            }
        }
        out
    }

    /// Column-wise sum of all rows → `1 × cols`.
    pub fn sum_rows(&self) -> Mat {
        self.sum_rows_range(0..self.rows)
    }

    /// GIN aggregation over a fixed graph: row `v` of the result is
    /// `(1+eps)·self[v] + Σ_{u ∈ neighbors(v)} self[u]`, with the
    /// neighbor rows added in the order `neighbors(v)` yields them.
    pub fn aggregate_neighbors<I>(&self, eps: f32, neighbors: impl Fn(usize) -> I) -> Mat
    where
        I: IntoIterator<Item = usize>,
    {
        let mut out = self.map(|e| e * (1.0 + eps));
        for v in 0..self.rows {
            for u in neighbors(v) {
                let src = &self.data[u * self.cols..(u + 1) * self.cols];
                let dst = &mut out.data[v * self.cols..(v + 1) * self.cols];
                for (o, &a) in dst.iter_mut().zip(src) {
                    *o += a;
                }
            }
        }
        out
    }

    /// The distinct rows (compared bit for bit) in first-occurrence order,
    /// and for every row of `self` the index of its copy among them, so
    /// `distinct.gather_rows(&index) == self`.
    pub fn distinct_rows(&self) -> (Mat, Vec<usize>) {
        let mut slot_of: HashMap<RowBits<'_>, usize, BuildHasherDefault<RowHasher>> =
            HashMap::default();
        let mut data = Vec::new();
        let index = (0..self.rows)
            .map(|r| {
                let row = self.row(r);
                let next = slot_of.len();
                *slot_of.entry(RowBits::new(row)).or_insert_with(|| {
                    data.extend_from_slice(row);
                    next
                })
            })
            .collect();
        let distinct = Mat {
            rows: slot_of.len(),
            cols: self.cols,
            data,
        };
        (distinct, index)
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

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
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

    /// Vertically stack rows of the given `1 × d` (or `k × d`) matrices.
    pub fn stack_rows(mats: &[&Mat]) -> Mat {
        assert!(!mats.is_empty(), "stack_rows of nothing");
        let cols = mats[0].cols;
        let rows: usize = mats.iter().map(|m| m.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for m in mats {
            assert_eq!(m.cols, cols, "stack_rows col mismatch");
            data.extend_from_slice(&m.data);
        }
        Mat { rows, cols, data }
    }
}

/// FxHash's multiply-rotate step.
fn fx_mix(h: u64, v: u64) -> u64 {
    (h.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95)
}

/// A matrix row keyed by its bit pattern, with the hash computed once.
struct RowBits<'a> {
    hash: u64,
    row: &'a [f32],
}

impl<'a> RowBits<'a> {
    fn new(row: &'a [f32]) -> Self {
        let hash = row.iter().fold(0, |h, x| fx_mix(h, u64::from(x.to_bits())));
        RowBits { hash, row }
    }
}

impl PartialEq for RowBits<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.row.len() == other.row.len()
            && self
                .row
                .iter()
                .zip(other.row)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

impl Eq for RowBits<'_> {}

impl Hash for RowBits<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// Passes a [`RowBits`] precomputed hash through unchanged.
#[derive(Default)]
struct RowHasher(u64);

impl Hasher for RowHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = fx_mix(self.0, u64::from(b));
        }
    }

    fn write_u64(&mut self, h: u64) {
        self.0 = h;
    }

    fn finish(&self) -> u64 {
        self.0
    }
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
    fn concat_and_stack() {
        let a = Mat::from_vec(2, 1, vec![1., 2.]);
        let b = Mat::from_vec(2, 2, vec![3., 4., 5., 6.]);
        let c = a.concat_cols(&b);
        assert_eq!(c.shape(), (2, 3));
        assert_eq!(c.row(1), &[2., 5., 6.]);

        let r1 = Mat::row_vector(&[1., 2.]);
        let r2 = Mat::row_vector(&[3., 4.]);
        let s = Mat::stack_rows(&[&r1, &r2]);
        assert_eq!(s.shape(), (2, 2));
        assert_eq!(s.get(1, 0), 3.0);
        assert_eq!(s.slice_rows(1..2), r2);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_panics() {
        let a = Mat::zeros(2, 3);
        let b = Mat::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn distinct_rows_round_trip_through_gather() {
        let m = Mat::from_vec(5, 2, vec![1., 2., 3., 4., 1., 2., 0., -0., 3., 4.]);
        let (distinct, index) = m.distinct_rows();
        // -0.0 and 0.0 differ in bits, so [0, -0] is its own row
        assert_eq!(distinct.data(), &[1., 2., 3., 4., 0., -0.]);
        assert_eq!(index, vec![0, 1, 0, 2, 1]);
        let back = distinct.gather_rows(&index);
        let bits = |m: &Mat| m.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&m));
    }

    #[test]
    fn aggregate_neighbors_adds_rows_in_order() {
        // path 0-1-2, eps = 0: out[1] = x1 + x0 + x2
        let x = Mat::from_vec(3, 1, vec![1.0, 10.0, 100.0]);
        let adj = [vec![1], vec![0, 2], vec![1]];
        let y = x.aggregate_neighbors(0.0, |v| adj[v].iter().copied());
        assert_eq!(y.data(), &[11.0, 111.0, 110.0]);
    }

    #[test]
    fn scalar_and_norm() {
        let s = Mat::from_vec(1, 1, vec![4.0]);
        assert_eq!(s.scalar(), 4.0);
        let m = Mat::from_vec(1, 2, vec![3.0, 4.0]);
        assert!((m.norm() - 5.0).abs() < 1e-6);
        assert_eq!(m.sum(), 7.0);
    }
}
