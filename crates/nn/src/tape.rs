//! Define-by-run reverse-mode automatic differentiation on [`Mat`].
//!
//! A [`Tape`] is built per training or loss forward pass; every operation
//! eagerly computes its value and records the op it came from.
//! (Inference runs the layers' tape-free `infer` methods, which call the
//! same [`Mat`] kernels and so match an eval tape bit for bit.)
//! [`Tape::backward`] walks the tape in reverse, accumulating gradients;
//! gradients of [`Tape::param`] leaves are routed into a [`GradShard`]. A
//! training tape ([`Tape::train`]) owns the RNG its dropout masks are
//! drawn from ([`Tape::dropout_mask`]); an eval tape ([`Tape::eval`]) has
//! none, so its masks are empty and dropout is the identity there.
//!
//! GIN runs on the rows of a [`PackedGraphs`]. Ops given the pack treat
//! each packed graph as a sample: `sum_rows` reads out a row per graph, and
//! `matmul`/`add_row` sum a shared weight's gradient graph by graph, last
//! first, which are the bits a pass per graph would accumulate.
//!
//! The op set is exactly what the LSS architecture needs (GIN message
//! passing, structured self-attention, MLPs, the Eq. 3/5 losses) plus a
//! finite-difference grad-checker in [`crate::gradcheck`] that every op is
//! tested against.

use crate::gin::Aggregation;
use crate::mat::Mat;
use crate::param::{GradShard, ParamId, ParamStore};
use alss_graph::PackedGraphs;
use rand::rngs::SmallRng;
use rand::Rng;
use std::ops::Range;
use std::sync::Arc;

/// Handle to a tape node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Var(usize);

enum Op {
    Leaf,
    Param(ParamId),
    /// `a · b`; with graphs, `a`'s rows are their nodes and `b` is shared.
    MatMul(Var, Var, Option<Arc<PackedGraphs>>),
    Add(Var, Var),
    /// `a (n×c) + row (1×c)` broadcast over rows; graphs as for `MatMul`.
    AddRow(Var, Var, Option<Arc<PackedGraphs>>),
    Sub(Var, Var),
    Mul(Var, Var),
    Scale(Var, f32),
    Relu(Var),
    Tanh(Var),
    SoftmaxRows(Var),
    LogSoftmaxRows(Var),
    /// Mask already includes the inverted-dropout `1/(1-p)` scaling.
    Dropout(Var, Vec<f32>),
    SumAll(Var),
    MeanAll(Var),
    /// One column sum over all rows, or one per packed graph.
    SumRows(Var, Option<Arc<PackedGraphs>>),
    ConcatCols(Var, Var),
    Transpose(Var),
    SliceCols(Var, usize, usize),
    /// GIN aggregate `S (A + I) X` over a fixed packed graph set; `A` is
    /// symmetric and `S` the aggregation's diagonal row scaling.
    GraphAgg(Var, Arc<PackedGraphs>, Aggregation),
    Flatten(Var),
}

struct Node {
    value: Mat,
    op: Op,
}

/// Human-readable op name for the finiteness guards' messages.
fn op_name(op: &Op) -> &'static str {
    match op {
        Op::Leaf => "input",
        Op::Param(_) => "param",
        Op::MatMul(..) => "matmul",
        Op::Add(..) => "add",
        Op::AddRow(..) => "add_row",
        Op::Sub(..) => "sub",
        Op::Mul(..) => "mul",
        Op::Scale(..) => "scale",
        Op::Relu(_) => "relu",
        Op::Tanh(_) => "tanh",
        Op::SoftmaxRows(_) => "softmax_rows",
        Op::LogSoftmaxRows(_) => "log_softmax_rows",
        Op::Dropout(..) => "dropout",
        Op::SumAll(_) => "sum_all",
        Op::MeanAll(_) => "mean_all",
        Op::SumRows(..) => "sum_rows",
        Op::ConcatCols(..) => "concat_cols",
        Op::Transpose(_) => "transpose",
        Op::SliceCols(..) => "slice_cols",
        Op::GraphAgg(..) => "graph_agg",
        Op::Flatten(_) => "flatten",
    }
}

/// A gradient tape. Create one per forward pass.
pub struct Tape {
    nodes: Vec<Node>,
    grads: Vec<Option<Mat>>,
    /// Dropout mask source; `None` on an eval tape.
    rng: Option<SmallRng>,
}

impl Tape {
    /// An eval-mode tape: deterministic, dropout is the identity.
    pub fn eval() -> Self {
        Tape {
            nodes: Vec::new(),
            grads: Vec::new(),
            rng: None,
        }
    }

    /// A training tape whose dropout masks are drawn from `rng`, in op
    /// order.
    pub fn train(rng: SmallRng) -> Self {
        Tape {
            rng: Some(rng),
            ..Self::eval()
        }
    }

    fn push(&mut self, value: Mat, op: Op) -> Var {
        // Debug guard: a NaN/Inf born in one op propagates silently through
        // the rest of the pass and surfaces as a garbage count estimate
        // much later; catch it at the op that produced it.
        debug_assert!(
            value.all_finite(),
            "non-finite value in forward {}: {:?}",
            op_name(&op),
            value.first_non_finite()
        );
        self.nodes.push(Node { value, op });
        Var(self.nodes.len() - 1)
    }

    /// Value of a node.
    pub fn value(&self, v: Var) -> &Mat {
        &self.nodes[v.0].value
    }

    /// Gradient of a node after [`Tape::backward`] (zeros if unreached).
    pub fn grad(&self, v: Var) -> Mat {
        match &self.grads.get(v.0) {
            Some(Some(g)) => g.clone(),
            _ => {
                let m = &self.nodes[v.0].value;
                Mat::zeros(m.rows(), m.cols())
            }
        }
    }

    /// Insert a constant (non-learnable) input.
    pub fn input(&mut self, value: Mat) -> Var {
        self.push(value, Op::Leaf)
    }

    /// Insert a learnable parameter (copies the current value from the
    /// store; the backward pass routes the gradient back).
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        self.push(store.value(id).clone(), Op::Param(id))
    }

    /// Matrix product. With `graphs`, `a`'s rows are their nodes and `b` a
    /// weight they share, whose gradient is summed graph by graph.
    pub fn matmul(&mut self, a: Var, b: Var, graphs: Option<&Arc<PackedGraphs>>) -> Var {
        let v = self.nodes[a.0].value.matmul(&self.nodes[b.0].value);
        self.push(v, Op::MatMul(a, b, graphs.cloned()))
    }

    /// Elementwise sum (same shape).
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let (x, y) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        assert_eq!(x.shape(), y.shape(), "add shape mismatch");
        let mut v = x.clone();
        v.add_assign(y);
        self.push(v, Op::Add(a, b))
    }

    /// Row-broadcast sum: `a (n×c) + row (1×c)`; `graphs` as for
    /// [`Tape::matmul`], with `row` the shared weight.
    pub fn add_row(&mut self, a: Var, row: Var, graphs: Option<&Arc<PackedGraphs>>) -> Var {
        let mut v = self.nodes[a.0].value.clone();
        v.add_row_assign(&self.nodes[row.0].value);
        self.push(v, Op::AddRow(a, row, graphs.cloned()))
    }

    /// Elementwise difference.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let (x, y) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        assert_eq!(x.shape(), y.shape(), "sub shape mismatch");
        let mut v = x.clone();
        v.add_scaled_assign(y, -1.0);
        self.push(v, Op::Sub(a, b))
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let (x, y) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        assert_eq!(x.shape(), y.shape(), "mul shape mismatch");
        let v = Mat::from_vec(
            x.rows(),
            x.cols(),
            x.data()
                .iter()
                .zip(y.data())
                .map(|(&p, &q)| p * q)
                .collect(),
        );
        self.push(v, Op::Mul(a, b))
    }

    /// Scalar multiple.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let v = self.nodes[a.0].value.map(|x| x * s);
        self.push(v, Op::Scale(a, s))
    }

    /// ReLU.
    pub fn relu(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.map(|x| x.max(0.0));
        self.push(v, Op::Relu(a))
    }

    /// tanh.
    pub fn tanh(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.map(f32::tanh);
        self.push(v, Op::Tanh(a))
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&mut self, a: Var) -> Var {
        let mut v = self.nodes[a.0].value.clone();
        v.softmax_rows_in_place();
        self.push(v, Op::SoftmaxRows(a))
    }

    /// Row-wise log-softmax (numerically stable; for cross-entropy).
    pub fn log_softmax_rows(&mut self, a: Var) -> Var {
        let x = &self.nodes[a.0].value;
        let mut v = x.clone();
        for i in 0..v.rows() {
            let row = v.row_mut(i);
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let lse = max + row.iter().map(|&e| (e - max).exp()).sum::<f32>().ln();
            for e in row.iter_mut() {
                *e -= lse;
            }
        }
        self.push(v, Op::LogSoftmaxRows(a))
    }

    /// Draw an inverted-dropout mask of `len` entries, each `0` (with
    /// probability `p`) or `1/(1-p)`, from the tape's RNG; so a mask can be
    /// drawn ahead of the op that applies it. Empty on an eval tape or when
    /// `p == 0`.
    pub fn dropout_mask(&mut self, len: usize, p: f32) -> Vec<f32> {
        let Some(rng) = self.rng.as_mut().filter(|_| p > 0.0) else {
            return Vec::new();
        };
        assert!(p < 1.0, "dropout probability must be < 1");
        let scale = 1.0 / (1.0 - p);
        (0..len)
            .map(|_| if rng.gen::<f32>() < p { 0.0 } else { scale })
            .collect()
    }

    /// Inverted dropout: multiply `a` elementwise by a mask from
    /// [`Tape::dropout_mask`]. An empty mask is the identity.
    pub fn dropout(&mut self, a: Var, mask: Vec<f32>) -> Var {
        if mask.is_empty() {
            return a;
        }
        let x = &self.nodes[a.0].value;
        assert_eq!(mask.len(), x.len(), "dropout mask size mismatch");
        let v = Mat::from_vec(
            x.rows(),
            x.cols(),
            x.data().iter().zip(&mask).map(|(&e, &m)| e * m).collect(),
        );
        self.push(v, Op::Dropout(a, mask))
    }

    /// Sum of all elements → `1 × 1`.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let v = Mat::from_vec(1, 1, vec![self.nodes[a.0].value.sum()]);
        self.push(v, Op::SumAll(a))
    }

    /// Mean of all elements → `1 × 1`.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let x = &self.nodes[a.0].value;
        let v = Mat::from_vec(1, 1, vec![x.sum() / x.len() as f32]);
        self.push(v, Op::MeanAll(a))
    }

    /// Column-wise sum over rows: `(n×c) → (1×c)`; with `graphs`, whose
    /// nodes `a`'s rows are, one sum per graph → `(graphs × c)` (the GIN
    /// sum-Readout).
    pub fn sum_rows(&mut self, a: Var, graphs: Option<&Arc<PackedGraphs>>) -> Var {
        let x = &self.nodes[a.0].value;
        let v = x.sum_row_blocks(row_blocks(graphs.map(Arc::as_ref), x.rows()));
        self.push(v, Op::SumRows(a, graphs.cloned()))
    }

    /// Horizontally concatenate `[a | b]`.
    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let v = self.nodes[a.0].value.concat_cols(&self.nodes[b.0].value);
        self.push(v, Op::ConcatCols(a, b))
    }

    /// Transpose.
    pub fn transpose(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.transpose();
        self.push(v, Op::Transpose(a))
    }

    /// Column slice `a[:, start..end]`.
    pub fn slice_cols(&mut self, a: Var, start: usize, end: usize) -> Var {
        let x = &self.nodes[a.0].value;
        assert!(start <= end && end <= x.cols(), "slice out of range");
        let mut v = Mat::zeros(x.rows(), end - start);
        for i in 0..x.rows() {
            v.row_mut(i).copy_from_slice(&x.row(i)[start..end]);
        }
        self.push(v, Op::SliceCols(a, start, end))
    }

    /// GIN aggregation over `graphs` (shared, not copied), whose nodes are
    /// the rows of `x` (see [`Aggregation::apply`]).
    pub fn graph_agg(
        &mut self,
        x: Var,
        graphs: &Arc<PackedGraphs>,
        aggregation: Aggregation,
    ) -> Var {
        let v = aggregation.apply(&self.nodes[x.0].value, graphs);
        self.push(v, Op::GraphAgg(x, Arc::clone(graphs), aggregation))
    }

    /// Reshape `(r×c)` into a `(1, r·c)` row vector.
    pub fn flatten(&mut self, a: Var) -> Var {
        let x = &self.nodes[a.0].value;
        let v = Mat::from_vec(1, x.len(), x.data().to_vec());
        self.push(v, Op::Flatten(a))
    }

    fn add_grad(&mut self, v: Var, g: Mat) {
        debug_assert!(
            g.all_finite(),
            "non-finite gradient flowing into {} node {}: {:?}",
            op_name(&self.nodes[v.0].op),
            v.0,
            g.first_non_finite()
        );
        match &mut self.grads[v.0] {
            Some(acc) => acc.add_assign(&g),
            slot @ None => *slot = Some(g),
        }
    }

    /// Reverse pass from a scalar `loss` node; parameter gradients are
    /// accumulated into `grads` (made by [`ParamStore::grad_shard`]),
    /// node gradients are retained for [`Tape::grad`].
    pub fn backward(&mut self, loss: Var, grads: &mut GradShard) {
        assert_eq!(
            self.nodes[loss.0].value.shape(),
            (1, 1),
            "backward from non-scalar"
        );
        self.grads = (0..self.nodes.len()).map(|_| None).collect();
        self.grads[loss.0] = Some(Mat::from_vec(1, 1, vec![1.0]));

        for i in (0..=loss.0).rev() {
            let Some(g) = self.grads[i].clone() else {
                continue;
            };
            // Split borrows: read values immutably, write grads via helper.
            match &self.nodes[i].op {
                Op::Leaf => {}
                Op::Param(id) => {
                    let id = *id;
                    debug_assert!(
                        g.all_finite(),
                        "non-finite parameter gradient for {id:?}: {:?}",
                        g.first_non_finite()
                    );
                    grads.accumulate(id, &g);
                }
                Op::MatMul(a, b, graphs) => {
                    let (a, b) = (*a, *b);
                    let av = &self.nodes[a.0].value;
                    let da = g.matmul(&self.nodes[b.0].value.transpose());
                    let db = shared_grad(graphs.as_deref(), av.rows(), |rows| {
                        av.transpose_matmul(&g, rows)
                    });
                    self.add_grad(a, da);
                    self.add_grad(b, db);
                }
                Op::Add(a, b) => {
                    let (a, b) = (*a, *b);
                    self.add_grad(a, g.clone());
                    self.add_grad(b, g);
                }
                Op::AddRow(a, row, graphs) => {
                    let (a, row) = (*a, *row);
                    let dr =
                        shared_grad(graphs.as_deref(), g.rows(), |rows| g.sum_row_blocks([rows]));
                    self.add_grad(a, g);
                    self.add_grad(row, dr);
                }
                Op::Sub(a, b) => {
                    let (a, b) = (*a, *b);
                    self.add_grad(a, g.clone());
                    self.add_grad(b, g.map(|x| -x));
                }
                Op::Mul(a, b) => {
                    let (a, b) = (*a, *b);
                    let av = self.nodes[a.0].value.clone();
                    let bv = self.nodes[b.0].value.clone();
                    let mut da = g.clone();
                    for (d, &x) in da.data_mut().iter_mut().zip(bv.data()) {
                        *d *= x;
                    }
                    let mut db = g;
                    for (d, &x) in db.data_mut().iter_mut().zip(av.data()) {
                        *d *= x;
                    }
                    self.add_grad(a, da);
                    self.add_grad(b, db);
                }
                Op::Scale(a, s) => {
                    let (a, s) = (*a, *s);
                    self.add_grad(a, g.map(|x| x * s));
                }
                Op::Relu(a) => {
                    let a = *a;
                    let xv = self.nodes[a.0].value.clone();
                    let mut dx = g;
                    for (d, &x) in dx.data_mut().iter_mut().zip(xv.data()) {
                        if x <= 0.0 {
                            *d = 0.0;
                        }
                    }
                    self.add_grad(a, dx);
                }
                Op::Tanh(a) => {
                    let a = *a;
                    let yv = self.nodes[i].value.clone();
                    let mut dx = g;
                    for (d, &y) in dx.data_mut().iter_mut().zip(yv.data()) {
                        *d *= 1.0 - y * y;
                    }
                    self.add_grad(a, dx);
                }
                Op::SoftmaxRows(a) => {
                    let a = *a;
                    let y = self.nodes[i].value.clone();
                    let mut dx = Mat::zeros(y.rows(), y.cols());
                    for r in 0..y.rows() {
                        let dot: f32 = g
                            .row(r)
                            .iter()
                            .zip(y.row(r))
                            .map(|(&dg, &yy)| dg * yy)
                            .sum();
                        for c in 0..y.cols() {
                            dx.set(r, c, y.get(r, c) * (g.get(r, c) - dot));
                        }
                    }
                    self.add_grad(a, dx);
                }
                Op::LogSoftmaxRows(a) => {
                    let a = *a;
                    let y = self.nodes[i].value.clone(); // log-probs
                    let mut dx = Mat::zeros(y.rows(), y.cols());
                    for r in 0..y.rows() {
                        let gsum: f32 = g.row(r).iter().sum();
                        for c in 0..y.cols() {
                            dx.set(r, c, g.get(r, c) - y.get(r, c).exp() * gsum);
                        }
                    }
                    self.add_grad(a, dx);
                }
                Op::Dropout(a, mask) => {
                    let a = *a;
                    let mut dx = g;
                    for (d, &m) in dx.data_mut().iter_mut().zip(mask) {
                        *d *= m;
                    }
                    self.add_grad(a, dx);
                }
                Op::SumAll(a) => {
                    let a = *a;
                    let x = &self.nodes[a.0].value;
                    let dx = Mat::full(x.rows(), x.cols(), g.scalar());
                    self.add_grad(a, dx);
                }
                Op::MeanAll(a) => {
                    let a = *a;
                    let x = &self.nodes[a.0].value;
                    let dx = Mat::full(x.rows(), x.cols(), g.scalar() / x.len() as f32);
                    self.add_grad(a, dx);
                }
                Op::SumRows(a, graphs) => {
                    let a = *a;
                    let (rows, cols) = self.nodes[a.0].value.shape();
                    let mut dx = Mat::zeros(rows, cols);
                    for (b, block) in row_blocks(graphs.as_deref(), rows).into_iter().enumerate() {
                        for r in block {
                            dx.row_mut(r).copy_from_slice(g.row(b));
                        }
                    }
                    self.add_grad(a, dx);
                }
                Op::ConcatCols(a, b) => {
                    let (a, b) = (*a, *b);
                    let ac = self.nodes[a.0].value.cols();
                    let bc = self.nodes[b.0].value.cols();
                    let rows = g.rows();
                    let mut da = Mat::zeros(rows, ac);
                    let mut db = Mat::zeros(rows, bc);
                    for r in 0..rows {
                        da.row_mut(r).copy_from_slice(&g.row(r)[..ac]);
                        db.row_mut(r).copy_from_slice(&g.row(r)[ac..]);
                    }
                    self.add_grad(a, da);
                    self.add_grad(b, db);
                }
                Op::Transpose(a) => {
                    let a = *a;
                    self.add_grad(a, g.transpose());
                }
                Op::SliceCols(a, s, _e) => {
                    let (a, s) = (*a, *s);
                    let x = &self.nodes[a.0].value;
                    let mut dx = Mat::zeros(x.rows(), x.cols());
                    for r in 0..g.rows() {
                        for c in 0..g.cols() {
                            dx.set(r, s + c, g.get(r, c));
                        }
                    }
                    self.add_grad(a, dx);
                }
                Op::GraphAgg(x, graphs, aggregation) => {
                    let x = *x;
                    let dx = aggregation.apply_transposed(&g, graphs);
                    self.add_grad(x, dx);
                }
                Op::Flatten(a) => {
                    let a = *a;
                    let x = &self.nodes[a.0].value;
                    let dx = Mat::from_vec(x.rows(), x.cols(), g.data().to_vec());
                    self.add_grad(a, dx);
                }
            }
        }
    }
}

/// The row blocks `graphs` packs `rows` rows into, in order; all rows as
/// one block without `graphs`.
fn row_blocks(graphs: Option<&PackedGraphs>, rows: usize) -> Vec<Range<usize>> {
    match graphs {
        None => std::iter::once(0..rows).collect(),
        Some(graphs) => (0..graphs.num_graphs()).map(|g| graphs.rows(g)).collect(),
    }
}

/// Gradient of a weight applied to every row, from `part(rows)`, the
/// contribution of a row range. With `graphs`, each graph's part is added
/// into zeros (the part of no rows), last graph first: the order in which a
/// pass over one weight copy per graph fills a zeroed [`GradShard`].
fn shared_grad(
    graphs: Option<&PackedGraphs>,
    rows: usize,
    part: impl Fn(Range<usize>) -> Mat,
) -> Mat {
    let Some(graphs) = graphs else {
        return part(0..rows);
    };
    let mut acc = part(0..0);
    for block in row_blocks(Some(graphs), rows).into_iter().rev() {
        acc.add_assign(&part(block));
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn scalar_chain_gradient() {
        // loss = mean((2x)^2) with x = [1, 2] → d/dx = 4x ⇒ [4, 8] / 2
        let mut t = Tape::eval();
        let x = t.input(Mat::row_vector(&[1.0, 2.0]));
        let y = t.scale(x, 2.0);
        let y2 = t.mul(y, y);
        let loss = t.mean_all(y2);
        let mut grads = ParamStore::new().grad_shard();
        t.backward(loss, &mut grads);
        let g = t.grad(x);
        assert!((g.get(0, 0) - 4.0).abs() < 1e-5);
        assert!((g.get(0, 1) - 8.0).abs() < 1e-5);
    }

    #[test]
    fn param_grads_routed_to_shard() {
        let mut store = ParamStore::new();
        let w = store.add("w", (1, 1), || Mat::row_vector(&[3.0])).unwrap();
        let mut grads = store.grad_shard();
        let mut t = Tape::train(SmallRng::seed_from_u64(0));
        let wv = t.param(&store, w);
        let sq = t.mul(wv, wv);
        let loss = t.sum_all(sq);
        t.backward(loss, &mut grads);
        // d(w^2)/dw = 2w = 6
        assert!((grads.grad(w).get(0, 0) - 6.0).abs() < 1e-5);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut t = Tape::eval();
        let x = t.input(Mat::from_vec(2, 3, vec![1., 2., 3., 10., 10., 10.]));
        let s = t.softmax_rows(x);
        for r in 0..2 {
            let sum: f32 = t.value(s).row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        // second row uniform
        assert!((t.value(s).get(1, 0) - 1.0 / 3.0).abs() < 1e-5);
    }

    #[test]
    fn dropout_eval_is_identity() {
        let mut t = Tape::eval();
        let x = t.input(Mat::row_vector(&[1.0, 2.0, 3.0]));
        let mask = t.dropout_mask(3, 0.5);
        assert!(mask.is_empty());
        let d = t.dropout(x, mask);
        assert_eq!(d, x);
    }

    #[test]
    fn graph_agg_path() {
        // an edge, then the path 0-1-2: path out[1] = x1 + x0 + x2
        let edge: &[&[u32]] = &[&[1], &[0]];
        let path: &[&[u32]] = &[&[1], &[0, 2], &[1]];
        let graphs = Arc::new(PackedGraphs::new([edge, path]));
        let mut t = Tape::eval();
        let x = t.input(Mat::from_vec(5, 1, vec![1.0, 2.0, 1.0, 10.0, 100.0]));
        let y = t.graph_agg(x, &graphs, Aggregation::Sum);
        assert_eq!(t.value(y).data(), &[3.0, 3.0, 11.0, 111.0, 110.0]);
        let y = t.graph_agg(x, &graphs, Aggregation::Mean);
        assert_eq!(t.value(y).data(), &[1.5, 1.5, 5.5, 37.0, 55.0]);
    }

    #[test]
    fn dropout_backward_applies_the_same_mask() {
        // loss = sum(dropout(x)); grad must equal the forward mask exactly
        let mut t = Tape::train(SmallRng::seed_from_u64(1));
        let x = t.input(Mat::full(1, 64, 1.0));
        let mask = t.dropout_mask(64, 0.5);
        let d = t.dropout(x, mask);
        let forward = t.value(d).data().to_vec();
        let loss = t.sum_all(d);
        let mut grads = ParamStore::new().grad_shard();
        t.backward(loss, &mut grads);
        let g = t.grad(x);
        for (gv, fv) in g.data().iter().zip(&forward) {
            // mask is 0 or 2.0 (inverted dropout at p = 0.5); forward value
            // equals mask here since inputs are 1.0
            assert_eq!(gv, fv);
        }
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "finiteness guards are debug-only")]
    #[should_panic(expected = "non-finite value in forward input")]
    fn nan_input_is_caught_at_entry() {
        let mut t = Tape::eval();
        t.input(Mat::row_vector(&[1.0, f32::NAN]));
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "finiteness guards are debug-only")]
    #[should_panic(expected = "non-finite value in forward")]
    fn overflow_is_caught_at_the_op_that_produced_it() {
        let mut t = Tape::eval();
        let x = t.input(Mat::row_vector(&[f32::MAX]));
        let y = t.scale(x, 2.0); // f32::MAX * 2 → +Inf
        let _ = t.mul(y, y);
    }

    #[test]
    fn finite_pass_trips_no_guard() {
        let mut t = Tape::eval();
        let x = t.input(Mat::row_vector(&[1e30, -1e30]));
        let y = t.tanh(x);
        let loss = t.mean_all(y);
        let mut grads = ParamStore::new().grad_shard();
        t.backward(loss, &mut grads);
        assert!(t.grad(x).all_finite());
    }

    #[test]
    fn tape_and_inputs_are_send() {
        // The data-parallel trainer moves tapes and shares adjacencies
        // across worker threads; this is a compile-time audit that the
        // autodiff types stay thread-safe.
        fn assert_send<T: Send>() {}
        fn assert_sync<T: Sync>() {}
        assert_send::<Tape>();
        assert_send::<Arc<PackedGraphs>>();
        assert_sync::<Arc<PackedGraphs>>();
        assert_send::<Mat>();
        assert_sync::<Mat>();
        assert_sync::<ParamStore>();
        assert_send::<crate::param::GradShard>();
    }

    #[test]
    fn flatten_and_slice() {
        let mut t = Tape::eval();
        let x = t.input(Mat::from_vec(2, 2, vec![1., 2., 3., 4.]));
        let f = t.flatten(x);
        assert_eq!(t.value(f).shape(), (1, 4));
        let s = t.slice_cols(x, 1, 2);
        assert_eq!(t.value(s).data(), &[2., 4.]);
    }
}
