//! Linear layers and multi-layer perceptrons.

use crate::init::xavier_uniform;
use crate::mat::Mat;
use crate::param::{ParamError, ParamId, ParamStore};
use crate::tape::{Tape, Var};
use alss_graph::PackedGraphs;
use rand::Rng;
use std::sync::Arc;

/// Activation applied between MLP layers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Activation {
    /// Identity.
    None,
    /// Rectified linear unit.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
}

impl Activation {
    /// Apply on a tape node.
    pub fn apply(self, tape: &mut Tape, x: Var) -> Var {
        match self {
            Activation::None => x,
            Activation::Relu => tape.relu(x),
            Activation::Tanh => tape.tanh(x),
        }
    }

    /// Apply elementwise to a matrix, in place (the inference path).
    pub fn apply_in_place(self, x: &mut Mat) {
        match self {
            Activation::None => {}
            Activation::Relu => x.map_in_place(|e| e.max(0.0)),
            Activation::Tanh => x.map_in_place(f32::tanh),
        }
    }
}

/// A dense layer `y = x W + b` (bias optional — the paper's attention MLP
/// is bias-free).
#[derive(Clone, Debug)]
pub struct Linear {
    w: ParamId,
    b: Option<ParamId>,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Create with Xavier-initialized weights (a zero bias), or with the
    /// next stored ones of a stored `store`.
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        bias: bool,
        rng: &mut R,
    ) -> Result<Self, ParamError> {
        let w = store.add(format!("{name}.w"), (in_dim, out_dim), || {
            xavier_uniform(in_dim, out_dim, rng)
        })?;
        let b = if bias {
            Some(store.add(format!("{name}.b"), (1, out_dim), || Mat::zeros(1, out_dim))?)
        } else {
            None
        };
        Ok(Linear {
            w,
            b,
            in_dim,
            out_dim,
        })
    }

    /// Forward: `x (n × in) → (n × out)`. With `graphs`, `x`'s rows are
    /// the nodes of those packed graphs (see [`Tape::matmul`]).
    pub fn forward(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        x: Var,
        graphs: Option<&Arc<PackedGraphs>>,
    ) -> Var {
        debug_assert_eq!(tape.value(x).cols(), self.in_dim, "linear input dim");
        let w = tape.param(store, self.w);
        let xw = tape.matmul(x, w, graphs);
        match self.b {
            Some(b) => {
                let bv = tape.param(store, b);
                tape.add_row(xw, bv, graphs)
            }
            None => xw,
        }
    }

    /// Inference forward without a tape, reading the weights in place;
    /// bit-identical to [`Linear::forward`] on an eval tape.
    pub fn infer(&self, store: &ParamStore, x: &Mat) -> Mat {
        debug_assert_eq!(x.cols(), self.in_dim, "linear input dim");
        let mut y = x.matmul(store.value(self.w));
        if let Some(b) = self.b {
            y.add_row_assign(store.value(b));
        }
        y
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }
}

/// A multi-layer perceptron with a fixed hidden activation, optional
/// dropout after each hidden layer, and a linear output layer.
#[derive(Clone, Debug)]
pub struct Mlp {
    layers: Vec<Linear>,
    activation: Activation,
    dropout: f32,
}

impl Mlp {
    /// `dims = [in, h1, ..., out]`; requires at least one layer.
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        name: &str,
        dims: &[usize],
        activation: Activation,
        dropout: f32,
        rng: &mut R,
    ) -> Result<Self, ParamError> {
        assert!(dims.len() >= 2, "MLP needs at least in/out dims");
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(store, &format!("{name}.l{i}"), w[0], w[1], true, rng))
            .collect::<Result<_, _>>()?;
        Ok(Mlp {
            layers,
            activation,
            dropout,
        })
    }

    /// Draw the dropout masks of a forward over `rows` input rows: one per
    /// hidden layer, in the order [`Mlp::forward`] applies them. They are
    /// empty unless `tape` is a training tape and dropout is on.
    pub fn dropout_masks(&self, tape: &mut Tape, rows: usize) -> Vec<Vec<f32>> {
        let hidden = &self.layers[..self.layers.len().saturating_sub(1)];
        hidden
            .iter()
            .map(|l| tape.dropout_mask(rows * l.out_dim(), self.dropout))
            .collect()
    }

    /// Forward pass, applying `masks` (from [`Mlp::dropout_masks`] for
    /// `x`'s rows) after the hidden layers; `graphs` as for
    /// [`Linear::forward`].
    pub fn forward(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        x: Var,
        graphs: Option<&Arc<PackedGraphs>>,
        masks: Vec<Vec<f32>>,
    ) -> Var {
        assert_eq!(masks.len() + 1, self.layers.len(), "mask count");
        let mut masks = masks.into_iter();
        let mut h = x;
        for layer in &self.layers {
            h = layer.forward(tape, store, h, graphs);
            if let Some(mask) = masks.next() {
                h = self.activation.apply(tape, h);
                h = tape.dropout(h, mask);
            }
        }
        h
    }

    /// Inference forward without a tape (dropout is the identity);
    /// bit-identical to [`Mlp::forward`] on an eval tape.
    pub fn infer(&self, store: &ParamStore, x: &Mat) -> Mat {
        let mut layers = self.layers.iter();
        let Some(first) = layers.next() else {
            return x.clone();
        };
        let mut h = first.infer(store, x);
        for layer in layers {
            self.activation.apply_in_place(&mut h);
            h = layer.infer(store, &h);
        }
        h
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        // Constructors reject zero-layer MLPs; 0 keeps this total.
        self.layers.last().map_or(0, |l| l.out_dim())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn linear_shapes() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let l = Linear::new(&mut store, "l", 3, 5, true, &mut rng).unwrap();
        let mut t = Tape::eval();
        let x = t.input(Mat::zeros(4, 3));
        let y = l.forward(&mut t, &store, x, None);
        assert_eq!(t.value(y).shape(), (4, 5));
    }

    #[test]
    fn bias_free_layer_registers_one_param() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let _ = Linear::new(&mut store, "nb", 2, 2, false, &mut rng).unwrap();
        assert_eq!(store.num_params(), 1);
    }

    #[test]
    fn mlp_learns_identity_direction() {
        // single gradient step reduces loss on y = x task
        let mut rng = SmallRng::seed_from_u64(7);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(&mut store, "m", &[2, 8, 1], Activation::Relu, 0.0, &mut rng).unwrap();
        let data = Mat::from_vec(4, 2, vec![0., 0., 0., 1., 1., 0., 1., 1.]);
        let target = Mat::from_vec(4, 1, vec![0., 1., 1., 2.]);

        let loss_at = |store: &ParamStore| {
            let mut t = Tape::eval();
            let x = t.input(data.clone());
            let masks = mlp.dropout_masks(&mut t, 4);
            let y = mlp.forward(&mut t, store, x, None, masks);
            let tv = t.input(target.clone());
            let d = t.sub(y, tv);
            let d2 = t.mul(d, d);
            let l = t.mean_all(d2);
            t.value(l).scalar()
        };

        let before = loss_at(&store);
        // one manual SGD step
        let mut t = Tape::train(rng);
        let x = t.input(data.clone());
        let masks = mlp.dropout_masks(&mut t, 4);
        let y = mlp.forward(&mut t, &store, x, None, masks);
        let tv = t.input(target.clone());
        let d = t.sub(y, tv);
        let d2 = t.mul(d, d);
        let l = t.mean_all(d2);
        let mut grads = store.grad_shard();
        t.backward(l, &mut grads);
        for id in store.ids().collect::<Vec<_>>() {
            store.value_mut(id).add_scaled_assign(grads.grad(id), -0.1);
        }
        let after = loss_at(&store);
        assert!(after < before, "loss should decrease: {before} -> {after}");
    }
}
