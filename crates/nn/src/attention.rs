//! Structured self-attention over substructure representations — the
//! learned weighting `w(·)` of Eq. (2) (Algorithm 1, lines 8–11).
//!
//! Following Lin et al.'s structured self-attentive embedding (which the
//! paper cites via [51, 82]):
//!
//! ```text
//! A   = softmax(W2 · tanh(W1 · H_qᵀ))      A ∈ ℝ^{r×n}
//! E_q = A · H_q                            E_q ∈ ℝ^{r×d}
//! e_q = Flatten(E_q)                       e_q ∈ ℝ^{1×rd}
//! ```
//!
//! `n` (the number of substructures) varies per query; `E_q`'s size depends
//! only on the hyper-parameters `r` (attention heads / "experts") and `d`,
//! and the whole block is permutation-invariant in the substructure order
//! (verified by tests here and property tests in `alss-core`).

use crate::init::xavier_uniform;
use crate::mat::Mat;
use crate::param::{ParamError, ParamId, ParamStore};
use crate::tape::{Tape, Var};
use rand::Rng;

/// The self-attention aggregator.
#[derive(Clone, Debug)]
pub struct SelfAttention {
    w1: ParamId, // da × d
    w2: ParamId, // r × da
    d: usize,
    r: usize,
}

impl SelfAttention {
    /// `d` — substructure representation width, `da` — attention hidden
    /// width, `r` — number of attention rows ("experts").
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        name: &str,
        d: usize,
        da: usize,
        r: usize,
        rng: &mut R,
    ) -> Result<Self, ParamError> {
        // Bias-free two-layer MLP, per Algorithm 1 line 9; shapes are
        // W1 ∈ ℝ^{da×d}, W2 ∈ ℝ^{r×da}.
        let w1 = store.add(format!("{name}.w1"), (da, d), || xavier_uniform(da, d, rng))?;
        let w2 = store.add(format!("{name}.w2"), (r, da), || xavier_uniform(r, da, rng))?;
        Ok(SelfAttention { w1, w2, d, r })
    }

    /// Aggregate `H_q (n × d)` into the flattened query representation
    /// `e_q (1 × r·d)`. Also returns the attention matrix node (for
    /// inspection / tests).
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, h_q: Var) -> (Var, Var) {
        assert_eq!(tape.value(h_q).cols(), self.d, "H_q width mismatch");
        let w1 = tape.param(store, self.w1); // da × d
        let w2 = tape.param(store, self.w2); // r × da
        let ht = tape.transpose(h_q); // d × n
        let z = tape.matmul(w1, ht, None); // da × n
        let z = tape.tanh(z);
        let scores = tape.matmul(w2, z, None); // r × n
                                               // softmax over the n substructures: rows of `scores`
        let a = tape.softmax_rows(scores); // r × n
        let e = tape.matmul(a, h_q, None); // r × d
        let eq = tape.flatten(e); // 1 × r·d
        (eq, a)
    }

    /// Inference forward without a tape, reading the weights in place:
    /// `e_q (1 × r·d)`, bit-identical to [`SelfAttention::forward`] on an
    /// eval tape.
    pub fn infer(&self, store: &ParamStore, h_q: &Mat) -> Mat {
        assert_eq!(h_q.cols(), self.d, "H_q width mismatch");
        let mut z = store.value(self.w1).matmul(&h_q.transpose()); // da × n
        z.map_in_place(f32::tanh);
        let mut a = store.value(self.w2).matmul(&z); // r × n
        a.softmax_rows_in_place();
        let e = a.matmul(h_q); // r × d
        Mat::row_vector(e.data())
    }

    /// Output width `r·d`.
    pub fn out_dim(&self) -> usize {
        self.r * self.d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn setup(d: usize, da: usize, r: usize) -> (ParamStore, SelfAttention) {
        let mut rng = SmallRng::seed_from_u64(11);
        let mut store = ParamStore::new();
        let att = SelfAttention::new(&mut store, "att", d, da, r, &mut rng).unwrap();
        (store, att)
    }

    #[test]
    fn output_size_independent_of_substructure_count() {
        let (store, att) = setup(4, 8, 3);
        for n in [1usize, 2, 7, 20] {
            let mut t = Tape::eval();
            let h = t.input(Mat::full(n, 4, 0.5));
            let (eq, a) = att.forward(&mut t, &store, h);
            assert_eq!(t.value(eq).shape(), (1, 12));
            assert_eq!(t.value(a).shape(), (3, n));
        }
    }

    #[test]
    fn attention_rows_are_distributions() {
        let (store, att) = setup(4, 8, 2);
        let mut t = Tape::eval();
        let h = t.input(Mat::from_vec(
            3,
            4,
            vec![1., 0., 0., 0., 0., 2., 0., 0., 0., 0., 3., 0.],
        ));
        let (_, a) = att.forward(&mut t, &store, h);
        for r in 0..2 {
            let sum: f32 = t.value(a).row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            assert!(t.value(a).row(r).iter().all(|&p| p >= 0.0));
        }
    }

    #[test]
    fn permutation_invariance_of_aggregate() {
        let (store, att) = setup(3, 6, 2);
        let rows = [
            vec![1.0f32, 2.0, 3.0],
            vec![-1.0, 0.5, 0.0],
            vec![0.3, 0.3, 0.3],
        ];
        let forward = |order: &[usize]| {
            let data: Vec<f32> = order.iter().flat_map(|&i| rows[i].clone()).collect();
            let mut t = Tape::eval();
            let h = t.input(Mat::from_vec(3, 3, data));
            let (eq, _) = att.forward(&mut t, &store, h);
            t.value(eq).data().to_vec()
        };
        let e1 = forward(&[0, 1, 2]);
        let e2 = forward(&[2, 0, 1]);
        for (a, b) in e1.iter().zip(&e2) {
            assert!((a - b).abs() < 1e-5, "{e1:?} vs {e2:?}");
        }
    }
}
