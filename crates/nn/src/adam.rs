//! Adam optimizer with decoupled L2 penalty and exponential learning-rate
//! decay, matching the paper's training setup (§6.1: "Adam optimizer with a
//! decaying learning rate", L2 penalty ∈ [1e-3, 1e-5]).

use crate::mat::Mat;
use crate::param::{GradShard, ParamId, ParamStore};
/// Adam hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct AdamConfig {
    /// Initial learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical-stability constant.
    pub eps: f32,
    /// L2 penalty (added to gradients, classic Adam-L2).
    pub weight_decay: f32,
    /// Multiplicative LR decay applied per epoch via [`Adam::decay_lr`].
    pub lr_decay: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 1e-4,
            lr_decay: 0.95,
        }
    }
}

/// Adam state (first/second moments per parameter).
#[derive(Clone, Debug)]
pub struct Adam {
    cfg: AdamConfig,
    lr: f32,
    t: u64,
    m: Vec<Mat>,
    v: Vec<Mat>,
}

impl Adam {
    /// Initialize moments matching the store's current parameters.
    pub fn new(cfg: AdamConfig, store: &ParamStore) -> Self {
        let m = store
            .ids()
            .map(|id| {
                let p = store.value(id);
                Mat::zeros(p.rows(), p.cols())
            })
            .collect::<Vec<_>>();
        let v = m.clone();
        Adam {
            cfg,
            lr: cfg.lr,
            t: 0,
            m,
            v,
        }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Apply one epoch of exponential LR decay.
    pub fn decay_lr(&mut self) {
        self.lr *= self.cfg.lr_decay;
    }

    /// Number of steps taken.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// One optimization step of `store`'s weights along the gradients
    /// accumulated in `grads` (which it leaves untouched; zero them with
    /// [`GradShard::zero`] before the next backward accumulation).
    pub fn step(&mut self, store: &mut ParamStore, grads: &GradShard) {
        self.t += 1;
        let b1 = self.cfg.beta1;
        let b2 = self.cfg.beta2;
        // Saturating keeps the bias correction total; by i32::MAX steps the
        // correction factor is exactly 1 anyway.
        let t = i32::try_from(self.t).unwrap_or(i32::MAX);
        let bc1 = 1.0 - b1.powi(t);
        let bc2 = 1.0 - b2.powi(t);
        // L2 penalty folded into the gradient.
        let wd = self.cfg.weight_decay;
        for (idx, (m, v)) in self.m.iter_mut().zip(&mut self.v).enumerate() {
            let id = ParamId(idx);
            let w = store.value_mut(id);
            for (((wi, mi), vi), &g) in w
                .data_mut()
                .iter_mut()
                .zip(m.data_mut())
                .zip(v.data_mut())
                .zip(grads.grad(id).data())
            {
                let gi = g + wd * *wi;
                *mi = b1 * *mi + (1.0 - b1) * gi;
                *vi = b2 * *vi + (1.0 - b2) * gi * gi;
                let mh = *mi / bc1;
                let vh = *vi / bc2;
                *wi -= self.lr * mh / (vh.sqrt() + self.cfg.eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Tape;

    /// Minimize (w - 3)^2; Adam should converge near 3.
    #[test]
    fn converges_on_quadratic() {
        let mut store = ParamStore::new();
        let w = store
            .add("w", (1, 1), || Mat::from_vec(1, 1, vec![-2.0]))
            .unwrap();
        let mut adam = Adam::new(
            AdamConfig {
                lr: 0.1,
                weight_decay: 0.0,
                ..Default::default()
            },
            &store,
        );
        let mut grads = store.grad_shard();
        for _ in 0..300 {
            grads.zero();
            let mut t = Tape::eval();
            let wv = t.param(&store, w);
            let c = t.input(Mat::from_vec(1, 1, vec![3.0]));
            let d = t.sub(wv, c);
            let d2 = t.mul(d, d);
            let l = t.sum_all(d2);
            t.backward(l, &mut grads);
            adam.step(&mut store, &grads);
        }
        let final_w = store.value(w).scalar();
        assert!((final_w - 3.0).abs() < 0.05, "w = {final_w}");
        assert_eq!(adam.steps(), 300);
    }

    #[test]
    fn lr_decay_shrinks_rate() {
        let store = ParamStore::new();
        let mut adam = Adam::new(AdamConfig::default(), &store);
        let lr0 = adam.lr();
        adam.decay_lr();
        assert!(adam.lr() < lr0);
        assert!((adam.lr() - lr0 * 0.95).abs() < 1e-9);
    }

    #[test]
    fn weight_decay_pulls_toward_zero() {
        let mut store = ParamStore::new();
        let w = store
            .add("w", (1, 1), || Mat::from_vec(1, 1, vec![5.0]))
            .unwrap();
        let mut adam = Adam::new(
            AdamConfig {
                lr: 0.05,
                weight_decay: 0.5,
                ..Default::default()
            },
            &store,
        );
        // zero loss gradient; only decay acts
        let grads = store.grad_shard();
        for _ in 0..100 {
            adam.step(&mut store, &grads);
        }
        assert!(store.value(w).scalar().abs() < 4.0);
    }
}
