//! LSS training losses: Eq. (3) (log-scale MSE regression), Eq. (5)
//! (count-magnitude cross-entropy), Eq. (6) (multi-task combination).

use crate::mat::Mat;
use crate::tape::{Tape, Var};

/// Eq. (3): `L_reg = 1/|Q| Σ (log c(q) − log c_Θ(q))²`.
///
/// `pred_log` is a `k × 1` node of log10-scale predictions;
/// `target_log` are the log10-scale true counts.
pub fn mse_log_loss(tape: &mut Tape, pred_log: Var, target_log: &[f32]) -> Var {
    let k = tape.value(pred_log).rows();
    assert_eq!(k, target_log.len(), "batch size mismatch");
    assert_eq!(tape.value(pred_log).cols(), 1, "pred must be k×1");
    let t = tape.input(Mat::from_vec(k, 1, target_log.to_vec()));
    let d = tape.sub(pred_log, t);
    let d2 = tape.mul(d, d);
    tape.mean_all(d2)
}

/// Eq. (5): mean cross-entropy of the magnitude classifier.
///
/// `logits` is `k × m`; `target_class[i] ∈ 0..m` is the true magnitude
/// bucket (the empirical distribution `p(y|q)` is the point mass at
/// `⌊log10 c(q)⌋` clamped to `m−1`).
pub fn cross_entropy_loss(tape: &mut Tape, logits: Var, target_class: &[usize]) -> Var {
    let (k, m) = tape.value(logits).shape();
    assert_eq!(k, target_class.len(), "batch size mismatch");
    let logp = tape.log_softmax_rows(logits);
    let mut onehot = Mat::zeros(k, m);
    for (i, &c) in target_class.iter().enumerate() {
        assert!(c < m, "target class {c} out of range (m={m})");
        onehot.set(i, c, 1.0);
    }
    let oh = tape.input(onehot);
    let picked = tape.mul(logp, oh);
    let s = tape.sum_all(picked);
    // mean over batch, negated
    tape.scale(s, -1.0 / k as f32)
}

/// Eq. (6): `L = (1−λ) L_reg + λ L_cla`.
pub fn multi_task_loss(tape: &mut Tape, reg: Var, cla: Var, lambda: f32) -> Var {
    assert!((0.0..=1.0).contains(&lambda), "λ must be in [0,1]");
    let a = tape.scale(reg, 1.0 - lambda);
    let b = tape.scale(cla, lambda);
    tape.add(a, b)
}

/// Magnitude bucket of a true count: `clamp(⌊log10 max(c,1)⌋, 0, m−1)`.
pub fn magnitude_class(count: f64, num_classes: usize) -> usize {
    let c = count.max(1.0);
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "log10 of a finite f64 ≥ 1 lies in [0, 309)"
    )]
    let magnitude = c.log10().floor().clamp(0.0, 308.0) as usize;
    magnitude.min(num_classes.saturating_sub(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::ParamStore;

    #[test]
    fn mse_log_of_exact_prediction_is_zero() {
        let mut t = Tape::eval();
        let p = t.input(Mat::from_vec(2, 1, vec![3.0, 5.0]));
        let l = mse_log_loss(&mut t, p, &[3.0, 5.0]);
        assert!(t.value(l).scalar().abs() < 1e-9);
    }

    #[test]
    fn mse_log_penalizes_symmetrically() {
        let mut t = Tape::eval();
        let over = t.input(Mat::from_vec(1, 1, vec![4.0]));
        let l_over = mse_log_loss(&mut t, over, &[3.0]);
        let under = t.input(Mat::from_vec(1, 1, vec![2.0]));
        let l_under = mse_log_loss(&mut t, under, &[3.0]);
        assert!((t.value(l_over).scalar() - t.value(l_under).scalar()).abs() < 1e-9);
    }

    #[test]
    fn cross_entropy_prefers_correct_class() {
        let mut t = Tape::eval();
        let good = t.input(Mat::from_vec(1, 3, vec![10.0, 0.0, 0.0]));
        let lg = cross_entropy_loss(&mut t, good, &[0]);
        let bad = t.input(Mat::from_vec(1, 3, vec![0.0, 10.0, 0.0]));
        let lb = cross_entropy_loss(&mut t, bad, &[0]);
        assert!(t.value(lg).scalar() < t.value(lb).scalar());
        assert!(t.value(lg).scalar() >= 0.0);
    }

    #[test]
    fn multi_task_blend() {
        let mut t = Tape::eval();
        let r = t.input(Mat::from_vec(1, 1, vec![3.0]));
        let c = t.input(Mat::from_vec(1, 1, vec![9.0]));
        let l = multi_task_loss(&mut t, r, c, 1.0 / 3.0);
        assert!((t.value(l).scalar() - (2.0 / 3.0 * 3.0 + 1.0 / 3.0 * 9.0)).abs() < 1e-5);
    }

    #[test]
    fn magnitude_buckets() {
        assert_eq!(magnitude_class(1.0, 10), 0);
        assert_eq!(magnitude_class(9.0, 10), 0);
        assert_eq!(magnitude_class(10.0, 10), 1);
        assert_eq!(magnitude_class(12345.0, 10), 4);
        assert_eq!(magnitude_class(1e15, 10), 9); // clamped
        assert_eq!(magnitude_class(0.0, 10), 0); // c < 1 clamps to 1
    }

    #[test]
    fn losses_are_differentiable() {
        let mut store = ParamStore::new();
        let w = store
            .add("w", (1, 1), || Mat::from_vec(1, 1, vec![2.0]))
            .unwrap();
        let mut grads = store.grad_shard();
        let mut t = Tape::eval();
        let wv = t.param(&store, w);
        let l = mse_log_loss(&mut t, wv, &[5.0]);
        t.backward(l, &mut grads);
        // d/dw (w-5)^2 = 2(w-5) = -6
        assert!((grads.grad(w).scalar() + 6.0).abs() < 1e-5);
    }
}
