//! Finite-difference gradient checking.
//!
//! Every autograd op in [`crate::tape`] is validated against central
//! differences; this module provides the harness, used heavily by this
//! crate's tests and available to downstream crates (e.g. `alss-core`
//! grad-checks the full LSS model on tiny inputs).

use crate::param::ParamStore;
use crate::tape::{Tape, Var};

/// Result of a gradient check: maximum relative error observed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GradCheckReport {
    /// Largest relative discrepancy between analytic and numeric gradients.
    pub max_rel_err: f32,
    /// Number of scalar weights checked.
    pub checked: usize,
}

/// Compare analytic parameter gradients against central finite differences.
///
/// `build` must construct a *deterministic* scalar loss on the provided
/// tape. Every tape passed in is a [`Tape::eval`] tape, so dropout is the
/// identity. Analytic gradients accumulate into a fresh [`GradShard`];
/// `store` is only perturbed element by element and restored. Returns the
/// worst relative error `|g_a − g_n| / max(1, |g_a|, |g_n|)`.
///
/// [`GradShard`]: crate::param::GradShard
pub fn check_gradients(
    store: &mut ParamStore,
    eps: f32,
    build: impl Fn(&mut Tape, &ParamStore) -> Var,
) -> GradCheckReport {
    // Analytic gradients.
    let mut grads = store.grad_shard();
    let mut tape = Tape::eval();
    let loss = build(&mut tape, store);
    tape.backward(loss, &mut grads);

    let mut max_rel_err = 0.0f32;
    let mut checked = 0usize;
    for id in store.ids().collect::<Vec<_>>() {
        let n = store.value(id).len();
        for e in 0..n {
            let orig = store.value(id).data()[e];
            store.value_mut(id).data_mut()[e] = orig + eps;
            let mut tp = Tape::eval();
            let lp = build(&mut tp, store);
            let fp = tp.value(lp).scalar();

            store.value_mut(id).data_mut()[e] = orig - eps;
            let mut tm = Tape::eval();
            let lm = build(&mut tm, store);
            let fm = tm.value(lm).scalar();

            store.value_mut(id).data_mut()[e] = orig;

            let numeric = (fp - fm) / (2.0 * eps);
            let a = grads.grad(id).data()[e];
            let rel = (a - numeric).abs() / a.abs().max(numeric.abs()).max(1.0);
            if rel > max_rel_err {
                max_rel_err = rel;
            }
            checked += 1;
        }
    }
    GradCheckReport {
        max_rel_err,
        checked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attention::SelfAttention;
    use crate::gin::{Aggregation, GinEncoder};
    use crate::linear::{Activation, Mlp};
    use crate::loss::{cross_entropy_loss, mse_log_loss, multi_task_loss};
    use crate::mat::Mat;
    use crate::PackedGraphs;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    const TOL: f32 = 2e-2; // f32 finite differences are noisy

    #[test]
    fn gradcheck_mlp_with_mse() {
        let mut rng = SmallRng::seed_from_u64(42);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(&mut store, "m", &[3, 4, 1], Activation::Tanh, 0.0, &mut rng).unwrap();
        let x = Mat::from_vec(2, 3, vec![0.5, -0.2, 0.1, 0.9, 0.4, -0.7]);
        let report = check_gradients(&mut store, 1e-2, |t, s| {
            let xv = t.input(x.clone());
            let masks = mlp.dropout_masks(t, 2);
            let y = mlp.forward(t, s, xv, None, masks);
            mse_log_loss(t, y, &[1.0, 2.0])
        });
        assert!(report.max_rel_err < TOL, "{report:?}");
        assert!(report.checked > 10);
    }

    #[test]
    fn gradcheck_attention() {
        let mut rng = SmallRng::seed_from_u64(43);
        let mut store = ParamStore::new();
        let att = SelfAttention::new(&mut store, "a", 3, 4, 2, &mut rng).unwrap();
        let h = Mat::from_vec(3, 3, vec![0.2, 0.5, -0.3, 0.7, -0.1, 0.4, 0.0, 0.3, 0.9]);
        let report = check_gradients(&mut store, 1e-2, |t, s| {
            let hv = t.input(h.clone());
            let (eq, _) = att.forward(t, s, hv);
            let sq = t.mul(eq, eq);
            t.mean_all(sq)
        });
        assert!(report.max_rel_err < TOL, "{report:?}");
    }

    #[test]
    fn gradcheck_gin_encoder() {
        // one path, then a pack of a star, a one-node graph and a path
        let path: Vec<Vec<u32>> = vec![vec![1], vec![0, 2], vec![1]];
        let star: Vec<Vec<u32>> = vec![vec![1, 2, 3], vec![0], vec![0], vec![0]];
        let single = std::sync::Arc::new(PackedGraphs::new([path.clone()]));
        let pack = std::sync::Arc::new(PackedGraphs::new([star, vec![vec![]], path]));
        // deterministic inputs for the pack's rows
        let wave = |k: usize, f: f32| {
            let n = pack.num_nodes();
            Mat::from_vec(n, k, (0..n * k).map(|i| (i as f32 * f).sin()).collect())
        };
        let x = Mat::from_vec(3, 2, vec![0.4, 0.1, -0.5, 0.8, 0.2, -0.2]);
        let cases = [
            (&single, x, None, Aggregation::Sum),
            (&pack, wave(2, 0.7), None, Aggregation::Sum),
            (&pack, wave(2, 0.7), None, Aggregation::Mean),
            (&pack, wave(2, 0.7), Some(wave(2, 1.3)), Aggregation::Sum),
            (&pack, wave(2, 0.7), Some(wave(2, 1.3)), Aggregation::Mean),
        ];
        for (graphs, x, es, aggregation) in cases {
            let edge_dim = es.as_ref().map_or(0, Mat::cols);
            let mut rng = SmallRng::seed_from_u64(44);
            let mut store = ParamStore::new();
            // tanh activation: ReLU kinks make central differences unreliable
            let enc = GinEncoder::new(
                &mut store,
                "g",
                2,
                3,
                2,
                edge_dim,
                0.0,
                Activation::Tanh,
                aggregation,
                &mut rng,
            )
            .unwrap();
            let report = check_gradients(&mut store, 1e-2, |t, s| {
                let xv = t.input(x.clone());
                let esv = es.clone().map(|m| t.input(m));
                let h = enc.forward(t, s, xv, graphs, esv);
                let sq = t.mul(h, h);
                t.mean_all(sq)
            });
            let what = (graphs.num_graphs(), aggregation, edge_dim);
            assert!(report.max_rel_err < TOL, "{what:?}: {report:?}");
        }
    }

    #[test]
    fn gradcheck_cross_entropy_and_multitask() {
        let mut rng = SmallRng::seed_from_u64(45);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(&mut store, "m", &[2, 5, 4], Activation::Relu, 0.0, &mut rng).unwrap();
        let x = Mat::from_vec(2, 2, vec![0.3, -0.6, 0.8, 0.2]);
        let report = check_gradients(&mut store, 1e-2, |t, s| {
            let xv = t.input(x.clone());
            let masks = mlp.dropout_masks(t, 2);
            let out = mlp.forward(t, s, xv, None, masks);
            let reg = t.slice_cols(out, 0, 1);
            let cla = t.slice_cols(out, 1, 4);
            let lr = mse_log_loss(t, reg, &[0.5, 1.5]);
            let lc = cross_entropy_loss(t, cla, &[0, 2]);
            multi_task_loss(t, lr, lc, 1.0 / 3.0)
        });
        assert!(report.max_rel_err < TOL, "{report:?}");
    }
}
