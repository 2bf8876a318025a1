//! Property tests for the finite-difference gradient checker: over random
//! architectures, inputs, and targets, the analytic gradients of every op
//! chain must agree with central differences, and every tensor produced
//! along the way must stay finite.

// Test code opts back out of the library panic/numeric policy: a panic IS
// the failure report here, and fixtures are tiny.
#![allow(
    clippy::unwrap_used,
    clippy::float_cmp,
    clippy::cast_possible_truncation
)]

use alss_nn::gradcheck::check_gradients;
use alss_nn::linear::{Activation, Mlp};
use alss_nn::loss::mse_log_loss;
use alss_nn::mat::Mat;
use alss_nn::param::ParamStore;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

// f32 central differences are noisy; the tolerance tracks the unit tests.
const TOL: f32 = 3e-2;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn random_mlps_pass_gradcheck(
        seed in 0u64..1000,
        hidden in 1usize..6,
        in_dim in 1usize..4,
        rows in 1usize..4,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(
            &mut store,
            "m",
            &[in_dim, hidden, 1],
            Activation::Tanh,
            0.0,
            &mut rng,
        )
        .unwrap();
        // Deterministic pseudo-random inputs/targets derived from the seed.
        let x = Mat::from_vec(
            rows,
            in_dim,
            (0..rows * in_dim)
                .map(|i| ((seed as f32 + i as f32) * 0.37).sin())
                .collect(),
        );
        let targets: Vec<f32> =
            (0..rows).map(|i| 1.0 + ((seed + i as u64) % 7) as f32).collect();
        let report = check_gradients(&mut store, 1e-2, |t, s| {
            let xv = t.input(x.clone());
            let masks = mlp.dropout_masks(t, rows);
            let y = mlp.forward(t, s, xv, None, masks);
            mse_log_loss(t, y, &targets)
        });
        prop_assert!(report.checked > 0);
        prop_assert!(
            report.max_rel_err < TOL,
            "rel err {} over {} weights (seed {seed})",
            report.max_rel_err,
            report.checked
        );
    }

    #[test]
    fn elementwise_chains_pass_gradcheck_and_stay_finite(
        seed in 0u64..1000,
        n in 1usize..6,
        scale in -2.0f32..2.0,
    ) {
        let mut store = ParamStore::new();
        let w = store
            .add("w", (1, n), || {
                Mat::from_vec(1, n, (0..n).map(|i| ((seed + i as u64) as f32 * 0.23).cos()).collect())
            })
            .unwrap();
        let report = check_gradients(&mut store, 1e-3, |t, s| {
            let wv = t.param(s, w);
            let sc = t.scale(wv, scale);
            let th = t.tanh(sc);
            let sq = t.mul(th, th);
            t.mean_all(sq)
        });
        prop_assert!(report.max_rel_err < TOL, "{report:?}");
        // The debug finiteness guards ran on every intermediate tensor as a
        // side effect of building the tapes above; reaching this point means
        // no NaN/Inf was produced.
    }
}
