//! Property tests: every differentiable path through the tape agrees
//! with central finite differences on random inputs, and algebraic
//! identities of the `Mat` kernels hold.

// Test code opts back out of the library panic/numeric policy: a panic IS
// the failure report here, and fixtures are tiny.
#![allow(
    clippy::unwrap_used,
    clippy::float_cmp,
    clippy::cast_possible_truncation
)]

use alss_nn::gradcheck::check_gradients;
use alss_nn::{Activation, Mat, Mlp, ParamStore, SelfAttention, Tape};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn small_mat(rows: usize, cols: usize) -> impl Strategy<Value = Mat> {
    proptest::collection::vec(-1.0f32..1.0, rows * cols)
        .prop_map(move |v| Mat::from_vec(rows, cols, v))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn matmul_distributes_over_addition(
        a in small_mat(3, 4),
        b in small_mat(4, 2),
        c in small_mat(4, 2),
    ) {
        // A(B + C) == AB + AC
        let mut bc = b.clone();
        bc.add_assign(&c);
        let lhs = a.matmul(&bc);
        let mut rhs = a.matmul(&b);
        rhs.add_assign(&a.matmul(&c));
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn transpose_reverses_matmul(a in small_mat(3, 4), b in small_mat(4, 2)) {
        // (AB)^T == B^T A^T
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn tape_gradients_match_finite_differences(
        x in small_mat(2, 3),
        seed in 0u64..1000,
    ) {
        // random tanh MLP; smooth everywhere so finite differences are valid
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(&mut store, "m", &[3, 5, 2], Activation::Tanh, 0.0, &mut rng).unwrap();
        let report = check_gradients(&mut store, 1e-2, |t, s| {
            let xv = t.input(x.clone());
            let masks = mlp.dropout_masks(t, 2);
            let y = mlp.forward(t, s, xv, None, masks);
            let sq = t.mul(y, y);
            t.mean_all(sq)
        });
        prop_assert!(report.max_rel_err < 3e-2, "{:?}", report);
    }

    #[test]
    fn attention_gradients_match_finite_differences(
        h in small_mat(4, 3),
        seed in 0u64..1000,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let att = SelfAttention::new(&mut store, "a", 3, 4, 2, &mut rng).unwrap();
        let report = check_gradients(&mut store, 1e-2, |t, s| {
            let hv = t.input(h.clone());
            let (eq, _) = att.forward(t, s, hv);
            let sq = t.mul(eq, eq);
            t.mean_all(sq)
        });
        prop_assert!(report.max_rel_err < 3e-2, "{:?}", report);
    }

    #[test]
    fn composed_tape_ops_gradcheck(
        a in small_mat(2, 2),
        b in small_mat(2, 2),
        seed in 0u64..1000,
    ) {
        // exercise add_row / sub / concat_cols / slice / transpose grads
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        use alss_nn::init::xavier_uniform;
        let w = store.add("w", (2, 2), || xavier_uniform(2, 2, &mut rng)).unwrap();
        let bias = store.add("b", (1, 4), || xavier_uniform(1, 4, &mut rng)).unwrap();
        let report = check_gradients(&mut store, 1e-2, |t, s| {
            let wv = t.param(s, w);
            let bv = t.param(s, bias);
            let av = t.input(a.clone());
            let bv2 = t.input(b.clone());
            let prod = t.matmul(av, wv, None);     // 2×2
            let diff = t.sub(prod, bv2);           // 2×2
            let cc = t.concat_cols(diff, prod);    // 2×4
            let shifted = t.add_row(cc, bv, None); // broadcast bias
            let tr = t.transpose(shifted);         // 4×2
            let sl = t.slice_cols(tr, 0, 2);       // 4×2
            let th = t.tanh(sl);
            let sq = t.mul(th, th);
            t.mean_all(sq)
        });
        prop_assert!(report.max_rel_err < 3e-2, "{:?}", report);
    }

    #[test]
    fn softmax_cross_entropy_grads(
        x in small_mat(2, 4),
        cls in proptest::collection::vec(0usize..4, 2),
        seed in 0u64..1000,
    ) {
        use alss_nn::loss::cross_entropy_loss;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        use alss_nn::init::xavier_uniform;
        let w = store.add("w", (4, 4), || xavier_uniform(4, 4, &mut rng)).unwrap();
        let report = check_gradients(&mut store, 1e-2, |t, s| {
            let wv = t.param(s, w);
            let xv = t.input(x.clone());
            let logits = t.matmul(xv, wv, None);
            cross_entropy_loss(t, logits, &cls)
        });
        prop_assert!(report.max_rel_err < 3e-2, "{:?}", report);
    }
}

#[test]
fn dropout_train_scales_expectation() {
    // with keep prob 1−p and 1/(1−p) scaling, the expected output equals
    // the input; check empirically over many masks
    let x = Mat::full(1, 1000, 1.0);
    let mut acc = vec![0.0f64; 1000];
    let trials = 200;
    for trial in 0..trials {
        let mut t = Tape::train(SmallRng::seed_from_u64(trial));
        let xv = t.input(x.clone());
        let mask = t.dropout_mask(1000, 0.3);
        let d = t.dropout(xv, mask);
        for (a, &v) in acc.iter_mut().zip(t.value(d).data()) {
            *a += v as f64;
        }
    }
    let mean: f64 = acc.iter().map(|a| a / trials as f64).sum::<f64>() / 1000.0;
    assert!((mean - 1.0).abs() < 0.05, "dropout expectation {mean}");
}
