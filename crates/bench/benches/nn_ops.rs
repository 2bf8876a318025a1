//! Criterion: core autograd kernels (matmul forward/backward, GIN
//! aggregation, attention block) at LSS-realistic shapes.

use alss_nn::loss::mse_log_loss;
use alss_nn::{adjacency_from_edges, GinEncoder, Mat, ParamStore, SelfAttention, Tape};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn bench_nn(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(0);
    let mut group = c.benchmark_group("nn_ops");
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(300));

    for n in [64usize, 128] {
        let a = Mat::from_vec(n, n, (0..n * n).map(|_| rng.gen::<f32>()).collect());
        let b = Mat::from_vec(n, n, (0..n * n).map(|_| rng.gen::<f32>()).collect());
        group.bench_with_input(BenchmarkId::new("matmul", n), &n, |bch, _| {
            bch.iter(|| black_box(a.matmul(&b)))
        });
    }

    // GIN forward+backward on a 10-node substructure, 64-dim features
    let mut store = ParamStore::new();
    let gin = GinEncoder::new(&mut store, "g", 64, 64, 3, 0, 0.0, &mut rng);
    let edges: Vec<(u32, u32)> = (1..10u32).map(|i| (i - 1, i)).collect();
    let adj = adjacency_from_edges(10, &edges);
    let feats = Mat::from_vec(10, 64, (0..640).map(|_| rng.gen::<f32>()).collect());
    let mut grads = store.grad_shard();
    let first = store.ids().next().expect("store has params");
    group.bench_function("gin_fwd_bwd_10node_64d", |b| {
        b.iter(|| {
            grads.zero();
            let mut tape = Tape::train(SmallRng::seed_from_u64(1));
            let x = tape.input(feats.clone());
            let h = gin.encode(&mut tape, &store, x, &adj, None);
            // the loss takes a k×1 prediction; reduce the 1×64 readout
            let pred = tape.mean_all(h);
            let loss = mse_log_loss(&mut tape, pred, &[0.5; 1]);
            tape.backward(loss, &mut grads);
            black_box(grads.grad(first).norm())
        })
    });

    // attention aggregation over 12 substructures
    let mut store2 = ParamStore::new();
    let att = SelfAttention::new(&mut store2, "a", 64, 64, 4, &mut rng);
    let h = Mat::from_vec(12, 64, (0..12 * 64).map(|_| rng.gen::<f32>()).collect());
    group.bench_function("attention_12x64", |b| {
        b.iter(|| {
            let mut tape = Tape::eval();
            let hv = tape.input(h.clone());
            let (eq, _) = att.forward(&mut tape, &store2, hv);
            black_box(tape.value(eq).norm())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_nn);
criterion_main!(benches);
