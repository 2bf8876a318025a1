//! The packed GIN training pass against a pass over one graph at a time:
//! an exact, platform-independent oracle for the mask order and the
//! per-graph weight-gradient order that keep trained bits unchanged.

use alss_nn::{Activation, Aggregation, GinEncoder, Mat, PackedGraphs, ParamStore, Tape, Var};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Rows `rows` of a deterministic `· × k` input.
fn wave(rows: std::ops::Range<usize>, k: usize, f: f32) -> Mat {
    let n = rows.len();
    let data = rows.flat_map(|r| (0..k).map(move |j| ((r * k + j) as f32 * f).sin()));
    Mat::from_vec(n, k, data.collect())
}

fn bits(m: &Mat) -> Vec<u32> {
    m.data().iter().map(|x| x.to_bits()).collect()
}

/// The packed training forward and backward equal, bit for bit, a
/// pass over one graph at a time, in order, on a tape seeded the same:
/// the same dropout masks, readout rows and accumulated weight
/// gradients. `loss = Σ H ⊙ C` hands both sides the same readout
/// gradient `C`.
#[test]
fn packed_training_matches_a_pass_per_graph_bit_for_bit() {
    let graphs: Vec<Vec<Vec<u32>>> = vec![
        vec![vec![1, 2, 3], vec![0], vec![0], vec![0]],
        vec![vec![]],
        vec![vec![1], vec![0, 2], vec![1]],
        vec![vec![1], vec![0]],
    ];
    let pack = Arc::new(PackedGraphs::new(graphs.clone()));
    let n = pack.num_nodes();
    let (in_dim, hidden) = (3, 5);
    let c = wave(0..graphs.len(), hidden, 2.3);
    for aggregation in [Aggregation::Sum, Aggregation::Mean] {
        for edge_dim in [0, 2] {
            let mut rng = SmallRng::seed_from_u64(8);
            let mut store = ParamStore::new();
            let enc = GinEncoder::new(
                &mut store,
                "g",
                in_dim,
                hidden,
                2,
                edge_dim,
                0.4,
                Activation::Relu,
                aggregation,
                &mut rng,
            )
            .expect("a fresh store builds");
            let inputs = |t: &mut Tape, rows: std::ops::Range<usize>| {
                let x = t.input(wave(rows.clone(), in_dim, 0.7));
                let es = (edge_dim > 0).then(|| t.input(wave(rows, edge_dim, 1.9)));
                (x, es)
            };

            let mut t = Tape::train(SmallRng::seed_from_u64(9));
            let (x, es) = inputs(&mut t, 0..n);
            let h = enc.forward(&mut t, &store, x, &pack, es);
            let cv = t.input(c.clone());
            let hc = t.mul(h, cv);
            let loss = t.sum_all(hc);
            let mut packed = store.grad_shard();
            t.backward(loss, &mut packed);
            let packed_rows = t.value(h).clone();

            let mut t = Tape::train(SmallRng::seed_from_u64(9));
            let mut loss: Option<Var> = None;
            let mut rows = Vec::new();
            for (g, graph) in graphs.iter().enumerate() {
                let one = Arc::new(PackedGraphs::new([graph]));
                let (x, es) = inputs(&mut t, pack.rows(g));
                let h = enc.forward(&mut t, &store, x, &one, es);
                rows.extend(bits(t.value(h)));
                let cv = t.input(wave(g..g + 1, hidden, 2.3));
                let hc = t.mul(h, cv);
                let l = t.sum_all(hc);
                loss = Some(loss.map_or(l, |acc| t.add(acc, l)));
            }
            let mut reference = store.grad_shard();
            t.backward(loss.expect("the pack has graphs"), &mut reference);

            let what = format!("{aggregation:?}, edge_dim {edge_dim}");
            assert_eq!(bits(&packed_rows), rows, "{what}: readout rows");
            assert!(packed.norm() > 0.0, "{what}: gradients vanished");
            for id in store.ids() {
                assert_eq!(
                    bits(packed.grad(id)),
                    bits(reference.grad(id)),
                    "{what}: gradient of {}",
                    store.name(id)
                );
            }
        }
    }
}
