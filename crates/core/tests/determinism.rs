//! Determinism of the data-parallel training/inference stack: every entry
//! point that fans out over worker threads must produce bit-identical
//! results at any thread count, including 1. Gradients are reduced in
//! batch-position order and dropout streams are keyed by `(seed, epoch,
//! item)`, so the floating-point computation is schedule-independent; this
//! suite is the executable statement of that contract.

use alss_core::model::Aggregator;
use alss_core::train::{
    encode_workload_with, eval_loss_with, evaluate_with, seeded_rng, train_model, TrainConfig,
};
use alss_core::{
    select_batch_with, Encoder, LabeledQuery, LssConfig, LssEnsemble, LssModel, Parallelism,
    Strategy, Workload,
};
use alss_graph::builder::graph_from_edges;
use alss_graph::{Graph, GraphBuilder};
use alss_nn::{AdamConfig, Aggregation, Tape};

fn data_graph() -> Graph {
    graph_from_edges(&[0, 0, 1, 1, 2], &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
}

fn workload() -> Workload {
    let mut qs = Vec::new();
    for (labels, edges, count) in [
        (vec![0u32, 0], vec![(0u32, 1u32)], 10u64),
        (vec![0, 1], vec![(0, 1)], 100),
        (vec![1, 1], vec![(0, 1)], 40),
        (vec![0, 0, 1], vec![(0, 1), (1, 2)], 1_000),
        (vec![0, 1, 2], vec![(0, 1), (1, 2)], 5_000),
        (vec![1, 1, 2], vec![(0, 1), (1, 2)], 2_000),
        (vec![0, 0, 1, 2], vec![(0, 1), (1, 2), (2, 3)], 50_000),
        (vec![0, 1, 1, 2], vec![(0, 1), (1, 2), (2, 3)], 20_000),
        (vec![2, 1, 0], vec![(0, 1), (1, 2)], 700),
        (vec![2, 2], vec![(0, 1)], 5),
    ] {
        qs.push(LabeledQuery::new(graph_from_edges(&labels, &edges), count));
    }
    Workload::from_queries(qs)
}

/// Dropout > 0 so the per-item RNG streams are actually exercised — a
/// schedule-dependent dropout draw is exactly the bug class this guards.
fn dropout_config() -> LssConfig {
    LssConfig {
        dropout: 0.3,
        ..LssConfig::tiny()
    }
}

fn train_config(threads: usize) -> TrainConfig {
    TrainConfig {
        epochs: 6,
        batch_size: 4,
        adam: AdamConfig {
            lr: 5e-3,
            weight_decay: 1e-5,
            lr_decay: 0.98,
            ..Default::default()
        },
        seed: 7,
        parallelism: Parallelism::fixed(threads),
    }
}

fn trained_at(threads: usize) -> (LssModel, Vec<f64>) {
    let enc = Encoder::frequency(&data_graph(), 3);
    let mut rng = seeded_rng(11);
    let mut model = LssModel::new(dropout_config(), enc.node_dim(), enc.edge_dim(), &mut rng);
    let items = encode_workload_with(&enc, &workload(), Parallelism::fixed(threads));
    let report = train_model(&mut model, &items, &train_config(threads));
    (model, report.epoch_losses)
}

fn param_bits(model: &LssModel) -> Vec<u32> {
    let store = model.store();
    store
        .ids()
        .flat_map(|id| store.value(id).data().iter().map(|x| x.to_bits()))
        .collect()
}

#[test]
fn training_is_bit_identical_across_thread_counts() {
    let (serial_model, serial_losses) = trained_at(1);
    let serial_bits = param_bits(&serial_model);
    for threads in [2, 4] {
        let (model, losses) = trained_at(threads);
        let loss_bits: Vec<u64> = losses.iter().map(|l| l.to_bits()).collect();
        let serial_loss_bits: Vec<u64> = serial_losses.iter().map(|l| l.to_bits()).collect();
        assert_eq!(
            loss_bits, serial_loss_bits,
            "epoch losses diverge at threads={threads}"
        );
        assert_eq!(
            param_bits(&model),
            serial_bits,
            "final parameters diverge at threads={threads}"
        );
    }
}

#[test]
fn evaluate_and_eval_loss_match_serial() {
    let (model, _) = trained_at(1);
    let enc = Encoder::frequency(&data_graph(), 3);
    let items = encode_workload_with(&enc, &workload(), Parallelism::serial());
    let serial_eval = evaluate_with(&model, &items, Parallelism::serial());
    let serial_loss = eval_loss_with(&model, &items, Parallelism::serial());
    for threads in [2, 4] {
        let par = Parallelism::fixed(threads);
        let eval = evaluate_with(&model, &items, par);
        assert_eq!(eval.len(), serial_eval.len());
        for (i, (a, b)) in serial_eval.iter().zip(&eval).enumerate() {
            assert_eq!(a.0.to_bits(), b.0.to_bits(), "item {i} true count");
            assert_eq!(a.1.to_bits(), b.1.to_bits(), "item {i} estimate");
        }
        assert_eq!(
            eval_loss_with(&model, &items, par).to_bits(),
            serial_loss.to_bits(),
            "eval_loss diverges at threads={threads}"
        );
    }
}

#[test]
fn encode_workload_is_order_stable() {
    let enc = Encoder::frequency(&data_graph(), 3);
    let w = workload();
    let serial = encode_workload_with(&enc, &w, Parallelism::serial());
    let parallel = encode_workload_with(&enc, &w, Parallelism::fixed(4));
    assert_eq!(serial.len(), parallel.len());
    // EncodedQuery carries no PartialEq; compare the packed graphs, and
    // the stacked feature and edge-sum matrices bitwise.
    let bits = |m: &alss_nn::Mat| m.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(a.1, b.1, "item {i} count");
        assert_eq!(a.0.graphs, b.0.graphs, "item {i} packed graphs");
        assert_eq!(
            bits(&a.0.features),
            bits(&b.0.features),
            "item {i} features"
        );
        assert_eq!(
            a.0.edge_sums.as_ref().map(&bits),
            b.0.edge_sums.as_ref().map(&bits),
            "item {i} edge sums"
        );
    }
}

#[test]
fn select_batch_matches_serial_for_fixed_rng() {
    let (model, _) = trained_at(1);
    let enc = Encoder::frequency(&data_graph(), 3);
    let pool: Vec<_> = workload()
        .queries
        .iter()
        .map(|q| enc.encode_query(&q.graph))
        .collect();
    for strategy in Strategy::all() {
        let mut rng_a = seeded_rng(21);
        let mut rng_b = seeded_rng(21);
        let serial = select_batch_with(
            &model,
            &pool,
            strategy,
            4,
            &mut rng_a,
            Parallelism::serial(),
        );
        let parallel = select_batch_with(
            &model,
            &pool,
            strategy,
            4,
            &mut rng_b,
            Parallelism::fixed(4),
        );
        assert_eq!(serial, parallel, "strategy {}", strategy.name());
    }
}

#[test]
fn ensemble_select_batch_matches_serial() {
    let enc = Encoder::frequency(&data_graph(), 3);
    let models: Vec<LssModel> = (0..2)
        .map(|s| {
            let mut rng = seeded_rng(30 + s);
            LssModel::new(LssConfig::tiny(), enc.node_dim(), enc.edge_dim(), &mut rng)
        })
        .collect();
    let ens = LssEnsemble::new(models);
    let pool: Vec<_> = workload()
        .queries
        .iter()
        .map(|q| enc.encode_query(&q.graph))
        .collect();
    let mut rng_a = seeded_rng(40);
    let mut rng_b = seeded_rng(40);
    let serial = ens.select_batch_with(&pool, 3, &mut rng_a, Parallelism::serial());
    let parallel = ens.select_batch_with(&pool, 3, &mut rng_b, Parallelism::fixed(4));
    assert_eq!(serial, parallel);
}

/// `predict` (the tape-free packed forward) must equal the eval-tape
/// `forward` followed by a softmax of the logits, bit for bit.
fn assert_predict_matches_tape(model: &LssModel, enc: &Encoder, queries: &[Graph], what: &str) {
    for (i, q) in queries.iter().enumerate() {
        let eq = enc.encode_query(q);
        let pred = model.predict(&eq);
        let mut tape = Tape::eval();
        let (reg, logits) = model.forward(&mut tape, &eq);
        let probs = tape.softmax_rows(logits);
        assert_eq!(
            pred.log10_count.to_bits(),
            f64::from(tape.value(reg).scalar()).to_bits(),
            "{what}: query {i} log10_count"
        );
        let tape_probs: Vec<u64> = tape
            .value(probs)
            .row(0)
            .iter()
            .map(|&p| f64::from(p).to_bits())
            .collect();
        let pred_probs: Vec<u64> = pred.class_probs.iter().map(|p| p.to_bits()).collect();
        assert_eq!(pred_probs, tape_probs, "{what}: query {i} class_probs");
    }
}

/// The suite's workload plus a one-node query and two queries whose
/// substructures repeat GIN input rows (all nodes alike), so the forward's
/// row dedup takes effect at every layer.
fn oracle_queries() -> Vec<Graph> {
    let mut qs: Vec<Graph> = workload().queries.iter().map(|q| q.graph.clone()).collect();
    qs.push(graph_from_edges(&[1], &[]));
    qs.push(graph_from_edges(
        &[0, 0, 0, 0],
        &[(0, 1), (1, 2), (2, 3), (3, 0)],
    ));
    qs.push(graph_from_edges(&[1, 0, 0, 0], &[(0, 1), (0, 2), (0, 3)]));
    qs
}

fn trained_with(cfg: LssConfig, enc: &Encoder, workload: &Workload) -> LssModel {
    let mut rng = seeded_rng(11);
    let mut model = LssModel::new(cfg, enc.node_dim(), enc.edge_dim(), &mut rng);
    let items = encode_workload_with(enc, workload, Parallelism::serial());
    train_model(&mut model, &items, &train_config(1));
    model
}

#[test]
fn predict_matches_the_eval_tape_forward_bit_for_bit() {
    let enc = Encoder::frequency(&data_graph(), 3);
    let queries = oracle_queries();
    for aggregator in [Aggregator::Attention, Aggregator::SumPool] {
        for gnn_aggregation in [Aggregation::Sum, Aggregation::Mean] {
            let cfg = LssConfig {
                aggregator,
                gnn_aggregation,
                ..dropout_config()
            };
            let model = trained_with(cfg, &enc, &workload());
            let what = format!("{aggregator:?}/{gnn_aggregation:?}");
            assert_predict_matches_tape(&model, &enc, &queries, &what);
        }
    }
}

#[test]
fn predict_matches_the_eval_tape_forward_with_edge_labels() {
    let labeled = |labels: &[u32], edges: &[(u32, u32, u32)]| {
        let mut b = GraphBuilder::new(labels.len());
        for (v, &l) in (0u32..).zip(labels) {
            b.set_label(v, l);
        }
        for &(u, v, l) in edges {
            b.add_labeled_edge(u, v, l);
        }
        b.build()
    };
    let data = labeled(
        &[0, 0, 1, 1, 2],
        &[(0, 1, 0), (1, 2, 1), (2, 3, 0), (3, 4, 1), (0, 4, 0)],
    );
    let enc = Encoder::frequency(&data, 3);
    assert!(enc.edge_dim() > 0, "the data graph carries edge labels");
    let queries = vec![
        labeled(&[0, 0], &[(0, 1, 0)]),
        labeled(&[0, 1, 1], &[(0, 1, 1), (1, 2, 0)]),
        labeled(&[0, 0, 1, 2], &[(0, 1, 0), (1, 2, 1), (2, 3, 1)]),
        labeled(&[1, 1, 1], &[(0, 1, 0), (1, 2, 0), (2, 0, 0)]),
        labeled(&[2], &[]),
    ];
    let workload = Workload::from_queries(
        queries
            .iter()
            .zip([30u64, 200, 4_000, 60, 3])
            .map(|(q, c)| LabeledQuery::new(q.clone(), c))
            .collect(),
    );
    for gnn_aggregation in [Aggregation::Sum, Aggregation::Mean] {
        let cfg = LssConfig {
            gnn_aggregation,
            ..dropout_config()
        };
        let model = trained_with(cfg, &enc, &workload);
        for q in &queries {
            assert!(enc.encode_query(q).edge_sums.is_some());
        }
        assert_predict_matches_tape(
            &model,
            &enc,
            &queries,
            &format!("edges/{gnn_aggregation:?}"),
        );
    }
}
