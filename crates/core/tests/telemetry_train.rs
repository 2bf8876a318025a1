//! Integration test: training emits one well-formed `train.epoch` telemetry
//! event per epoch through an installed capturing sink.

use alss_core::train::{encode_workload_with, finetune_model, train_model, TrainConfig};
use alss_core::{Encoder, LabeledQuery, LssConfig, LssModel, Parallelism, Workload};
use alss_graph::builder::graph_from_edges;
use alss_telemetry::test_support::with_capture;
use alss_telemetry::Event;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde_json::Value;

fn tiny_setup() -> (LssModel, Vec<(alss_core::EncodedQuery, u64)>) {
    let data = graph_from_edges(&[0, 0, 1, 1, 2], &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]);
    let enc = Encoder::frequency(&data, 3);
    let mut rng = SmallRng::seed_from_u64(7);
    let model = LssModel::new(LssConfig::tiny(), enc.node_dim(), enc.edge_dim(), &mut rng);
    let queries = vec![
        LabeledQuery::new(graph_from_edges(&[0, 1], &[(0, 1)]), 100),
        LabeledQuery::new(graph_from_edges(&[0, 0, 1], &[(0, 1), (1, 2)]), 1_000),
        LabeledQuery::new(graph_from_edges(&[1, 1, 2], &[(0, 1), (1, 2)]), 2_000),
    ];
    let items = encode_workload_with(&enc, &Workload::from_queries(queries), Parallelism::auto());
    (model, items)
}

fn field_f64(fields: &[(String, Value)], key: &str) -> f64 {
    match fields.iter().find(|(k, _)| k == key) {
        Some((_, Value::Float(v))) => *v,
        other => panic!("field {key}: expected Float, got {other:?}"),
    }
}

fn field_u64(fields: &[(String, Value)], key: &str) -> u64 {
    match fields.iter().find(|(k, _)| k == key) {
        Some((_, Value::UInt(v))) => *v,
        other => panic!("field {key}: expected UInt, got {other:?}"),
    }
}

#[test]
fn train_emits_one_epoch_event_per_epoch() {
    let epochs = 4;
    let (mut model, items) = tiny_setup();
    let cfg = TrainConfig::quick(epochs);
    let (report, events) = with_capture(|| train_model(&mut model, &items, &cfg));
    assert_eq!(report.epoch_losses.len(), epochs);

    let epoch_events: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            Event::Point { name, fields } if *name == "train.epoch" => Some(fields),
            _ => None,
        })
        .collect();
    assert_eq!(
        epoch_events.len(),
        epochs,
        "one train.epoch event per epoch"
    );

    for (i, fields) in epoch_events.iter().enumerate() {
        assert_eq!(field_u64(fields, "epoch"), i as u64, "epochs in order");
        let loss = field_f64(fields, "loss");
        assert!(loss.is_finite() && loss >= 0.0, "loss well-formed: {loss}");
        let grad_norm = field_f64(fields, "grad_norm");
        assert!(
            grad_norm.is_finite() && grad_norm > 0.0,
            "grad norm well-formed: {grad_norm}"
        );
        let lr = field_f64(fields, "lr");
        assert!(lr.is_finite() && lr > 0.0, "lr well-formed: {lr}");
        // Events must mirror the report the caller gets back.
        assert!(
            (loss - report.epoch_losses[i]).abs() < 1e-12,
            "event loss matches report"
        );
    }

    // The enclosing span is emitted once the function returns.
    assert!(
        events
            .iter()
            .any(|e| matches!(e, Event::Span { name, .. } if *name == "train")),
        "train span emitted"
    );
}

#[test]
fn train_emits_parallel_speedup_event_per_epoch() {
    let epochs = 3;
    let (mut model, items) = tiny_setup();
    let mut cfg = TrainConfig::quick(epochs);
    cfg.parallelism = alss_core::Parallelism::fixed(2);
    let (_report, events) = with_capture(|| train_model(&mut model, &items, &cfg));

    let speedup_events: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            Event::Point { name, fields } if *name == "train.parallel_speedup" => Some(fields),
            _ => None,
        })
        .collect();
    assert_eq!(
        speedup_events.len(),
        epochs,
        "one train.parallel_speedup event per epoch"
    );
    for (i, fields) in speedup_events.iter().enumerate() {
        assert_eq!(field_u64(fields, "epoch"), i as u64, "epochs in order");
        assert_eq!(field_u64(fields, "threads"), 2);
        let speedup = field_f64(fields, "speedup");
        assert!(speedup.is_finite() && speedup > 0.0, "speedup: {speedup}");
        let items_us = field_f64(fields, "items_us");
        let wall_us = field_f64(fields, "wall_us");
        assert!(items_us > 0.0 && wall_us > 0.0, "timings recorded");
    }
}

#[test]
fn finetune_emits_epoch_events_under_finetune_span() {
    let (mut model, items) = tiny_setup();
    let cfg = TrainConfig::quick(2);
    let (_report, events) = with_capture(|| finetune_model(&mut model, &items, &cfg, 11));

    let n_epoch_events = events
        .iter()
        .filter(|e| matches!(e, Event::Point { name, .. } if *name == "train.epoch"))
        .count();
    assert_eq!(n_epoch_events, 2);
    // The train span nests under finetune: its path reflects the stack.
    assert!(events.iter().any(
        |e| matches!(e, Event::Span { name, path, .. } if *name == "train" && path == "finetune/train")
    ));
    assert!(events
        .iter()
        .any(|e| matches!(e, Event::Span { name, .. } if *name == "finetune")));
}
