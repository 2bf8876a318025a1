//! The checkpoint format: a sketch stores its encoder, its model config
//! and its weights, and rebuilds the layers on load. A checkpoint written
//! before that layout (which also stored every layer's wiring) loads to
//! the same predictions, bit for bit, and re-saves to the file training
//! writes now; a corrupt one either fails to load or still predicts finite
//! values.

#![allow(clippy::unwrap_used)]

use alss_core::{
    EncodingKind, LabeledQuery, LearnedSketch, LssConfig, SketchConfig, TrainConfig, Workload,
};
use alss_graph::{Graph, GraphBuilder};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde_json::Value;

/// A checkpoint of [`inputs`], written by the layout that also stored
/// each layer's wiring (`ParamId`s, widths, activations, GIN `eps`,
/// attention `d`/`da`/`r`, parameter names) and the encoder's label
/// counts.
const WIRED: &str = include_str!("fixtures/wired_sketch.json");

/// [`WIRED`], loaded and saved again, as the layout of
/// [`LearnedSketch::to_json`] wrote it when [`WIRED`] was first re-saved:
/// pins the writer's bytes, which comparing two of its outputs cannot.
const RESAVED: &str = include_str!("fixtures/resaved_sketch.json");

/// What [`WIRED`] predicted for each workload query when it was written:
/// the bits of `log10_count`, then of each class probability.
const WIRED_PREDICTIONS: [(u64, [u64; 4]); 6] = [
    (
        0x3fc95b8100000000,
        [
            0x3fd2e953a0000000,
            0x3fc6a65b20000000,
            0x3fc9e29ac0000000,
            0x3fd4d23160000000,
        ],
    ),
    (
        0xbfa1b30da0000000,
        [
            0x3fd1268b60000000,
            0x3fcdf02340000000,
            0x3fce48e8e0000000,
            0x3fd0bceea0000000,
        ],
    ),
    (
        0xbfb6380a60000000,
        [
            0x3fd22a45e0000000,
            0x3fcb89c480000000,
            0x3fcbdebdc0000000,
            0x3fd2217900000000,
        ],
    ),
    (
        0xbfd556a800000000,
        [
            0x3fd5b1c500000000,
            0x3fca9e8fc0000000,
            0x3fc75d2920000000,
            0x3fd1505ec0000000,
        ],
    ),
    (
        0xbfcb234dc0000000,
        [
            0x3fd44387e0000000,
            0x3fc7c78e80000000,
            0x3fc778cc40000000,
            0x3fd41c4ac0000000,
        ],
    ),
    (
        0x3fc4097900000000,
        [
            0x3fd13e9e60000000,
            0x3fc3737380000000,
            0x3fce7005a0000000,
            0x3fd5cfa540000000,
        ],
    ),
];

/// A query's node labels, its edges `(u, v, edge label)`, and its count.
type Query<'a> = (&'a [u32], &'a [(u32, u32, u32)], u64);

/// A graph with node labels `labels` and edges `(u, v, edge label)`.
fn graph(labels: &[u32], edges: &[(u32, u32, u32)]) -> Graph {
    let mut b = GraphBuilder::new(labels.len());
    b.set_labels(labels);
    for &(u, v, l) in edges {
        b.add_labeled_edge(u, v, l);
    }
    b.build()
}

/// What the fixture was trained from: an edge-labeled data graph, a
/// workload of edge-labeled queries over it, and a concatenated-encoding
/// config small enough for a checkpoint of a few KB. The encoding covers
/// both the frequency features and the label-embedding table.
fn inputs() -> (Graph, Workload, SketchConfig) {
    let data = graph(
        &[0, 1, 2, 0, 1, 2, 0, 1],
        &[
            (0, 1, 0),
            (1, 2, 1),
            (2, 3, 0),
            (3, 4, 1),
            (4, 5, 0),
            (5, 6, 1),
            (6, 7, 0),
            (7, 0, 1),
            (1, 5, 0),
            (2, 6, 1),
        ],
    );
    let queries: [Query<'_>; 6] = [
        (&[0, 1], &[(0, 1, 0)], 3),
        (&[1, 2], &[(0, 1, 1)], 2),
        (&[0, 1, 2], &[(0, 1, 0), (1, 2, 1)], 2),
        (&[2, 0, 1], &[(0, 1, 0), (1, 2, 1)], 1),
        (&[0, 1, 2, 0], &[(0, 1, 0), (1, 2, 1), (2, 3, 0)], 1),
        (&[1, 1], &[(0, 1, 0)], 1),
    ];
    let workload = Workload::from_queries(
        queries
            .iter()
            .map(|&(labels, edges, count)| LabeledQuery::new(graph(labels, edges), count))
            .collect(),
    );
    let cfg = SketchConfig {
        encoding: EncodingKind::Concatenated,
        hops: 2,
        model: LssConfig {
            hidden: 4,
            gnn_layers: 2,
            dropout: 0.1,
            att_hidden: 4,
            att_heads: 2,
            mlp_hidden: 4,
            num_classes: 4,
            ..LssConfig::tiny()
        },
        train: TrainConfig::quick(3),
        prone_dim: 4,
        seed: 3,
    };
    (data, workload, cfg)
}
/// Each workload query's prediction as bits, in [`WIRED_PREDICTIONS`]'s
/// shape.
fn prediction_bits(sketch: &LearnedSketch, workload: &Workload) -> Vec<(u64, [u64; 4])> {
    workload
        .queries
        .iter()
        .map(|q| {
            let p = sketch.predict(&q.graph);
            let probs: Vec<u64> = p.class_probs.iter().map(|x| x.to_bits()).collect();
            (
                p.log10_count.to_bits(),
                probs.try_into().expect("four classes"),
            )
        })
        .collect()
}

#[test]
fn a_wired_checkpoint_loads_to_the_same_predictions() {
    let (_, workload, _) = inputs();
    let sketch = LearnedSketch::from_json(WIRED).expect("the wired checkpoint loads");
    assert_eq!(prediction_bits(&sketch, &workload), WIRED_PREDICTIONS);
}

#[test]
fn a_wired_checkpoint_resaves_to_the_file_training_writes() {
    let (data, workload, cfg) = inputs();
    let resaved = LearnedSketch::from_json(WIRED).unwrap().to_json();
    assert!(resaved == RESAVED, "the writer's bytes changed");
    let (trained, _) = LearnedSketch::train(&data, &workload, &cfg);
    assert_eq!(resaved, trained.to_json());
    assert!(resaved.len() < WIRED.len());
}

#[test]
fn a_checkpoint_holds_the_encoder_the_config_and_the_weights_only() {
    let json = LearnedSketch::from_json(WIRED).unwrap().to_json();
    let value: Value = serde_json::from_str(&json).unwrap();
    let keys = |v: &Value| -> Vec<String> {
        v.as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.clone())
            .collect()
    };
    assert_eq!(keys(&value), ["encoder", "model"]);
    let encoder = value.get("encoder").unwrap();
    assert_eq!(keys(encoder), ["kind", "stats", "label_embedding", "hops"]);
    let model = value.get("model").unwrap();
    assert_eq!(keys(model), ["cfg", "store"]);
    assert_eq!(keys(model.get("store").unwrap()), ["values"]);
}

/// `WIRED`, parsed, edited by `edit`, and rendered.
fn edited(edit: impl FnOnce(&mut Value)) -> String {
    let mut value: Value = serde_json::from_str(WIRED).unwrap();
    edit(&mut value);
    serde_json::to_string(&value)
}

/// The value at `path` (object keys and array indices) of a JSON tree.
fn at_mut<'a>(mut v: &'a mut Value, path: &[&str]) -> &'a mut Value {
    for key in path {
        v = match v {
            Value::Object(pairs) => &mut pairs.iter_mut().find(|(k, _)| k == key).expect(key).1,
            Value::Array(items) => &mut items[key.parse::<usize>().expect(key)],
            other => panic!("{key}: not a container but {}", other.kind()),
        };
    }
    v
}

#[test]
fn keys_that_are_no_longer_read_do_not_change_a_prediction() {
    let (_, workload, _) = inputs();
    let in_dim = [
        "model", "gin", "layers", "0", "mlp", "layers", "0", "in_dim",
    ];
    for path in [
        &in_dim[..],
        &["model", "att", "r"],
        &["model", "att", "w1"],
        &["encoder", "num_labels"],
    ] {
        let json = edited(|v| *at_mut(v, path) = Value::UInt(99));
        let sketch = LearnedSketch::from_json(&json).unwrap();
        assert_eq!(
            prediction_bits(&sketch, &workload),
            WIRED_PREDICTIONS,
            "{path:?}"
        );
    }
}

#[test]
fn corrupt_checkpoints_fail_to_load_naming_the_field() {
    let float = |x: f64| Value::Float(x);
    let cases: [(&[&str], Value, &str); 9] = [
        (
            &["encoder", "label_embedding", "1"],
            Value::Array(vec![float(0.5); 3]),
            "encoder: label_embedding[1]: 3 values where row 0 has 4",
        ),
        (
            &["model", "cfg", "num_classes"],
            Value::UInt(40),
            "model.store.values[12] (lss.mlp.l1.w): a 4×5 matrix where the layer needs 4×41",
        ),
        (
            &["model", "store", "values", "0", "data", "2"],
            float(1e39),
            "model.store.values[0] (lss.gin.gin0.l0.w): value 2 is not finite",
        ),
        (
            &["model", "store", "values", "8"],
            Value::UInt(99),
            "model.store.values[8]: ",
        ),
        (
            &["model", "cfg", "gnn_layers"],
            Value::UInt(0),
            "model.cfg.gnn_layers: ",
        ),
        // A config number that is `null` or past `f32` does not load.
        (
            &["model", "cfg", "lambda"],
            Value::Null,
            "model.cfg.lambda: expected number, found null",
        ),
        (
            &["model", "cfg", "lambda"],
            float(1e39),
            "model.cfg.lambda: 1e39 is not a finite f32",
        ),
        (
            &["model", "cfg", "dropout"],
            Value::Null,
            "model.cfg.dropout: expected number, found null",
        ),
        (
            &["model", "cfg", "dropout"],
            float(1e39),
            "model.cfg.dropout: 1e39 is not a finite f32",
        ),
    ];
    for (path, value, error) in cases {
        let json = edited(|v| *at_mut(v, path) = value);
        let Err(e) = LearnedSketch::from_json(&json) else {
            panic!("{path:?}: the checkpoint loads");
        };
        assert!(e.to_string().starts_with(error), "{path:?}: {e}");
    }
    let json = edited(|v| {
        let Value::Array(values) = at_mut(v, &["model", "store", "values"]) else {
            panic!("values is not an array");
        };
        values.push(values[0].clone());
    });
    let e = LearnedSketch::from_json(&json)
        .err()
        .expect("a leftover weight");
    assert_eq!(
        e.to_string(),
        "model.store.values[14]: a leftover weight that no layer asks for"
    );
}

#[test]
fn absurd_model_sizes_fail_at_once() {
    for (key, n) in [
        ("hidden", 1_000_000_000_000u64),
        ("gnn_layers", 1_000_000_000),
    ] {
        let json = edited(|v| *at_mut(v, &["model", "cfg", key]) = Value::UInt(n));
        let started = std::time::Instant::now();
        assert!(
            LearnedSketch::from_json(&json).is_err(),
            "{key} = {n} loads"
        );
        let took = started.elapsed();
        assert!(
            took < std::time::Duration::from_secs(1),
            "{key} = {n}: {took:?}"
        );
    }
}

/// Every path to a number or an array in a JSON tree.
fn leaves(v: &Value, path: &mut Vec<String>, out: &mut Vec<Vec<String>>) {
    match v {
        Value::Object(pairs) => {
            for (k, x) in pairs {
                path.push(k.clone());
                leaves(x, path, out);
                path.pop();
            }
        }
        Value::Array(items) => {
            out.push(path.clone());
            for (i, x) in items.iter().enumerate() {
                path.push(i.to_string());
                leaves(x, path, out);
                path.pop();
            }
        }
        Value::Int(_) | Value::UInt(_) | Value::Float(_) => out.push(path.clone()),
        _ => {}
    }
}

#[test]
fn mutated_checkpoints_fail_to_load_or_predict_finite_values() {
    let (_, workload, _) = inputs();
    let checkpoint = LearnedSketch::from_json(WIRED).unwrap().to_json();
    let original: Value = serde_json::from_str(&checkpoint).unwrap();
    let mut targets = Vec::new();
    leaves(&original, &mut Vec::new(), &mut targets);
    let numbers = [
        Value::UInt(0),
        Value::Int(-1),
        Value::UInt(1_000_000_000_000),
        Value::UInt(u64::MAX),
        Value::Float(1e39),
        Value::Null,
    ];
    let mut rng = SmallRng::seed_from_u64(13);
    let (mut rejected, mut loaded) = (0, 0);
    for _ in 0..1000 {
        let path = &targets[rng.gen_range(0..targets.len())];
        let path: Vec<&str> = path.iter().map(String::as_str).collect();
        let mut mutant = original.clone();
        let target = at_mut(&mut mutant, &path);
        match target {
            Value::Array(items) => {
                let keep = if rng.gen_bool(0.5) {
                    0
                } else {
                    items.len().saturating_sub(1)
                };
                items.truncate(keep);
            }
            _ => *target = numbers[rng.gen_range(0..numbers.len())].clone(),
        }
        let json = serde_json::to_string(&mutant);
        let Ok(sketch) = LearnedSketch::from_json(&json) else {
            rejected += 1;
            continue;
        };
        loaded += 1;
        for q in &workload.queries {
            let p = sketch.predict(&q.graph);
            assert!(
                p.log10_count.is_finite(),
                "{path:?}: log10 {}",
                p.log10_count
            );
            assert!(
                p.class_probs.iter().all(|x| x.is_finite()),
                "{path:?}: {:?}",
                p.class_probs
            );
        }
    }
    // Both outcomes occur: an edit that breaks the layout fails, and one
    // that only changes a value (a weight, a label frequency, `hops`)
    // gives a working sketch.
    assert!(
        rejected > 0 && loaded > 0,
        "{rejected} rejected, {loaded} loaded"
    );
}
